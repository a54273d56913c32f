type security = { k1 : int; k2 : int; k3 : int }

let default_security = { k1 = 64; k2 = 128; k3 = 128 }

type row = {
  c_param : int;
  f : float;
  t : int;
  t_real : float;
  c : int;
  c' : int;
  eps : float;
  k : int;
  eps1 : float;
  eps2 : float;
  eps3 : float;
  delta : float;
}

let ln2 = log 2.0

(* smallest eps solving  denom * eps^2 = a * ln2 * (2 + eps):
   eps = (a ln2 + sqrt(a^2 ln^2 2 + 8 a ln2 denom)) / (2 denom)
   (Eq. (2) solved as a quadratic; matches Eqs. (4)-(5) with
   a = k1+k2+1 resp. k2+1) *)
let solve_slack ~a ~denom =
  let al = float_of_int a *. ln2 in
  (al +. sqrt ((al *. al) +. (8.0 *. al *. denom))) /. (2.0 *. denom)

let solve ?(security = default_security) ~f c_param =
  if c_param <= 0 then invalid_arg "Analysis.solve: C must be positive";
  if f <= 0.0 || f >= 1.0 then invalid_arg "Analysis.solve: f must be in (0, 1)";
  let cf = float_of_int c_param in
  let eps1 = solve_slack ~a:(security.k1 + security.k2 + 1) ~denom:(f *. cf) in
  let eps2 = solve_slack ~a:(security.k2 + 1) ~denom:(f *. (1.0 -. f) *. cf) in
  let b1 = f *. cf *. (1.0 +. eps1) in
  let b2 = f *. (1.0 -. f) *. cf *. (1.0 +. eps2) in
  let t_real = b1 +. b2 +. 1.0 in
  let one_minus_f2 = (1.0 -. f) ** 2.0 in
  (* Eq. (6): feasible iff eps3_min < 1 - delta (t - 1) / ((1-f)^2 C) *)
  let eps3 = sqrt (2.0 *. float_of_int security.k3 *. ln2 /. (cf *. one_minus_f2)) in
  let delta = (1.0 -. eps3) *. one_minus_f2 *. cf /. (b1 +. b2) in
  if delta <= 1.0 then None
  else begin
    let eps = (delta -. 1.0) /. (2.0 *. (delta +. 1.0)) in
    let t = int_of_float t_real in
    let c = int_of_float (t_real /. (0.5 -. eps)) in
    let k = int_of_float (float_of_int c *. eps) in
    Some
      { c_param; f; t; t_real; c; c' = (2 * t) + 1; eps; k; eps1; eps2; eps3; delta }
  end

let table1_grid =
  List.concat_map
    (fun c -> List.map (fun f -> (c, f)) [ 0.05; 0.10; 0.15; 0.20; 0.25 ])
    [ 1000; 5000; 10000; 20000; 40000 ]

let table1 ?(security = default_security) () =
  List.map (fun (c_param, f) -> (c_param, f, solve ~security ~f c_param)) table1_grid

let improvement_claims ?(security = default_security) () =
  let get c_param f =
    match solve ~security ~f c_param with
    | Some r -> r
    | None -> failwith "Analysis.improvement_claims: claimed cell infeasible"
  in
  [
    ("f=5%, C=1000 (28x, ~900 -> ~1000)", get 1000 0.05);
    ("f=20%, C=20000 (>1000x, ~18k -> ~20k)", get 20000 0.2);
  ]
