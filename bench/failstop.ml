(* E4: fail-stop tolerance (Section 5.4) *)

open Harness

let run () =
  header "E4. Fail-stop tolerance: k ~ n*eps vs k ~ n*eps/2 (Section 5.4)";
  let n = 40 and eps = 0.2 in
  let standard = Params.of_gap ~n ~eps () in
  let fsmode = Params.of_gap ~n ~eps ~fail_stop_mode:true () in
  let circuit = Gen.dot_product ~len:6 in
  let inputs c = Array.init 6 (fun i -> F.of_int ((c + 2) * (i + 1))) in
  let wrong = ref 0 in
  let attempt params dropped =
    let adversary =
      { Params.malicious = params.Params.t; passive = 0; fail_stop = dropped }
    in
    match Params.validate_adversary params adversary with
    | () ->
      let r =
        Protocol.execute ~params
          ~config:(Protocol.config ~adversary ())
          ~circuit ~inputs ()
      in
      if Protocol.check r circuit ~inputs then "delivered"
      else begin
        incr wrong;
        "WRONG"
      end
    | exception Invalid_argument _ -> "infeasible"
  in
  Printf.printf "n = %d, eps = %.2f, t = %d malicious in every committee\n" n eps
    standard.Params.t;
  Printf.printf "%8s | %-22s %-22s\n" "crashes" "standard k=9" "fail-stop-mode k=5";
  List.iter
    (fun d ->
      Printf.printf "%8d | %-22s %-22s\n" d (attempt standard d) (attempt fsmode d))
    [ 0; 1; 2; 4; 6; 8; 9; 10 ];
  Printf.printf "(paper: halving the packing gain buys tolerance of ~n*eps crashes)\n";
  if !wrong > 0 then failwith (Printf.sprintf "failstop: %d cells delivered a wrong output" !wrong)
