module Make (F : Yoso_field.Field.S) = struct
  module Bary = Yoso_field.Barycentric.Make (F)

  type params = {
    n : int;
    k : int;
    secret_slots : F.t array; (* 0, -1, ..., -(k-1) *)
    share_points : F.t array; (* 1, ..., n *)
    (* anchor bases cached per degree: anchors = secret slots followed
       by the first (d + 1 - k) share points *)
    bases : (int, Bary.t) Hashtbl.t;
  }

  let make_params ~n ~k =
    if k < 1 || k > n then invalid_arg "Packed_shamir: need 1 <= k <= n";
    if n >= F.p / 2 then invalid_arg "Packed_shamir: committee too large for field";
    {
      n;
      k;
      secret_slots = Array.init k (fun j -> F.of_int (-j));
      share_points = Array.init n (fun i -> F.of_int (i + 1));
      bases = Hashtbl.create 8;
    }

  let n p = p.n
  let k p = p.k
  let share_point p i = p.share_points.(i)

  type sharing = { degree : int; shares : F.t array }

  let make_sharing ~degree ~shares = { degree; shares }

  let check_degree_range p d =
    if d < p.k - 1 || d > p.n - 1 then
      invalid_arg
        (Printf.sprintf "Packed_shamir: degree %d out of range [%d, %d]" d (p.k - 1)
           (p.n - 1))

  let anchor_base p d =
    match Hashtbl.find_opt p.bases d with
    | Some b -> b
    | None ->
      let extra = d + 1 - p.k in
      let anchors =
        Array.append p.secret_slots (Array.sub p.share_points 0 extra)
      in
      let b = Bary.create anchors in
      Hashtbl.add p.bases d b;
      b

  let share p ~degree ~secrets ~rng =
    check_degree_range p degree;
    if Array.length secrets <> p.k then
      invalid_arg "Packed_shamir.share: secrets length <> k";
    let extra = degree + 1 - p.k in
    let anchor_values =
      Array.append secrets (Array.init extra (fun _ -> F.random rng))
    in
    let base = anchor_base p degree in
    (* the first [extra] share points are anchors themselves *)
    let shares =
      Array.init p.n (fun i ->
          if i < extra then anchor_values.(p.k + i)
          else Bary.eval base ~values:anchor_values p.share_points.(i))
    in
    { degree; shares }

  (* the degree-(k-1) sharing with exactly [vec] at the secret points:
     no randomness, so every party derives the same shares of a public
     vector (Online packs each batch's public mu vectors this way) *)
  let share_public p vec =
    if Array.length vec <> p.k then
      invalid_arg "Packed_shamir.share_public: vector length <> k";
    let base = anchor_base p (p.k - 1) in
    let shares = Array.init p.n (fun i -> Bary.eval base ~values:vec p.share_points.(i)) in
    { degree = p.k - 1; shares }

  let check_same_n p s =
    if Array.length s.shares <> p.n then
      invalid_arg "Packed_shamir: sharing has wrong party count"

  let add p a b =
    check_same_n p a;
    check_same_n p b;
    { degree = max a.degree b.degree; shares = Array.map2 F.add a.shares b.shares }

  let sub p a b =
    check_same_n p a;
    check_same_n p b;
    { degree = max a.degree b.degree; shares = Array.map2 F.sub a.shares b.shares }

  let scale p c s =
    check_same_n p s;
    { s with shares = Array.map (F.mul c) s.shares }

  let mul p a b =
    check_same_n p a;
    check_same_n p b;
    if a.degree + b.degree >= p.n then
      invalid_arg "Packed_shamir.mul: product degree exceeds n - 1";
    { degree = a.degree + b.degree; shares = Array.map2 F.mul a.shares b.shares }

  let mul_public p vec s =
    if s.degree > p.n - p.k then
      invalid_arg "Packed_shamir.mul_public: degree too large (need <= n - k)";
    mul p (share_public p vec) s

  let add_constant p vec s = add p (share_public p vec) s

  let dedup_pairs pairs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (i, _) ->
        if Hashtbl.mem seen i then false
        else begin
          Hashtbl.add seen i ();
          true
        end)
      pairs

  let reconstruct p ~degree pairs =
    check_degree_range p degree;
    let pairs = dedup_pairs pairs in
    if List.length pairs < degree + 1 then
      invalid_arg
        (Printf.sprintf "Packed_shamir.reconstruct: %d shares, need %d"
           (List.length pairs) (degree + 1));
    let chosen = List.filteri (fun idx _ -> idx < degree + 1) pairs in
    let points = Array.of_list (List.map (fun (i, _) -> p.share_points.(i)) chosen) in
    let values = Array.of_list (List.map snd chosen) in
    let base = Bary.create points in
    Array.map (Bary.eval base ~values) p.secret_slots

  let reconstruct_checked p ~degree pairs =
    check_degree_range p degree;
    let pairs = dedup_pairs pairs in
    if List.length pairs < degree + 1 then
      invalid_arg
        (Printf.sprintf "Packed_shamir.reconstruct_checked: %d shares, need %d"
           (List.length pairs) (degree + 1));
    let chosen, rest = (List.filteri (fun idx _ -> idx < degree + 1) pairs,
                        List.filteri (fun idx _ -> idx >= degree + 1) pairs) in
    let points = Array.of_list (List.map (fun (i, _) -> p.share_points.(i)) chosen) in
    let values = Array.of_list (List.map snd chosen) in
    let base = Bary.create points in
    let inconsistent =
      List.filter_map
        (fun (i, v) ->
          if F.equal v (Bary.eval base ~values p.share_points.(i)) then None else Some i)
        rest
    in
    if inconsistent <> [] then Error inconsistent
    else Ok (Array.map (Bary.eval base ~values) p.secret_slots)

  let check_degree p s =
    check_same_n p s;
    if s.degree >= p.n - 1 then true
    else begin
      (* interpolate from the first degree+1 shares, check the rest *)
      let d = s.degree in
      let points = Array.sub p.share_points 0 (d + 1) in
      let values = Array.sub s.shares 0 (d + 1) in
      let base = Bary.create points in
      let ok = ref true in
      for i = d + 1 to p.n - 1 do
        if not (F.equal s.shares.(i) (Bary.eval base ~values p.share_points.(i))) then
          ok := false
      done;
      !ok
    end

  let recover_missing p ~degree pairs target =
    check_degree_range p degree;
    let pairs = dedup_pairs pairs in
    if List.length pairs < degree + 1 then
      invalid_arg "Packed_shamir.recover_missing: not enough shares";
    let chosen = List.filteri (fun idx _ -> idx < degree + 1) pairs in
    let points = Array.of_list (List.map (fun (i, _) -> p.share_points.(i)) chosen) in
    let values = Array.of_list (List.map snd chosen) in
    let base = Bary.create points in
    Bary.eval base ~values p.share_points.(target)
end
