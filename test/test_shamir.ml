module F = Yoso_field.Field.Fp
module PS = Yoso_shamir.Packed_shamir.Make (F)
module Bary = Yoso_field.Barycentric.Make (F)
module Poly = Yoso_oracles.Poly (F)

let st = Random.State.make [| 0x5A |]

let felt = Alcotest.testable F.pp F.equal

let fvec = Alcotest.(array felt)

let rand_secrets k = Array.init k (fun _ -> F.random st)

let all_pairs (s : PS.sharing) =
  Array.to_list (Array.mapi (fun i v -> (i, v)) s.PS.shares)

(* ------------------------------------------------------------------ *)
(* Barycentric                                                         *)
(* ------------------------------------------------------------------ *)

let test_barycentric_matches_poly () =
  for _ = 1 to 30 do
    let d = 1 + Random.State.int st 10 in
    let p = Poly.random ~degree:d st in
    let nodes = Array.init (d + 1) (fun i -> F.of_int (i + 1)) in
    let b = Bary.create nodes in
    let values = Array.map (Poly.eval p) nodes in
    (* off-node evaluation *)
    let x = F.of_int (Random.State.int st 10_000 + 100) in
    Alcotest.check felt "off-node" (Poly.eval p x) (Bary.eval b ~values x);
    (* on-node evaluation *)
    Alcotest.check felt "on-node" values.(0) (Bary.eval b ~values nodes.(0))
  done

let test_barycentric_duplicates () =
  Alcotest.check_raises "dup nodes"
    (Invalid_argument "Barycentric.create: duplicate nodes") (fun () ->
      ignore (Bary.create [| F.one; F.one |]))

let test_barycentric_eval_many () =
  let p = Poly.random ~degree:3 st in
  let nodes = Array.init 4 (fun i -> F.of_int (i + 1)) in
  let b = Bary.create nodes in
  let values = Array.map (Poly.eval p) nodes in
  let targets = Array.init 6 (fun i -> F.of_int (i + 100)) in
  Alcotest.check fvec "eval_many" (Array.map (Poly.eval p) targets)
    (Bary.eval_many b ~values targets)

(* ------------------------------------------------------------------ *)
(* Share / reconstruct roundtrips                                      *)
(* ------------------------------------------------------------------ *)

let test_share_reconstruct_roundtrip () =
  List.iter
    (fun (n, k) ->
      let p = PS.make_params ~n ~k in
      List.iter
        (fun degree ->
          if degree >= k - 1 && degree <= n - 1 then begin
            let secrets = rand_secrets k in
            let s = PS.share p ~degree ~secrets ~rng:st in
            Alcotest.check fvec
              (Printf.sprintf "n=%d k=%d d=%d" n k degree)
              secrets
              (PS.reconstruct p ~degree (all_pairs s))
          end)
        [ k - 1; k; 2 * k; n / 2; n - 1 ])
    [ (5, 1); (7, 3); (16, 4); (31, 8); (64, 16) ]

let test_reconstruct_from_exactly_d1_shares () =
  let n = 12 and k = 3 in
  let p = PS.make_params ~n ~k in
  let degree = 6 in
  let secrets = rand_secrets k in
  let s = PS.share p ~degree ~secrets ~rng:st in
  (* take an arbitrary subset of exactly degree+1 shares, not a prefix *)
  let subset = List.filteri (fun i _ -> i mod 2 = 1 || i > 8) (all_pairs s) in
  let subset = List.filteri (fun i _ -> i < degree + 1) subset in
  Alcotest.check fvec "subset reconstruct" secrets (PS.reconstruct p ~degree subset)

let test_reconstruct_too_few () =
  let p = PS.make_params ~n:8 ~k:2 in
  let s = PS.share p ~degree:5 ~secrets:(rand_secrets 2) ~rng:st in
  let few = List.filteri (fun i _ -> i < 5) (all_pairs s) in
  Alcotest.check_raises "too few"
    (Invalid_argument "Packed_shamir.reconstruct: 5 shares, need 6") (fun () ->
      ignore (PS.reconstruct p ~degree:5 few))

let test_duplicate_party_shares_ignored () =
  let p = PS.make_params ~n:8 ~k:2 in
  let secrets = rand_secrets 2 in
  let s = PS.share p ~degree:3 ~secrets ~rng:st in
  let pairs = all_pairs s in
  (* prepend duplicates of party 0; they must not count twice *)
  let noisy = (0, s.PS.shares.(0)) :: (0, s.PS.shares.(0)) :: pairs in
  Alcotest.check fvec "dedup" secrets (PS.reconstruct p ~degree:3 noisy)

let test_bad_params () =
  Alcotest.check_raises "k > n" (Invalid_argument "Packed_shamir: need 1 <= k <= n")
    (fun () -> ignore (PS.make_params ~n:3 ~k:4));
  let p = PS.make_params ~n:5 ~k:2 in
  Alcotest.check_raises "degree too small"
    (Invalid_argument "Packed_shamir: degree 0 out of range [1, 4]") (fun () ->
      ignore (PS.share p ~degree:0 ~secrets:(rand_secrets 2) ~rng:st));
  Alcotest.check_raises "degree too large"
    (Invalid_argument "Packed_shamir: degree 5 out of range [1, 4]") (fun () ->
      ignore (PS.share p ~degree:5 ~secrets:(rand_secrets 2) ~rng:st));
  Alcotest.check_raises "wrong secret count"
    (Invalid_argument "Packed_shamir.share: secrets length <> k") (fun () ->
      ignore (PS.share p ~degree:2 ~secrets:(rand_secrets 3) ~rng:st))

(* ------------------------------------------------------------------ *)
(* Homomorphism                                                        *)
(* ------------------------------------------------------------------ *)

let test_linear_homomorphism () =
  let n = 16 and k = 4 in
  let p = PS.make_params ~n ~k in
  let d = 7 in
  for _ = 1 to 20 do
    let x = rand_secrets k and y = rand_secrets k in
    let sx = PS.share p ~degree:d ~secrets:x ~rng:st in
    let sy = PS.share p ~degree:d ~secrets:y ~rng:st in
    let sum = PS.reconstruct p ~degree:d (all_pairs (PS.add p sx sy)) in
    Alcotest.check fvec "add" (Array.map2 F.add x y) sum;
    let diff = PS.reconstruct p ~degree:d (all_pairs (PS.sub p sx sy)) in
    Alcotest.check fvec "sub" (Array.map2 F.sub x y) diff;
    let c = F.random st in
    let scaled = PS.reconstruct p ~degree:d (all_pairs (PS.scale p c sx)) in
    Alcotest.check fvec "scale" (Array.map (F.mul c) x) scaled
  done

let test_share_multiplication () =
  let n = 16 and k = 3 in
  let p = PS.make_params ~n ~k in
  let d1 = 4 and d2 = 5 in
  for _ = 1 to 20 do
    let x = rand_secrets k and y = rand_secrets k in
    let sx = PS.share p ~degree:d1 ~secrets:x ~rng:st in
    let sy = PS.share p ~degree:d2 ~secrets:y ~rng:st in
    let prod = PS.mul p sx sy in
    Alcotest.(check int) "degree adds" (d1 + d2) prod.PS.degree;
    Alcotest.check fvec "pointwise product"
      (Array.map2 F.mul x y)
      (PS.reconstruct p ~degree:(d1 + d2) (all_pairs prod))
  done

let test_mul_degree_overflow () =
  let p = PS.make_params ~n:8 ~k:2 in
  let s1 = PS.share p ~degree:4 ~secrets:(rand_secrets 2) ~rng:st in
  let s2 = PS.share p ~degree:4 ~secrets:(rand_secrets 2) ~rng:st in
  Alcotest.check_raises "degree overflow"
    (Invalid_argument "Packed_shamir.mul: product degree exceeds n - 1") (fun () ->
      ignore (PS.mul p s1 s2))

let test_public_vector_multiplication () =
  (* the multiplication-friendliness trick from Section 3.2: public
     vector times degree-(n-k) sharing gives degree-(n-1) sharing *)
  let n = 16 and k = 4 in
  let p = PS.make_params ~n ~k in
  let d = n - k in
  for _ = 1 to 20 do
    let x = rand_secrets k in
    let c = rand_secrets k in
    let sx = PS.share p ~degree:d ~secrets:x ~rng:st in
    let prod = PS.mul_public p c sx in
    Alcotest.(check int) "degree" (d + k - 1) prod.PS.degree;
    Alcotest.check fvec "c * x"
      (Array.map2 F.mul c x)
      (PS.reconstruct p ~degree:(n - 1) (all_pairs prod))
  done

let test_share_public_deterministic () =
  let p = PS.make_params ~n:10 ~k:3 in
  let v = rand_secrets 3 in
  let s1 = PS.share_public p v and s2 = PS.share_public p v in
  Alcotest.check fvec "deterministic" s1.PS.shares s2.PS.shares;
  Alcotest.check fvec "reconstructs" v (PS.reconstruct p ~degree:2 (all_pairs s1))

let test_add_constant () =
  let n = 12 and k = 3 in
  let p = PS.make_params ~n ~k in
  let x = rand_secrets k and c = rand_secrets k in
  let s = PS.share p ~degree:6 ~secrets:x ~rng:st in
  let s' = PS.add_constant p c s in
  Alcotest.check fvec "x + c"
    (Array.map2 F.add x c)
    (PS.reconstruct p ~degree:6 (all_pairs s'))

(* ------------------------------------------------------------------ *)
(* Degree check (error detection) and recovery                         *)
(* ------------------------------------------------------------------ *)

let test_check_degree () =
  let p = PS.make_params ~n:12 ~k:3 in
  let s = PS.share p ~degree:5 ~secrets:(rand_secrets 3) ~rng:st in
  Alcotest.(check bool) "honest sharing passes" true (PS.check_degree p s);
  (* corrupt one share *)
  let shares = Array.copy s.PS.shares in
  shares.(7) <- F.add shares.(7) F.one;
  let bad = PS.make_sharing ~degree:s.PS.degree ~shares in
  Alcotest.(check bool) "corrupted sharing fails" false (PS.check_degree p bad)

let test_recover_missing () =
  let p = PS.make_params ~n:10 ~k:2 in
  let s = PS.share p ~degree:4 ~secrets:(rand_secrets 2) ~rng:st in
  let pairs = List.filter (fun (i, _) -> i <> 9) (all_pairs s) in
  Alcotest.check felt "recovered share" s.PS.shares.(9)
    (PS.recover_missing p ~degree:4 pairs 9)

let test_recover_missing_adversarial () =
  let p = PS.make_params ~n:10 ~k:2 in
  let degree = 4 in
  let s = PS.share p ~degree ~secrets:(rand_secrets 2) ~rng:st in
  let surviving = List.filter (fun (i, _) -> i <> 9) (all_pairs s) in
  (* one tampered share among the interpolation set silently poisons
     the recovered value — recovery trusts its inputs, which is why
     the protocol only feeds it NIZK-verified shares *)
  let poisoned =
    List.map (fun (i, v) -> if i = 2 then (i, F.add v F.one) else (i, v)) surviving
  in
  Alcotest.(check bool) "poisoned inputs shift the recovered share" false
    (F.equal s.PS.shares.(9) (PS.recover_missing p ~degree poisoned 9));
  (* recovery from any clean (degree+1)-subset is exact, whichever
     parties happen to have survived exclusion *)
  let subset = List.filteri (fun j _ -> j mod 2 = 0 || j < 2) surviving in
  let subset = List.filteri (fun j _ -> j < degree + 1) subset in
  Alcotest.check felt "any clean subset recovers" s.PS.shares.(9)
    (PS.recover_missing p ~degree subset 9)

let test_reconstruct_checked_clean () =
  let p = PS.make_params ~n:12 ~k:3 in
  let degree = 6 in
  let secrets = rand_secrets 3 in
  let s = PS.share p ~degree ~secrets ~rng:st in
  (match PS.reconstruct_checked p ~degree (all_pairs s) with
  | Ok back -> Alcotest.check fvec "all shares consistent" secrets back
  | Error bad ->
    Alcotest.failf "honest sharing flagged parties %s"
      (String.concat "," (List.map string_of_int bad)));
  (* exactly degree+1 shares: nothing left to cross-check, still Ok *)
  let minimal = List.filteri (fun i _ -> i < degree + 1) (all_pairs s) in
  match PS.reconstruct_checked p ~degree minimal with
  | Ok back -> Alcotest.check fvec "minimal set" secrets back
  | Error _ -> Alcotest.fail "minimal honest set flagged"

let test_reconstruct_checked_flags_tampered () =
  let p = PS.make_params ~n:12 ~k:3 in
  let degree = 6 in
  let s = PS.share p ~degree ~secrets:(rand_secrets 3) ~rng:st in
  (* perturb shares strictly beyond the interpolation prefix so the
     candidate polynomial stays honest and the liars are localized *)
  let tampered = [ 8; 10 ] in
  let pairs =
    List.map
      (fun (i, v) -> if List.mem i tampered then (i, F.mul v (F.of_int 3)) else (i, v))
      (all_pairs s)
  in
  (match PS.reconstruct_checked p ~degree pairs with
  | Ok _ -> Alcotest.fail "tampered set not flagged"
  | Error bad -> Alcotest.(check (list int)) "exact culprits" tampered (List.sort compare bad));
  (* a perturbed share inside the interpolation prefix corrupts the
     candidate instead: detection still fires, blaming honest parties —
     detect-and-abort, not identify *)
  let pairs' =
    List.map (fun (i, v) -> if i = 0 then (i, F.add v F.one) else (i, v)) (all_pairs s)
  in
  (match PS.reconstruct_checked p ~degree pairs' with
  | Ok _ -> Alcotest.fail "prefix tampering not detected"
  | Error bad -> Alcotest.(check bool) "inconsistency surfaced" true (bad <> []));
  Alcotest.check_raises "too few shares"
    (Invalid_argument "Packed_shamir.reconstruct_checked: 5 shares, need 7") (fun () ->
      ignore
        (PS.reconstruct_checked p ~degree (List.filteri (fun i _ -> i < 5) (all_pairs s))))

let test_check_degree_adversarial_sweep () =
  let p = PS.make_params ~n:16 ~k:4 in
  for degree = 3 to 15 do
    let s = PS.share p ~degree ~secrets:(rand_secrets 4) ~rng:st in
    for victim = 0 to 15 do
      let shares = Array.copy s.PS.shares in
      shares.(victim) <- F.add shares.(victim) (F.of_int (victim + 1));
      let bad = PS.make_sharing ~degree:s.PS.degree ~shares in
      (* a single perturbed share can only go undetected when the
         claimed degree already admits every n-point vector *)
      Alcotest.(check bool)
        (Printf.sprintf "d=%d victim=%d" degree victim)
        (degree >= 15) (PS.check_degree p bad)
    done
  done

(* ------------------------------------------------------------------ *)
(* Privacy smoke test                                                  *)
(* ------------------------------------------------------------------ *)

let test_shares_are_randomized () =
  (* re-sharing the same secrets must give fresh share values
     (d >= k, so at least one coefficient is random) *)
  let p = PS.make_params ~n:8 ~k:2 in
  let secrets = rand_secrets 2 in
  let observed = Hashtbl.create 64 in
  for _ = 1 to 64 do
    let s = PS.share p ~degree:4 ~secrets ~rng:st in
    Hashtbl.replace observed (F.to_int s.PS.shares.(7)) ()
  done;
  Alcotest.(check bool) "share of party 8 varies" true (Hashtbl.length observed > 32)

let test_minimal_degree_is_deterministic_given_secrets () =
  (* at degree k-1 there is no randomness: sharing = share_public *)
  let p = PS.make_params ~n:8 ~k:3 in
  let secrets = rand_secrets 3 in
  let s = PS.share p ~degree:2 ~secrets ~rng:st in
  Alcotest.check fvec "degree k-1 determined" (PS.share_public p secrets).PS.shares
    s.PS.shares

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  [
    QCheck.Test.make ~count:100 ~name:"roundtrip (random n,k,d)"
      QCheck.(triple (int_range 2 24) (int_range 1 8) int)
      (fun (n, k, seed) ->
        QCheck.assume (k <= n);
        let st = Random.State.make [| seed |] in
        let p = PS.make_params ~n ~k in
        let degree = k - 1 + Random.State.int st (n - k + 1) in
        let secrets = Array.init k (fun _ -> F.random st) in
        let s = PS.share p ~degree ~secrets ~rng:st in
        let back = PS.reconstruct p ~degree (all_pairs s) in
        Array.for_all2 F.equal secrets back);
    QCheck.Test.make ~count:100 ~name:"linearity under random combo"
      QCheck.(pair int int)
      (fun (seed, cint) ->
        let st = Random.State.make [| seed |] in
        let p = PS.make_params ~n:10 ~k:3 in
        let x = Array.init 3 (fun _ -> F.random st) in
        let y = Array.init 3 (fun _ -> F.random st) in
        let c = F.of_int cint in
        let sx = PS.share p ~degree:5 ~secrets:x ~rng:st in
        let sy = PS.share p ~degree:5 ~secrets:y ~rng:st in
        let combo = PS.add p (PS.scale p c sx) sy in
        let back = PS.reconstruct p ~degree:5 (all_pairs combo) in
        Array.for_all2 F.equal (Array.map2 (fun a b -> F.add (F.mul c a) b) x y) back);
  ]

let () =
  Alcotest.run "shamir"
    [
      ( "barycentric",
        [
          Alcotest.test_case "matches poly" `Quick test_barycentric_matches_poly;
          Alcotest.test_case "duplicates" `Quick test_barycentric_duplicates;
          Alcotest.test_case "eval_many" `Quick test_barycentric_eval_many;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "share/reconstruct" `Quick test_share_reconstruct_roundtrip;
          Alcotest.test_case "subset of d+1" `Quick test_reconstruct_from_exactly_d1_shares;
          Alcotest.test_case "too few shares" `Quick test_reconstruct_too_few;
          Alcotest.test_case "duplicate parties" `Quick test_duplicate_party_shares_ignored;
          Alcotest.test_case "bad params" `Quick test_bad_params;
        ] );
      ( "homomorphism",
        [
          Alcotest.test_case "linear" `Quick test_linear_homomorphism;
          Alcotest.test_case "share mul" `Quick test_share_multiplication;
          Alcotest.test_case "mul overflow" `Quick test_mul_degree_overflow;
          Alcotest.test_case "public vector mul" `Quick test_public_vector_multiplication;
          Alcotest.test_case "share_public" `Quick test_share_public_deterministic;
          Alcotest.test_case "add_constant" `Quick test_add_constant;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "check_degree" `Quick test_check_degree;
          Alcotest.test_case "check_degree sweep" `Quick test_check_degree_adversarial_sweep;
          Alcotest.test_case "recover missing" `Quick test_recover_missing;
          Alcotest.test_case "recover missing (adversarial)" `Quick test_recover_missing_adversarial;
          Alcotest.test_case "reconstruct_checked clean" `Quick test_reconstruct_checked_clean;
          Alcotest.test_case "reconstruct_checked tampered" `Quick test_reconstruct_checked_flags_tampered;
          Alcotest.test_case "randomized shares" `Quick test_shares_are_randomized;
          Alcotest.test_case "k-1 deterministic" `Quick test_minimal_degree_is_deterministic_given_secrets;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props);
    ]
