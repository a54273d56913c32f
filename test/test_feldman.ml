module F = Yoso_field.Field.Fp
module B = Yoso_bigint.Bigint
module Feldman = Yoso_shamir.Feldman

(* ------------------------------------------------------------------ *)
(* Group structure                                                     *)
(* ------------------------------------------------------------------ *)

let test_group_parameters () =
  let g = Lazy.force Feldman.group in
  let st = Random.State.make [| 1 |] in
  Alcotest.(check bool) "modulus prime" true (B.is_probable_prime st g.Feldman.modulus);
  Alcotest.(check string) "order = F.p" (string_of_int F.p) (B.to_string g.Feldman.order);
  Alcotest.(check bool) "q | p' - 1" true
    (B.is_zero (B.rem (B.sub g.Feldman.modulus B.one) g.Feldman.order));
  (* h has order exactly q: h <> 1 and h^q = 1 *)
  Alcotest.(check bool) "h <> 1" false (B.is_one g.Feldman.h);
  Alcotest.(check bool) "h^q = 1" true
    (B.is_one (B.powmod g.Feldman.h g.Feldman.order g.Feldman.modulus))

(* ------------------------------------------------------------------ *)
(* Chaum-Pedersen product proofs (triple audits)                       *)
(* ------------------------------------------------------------------ *)

let test_product_completeness () =
  let rng = Random.State.make [| 0x9D; 1 |] in
  for _ = 1 to 20 do
    let x = F.random rng and y = F.random rng in
    let stm, pf = Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y) in
    Alcotest.(check bool) "honest proof verifies" true (Feldman.Product.verify stm pf)
  done

let test_product_soundness () =
  let rng = Random.State.make [| 0x9D; 2 |] in
  let x = F.random rng and y = F.random rng in
  (* an honest prover cannot make a false statement pass *)
  let stm, pf = Feldman.Product.prove ~rng ~x ~y ~z:(F.add (F.mul x y) F.one) in
  Alcotest.(check bool) "z <> x y rejected" false (Feldman.Product.verify stm pf);
  let stm2, pf2 = Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y) in
  Alcotest.(check bool) "tampered commitment rejected" false
    (Feldman.Product.verify (Feldman.Product.tamper_z stm2 F.one) pf2)

let test_product_batch_matches_each () =
  let rng = Random.State.make [| 0x9D; 3 |] in
  let batch =
    Array.init 32 (fun _ ->
        let x = F.random rng and y = F.random rng in
        Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y))
  in
  Alcotest.(check bool) "per-proof checks pass" true
    (Array.for_all (fun (stm, pf) -> Feldman.Product.verify stm pf) batch);
  Alcotest.(check bool) "RLC batch passes" true (Feldman.Product.verify_batch batch);
  Alcotest.(check bool) "RLC batch passes with explicit weights" true
    (Feldman.Product.verify_batch ~rng batch);
  Alcotest.(check bool) "empty batch passes" true (Feldman.Product.verify_batch [||])

let test_product_batch_attribution () =
  let rng = Random.State.make [| 0x9D; 4 |] in
  let batch =
    Array.init 16 (fun _ ->
        let x = F.random rng and y = F.random rng in
        Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y))
  in
  let bad = 5 in
  let stm, pf = batch.(bad) in
  batch.(bad) <- (Feldman.Product.tamper_z stm (F.of_int 7), pf);
  Alcotest.(check bool) "RLC catches one tampered triple" false
    (Feldman.Product.verify_batch batch);
  Alcotest.(check (list int)) "attribution names exactly it" [ bad ]
    (Feldman.Product.attribute batch)

let () =
  Alcotest.run "feldman"
    [
      ( "group",
        [ Alcotest.test_case "parameters" `Quick test_group_parameters ] );
      ( "product",
        [
          Alcotest.test_case "completeness" `Quick test_product_completeness;
          Alcotest.test_case "soundness" `Quick test_product_soundness;
          Alcotest.test_case "batch matches each" `Quick test_product_batch_matches_each;
          Alcotest.test_case "attribution" `Quick test_product_batch_attribution;
        ] );
    ]
