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

(* The weights [verify_batch] once derived without [rng]: a seed from
   Hashtbl.hash of each entry's (cx, cz, a1), which never reads a
   response.  A prover who knows them before writing two entries with
   the same x can shift their responses so that both combined
   equations still hold. *)
let responseless_weights batch =
  let mix =
    Hashtbl.hash
      (Array.map
         (fun ((st : Feldman.Product.statement), (p : Feldman.Product.proof)) ->
           (B.to_string st.cx, B.to_string st.cz, B.to_string p.a1))
         batch)
  in
  let rng = Random.State.make [| 0xBA7C; mix |] in
  let rec nonzero () =
    let v = F.random rng in
    if F.equal v F.zero then nonzero () else v
  in
  Array.init (Array.length batch) (fun _ -> nonzero ())

let test_product_batch_weights_bind_responses () =
  let rng = Random.State.make [| 0x9D; 5 |] in
  let shared_x = F.random rng in
  let batch =
    Array.init 6 (fun i ->
        let x = if i = 3 || i = 4 then shared_x else F.random rng in
        let y = F.random rng in
        Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y))
  in
  let r = responseless_weights batch in
  let shift i delta =
    let st, (p : Feldman.Product.proof) = batch.(i) in
    batch.(i) <- (st, { p with s = F.add p.s delta })
  in
  (* r3 d + r4 (-r3 d / r4) = 0: the errors cancel in both sums *)
  let d = F.of_int 0x5EED in
  shift 3 d;
  shift 4 (F.neg (F.div (F.mul r.(3) d) r.(4)));
  Alcotest.(check bool) "the old weights do not see the shift" true
    (r = responseless_weights batch);
  Alcotest.(check (list int)) "per-proof checks reject both" [ 3; 4 ]
    (Feldman.Product.attribute batch);
  Alcotest.(check bool) "RLC batch rejects" false (Feldman.Product.verify_batch batch)

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
          Alcotest.test_case "weights bind responses" `Quick
            test_product_batch_weights_bind_responses;
        ] );
    ]
