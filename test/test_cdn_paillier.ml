module B = Yoso_bigint.Bigint
module CP = Yoso_mpc.Cdn_paillier
module Gen = Yoso_circuit.Generators
module Circuit = Yoso_circuit.Circuit

let big = Alcotest.testable B.pp B.equal

let small_inputs c = Array.init 8 (fun i -> B.of_int ((c + 2) * (i + 1)))

let test_dot_product () =
  let circuit = Gen.dot_product ~len:3 in
  let r = CP.execute ~n:5 ~t:2 ~circuit ~inputs:small_inputs () in
  Alcotest.(check bool) "matches plain Z_N evaluation" true (CP.check r circuit ~inputs:small_inputs);
  Alcotest.(check int) "no rejections when honest" 0 r.CP.rejected_contributions

let test_additions_only () =
  (* no multiplication gates: no triples, no openings *)
  let b = Yoso_circuit.Builder.create () in
  let x = Yoso_circuit.Builder.input b ~client:0 in
  let y = Yoso_circuit.Builder.input b ~client:1 in
  let z = Yoso_circuit.Builder.input b ~client:1 in
  Yoso_circuit.Builder.output b ~client:0
    (Yoso_circuit.Builder.add b (Yoso_circuit.Builder.add b x y) z);
  let circuit = Yoso_circuit.Builder.build b in
  let r = CP.execute ~n:4 ~t:1 ~circuit ~inputs:small_inputs () in
  Alcotest.(check bool) "sum correct" true (CP.check r circuit ~inputs:small_inputs)

let test_deep_circuit_with_reshare () =
  (* enough gates that the mid-protocol TKRes/TKRec refresh triggers
     and later openings use epoch-1 shares *)
  let circuit = Gen.poly_eval ~degree:4 in
  let inputs c = if c = 0 then Array.init 5 (fun i -> B.of_int (i + 1)) else [| B.of_int 3 |] in
  let r = CP.execute ~n:5 ~t:2 ~circuit ~inputs () in
  Alcotest.(check bool) "deep circuit with key refresh" true (CP.check r circuit ~inputs)

let test_malicious_detected_and_tolerated () =
  let circuit = Gen.dot_product ~len:2 in
  let inputs = small_inputs in
  let r = CP.execute ~n:5 ~t:2 ~malicious:[ 0; 4 ] ~circuit ~inputs () in
  (* 2 malicious members x 2 committees x 2 gates = 8 rejected proofs *)
  Alcotest.(check int) "rejections counted" 8 r.CP.rejected_contributions;
  Alcotest.(check bool) "output still correct" true (CP.check r circuit ~inputs)

(* the benchmark's real_crypto shape (512-bit N, 32 gates) at its
   default seed: every batch with a lying member falls back to
   per-proof verification, which blames exactly those members'
   contributions, 2 members x 2 committees x 32 gates *)
let test_malicious_blame_exact () =
  let circuit = Gen.dot_product ~len:32 in
  let inputs c = Array.init 32 (fun i -> B.of_int ((31 * c) + i + 1)) in
  let r = CP.execute ~n:5 ~t:2 ~bits:512 ~malicious:[ 0; 3 ] ~seed:24301 ~circuit ~inputs () in
  Alcotest.(check int) "4 m rejections" 128 r.CP.rejected_contributions;
  Alcotest.(check bool) "outputs correct" true (CP.check r circuit ~inputs)

let test_values_reduced_mod_n () =
  (* huge inputs wrap around the modulus, consistently with expected *)
  let circuit = Gen.dot_product ~len:2 in
  let inputs _ = [| B.pow (B.of_int 2) 200; B.of_int 3 |] in
  let r = CP.execute ~n:4 ~t:1 ~bits:64 ~circuit ~inputs () in
  Alcotest.(check bool) "mod-N arithmetic" true (CP.check r circuit ~inputs);
  (match (r.CP.outputs, CP.expected ~modulus:r.CP.modulus circuit ~inputs) with
  | (_, _, got) :: _, (_, want) :: _ -> Alcotest.check big "value" want got
  | _ -> Alcotest.fail "missing outputs")

let test_expected_matches_field_semantics () =
  (* the Z_N evaluator agrees with the F_p evaluator on small values *)
  let module F = Yoso_field.Field.Fp in
  let module Eval = Yoso_circuit.Circuit.Eval (Yoso_field.Field.Fp) in
  let circuit = Gen.variance_numerator ~parties:3 in
  let ints = [ (0, [ 5; 3; -1 ]); (1, [ 7 ]); (2, [ 2 ]) ] in
  let modulus = B.of_string "1000000007" in
  let b_inputs c = Array.of_list (List.map B.of_int (List.assoc c ints)) in
  let f_inputs c = Array.of_list (List.map F.of_int (List.assoc c ints)) in
  let zn = CP.expected ~modulus circuit ~inputs:b_inputs in
  let fp = Eval.run circuit ~inputs:f_inputs in
  (* values are tiny, so they agree as integers despite the -1 wrap...
     except the -1 constant wraps differently; compare via evaluation
     of the same signed result *)
  List.iter2
    (fun (_, bv) (_, fv) ->
      let signed_b =
        let v = bv in
        if B.compare v (B.shift_right modulus 1) > 0 then B.sub v modulus else v
      in
      let signed_f =
        let v = F.to_int fv in
        if v > F.p / 2 then v - F.p else v
      in
      Alcotest.(check string) "same signed value" (string_of_int signed_f)
        (B.to_string signed_b))
    zn fp

let () =
  Alcotest.run "cdn_paillier"
    [
      ( "real-crypto",
        [
          Alcotest.test_case "dot product" `Quick test_dot_product;
          Alcotest.test_case "additions only" `Quick test_additions_only;
          Alcotest.test_case "deep + key refresh" `Quick test_deep_circuit_with_reshare;
          Alcotest.test_case "malicious detected" `Quick test_malicious_detected_and_tolerated;
          Alcotest.test_case "blame exact at 512 bits" `Quick test_malicious_blame_exact;
          Alcotest.test_case "mod-N reduction" `Quick test_values_reduced_mod_n;
          Alcotest.test_case "evaluator consistency" `Quick test_expected_matches_field_semantics;
        ] );
    ]
