module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Cdn = Yoso_mpc.Cdn_baseline
module Bgw = Yoso_mpc.Bgw_baseline
module Gen = Yoso_circuit.Generators
module B = Yoso_bigint.Bigint
module Cdn_paillier = Yoso_mpc.Cdn_paillier

let inputs_of len c = Array.init len (fun i -> F.of_int ((c + 2) * (i + 1)))

(* ------------------------------------------------------------------ *)
(* BGW                                                                 *)
(* ------------------------------------------------------------------ *)

let bgw_check ?(n = 9) ?(t = 4) circuit len =
  let inputs = inputs_of len in
  let r = Bgw.execute ~n ~t ~circuit ~inputs () in
  Alcotest.(check bool) "matches plain evaluation" true (Bgw.check r circuit ~inputs)

let test_bgw_dot () = bgw_check (Gen.dot_product ~len:6) 6
let test_bgw_wide () = bgw_check (Gen.wide_mul ~width:5 ~depth:3 ~clients:2) 10
let test_bgw_deep () = bgw_check (Gen.poly_eval ~degree:8) 9
let test_bgw_variance () =
  let circuit = Gen.variance_numerator ~parties:4 in
  let inputs c =
    if c = 0 then [| F.of_int 6; F.of_int 4; F.of_int (-1) |] else [| F.of_int (2 * c) |]
  in
  let r = Bgw.execute ~n:7 ~t:3 ~circuit ~inputs () in
  Alcotest.(check bool) "variance" true (Bgw.check r circuit ~inputs)

let test_bgw_random_dags () =
  for seed = 1 to 5 do
    let circuit = Gen.random_dag ~gates:40 ~clients:3 ~mul_fraction:0.4 ~seed in
    let inputs c = [| F.of_int (c + 11); F.of_int ((3 * c) + 1) |] in
    let r = Bgw.execute ~n:9 ~t:4 ~circuit ~inputs () in
    Alcotest.(check bool) "random dag" true (Bgw.check r circuit ~inputs)
  done

let test_bgw_threshold_validation () =
  Alcotest.check_raises "2t+1 > n" (Invalid_argument "Bgw_baseline: need 0 <= t < n/2")
    (fun () ->
      ignore
        (Bgw.execute ~n:8 ~t:4 ~circuit:(Gen.dot_product ~len:2)
           ~inputs:(inputs_of 2) ()))

let test_bgw_t0 () =
  (* degenerate: no privacy, still correct *)
  bgw_check ~n:3 ~t:0 (Gen.dot_product ~len:3) 3

let test_bgw_add_only_circuit () =
  let b = Yoso_circuit.Builder.create () in
  let x = Yoso_circuit.Builder.input b ~client:0 in
  let y = Yoso_circuit.Builder.input b ~client:1 in
  Yoso_circuit.Builder.output b ~client:0 (Yoso_circuit.Builder.add b x y);
  let circuit = Yoso_circuit.Builder.build b in
  bgw_check circuit 1

(* ------------------------------------------------------------------ *)
(* Cross-protocol agreement                                            *)
(* ------------------------------------------------------------------ *)

let test_three_protocols_agree () =
  let circuit = Gen.dot_product ~len:5 in
  let inputs = inputs_of 5 in
  let params = Params.create ~n:9 ~t:2 ~k:2 () in
  let ours = Protocol.execute ~params ~circuit ~inputs () in
  let cdn = Cdn.execute ~params ~circuit ~inputs () in
  let bgw = Bgw.execute ~n:9 ~t:4 ~circuit ~inputs () in
  let v_ours = (List.hd ours.Protocol.outputs).Yoso_mpc.Online.value in
  let (_, _, v_cdn) = List.hd cdn.Cdn.outputs in
  let (_, _, v_bgw) = List.hd bgw.Bgw.outputs in
  Alcotest.(check bool) "ours = cdn" true (F.equal v_ours v_cdn);
  Alcotest.(check bool) "ours = bgw" true (F.equal v_ours v_bgw)

let test_bgw_cost_quadratic_in_n () =
  (* per-gate online cost of BGW must grow superlinearly with n *)
  let circuit = Gen.wide_mul_reduced ~width:8 ~depth:2 ~clients:2 in
  let inputs = inputs_of 16 in
  let run n = Bgw.online_per_gate (Bgw.execute ~n ~t:((n - 1) / 2) ~circuit ~inputs ()) in
  let c9 = run 9 and c36 = run 36 in
  Alcotest.(check bool)
    (Printf.sprintf "4x n -> >8x cost (%.0f -> %.0f)" c9 c36)
    true
    (c36 > 8.0 *. c9)

(* ------------------------------------------------------------------ *)
(* Pinned costs and outputs                                            *)
(* ------------------------------------------------------------------ *)

(* exact numbers of the baselines' transcripts, so a rewrite of their
   input or batching paths that moves a post or an element shows here
   the way the packed protocol's digests do *)

let wide = Gen.wide_mul_reduced ~width:8 ~depth:2 ~clients:2

let cdn_costs ?gates_per_committee ~n ~t ~k circuit len =
  let params = Params.create ?gates_per_committee ~n ~t ~k () in
  let inputs = inputs_of len in
  let r = Cdn.execute ~params ~circuit ~inputs () in
  Alcotest.(check bool) "cdn correct" true (Cdn.check r circuit ~inputs);
  (r.Cdn.offline_elements, r.Cdn.online_elements, r.Cdn.posts)

let bgw_costs ~n circuit len =
  let inputs = inputs_of len in
  let r = Bgw.execute ~n ~t:((n - 1) / 2) ~circuit ~inputs () in
  Alcotest.(check bool) "bgw correct" true (Bgw.check r circuit ~inputs);
  (r.Bgw.input_elements, r.Bgw.online_elements, r.Bgw.posts)

let triple = Alcotest.(triple int int int)

let test_cdn_pinned () =
  Alcotest.check triple "wide n=9" (450, 518, 47) (cdn_costs ~n:9 ~t:2 ~k:2 wide 16);
  Alcotest.check triple "wide n=18" (900, 1328, 92) (cdn_costs ~n:18 ~t:4 ~k:4 wide 16);
  Alcotest.check triple "wide n=9, 3 gates per committee" (450, 878, 83)
    (cdn_costs ~gates_per_committee:3 ~n:9 ~t:2 ~k:2 wide 16);
  Alcotest.check triple "dot n=9" (180, 249, 38)
    (cdn_costs ~n:9 ~t:2 ~k:2 (Gen.dot_product ~len:6) 6)

let test_bgw_pinned () =
  Alcotest.check triple "wide n=9" (144, 1305, 29) (bgw_costs ~n:9 wide 16);
  Alcotest.check triple "wide n=18" (288, 5202, 56) (bgw_costs ~n:18 wide 16);
  Alcotest.check triple "dot n=9" (108, 504, 20) (bgw_costs ~n:9 (Gen.dot_product ~len:6) 6)

let test_cdn_paillier_pinned () =
  (* inputs past 2^64 wrap mod N, so the outputs pin the modulus too *)
  let inputs c = Array.init 3 (fun i -> B.add (B.pow (B.of_int 2) 70) (B.of_int ((c * 3) + i))) in
  let r =
    Cdn_paillier.execute ~n:4 ~t:1 ~bits:64 ~malicious:[ 3 ] ~seed:7
      ~circuit:(Gen.dot_product ~len:3) ~inputs ()
  in
  Alcotest.(check bool) "correct" true (Cdn_paillier.check r (Gen.dot_product ~len:3) ~inputs);
  Alcotest.(check int) "rejected" 6 r.Cdn_paillier.rejected_contributions;
  Alcotest.(check string) "modulus" "11512504159459289359" (B.to_string r.Cdn_paillier.modulus);
  Alcotest.(check (list (triple int int string)))
    "outputs"
    [ (0, 10, "2322689242642368932"); (1, 10, "2322689242642368932") ]
    (List.map (fun (c, w, v) -> (c, w, B.to_string v)) r.Cdn_paillier.outputs)

(* ------------------------------------------------------------------ *)
(* Short input vectors                                                 *)
(* ------------------------------------------------------------------ *)

(* every protocol reads its inputs through Circuit.assign_inputs, so a
   client that supplies too few values fails the same way in each *)
let test_short_inputs () =
  let circuit = Gen.dot_product ~len:3 in
  (* client 1 owns three input wires but supplies two values *)
  let count c = if c = 1 then 2 else 3 in
  let f_inputs c = Array.init (count c) (fun i -> F.of_int (i + 1)) in
  let b_inputs c = Array.init (count c) (fun i -> B.of_int (i + 1)) in
  let short = Invalid_argument "Circuit.assign_inputs: client 1 supplied 2 inputs, needs 3" in
  let raises name f = Alcotest.check_raises name short (fun () -> ignore (f ())) in
  let params = Params.create ~n:9 ~t:2 ~k:2 () in
  let module Eval = Yoso_circuit.Circuit.Eval (F) in
  raises "Circuit.Eval" (fun () -> Eval.run circuit ~inputs:f_inputs);
  raises "Protocol.execute" (fun () -> Protocol.execute ~params ~circuit ~inputs:f_inputs ());
  raises "Cdn_baseline" (fun () -> Cdn.execute ~params ~circuit ~inputs:f_inputs ());
  raises "Bgw_baseline" (fun () -> Bgw.execute ~n:9 ~t:4 ~circuit ~inputs:f_inputs ());
  raises "Cdn_paillier.execute" (fun () ->
      Cdn_paillier.execute ~n:4 ~t:1 ~bits:64 ~circuit ~inputs:b_inputs ());
  raises "Cdn_paillier.expected" (fun () ->
      Cdn_paillier.expected ~modulus:(B.of_int 1_000_000_007) circuit ~inputs:b_inputs)

let () =
  Alcotest.run "baselines"
    [
      ( "bgw",
        [
          Alcotest.test_case "dot" `Quick test_bgw_dot;
          Alcotest.test_case "wide" `Quick test_bgw_wide;
          Alcotest.test_case "deep" `Quick test_bgw_deep;
          Alcotest.test_case "variance" `Quick test_bgw_variance;
          Alcotest.test_case "random dags" `Quick test_bgw_random_dags;
          Alcotest.test_case "threshold validation" `Quick test_bgw_threshold_validation;
          Alcotest.test_case "t = 0" `Quick test_bgw_t0;
          Alcotest.test_case "additions only" `Quick test_bgw_add_only_circuit;
        ] );
      ( "cross-protocol",
        [
          Alcotest.test_case "three protocols agree" `Quick test_three_protocols_agree;
          Alcotest.test_case "bgw quadratic" `Slow test_bgw_cost_quadratic_in_n;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "cdn costs" `Quick test_cdn_pinned;
          Alcotest.test_case "bgw costs" `Quick test_bgw_pinned;
          Alcotest.test_case "cdn_paillier outputs" `Quick test_cdn_paillier_pinned;
        ] );
      ("inputs", [ Alcotest.test_case "short vector" `Quick test_short_inputs ]);
    ]
