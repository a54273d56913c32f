module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Pke = Yoso_mpc.Ideal_pke
module Te = Yoso_mpc.Ideal_te
module Ops = Yoso_mpc.Committee_ops
module Setup = Yoso_mpc.Setup
module Protocol = Yoso_mpc.Protocol
module Online = Yoso_mpc.Online
module Cdn = Yoso_mpc.Cdn_baseline
module Gen = Yoso_circuit.Generators
module Circuit = Yoso_circuit.Circuit
module Splitmix = Yoso_hash.Splitmix

let rng () = Splitmix.of_int 0x1DEA
let felt = Alcotest.testable F.pp F.equal

(* ------------------------------------------------------------------ *)
(* Ideal PKE                                                           *)
(* ------------------------------------------------------------------ *)

let test_pke_roundtrip () =
  let pk, sk = Pke.gen (rng ()) in
  Alcotest.(check int) "roundtrip" 42 (Pke.dec sk (Pke.enc pk 42));
  Alcotest.(check (option string)) "dec_opt" (Some "x") (Pke.dec_opt sk (Pke.enc pk "x"))

let test_pke_wrong_key () =
  let r = rng () in
  let pk, _ = Pke.gen r in
  let _, sk2 = Pke.gen r in
  Alcotest.check_raises "wrong key" (Invalid_argument "Ideal_pke.dec: wrong key")
    (fun () -> ignore (Pke.dec sk2 (Pke.enc pk 1)));
  Alcotest.(check (option int)) "dec_opt none" None (Pke.dec_opt sk2 (Pke.enc pk 1))

let test_pke_nested_payload () =
  (* the KFF pattern: a secret key travelling inside a ciphertext *)
  let r = rng () in
  let pk1, sk1 = Pke.gen r in
  let pk2, sk2 = Pke.gen r in
  let nested = Pke.enc pk1 sk2 in
  let recovered = Pke.dec sk1 nested in
  Alcotest.(check int) "nested key works" 7 (Pke.dec recovered (Pke.enc pk2 7))

(* ------------------------------------------------------------------ *)
(* Ideal TE                                                            *)
(* ------------------------------------------------------------------ *)

let te_fixture () = Te.keygen ~n:7 ~t:2 ~rng:(rng ())

let partials te shares ct who = List.map (fun i -> Te.partial_decrypt te shares.(i) ct) who

let test_te_roundtrip () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te (F.of_int 99) in
  Alcotest.check felt "t+1 partials" (F.of_int 99) (Te.combine te (partials te shares ct [ 0; 3; 6 ]))

let test_te_too_few () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te F.one in
  Alcotest.check_raises "2 partials" (Invalid_argument "Ideal_te.combine: 2 partials, need 3")
    (fun () -> ignore (Te.combine te (partials te shares ct [ 0; 1 ])));
  (* duplicates do not count twice *)
  Alcotest.check_raises "duplicated index" (Invalid_argument "Ideal_te.combine: 2 partials, need 3")
    (fun () ->
      ignore (Te.combine te (partials te shares ct [ 0; 0; 1 ])))

let test_te_eval () =
  let te, shares = te_fixture () in
  let cts = Array.map (fun v -> Te.encrypt te (F.of_int v)) [| 2; 3; 5 |] in
  let combo = Te.eval te cts (Array.map F.of_int [| 10; 100; 1000 |]) in
  Alcotest.check felt "linear combination" (F.of_int 5320)
    (Te.combine te (partials te shares combo [ 1; 2; 3 ]));
  let s = Te.sub te cts.(2) cts.(0) in
  Alcotest.check felt "sub" (F.of_int 3) (Te.combine te (partials te shares s [ 0; 1; 2 ]));
  let ap = Te.add_plain te cts.(0) (F.of_int 40) in
  Alcotest.check felt "add_plain" (F.of_int 42) (Te.combine te (partials te shares ap [ 4; 5; 6 ]))

let test_te_junk_partial_detected () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te (F.of_int 5) in
  let junk = Te.junk_partial te ~index:6 ~epoch:0 (F.of_int 1234) in
  Alcotest.check_raises "inconsistent" (Invalid_argument "Ideal_te.combine: inconsistent partials")
    (fun () -> ignore (Te.combine te (junk :: partials te shares ct [ 0; 1 ])))

let test_te_reshare_epochs () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te (F.of_int 11) in
  (* everyone reshares; members recombine the same sender subset *)
  let msgs = Array.map (Te.reshare te) shares in
  let new_shares =
    Array.init 7 (fun j ->
        Te.recombine te ~index:(j + 1) (List.init 7 (fun i -> msgs.(i).(j))))
  in
  Alcotest.(check int) "epoch bumped" 1 (Te.share_epoch new_shares.(0));
  Alcotest.check felt "new shares decrypt" (F.of_int 11)
    (Te.combine te (partials te new_shares ct [ 2; 4; 5 ]));
  (* mixing epochs is rejected *)
  let mixed =
    Te.partial_decrypt te shares.(0) ct
    :: partials te new_shares ct [ 1; 2 ]
  in
  Alcotest.check_raises "mixed epochs"
    (Invalid_argument "Ideal_te.combine: partials from different epochs") (fun () ->
      ignore (Te.combine te mixed))

let test_te_recombine_needs_quorum () =
  let te, shares = te_fixture () in
  let msgs = Array.map (Te.reshare te) shares in
  Alcotest.check_raises "2 senders" (Invalid_argument "Ideal_te.recombine: 2 subshares, need 3")
    (fun () ->
      ignore (Te.recombine te ~index:1 [ msgs.(0).(0); msgs.(1).(0) ]))

let test_te_misaddressed_subshare () =
  let te, shares = te_fixture () in
  let msgs = Te.reshare te shares.(0) in
  Alcotest.check_raises "misaddressed"
    (Invalid_argument "Ideal_te.recombine: misaddressed subshare") (fun () ->
      ignore (Te.recombine te ~index:2 [ msgs.(0) ]))

let test_te_foreign_ciphertext () =
  let te, _ = te_fixture () in
  let te2, shares2 = Te.keygen ~n:5 ~t:1 ~rng:(rng ()) in
  let ct = Te.encrypt te2 F.one in
  Alcotest.check_raises "foreign" (Invalid_argument "Ideal_te: foreign ciphertext")
    (fun () -> ignore (Te.add te ct ct));
  Alcotest.check_raises "share of other key"
    (Invalid_argument "Ideal_te.partial_decrypt: share of another key") (fun () ->
      ignore (Te.partial_decrypt te shares2.(0) (Te.encrypt te F.one)))

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_validation () =
  Alcotest.check_raises "packing degree"
    (Invalid_argument "Params.create: packing degree t+k-1 = 8 exceeds n-1 = 7") (fun () ->
      ignore (Params.create ~n:8 ~t:5 ~k:4 ()));
  Alcotest.check_raises "reconstruction"
    (Invalid_argument
       "Params.create: reconstruction threshold t+2(k-1)+1 = 10 exceeds n = 9") (fun () ->
      ignore (Params.create ~n:9 ~t:3 ~k:4 ()));
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  Alcotest.(check int) "recon" 10 (Params.reconstruction_threshold p);
  Alcotest.(check int) "pack degree" 7 (Params.packing_degree p)

let test_params_of_gap () =
  let p = Params.of_gap ~n:100 ~eps:0.1 () in
  Alcotest.(check int) "t" 39 p.Params.t;
  Alcotest.(check int) "k" 11 p.Params.k;
  let pf = Params.of_gap ~n:100 ~eps:0.1 ~fail_stop_mode:true () in
  Alcotest.(check int) "fail-stop k" 6 pf.Params.k;
  Alcotest.(check bool) "fail-stop headroom" true
    (Params.max_fail_stop pf { Params.malicious = pf.Params.t; passive = 0; fail_stop = 0 } >= 9)

let test_params_adversary_validation () =
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  Params.validate_adversary p { Params.malicious = 5; passive = 2; fail_stop = 1 };
  Alcotest.check_raises "too many malicious"
    (Invalid_argument "Params.validate_adversary: 6 malicious exceeds t = 5") (fun () ->
      Params.validate_adversary p { Params.malicious = 6; passive = 0; fail_stop = 0 });
  Alcotest.check_raises "too silent"
    (Invalid_argument
       "Params.validate_adversary: 9 speaking honest roles < reconstruction threshold 10")
    (fun () ->
      Params.validate_adversary p { Params.malicious = 5; passive = 0; fail_stop = 2 })

let test_params_adversary_edge_cases () =
  (* t = 0: any malicious role at all is beyond the bound *)
  let p0 = Params.create ~n:4 ~t:0 ~k:1 () in
  Params.validate_adversary p0 Params.no_adversary;
  Alcotest.check_raises "t = 0 admits no malicious"
    (Invalid_argument "Params.validate_adversary: 1 malicious exceeds t = 0") (fun () ->
      Params.validate_adversary p0 { Params.malicious = 1; passive = 0; fail_stop = 0 });
  (* k = 1 (no packing): reconstruction threshold collapses to t + 1 *)
  let p1 = Params.create ~n:7 ~t:3 ~k:1 () in
  Alcotest.(check int) "k = 1 recon" 4 (Params.reconstruction_threshold p1);
  Params.validate_adversary p1 { Params.malicious = 3; passive = 0; fail_stop = 0 };
  (* exactly at the speaking-honest threshold passes; one more fails *)
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  let at = { Params.malicious = 5; passive = 0; fail_stop = 1 } in
  Params.validate_adversary p at;
  Alcotest.(check int) "no headroom left at the bound" 0
    (Params.max_fail_stop p at - at.Params.fail_stop);
  (* negative counts are rejected outright, one field at a time *)
  List.iter
    (fun adv ->
      Alcotest.check_raises "negative counts"
        (Invalid_argument "Params.validate_adversary: negative counts") (fun () ->
          Params.validate_adversary p adv))
    [
      { Params.malicious = -1; passive = 0; fail_stop = 0 };
      { Params.malicious = 0; passive = -2; fail_stop = 0 };
      { Params.malicious = 0; passive = 0; fail_stop = -1 };
    ];
  (* corruption counts must fit in the committee *)
  Alcotest.check_raises "exceeds committee"
    (Invalid_argument "Params.validate_adversary: corruptions exceed committee size")
    (fun () -> Params.validate_adversary p { Params.malicious = 5; passive = 11; fail_stop = 1 })

let test_params_max_fail_stop_clamped () =
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  (* n - malicious - recon = 16 - 5 - 10 = 1 *)
  Alcotest.(check int) "headroom at t malicious" 1
    (Params.max_fail_stop p { Params.malicious = 5; passive = 0; fail_stop = 0 });
  Alcotest.(check int) "headroom with no malicious" 6
    (Params.max_fail_stop p Params.no_adversary);
  (* clamped at zero even for nonsense adversaries beyond the bound *)
  Alcotest.(check int) "never negative" 0
    (Params.max_fail_stop p { Params.malicious = 16; passive = 0; fail_stop = 0 });
  (* tight params: n = recon means zero tolerance from the start *)
  let tight = Params.create ~n:10 ~t:5 ~k:3 () in
  Alcotest.(check int) "n = recon, zero headroom" 0
    (Params.max_fail_stop tight Params.no_adversary)

(* ------------------------------------------------------------------ *)
(* End-to-end protocol                                                 *)
(* ------------------------------------------------------------------ *)

let params16 = Params.create ~n:16 ~t:5 ~k:3 ()

let run_and_check ?adversary circuit inputs =
  let config =
    match adversary with
    | None -> Protocol.default_config
    | Some adversary -> Protocol.config ~adversary ()
  in
  let r = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  Alcotest.(check bool) "outputs match plain evaluation" true
    (Protocol.check r circuit ~inputs)

let test_e2e_dot_product () =
  let circuit = Gen.dot_product ~len:7 in
  run_and_check circuit (fun c -> Array.init 7 (fun i -> F.of_int ((c + 1) * (i + 2))))

let test_e2e_wide () =
  let circuit = Gen.wide_mul ~width:6 ~depth:3 ~clients:3 in
  run_and_check circuit (fun c -> Array.init 12 (fun i -> F.of_int ((c + 2) * (i + 1))))

let test_e2e_deep () =
  let circuit = Gen.poly_eval ~degree:9 in
  run_and_check circuit (fun c ->
      if c = 0 then Array.init 10 (fun i -> F.of_int (i + 1)) else [| F.of_int 5 |])

let test_e2e_variance () =
  let circuit = Gen.variance_numerator ~parties:4 in
  run_and_check circuit (fun c ->
      if c = 0 then [| F.of_int 9; F.of_int 4; F.of_int (-1) |] else [| F.of_int (c * 3) |])

let test_e2e_random_dags () =
  for seed = 1 to 5 do
    let circuit = Gen.random_dag ~gates:60 ~clients:3 ~mul_fraction:0.5 ~seed in
    run_and_check circuit (fun c -> [| F.of_int (c + 7); F.of_int ((2 * c) + 3) |])
  done

let test_e2e_random_field_inputs () =
  let st = Random.State.make [| 77 |] in
  let circuit = Gen.matrix_vector ~rows:3 ~cols:5 in
  let m = Array.init 15 (fun _ -> F.random st) in
  let v = Array.init 5 (fun _ -> F.random st) in
  run_and_check circuit (fun c -> if c = 0 then m else v)

let test_e2e_with_malicious () =
  let circuit = Gen.dot_product ~len:5 in
  let inputs c = Array.init 5 (fun i -> F.of_int ((c + 3) * (i + 1))) in
  List.iter
    (fun malicious ->
      run_and_check
        ~adversary:{ Params.malicious; passive = 0; fail_stop = 0 }
        circuit inputs)
    [ 1; 3; 5 ]

let test_e2e_with_fail_stop () =
  let circuit = Gen.dot_product ~len:5 in
  let inputs c = Array.init 5 (fun i -> F.of_int ((c + 3) * (i + 1))) in
  List.iter
    (fun fail_stop ->
      run_and_check ~adversary:{ Params.malicious = 0; passive = 0; fail_stop } circuit inputs)
    [ 1; 3; 6 ]

let test_e2e_mixed_adversary () =
  let circuit = Gen.wide_mul_reduced ~width:5 ~depth:2 ~clients:2 in
  let inputs c = Array.init 10 (fun i -> F.of_int ((c + 2) * (i + 5))) in
  run_and_check ~adversary:{ Params.malicious = 3; passive = 2; fail_stop = 2 } circuit inputs

let test_e2e_failstop_mode_params () =
  (* Section 5.4: halve the packing gap, tolerate n*eps fail-stops *)
  let params = Params.of_gap ~n:20 ~eps:0.2 ~fail_stop_mode:true () in
  let headroom =
    Params.max_fail_stop params { Params.malicious = params.Params.t; passive = 0; fail_stop = 0 }
  in
  Alcotest.(check bool) "tolerates ~n*eps silent roles" true (headroom >= 4);
  let circuit = Gen.dot_product ~len:6 in
  let inputs c = Array.init 6 (fun i -> F.of_int ((c + 1) * (i + 1))) in
  let adversary = { Params.malicious = params.Params.t; passive = 0; fail_stop = headroom } in
  let r =
    Protocol.execute ~params
      ~config:(Protocol.config ~adversary ())
      ~circuit ~inputs ()
  in
  Alcotest.(check bool) "GOD under t malicious + max fail-stop" true
    (Protocol.check r circuit ~inputs)

let test_e2e_rejects_invalid_adversary () =
  let circuit = Gen.dot_product ~len:2 in
  Alcotest.check_raises "adversary checked"
    (Invalid_argument "Params.validate_adversary: 6 malicious exceeds t = 5") (fun () ->
      ignore
        (Protocol.execute ~params:params16
           ~config:
             (Protocol.config
                ~adversary:{ Params.malicious = 6; passive = 0; fail_stop = 0 }
                ())
           ~circuit
           ~inputs:(fun _ -> [| F.one; F.one |])
           ()))

let test_e2e_deterministic_given_seed () =
  let circuit = Gen.dot_product ~len:3 in
  let inputs c = Array.init 3 (fun i -> F.of_int (c + i + 1)) in
  let config = Protocol.config ~seed:9 () in
  let r1 = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  let r2 = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  Alcotest.(check int) "same posts" r1.Protocol.posts r2.Protocol.posts;
  Alcotest.(check int) "same offline cost" r1.Protocol.offline_elements r2.Protocol.offline_elements

let test_e2e_k1_no_packing () =
  (* k = 1 degenerates to unpacked sharings; protocol must still work *)
  let params = Params.create ~n:8 ~t:2 ~k:1 () in
  let circuit = Gen.dot_product ~len:4 in
  let inputs c = Array.init 4 (fun i -> F.of_int ((c + 1) * (i + 1))) in
  let r = Protocol.execute ~params ~circuit ~inputs () in
  Alcotest.(check bool) "k=1 works" true (Protocol.check r circuit ~inputs)

(* ------------------------------------------------------------------ *)
(* Communication-complexity shape (Theorem 1)                          *)
(* ------------------------------------------------------------------ *)

let comm_run n =
  let params = Params.of_gap ~n ~eps:0.125 () in
  let k = params.Params.k in
  let width = n * k / 4 in
  let circuit = Gen.wide_mul_reduced ~width ~depth:2 ~clients:2 in
  let inputs c = Array.init (2 * width) (fun i -> F.of_int ((c + 2) * (i + 3))) in
  let ours = Protocol.execute ~params ~circuit ~inputs () in
  let cdn = Cdn.execute ~params ~circuit ~inputs () in
  Alcotest.(check bool) "ours correct" true (Protocol.check ours circuit ~inputs);
  Alcotest.(check bool) "cdn correct" true (Cdn.check cdn circuit ~inputs);
  (Protocol.online_per_gate ours, Cdn.online_per_gate cdn, Protocol.offline_per_gate ours)

let test_online_flat_vs_cdn_linear () =
  let ours16, cdn16, _ = comm_run 16 in
  let ours64, cdn64, _ = comm_run 64 in
  (* quadrupling n: CDN online/gate should grow ~4x (allow >2x);
     ours should stay within a small constant factor (allow < 1.6x) *)
  Alcotest.(check bool)
    (Printf.sprintf "cdn grows (%.1f -> %.1f)" cdn16 cdn64)
    true
    (cdn64 > 2.0 *. cdn16);
  Alcotest.(check bool)
    (Printf.sprintf "ours ~flat (%.1f -> %.1f)" ours16 ours64)
    true
    (ours64 < 1.6 *. ours16);
  Alcotest.(check bool) "ours beats cdn at n=64" true (ours64 < cdn64)

let test_offline_linear () =
  let _, _, off16 = comm_run 16 in
  let _, _, off64 = comm_run 64 in
  (* offline per gate is O(n): quadrupling n should stay within ~[2x, 8x] *)
  let ratio = off64 /. off16 in
  Alcotest.(check bool) (Printf.sprintf "offline ratio %.1f in [2, 8]" ratio) true
    (ratio > 2.0 && ratio < 8.0)

let test_speak_once_audit () =
  (* a full run completes: [Role.Registry.speak] raises on any second
     post by a role, so finishing is the audit.  Every committed frame
     took a board slot (ideal network, no adversary). *)
  let circuit = Gen.dot_product ~len:4 in
  let inputs c = Array.init 4 (fun i -> F.of_int (c + i + 1)) in
  let params = params16 in
  (* re-run manually to keep the board *)
  let board = Yoso_net.Board.create () in
  let ctx = Ops.create_ctx ~board ~params ~adversary:Params.no_adversary ~seed:3 () in
  let layout = Yoso_circuit.Layout.make circuit ~k:params.Params.k in
  let setup =
    Setup.run ~board ~params
      ~layers:(Array.length layout.Yoso_circuit.Layout.mult_layers)
      ~clients:(Circuit.clients circuit)
      ~rng:(Splitmix.of_int 4)
  in
  let prep = Yoso_mpc.Offline.run ctx setup layout in
  let _ = Online.run ctx setup prep ~inputs in
  let posts = Yoso_net.Board.length board in
  Alcotest.(check bool) "posts made" true (posts > 0);
  Alcotest.(check int) "one slot per frame" (Yoso_net.Board.transcript board).Yoso_net.Board.frames
    posts

let () =
  Alcotest.run "core"
    [
      ( "ideal-pke",
        [
          Alcotest.test_case "roundtrip" `Quick test_pke_roundtrip;
          Alcotest.test_case "wrong key" `Quick test_pke_wrong_key;
          Alcotest.test_case "nested payload" `Quick test_pke_nested_payload;
        ] );
      ( "ideal-te",
        [
          Alcotest.test_case "roundtrip" `Quick test_te_roundtrip;
          Alcotest.test_case "too few" `Quick test_te_too_few;
          Alcotest.test_case "eval" `Quick test_te_eval;
          Alcotest.test_case "junk partial" `Quick test_te_junk_partial_detected;
          Alcotest.test_case "reshare epochs" `Quick test_te_reshare_epochs;
          Alcotest.test_case "recombine quorum" `Quick test_te_recombine_needs_quorum;
          Alcotest.test_case "misaddressed" `Quick test_te_misaddressed_subshare;
          Alcotest.test_case "foreign ciphertext" `Quick test_te_foreign_ciphertext;
        ] );
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "of_gap" `Quick test_params_of_gap;
          Alcotest.test_case "adversary validation" `Quick test_params_adversary_validation;
          Alcotest.test_case "adversary edge cases" `Quick test_params_adversary_edge_cases;
          Alcotest.test_case "max_fail_stop clamped" `Quick test_params_max_fail_stop_clamped;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "dot product" `Quick test_e2e_dot_product;
          Alcotest.test_case "wide" `Quick test_e2e_wide;
          Alcotest.test_case "deep" `Quick test_e2e_deep;
          Alcotest.test_case "variance" `Quick test_e2e_variance;
          Alcotest.test_case "random dags" `Quick test_e2e_random_dags;
          Alcotest.test_case "random field inputs" `Quick test_e2e_random_field_inputs;
          Alcotest.test_case "malicious" `Quick test_e2e_with_malicious;
          Alcotest.test_case "fail-stop" `Quick test_e2e_with_fail_stop;
          Alcotest.test_case "mixed adversary" `Quick test_e2e_mixed_adversary;
          Alcotest.test_case "fail-stop mode (5.4)" `Quick test_e2e_failstop_mode_params;
          Alcotest.test_case "invalid adversary" `Quick test_e2e_rejects_invalid_adversary;
          Alcotest.test_case "deterministic" `Quick test_e2e_deterministic_given_seed;
          Alcotest.test_case "k = 1" `Quick test_e2e_k1_no_packing;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "online flat vs cdn linear" `Slow test_online_flat_vs_cdn_linear;
          Alcotest.test_case "offline linear" `Slow test_offline_linear;
          Alcotest.test_case "speak-once audit" `Quick test_speak_once_audit;
        ] );
    ]
