module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Offline = Yoso_mpc.Offline
module Faults = Yoso_runtime.Faults
module Gen = Yoso_circuit.Generators
module Board = Yoso_net.Board
module Meter = Yoso_net.Meter
module Cost = Yoso_runtime.Cost
module Factory = Yoso_factory.Factory
module Depot = Yoso_factory.Depot

(* ------------------------------------------------------------------ *)
(* Golden transcripts: the produce/consume session split (and the
   start/prepare_batch/assemble stepper underneath Offline.run) must
   not move a single byte of the pre-split protocol's transcript.
   These constants were captured on the unsplit implementation.       *)
(* ------------------------------------------------------------------ *)

let test_golden_wide_mul () =
  let params = Params.create ~n:16 ~t:4 ~k:4 () in
  let circuit = Gen.wide_mul_reduced ~width:8 ~depth:2 ~clients:2 in
  let inputs c = Array.init 16 (fun i -> F.of_int ((c + 2) * (i + 3))) in
  let r =
    Protocol.execute ~params ~config:(Protocol.config ~seed:0xFAC7 ()) ~circuit ~inputs ()
  in
  Alcotest.(check int) "digest" 2383187397470843671 r.Protocol.transcript.Board.digest;
  Alcotest.(check int) "frames" 387 r.Protocol.transcript.Board.frames;
  Alcotest.(check int) "frame bytes" 5610596 r.Protocol.transcript.Board.frame_bytes

let test_golden_random_dag () =
  let params = Params.create ~n:8 ~t:2 ~k:2 () in
  let circuit = Gen.random_dag ~gates:24 ~clients:2 ~mul_fraction:0.5 ~seed:3 in
  let st = Random.State.make [| 0xBEE5 |] in
  let fixed = Array.init 2 (fun _ -> Array.init 2 (fun _ -> F.random st)) in
  let r =
    Protocol.execute ~params
      ~config:(Protocol.config ~seed:0xBEE5 ())
      ~circuit ~inputs:(fun c -> fixed.(c)) ()
  in
  Alcotest.(check int) "digest" 42606884155835885 r.Protocol.transcript.Board.digest;
  Alcotest.(check int) "frames" 299 r.Protocol.transcript.Board.frames

(* the stepper path is the same committees in the same order: draining
   start/prepare_batch through assemble must reproduce run exactly *)
let test_stepper_equals_run () =
  let params = Params.create ~n:8 ~t:2 ~k:2 () in
  let circuit = Gen.wide_mul_reduced ~width:4 ~depth:2 ~clients:2 in
  let inputs c = Array.init 8 (fun i -> F.of_int ((c + 1) * (i + 2))) in
  let digest_of consume_via_stepper =
    let s =
      Protocol.open_session ~params
        ~config:(Protocol.config ~seed:0x57E9 ())
        ~circuit ()
    in
    Fun.protect
      ~finally:(fun () -> Protocol.close_session s)
      (fun () ->
        let prep =
          if consume_via_stepper then begin
            let st = Protocol.start_stream s in
            let rec drain acc =
              match Offline.prepare_batch st with
              | Some item -> drain (item :: acc)
              | None -> List.rev acc
            in
            Offline.assemble (Protocol.session_layout s) (drain [])
          end
          else Protocol.produce s
        in
        let r = Protocol.consume s (Offline.source_of prep) ~inputs in
        (r.Protocol.transcript.Board.digest, r.Protocol.outputs))
  in
  let d1, o1 = digest_of false and d2, o2 = digest_of true in
  Alcotest.(check int) "stepper digest == one-shot digest" d1 d2;
  Alcotest.(check bool) "outputs equal" true (o1 = o2)

(* ------------------------------------------------------------------ *)
(* Streaming: per-circuit bytes and outputs equal independent runs     *)
(* ------------------------------------------------------------------ *)

let stream_params = Params.create ~n:8 ~t:2 ~k:2 ()

let stream_jobs n =
  Array.init n (fun j ->
      {
        Factory.circuit = Gen.wide_mul_reduced ~width:4 ~depth:2 ~clients:2;
        inputs =
          (fun c -> Array.init 8 (fun i -> F.of_int ((c + 2) * (i + 3) * (j + 1))));
      })

let test_stream_matches_oneshot () =
  let jobs = stream_jobs 3 in
  let opts =
    { Offline.default_opts with Offline.audit_triples = true; packed_reenc = true }
  in
  let r =
    Factory.stream ~params:stream_params
      ~config:(Protocol.config ~seed:0xFAC7 ~offline:opts ())
      ~jobs ()
  in
  Alcotest.(check int) "one result per job" 3 (List.length r.Factory.results);
  List.iter
    (fun cr ->
      let j = cr.Factory.index in
      let one =
        Protocol.execute ~params:stream_params
          ~config:(Protocol.config ~seed:cr.Factory.seed ~offline:opts ())
          ~circuit:jobs.(j).Factory.circuit ~inputs:jobs.(j).Factory.inputs ()
      in
      Alcotest.(check int)
        (Printf.sprintf "digest c%d" j)
        one.Protocol.transcript.Board.digest
        cr.Factory.report.Protocol.transcript.Board.digest;
      Alcotest.(check bool)
        (Printf.sprintf "outputs c%d" j)
        true
        (cr.Factory.report.Protocol.outputs = one.Protocol.outputs);
      Alcotest.(check bool)
        (Printf.sprintf "correct c%d" j)
        true
        (Protocol.check cr.Factory.report jobs.(j).Factory.circuit
           ~inputs:jobs.(j).Factory.inputs))
    r.Factory.results;
  (* refill attribution covers every produced batch of every circuit *)
  Alcotest.(check bool) "refill bytes attributed" true (Meter.side_total r.Factory.meter Meter.Refill > 0);
  (* offline traffic is remapped into the factory phase dimension *)
  Alcotest.(check bool) "factory phase populated" true
    (Cost.elements r.Factory.cost ~phase:"factory" > 0);
  Alcotest.(check int) "offline phase empty after remap" 0
    (Cost.elements r.Factory.cost ~phase:"offline")

(* the depot schedule (draw order and bytes) must not depend on the
   worker-domain count or the depot capacity *)
let test_stream_deterministic () =
  let run ~domains ~capacity =
    let r =
      Factory.stream ~params:stream_params
        ~config:(Protocol.config ~seed:0xD07 ~domains ())
        ?capacity ~jobs:(stream_jobs 3) ()
    in
    ( List.map
        (fun cr -> cr.Factory.report.Protocol.transcript.Board.digest)
        r.Factory.results,
      r.Factory.depot.Depot.draw_log )
  in
  let d1, log1 = run ~domains:1 ~capacity:None in
  let d2, log2 = run ~domains:2 ~capacity:None in
  let d3, log3 = run ~domains:1 ~capacity:(Some 40) in
  Alcotest.(check bool) "digests at 2 domains" true (d1 = d2);
  Alcotest.(check bool) "digests at tight depot" true (d1 = d3);
  Alcotest.(check bool) "draw log at 2 domains" true (log1 = log2);
  Alcotest.(check bool) "draw log at tight depot" true (log1 = log3)

(* a depot smaller than one circuit forces the producer to pause at
   the next circuit boundary; results must be unchanged.  Circuit 0's
   input callback stalls its online phase, so the producer reliably
   reaches [reserve] while circuit 0's material (far above a
   12-unit watermark) still sits in the depot. *)
let test_stream_backpressure () =
  let jobs = stream_jobs 4 in
  jobs.(0) <-
    {
      jobs.(0) with
      Factory.inputs =
        (fun c ->
          Unix.sleepf 0.08;
          jobs.(1).Factory.inputs c);
    };
  let r =
    Factory.stream ~params:stream_params
      ~config:(Protocol.config ~seed:0xBACC ())
      ~capacity:12 ~low:2 ~jobs ()
  in
  Alcotest.(check bool) "producer throttled" true
    (r.Factory.depot.Depot.producer_blocks > 0);
  Alcotest.(check bool) "consumer waited on refills" true
    (r.Factory.depot.Depot.consumer_blocks > 0);
  Alcotest.(check int) "everything drained" 0 r.Factory.depot.Depot.final_occupancy;
  List.iter
    (fun cr ->
      Alcotest.(check bool)
        (Printf.sprintf "correct c%d" cr.Factory.index)
        true
        (Protocol.check cr.Factory.report jobs.(cr.Factory.index).Factory.circuit
           ~inputs:jobs.(cr.Factory.index).Factory.inputs))
    r.Factory.results

(* ------------------------------------------------------------------ *)
(* Depot unit behavior                                                 *)
(* ------------------------------------------------------------------ *)

let test_depot_producer_blocks () =
  let d : int Depot.t = Depot.create ~capacity:4 ~low:1 () in
  Depot.put d ~circuit:0 ~kind:"x" ~units:4 41;
  let passed = Atomic.make false in
  let prod =
    Domain.spawn (fun () ->
        Depot.reserve d;
        Atomic.set passed true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "reserve blocked at high watermark" false (Atomic.get passed);
  Alcotest.(check int) "slot intact" 41 (Depot.draw d ~circuit:0 ~kind:"x");
  Domain.join prod;
  Alcotest.(check bool) "reserve resumed after drain to low" true (Atomic.get passed);
  let s = Depot.stats d in
  Alcotest.(check int) "block counted" 1 s.Depot.producer_blocks

let test_depot_consumer_blocks () =
  let d : int Depot.t = Depot.create ~capacity:8 () in
  let got = Atomic.make 0 in
  let cons = Domain.spawn (fun () -> Atomic.set got (Depot.draw d ~circuit:2 ~kind:"y")) in
  Unix.sleepf 0.05;
  Alcotest.(check int) "draw blocked on empty slot" 0 (Atomic.get got);
  Depot.put d ~circuit:2 ~kind:"y" ~units:1 7;
  Domain.join cons;
  Alcotest.(check int) "draw returned the slot" 7 (Atomic.get got);
  let s = Depot.stats d in
  Alcotest.(check int) "block counted" 1 s.Depot.consumer_blocks

let test_depot_close_and_poison () =
  let d : int Depot.t = Depot.create ~capacity:4 () in
  Depot.put d ~circuit:0 ~kind:"x" ~units:1 1;
  Depot.close d;
  Alcotest.(check int) "deposited slots still drain" 1 (Depot.draw d ~circuit:0 ~kind:"x");
  Alcotest.check_raises "missing slot raises after close" Depot.Closed (fun () ->
      ignore (Depot.draw d ~circuit:0 ~kind:"x"));
  let p : int Depot.t = Depot.create ~capacity:4 () in
  Depot.fail p (Failure "producer died");
  Alcotest.check_raises "poison propagates" (Failure "producer died") (fun () ->
      ignore (Depot.draw p ~circuit:0 ~kind:"x"))

let test_depot_validation () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Depot.create: capacity must be >= 1") (fun () ->
      ignore (Depot.create ~capacity:0 () : int Depot.t));
  Alcotest.check_raises "low < capacity"
    (Invalid_argument "Depot.create: need 0 <= low < capacity") (fun () ->
      ignore (Depot.create ~low:4 ~capacity:4 () : int Depot.t))

(* ------------------------------------------------------------------ *)
(* Triple audits end to end                                            *)
(* ------------------------------------------------------------------ *)

let run_audited ?(tamper = []) () =
  let params = Params.create ~n:8 ~t:2 ~k:2 () in
  let circuit = Gen.wide_mul_reduced ~width:4 ~depth:2 ~clients:2 in
  let inputs c = Array.init 8 (fun i -> F.of_int ((c + 3) * (i + 1))) in
  Protocol.execute ~params
    ~config:
      (Protocol.config ~seed:0xA0D1
         ~offline:
           { Offline.default_opts with Offline.audit_triples = true; audit_tamper = tamper }
         ())
    ~circuit ~inputs ()

let test_audit_catches_tampered_triple () =
  match run_audited ~tamper:[ 2 ] () with
  | _ -> Alcotest.fail "tampered triple audit passed"
  | exception Faults.Protocol_failure f ->
    Alcotest.(check string) "audit step blamed" "beaver: batch product-proof audit"
      f.Faults.f_step;
    Alcotest.(check string) "audit committee" "Off-Audit" f.Faults.f_committee

let () =
  Alcotest.run "factory"
    [
      ( "golden",
        [
          Alcotest.test_case "wide_mul n=16" `Quick test_golden_wide_mul;
          Alcotest.test_case "random_dag n=8" `Quick test_golden_random_dag;
          Alcotest.test_case "stepper == run" `Quick test_stepper_equals_run;
        ] );
      ( "stream",
        [
          Alcotest.test_case "matches one-shot" `Quick test_stream_matches_oneshot;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "backpressure" `Quick test_stream_backpressure;
        ] );
      ( "depot",
        [
          Alcotest.test_case "producer blocks" `Quick test_depot_producer_blocks;
          Alcotest.test_case "consumer blocks" `Quick test_depot_consumer_blocks;
          Alcotest.test_case "close and poison" `Quick test_depot_close_and_poison;
          Alcotest.test_case "validation" `Quick test_depot_validation;
        ] );
      ( "audit",
        [
          Alcotest.test_case "tamper caught" `Quick test_audit_catches_tampered_triple;
        ] );
    ]
