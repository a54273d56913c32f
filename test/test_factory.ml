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

(* the depot schedule (draw order and bytes), the outputs and the
   drain must not depend on the worker-domain count *)
let test_stream_deterministic () =
  let run ~domains =
    let r =
      Factory.stream ~params:stream_params
        ~config:(Protocol.config ~seed:0xD07 ~domains ())
        ~jobs:(stream_jobs 3) ()
    in
    Alcotest.(check int)
      (Printf.sprintf "everything drained at %d domains" domains)
      0 r.Factory.depot.Depot.final_occupancy;
    ( List.map
        (fun cr ->
          ( cr.Factory.report.Protocol.transcript.Board.digest,
            cr.Factory.report.Protocol.outputs ))
        r.Factory.results,
      r.Factory.depot.Depot.draw_log )
  in
  let runs1, log1 = run ~domains:1 in
  List.iter
    (fun domains ->
      let runs, log = run ~domains in
      Alcotest.(check bool) (Printf.sprintf "digests and outputs at %d domains" domains) true
        (runs1 = runs);
      Alcotest.(check bool) (Printf.sprintf "draw log at %d domains" domains) true (log1 = log))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Depot unit behavior                                                 *)
(* ------------------------------------------------------------------ *)

let test_depot_producer_blocks () =
  let d : int Depot.t = Depot.create () in
  Depot.reserve d;
  Depot.put d ~circuit:0 ~kind:"x" 40;
  Depot.put d ~circuit:0 ~kind:"y" 41;
  Depot.reserve d;
  Depot.put d ~circuit:1 ~kind:"x" 42;
  let passed = Atomic.make false in
  let prod =
    Domain.spawn (fun () ->
        Depot.reserve d;
        Atomic.set passed true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "third reserve blocked with two circuits held" false
    (Atomic.get passed);
  Alcotest.(check int) "first slot" 40 (Depot.draw d ~circuit:0 ~kind:"x");
  Unix.sleepf 0.05;
  Alcotest.(check bool) "still blocked while circuit 0 holds a slot" false
    (Atomic.get passed);
  Alcotest.(check int) "last slot" 41 (Depot.draw d ~circuit:0 ~kind:"y");
  Domain.join prod;
  Alcotest.(check bool) "reserve resumed once circuit 0 was consumed" true
    (Atomic.get passed);
  let s = Depot.stats d in
  Alcotest.(check int) "block counted" 1 s.Depot.producer_blocks

let test_depot_consumer_blocks () =
  let d : int Depot.t = Depot.create () in
  let got = Atomic.make 0 in
  let cons = Domain.spawn (fun () -> Atomic.set got (Depot.draw d ~circuit:2 ~kind:"y")) in
  Unix.sleepf 0.05;
  Alcotest.(check int) "draw blocked on empty slot" 0 (Atomic.get got);
  Depot.put d ~circuit:2 ~kind:"y" 7;
  Domain.join cons;
  Alcotest.(check int) "draw returned the slot" 7 (Atomic.get got);
  let s = Depot.stats d in
  Alcotest.(check int) "block counted" 1 s.Depot.consumer_blocks

(* a producer blocked in [reserve] is released by [close] and [fail] *)
let test_depot_close_and_poison () =
  let d : int Depot.t = Depot.create () in
  Depot.put d ~circuit:0 ~kind:"x" 1;
  Depot.close d;
  Alcotest.(check int) "deposited slots still drain" 1 (Depot.draw d ~circuit:0 ~kind:"x");
  Alcotest.check_raises "missing slot raises after close" Depot.Closed (fun () ->
      ignore (Depot.draw d ~circuit:0 ~kind:"x"));
  let p : int Depot.t = Depot.create () in
  Depot.fail p (Failure "producer died");
  Alcotest.check_raises "poison propagates" (Failure "producer died") (fun () ->
      ignore (Depot.draw p ~circuit:0 ~kind:"x"));
  List.iter
    (fun (name, stop) ->
      let d : int Depot.t = Depot.create () in
      Depot.put d ~circuit:0 ~kind:"x" 1;
      Depot.put d ~circuit:1 ~kind:"x" 2;
      let prod =
        Domain.spawn (fun () ->
            match Depot.reserve d with () -> false | exception Depot.Closed -> true)
      in
      Unix.sleepf 0.05;
      stop d;
      Alcotest.(check bool) (name ^ " releases a blocked reserve") true (Domain.join prod))
    [ ("close", Depot.close); ("fail", fun d -> Depot.fail d (Failure "consumer died")) ]

(* a producer running ahead is held at circuit boundaries and a
   consumer running ahead waits on refills; every slot arrives once, in
   put order, and the depot never holds more than two circuits.  The
   consumer starts late, so the producer reliably reaches [reserve]
   with two circuits held; circuit 3 is produced slowly, so the
   consumer reliably waits on it. *)
let test_depot_backpressure () =
  let circuits = 6 and kinds = [ "a"; "b"; "c" ] in
  let d : (int * string) Depot.t = Depot.create () in
  let prod =
    Domain.spawn (fun () ->
        for j = 0 to circuits - 1 do
          Depot.reserve d;
          List.iter
            (fun kind ->
              Depot.put d ~circuit:j ~kind (j, kind);
              if j = 3 then Unix.sleepf 0.03)
            kinds
        done;
        Depot.close d)
  in
  Unix.sleepf 0.05;
  for j = 0 to circuits - 1 do
    List.iter
      (fun kind ->
        Alcotest.(check bool) (Printf.sprintf "slot c%d/%s" j kind) true
          (Depot.draw d ~circuit:j ~kind = (j, kind)))
      kinds
  done;
  Domain.join prod;
  let s = Depot.stats d in
  Alcotest.(check bool) "producer throttled" true (s.Depot.producer_blocks > 0);
  Alcotest.(check bool) "consumer waited on refills" true (s.Depot.consumer_blocks > 0);
  Alcotest.(check bool) "at most two circuits held" true
    (s.Depot.max_occupancy <= 2 * List.length kinds);
  Alcotest.(check int) "everything drained" 0 s.Depot.final_occupancy;
  Alcotest.(check int) "every slot drawn" (circuits * List.length kinds) s.Depot.draws

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
        ] );
      ( "depot",
        [
          Alcotest.test_case "producer blocks" `Quick test_depot_producer_blocks;
          Alcotest.test_case "consumer blocks" `Quick test_depot_consumer_blocks;
          Alcotest.test_case "close and poison" `Quick test_depot_close_and_poison;
          Alcotest.test_case "backpressure" `Quick test_depot_backpressure;
        ] );
      ( "audit",
        [
          Alcotest.test_case "tamper caught" `Quick test_audit_catches_tampered_triple;
        ] );
    ]
