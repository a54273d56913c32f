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
  Alcotest.(check bool) "refill bytes attributed" true (Meter.refill_total r.Factory.meter > 0);
  (* offline traffic is remapped into the factory phase dimension *)
  Alcotest.(check bool) "factory phase populated" true
    (Cost.elements r.Factory.cost ~phase:"factory" > 0);
  Alcotest.(check int) "offline phase empty after remap" 0
    (Cost.elements r.Factory.cost ~phase:"offline")

(* digests, outputs and the depot's counts must not depend on the
   worker-domain count; circuits are drawn in job order by
   construction, one put and one draw each *)
let test_stream_deterministic () =
  let circuits = 3 in
  let run ~domains =
    let r =
      Factory.stream ~params:stream_params
        ~config:(Protocol.config ~seed:0xD07 ~domains ())
        ~jobs:(stream_jobs circuits) ()
    in
    let d = r.Factory.depot in
    Alcotest.(check (list int))
      (Printf.sprintf "one put, one draw per circuit at %d domains" domains)
      [ circuits; circuits; 1 ]
      [ d.Depot.puts; d.Depot.draws; d.Depot.max_occupancy ];
    List.map
      (fun cr ->
        ( cr.Factory.report.Protocol.transcript.Board.digest,
          cr.Factory.report.Protocol.outputs ))
      r.Factory.results
  in
  let runs1 = run ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool) (Printf.sprintf "digests and outputs at %d domains" domains) true
        (runs1 = run ~domains))
    [ 2; 4 ]

(* Under an adversary the committee shuffles decide who is malicious,
   so a session's ctx (rng, committee counter) touched from both
   domains at once shows up as a digest that moves from run to run.
   Every streamed circuit must equal its one-shot run: digest, blames
   and outputs, at 1 and 2 domains, and two streams at one seed must
   agree. *)
let test_stream_adversary_matches_oneshot () =
  let params = Params.create ~n:16 ~t:4 ~k:4 () in
  let adversary = { Params.malicious = 2; passive = 0; fail_stop = 1 } in
  let plan = Faults.random ~seed:0xBAD5 in
  let jobs = stream_jobs 4 in
  let config ~seed ~domains = Protocol.config ~adversary ~plan ~seed ~domains () in
  let outcome (r : Protocol.report) =
    (r.Protocol.transcript.Board.digest, r.Protocol.blames, r.Protocol.outputs)
  in
  let stream ~domains =
    Factory.stream ~params ~config:(config ~seed:0xAD7 ~domains) ~jobs ()
  in
  List.iter
    (fun domains ->
      let r = stream ~domains in
      List.iter
        (fun cr ->
          let j = cr.Factory.index in
          let one =
            Protocol.execute ~params
              ~config:(config ~seed:cr.Factory.seed ~domains)
              ~circuit:jobs.(j).Factory.circuit ~inputs:jobs.(j).Factory.inputs ()
          in
          let sd, sb, so = outcome cr.Factory.report and od, ob, oo = outcome one in
          let what = Printf.sprintf "c%d at %d domains" j domains in
          Alcotest.(check int) ("digest " ^ what) od sd;
          Alcotest.(check bool) ("blames " ^ what) true (sb = ob);
          Alcotest.(check bool) ("blamed someone " ^ what) true (sb <> []);
          Alcotest.(check bool) ("outputs " ^ what) true (so = oo))
        r.Factory.results)
    [ 1; 2 ];
  let outcomes () =
    List.map (fun cr -> outcome cr.Factory.report) (stream ~domains:2).Factory.results
  in
  Alcotest.(check bool) "two streams at one seed agree" true (outcomes () = outcomes ())

(* a producer failure (here a tampered triple caught by its audit)
   reaches the caller as the producer's exception, not a hang, whether
   the consumer is running the producer's chunks or asleep in its
   wait (1 domain: the two sides are the pool's only domains) or a
   worker helps as well (2 domains) *)
let test_stream_producer_failure () =
  let opts =
    { Offline.default_opts with Offline.audit_triples = true; audit_tamper = [ 2 ] }
  in
  List.iter
    (fun domains ->
      match
        Factory.stream ~params:stream_params
          ~config:(Protocol.config ~seed:0xA0D1 ~offline:opts ~domains ())
          ~jobs:(stream_jobs 3) ()
      with
      | _ -> Alcotest.failf "tampered stream delivered at %d domains" domains
      | exception Faults.Protocol_failure f ->
        Alcotest.(check string)
          (Printf.sprintf "audit committee at %d domains" domains)
          "Off-Audit" f.Faults.f_committee)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Depot unit behavior                                                 *)
(* ------------------------------------------------------------------ *)

(* a put with no consumer waiting returns only once its item is drawn *)
let test_depot_producer_blocks () =
  let d : int Depot.t = Depot.create () in
  let returned = Atomic.make false in
  let prod =
    Domain.spawn (fun () ->
        Depot.put d 40;
        Atomic.set returned true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "put waits for its draw" false (Atomic.get returned);
  Alcotest.(check int) "draw returns the item" 40 (Depot.draw d);
  Domain.join prod;
  Alcotest.(check bool) "put returned once drawn" true (Atomic.get returned);
  let s = Depot.stats d in
  Alcotest.(check (list int)) "producer block, no consumer block, one circuit held"
    [ 1; 0; 1 ]
    [ s.Depot.producer_blocks; s.Depot.consumer_blocks; s.Depot.max_occupancy ]

let test_depot_consumer_blocks () =
  let d : int Depot.t = Depot.create () in
  let got = Atomic.make 0 in
  let cons = Domain.spawn (fun () -> Atomic.set got (Depot.draw d)) in
  Unix.sleepf 0.05;
  Alcotest.(check int) "draw blocked on the empty slot" 0 (Atomic.get got);
  Depot.put d 7;
  Domain.join cons;
  Alcotest.(check int) "draw returned the item" 7 (Atomic.get got);
  let s = Depot.stats d in
  Alcotest.(check (list int)) "consumer block; the waiting consumer spares the put"
    [ 1; 0 ]
    [ s.Depot.consumer_blocks; s.Depot.producer_blocks ]

(* close and fail end draws on the empty slot and release a put
   waiting for its draw; the released item is never drawn *)
let test_depot_close_and_poison () =
  let d : int Depot.t = Depot.create () in
  Depot.close d;
  Alcotest.check_raises "draw raises after close" Depot.Closed (fun () ->
      ignore (Depot.draw d));
  Alcotest.check_raises "put raises after close" Depot.Closed (fun () -> Depot.put d 1);
  let p : int Depot.t = Depot.create () in
  Depot.fail p (Failure "producer died");
  Depot.fail p (Failure "second failure");
  Alcotest.check_raises "first poison propagates" (Failure "producer died") (fun () ->
      ignore (Depot.draw p));
  List.iter
    (fun (name, stop, raised) ->
      let d : int Depot.t = Depot.create () in
      let prod =
        Domain.spawn (fun () ->
            match Depot.put d 1 with () -> false | exception Depot.Closed -> true)
      in
      Unix.sleepf 0.05;
      stop d;
      Alcotest.(check bool) (name ^ " releases a waiting put") true (Domain.join prod);
      Alcotest.check_raises (name ^ ": the released item is not drawn") raised (fun () ->
          ignore (Depot.draw d)))
    [ ("close", Depot.close, Depot.Closed);
      ("fail", (fun d -> Depot.fail d (Failure "consumer died")), Failure "consumer died") ]

(* a producer running ahead is held until its circuit is drawn and a
   consumer running ahead waits for the next circuit; every circuit
   arrives once, in put order, and at most two are alive (one being
   consumed, one being produced or waiting).  The consumer starts
   late, so the producer reliably waits in [put]; circuit 3 is
   produced slowly, so the consumer reliably waits on it. *)
let test_depot_backpressure () =
  let circuits = 6 in
  let d : int Depot.t = Depot.create () in
  let alive = Atomic.make 0 and peak = Atomic.make 0 in
  let prod =
    Domain.spawn (fun () ->
        for j = 0 to circuits - 1 do
          let a = 1 + Atomic.fetch_and_add alive 1 in
          if a > Atomic.get peak then Atomic.set peak a;
          if j = 3 then Unix.sleepf 0.03;
          Depot.put d j
        done;
        Depot.close d)
  in
  Unix.sleepf 0.05;
  for j = 0 to circuits - 1 do
    Alcotest.(check int) (Printf.sprintf "circuit %d" j) j (Depot.draw d);
    Unix.sleepf 0.005;
    Atomic.decr alive
  done;
  Alcotest.check_raises "closed after the last circuit" Depot.Closed (fun () ->
      ignore (Depot.draw d));
  Domain.join prod;
  let s = Depot.stats d in
  Alcotest.(check bool) "producer throttled" true (s.Depot.producer_blocks > 0);
  Alcotest.(check bool) "consumer waited on a circuit" true (s.Depot.consumer_blocks > 0);
  Alcotest.(check bool) "at most two circuits alive" true (Atomic.get peak <= 2);
  Alcotest.(check (list int)) "every circuit put and drawn once" [ circuits; circuits ]
    [ s.Depot.puts; s.Depot.draws ]

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
          Alcotest.test_case "adversary matches one-shot" `Quick
            test_stream_adversary_matches_oneshot;
          Alcotest.test_case "producer failure surfaces" `Quick test_stream_producer_failure;
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
