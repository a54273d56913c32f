(* F: factory — sustained streaming throughput over one depot *)

module Factory = Yoso_factory.Factory
module Depot = Yoso_factory.Depot
module Offline = Yoso_mpc.Offline
module Feldman = Yoso_shamir.Feldman
module Meter = Yoso_net.Meter
module Circuit = Yoso_circuit.Circuit
open Harness

let outputs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Yoso_mpc.Online.output) (y : Yoso_mpc.Online.output) ->
         x.Yoso_mpc.Online.client = y.Yoso_mpc.Online.client
         && x.Yoso_mpc.Online.wire = y.Yoso_mpc.Online.wire
         && F.equal x.Yoso_mpc.Online.value y.Yoso_mpc.Online.value)
       a b

let run () =
  header "F. Offline factory: sustained gates/sec over a streamed circuit sequence";
  let circuits = if !smoke then 4 else 8 in
  let params =
    if !smoke then Params.create ~n:8 ~t:2 ~k:2 () else Params.create ~n:16 ~t:4 ~k:4 ()
  in
  let circuit =
    Gen.wide_mul_reduced
      ~width:(if !smoke then 4 else 8)
      ~depth:(if !smoke then 2 else 3)
      ~clients:2
  in
  let inputs_of j c =
    Array.init (2 * (if !smoke then 4 else 8)) (fun i -> F.of_int ((c + 2) * (i + 3) * (j + 5)))
  in
  let base_seed = 0xFAC709 in
  (* both sides run the same opts (the transcript must match), so the
     one-shot baseline and the stream verify their triple audits the
     same way, by RLC aggregation *)
  let opts =
    { Offline.default_opts with Offline.audit_triples = true; packed_reenc = true }
  in
  Feldman.prepare ();

  Printf.printf "  %d circuits (%d mult gates each), n=%d t=%d k=%d\n%!" circuits
    (Circuit.num_mul circuit) params.Params.n params.Params.t params.Params.k;
  let jobs =
    Array.init circuits (fun j -> { Factory.circuit; inputs = inputs_of j })
  in
  (* one streamed/one-shot pair: the one-shot sequence, then the
     stream, whose outputs and transcripts must equal the independent
     one-shot runs — streaming changes the schedule, never the bytes *)
  let run_pair () =
    let baseline, base_ms =
      wall (fun () ->
          Array.init circuits (fun j ->
              Protocol.execute ~params
                ~config:(Protocol.config ~seed:(Factory.derived_seed base_seed j) ~offline:opts ())
                ~circuit ~inputs:(inputs_of j) ()))
    in
    let streamed =
      Factory.stream ~params
        ~config:(Protocol.config ~seed:base_seed ~offline:opts ())
        ~jobs ()
    in
    List.iter
      (fun cr ->
        let one = baseline.(cr.Factory.index) in
        let sd = cr.Factory.report.Protocol.transcript.Board.digest in
        let od = one.Protocol.transcript.Board.digest in
        if sd <> od then
          failwith
            (Printf.sprintf "factory: circuit %d transcript diverged (%d vs %d)"
               cr.Factory.index sd od);
        if not (outputs_equal cr.Factory.report.Protocol.outputs one.Protocol.outputs) then
          failwith (Printf.sprintf "factory: circuit %d outputs diverged" cr.Factory.index);
        if not (Protocol.check cr.Factory.report circuit ~inputs:(inputs_of cr.Factory.index))
        then failwith (Printf.sprintf "factory: circuit %d outputs wrong" cr.Factory.index))
      streamed.Factory.results;
    let base_gps = float_of_int streamed.Factory.total_mult *. 1000. /. base_ms in
    (base_gps, streamed.Factory.gates_per_sec, streamed)
  in
  (* the pair [runs] times; every figure below is the median run's, by
     streamed/one-shot ratio, and the spread is over all runs *)
  let runs = if !smoke then 1 else 9 in
  let pairs =
    List.sort
      (fun (b1, s1, _) (b2, s2, _) -> compare (s1 /. b1) (s2 /. b2))
      (List.init runs (fun _ -> run_pair ()))
  in
  let base_gps, stream_gps, streamed = List.nth pairs (runs / 2) in
  let total_mult = streamed.Factory.total_mult in
  let spread f =
    let v = List.map f pairs in
    (List.fold_left Float.min infinity v, List.fold_left Float.max neg_infinity v)
  in
  let base_lo, base_hi = spread (fun (b, _, _) -> b) in
  let stream_lo, stream_hi = spread (fun (_, s, _) -> s) in
  let ratio_lo, ratio_hi = spread (fun (b, s, _) -> s /. b) in
  Printf.printf "  streamed outputs / digests == one-shot runs: true (%d runs)\n" runs;

  let d = streamed.Factory.depot in
  Printf.printf "  one-shot : %7.1f gates/s (runs %.1f-%.1f)\n" base_gps base_lo base_hi;
  Printf.printf "  streamed : %7.1f gates/s (%.1f ms total, %.2fx; runs %.1f-%.1f, %.2f-%.2fx)\n"
    stream_gps streamed.Factory.wall_ms (stream_gps /. base_gps) stream_lo stream_hi ratio_lo
    ratio_hi;
  Printf.printf
    "  depot    : peak %d circuits, %d puts, %d refills during online, producer \
     blocked %d, consumer blocked %d\n"
    d.Depot.max_occupancy d.Depot.puts streamed.Factory.refills_during_online
    d.Depot.producer_blocks d.Depot.consumer_blocks;
  Printf.printf "  refills  : %d batches, %d B attributed\n"
    (List.length (Meter.refills streamed.Factory.meter))
    (Meter.refill_total streamed.Factory.meter);
  if streamed.Factory.refills_during_online = 0 then
    failwith "factory: no producer/consumer overlap observed";
  (* the stream must sustain at least one-shot throughput: it overlaps
     preprocessing with online execution.  The full bar only means
     something with a core for each side of the pipeline — on one
     core the two domains time-slice and every minor GC syncs them,
     so there (and in smoke mode, where circuits are tiny) only a
     pipeline-not-pathological floor applies.  It is held by the
     median run. *)
  let cores = Domain.recommended_domain_count () in
  let floor, why =
    if (not !smoke) && cores >= 2 then (1.0, "full bar")
    else (0.4, if !smoke then "smoke mode" else "single core")
  in
  Printf.printf "  throughput bar: streamed >= %.2fx one-shot (%s)\n" floor why;
  if stream_gps < floor *. base_gps then
    failwith
      (Printf.sprintf "factory: streamed %.1f gates/s < %.2fx one-shot %.1f gates/s"
         stream_gps floor base_gps);

  (* RLC audit verification vs per-proof checks, same proof set *)
  let m = if !smoke then 48 else 256 in
  let rng = Random.State.make [| 0xFACB; m |] in
  let batch =
    Array.init m (fun _ ->
        let x = F.random rng and y = F.random rng in
        Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y))
  in
  let reps = if !smoke then 20 else 50 in
  let (), each_ms =
    wall (fun () ->
        for _ = 1 to reps do
          if not (Array.for_all (fun (st, p) -> Feldman.Product.verify st p) batch) then
            failwith "factory: honest proof rejected"
        done)
  in
  let (), rlc_ms =
    wall (fun () ->
        for _ = 1 to reps do
          if not (Feldman.Product.verify_batch batch) then
            failwith "factory: honest batch rejected"
        done)
  in
  let each_us = each_ms *. 1e3 /. float_of_int (reps * m) in
  let rlc_us = rlc_ms *. 1e3 /. float_of_int (reps * m) in
  Printf.printf "  audit    : per-proof %.2f us/triple, RLC %.2f us/triple (%.1fx)\n"
    each_us rlc_us (each_us /. rlc_us);
  if (not !smoke) && rlc_us >= each_us then
    failwith "factory: RLC verification not cheaper than per-proof checks";

  if not !smoke then begin
    write_json "BENCH_factory.json"
      Json.(
        Obj
          [ ("circuits", Int circuits); ("total_mult", Int total_mult);
            (* the timing cells are the median of [runs] runs (by
               speedup) on a box with [cores] cores; [spread] is the
               range over all of them *)
            ("cores", Int cores); ("runs", Int runs);
            ("oneshot_gates_per_sec", Float (2, base_gps));
            ("streamed_gates_per_sec", Float (2, stream_gps));
            ("speedup", Float (3, stream_gps /. base_gps));
            ( "spread",
              let range lo hi = List [ Float (2, lo); Float (2, hi) ] in
              Obj
                [ ("oneshot_gates_per_sec", range base_lo base_hi);
                  ("streamed_gates_per_sec", range stream_lo stream_hi);
                  ("speedup", List [ Float (3, ratio_lo); Float (3, ratio_hi) ]) ] );
            ("audit_each_us_per_triple", Float (3, each_us));
            ("audit_rlc_us_per_triple", Float (3, rlc_us));
            ("stream", Factory.report_json streamed) ])
  end
