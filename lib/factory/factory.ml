module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit
module Splitmix = Yoso_hash.Splitmix
module Cost = Yoso_runtime.Cost
module Meter = Yoso_net.Meter
module Board = Yoso_net.Board
module Protocol = Yoso_mpc.Protocol
module Offline = Yoso_mpc.Offline
module Pool = Yoso_parallel.Pool

type job = {
  circuit : Circuit.t;
  inputs : int -> F.t array;
}

type circuit_result = {
  index : int;
  seed : int;
  report : Protocol.report;
}

type report = {
  results : circuit_result list;
  cost : Cost.t;
  meter : Meter.t;
  depot : Depot.stats;
  refills_during_online : int;
  circuits : int;
  total_mult : int;
  wall_ms : float;
  gates_per_sec : float;
}

let derived_seed base j = Splitmix.mix base j

let ms_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6

let stream ~params ?(config = Protocol.default_config) ~jobs () =
  if Array.length jobs = 0 then invalid_arg "Factory.stream: no jobs";
  let { Protocol.seed = base_seed; domains; _ } = config.Protocol.exec in
  (* the stream's domains (its [domains - 1] workers, the producer
     and the consumer) are one pool: either side's fan-outs are
     chunked for all of them, and a side blocked in the depot runs
     the other side's chunks *)
  let pool = Pool.shared ~domains:(domains + 1) ~submitters:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let depot = Depot.create ~pool () in
  let refill_meter = Meter.create () in
  let online_active = Atomic.make false in
  let refills_during_online = Atomic.make 0 in

  (* the whole circuit, tsk holder included, is produced before the
     handoff: the online phase starts with future key distribution,
     which needs the holder the last offline committee hands on, so a
     partial handoff would overlap nothing — and the session's ctx
     (rng, committee counter) must stay on one domain at a time *)
  let produce_circuit j job =
    let config =
      {
        config with
        Protocol.exec = { config.Protocol.exec with Protocol.seed = derived_seed base_seed j };
      }
    in
    let s = Protocol.open_session ~params ~config ~pool ~circuit:job.circuit () in
    let meter = Board.meter (Protocol.session_board s) in
    let st = Protocol.start_stream s in
    let before = ref (Meter.phase_total meter ~phase:"offline") in
    let rec refill acc =
      let t0 = Monotonic_clock.now () in
      match Offline.prepare_batch st with
      | None -> List.rev acc
      | Some item ->
        Protocol.record_offline_ms s (ms_since t0);
        let after = Meter.phase_total meter ~phase:"offline" in
        Meter.record_refill refill_meter
          ~label:(Printf.sprintf "c%d/%s" j (Offline.item_kind item))
          (after - !before);
        before := after;
        if Atomic.get online_active then Atomic.incr refills_during_online;
        refill (item :: acc)
    in
    match
      let prep = Offline.assemble (Protocol.session_layout s) (refill []) in
      Depot.put depot (s, prep)
    with
    | () -> ()
    | exception e ->
      (* never drawn: the session is still the producer's to close *)
      Protocol.close_session s;
      raise e
  in
  let producer () =
    try
      Array.iteri produce_circuit jobs;
      Depot.close depot
    with e -> Depot.fail depot e
  in

  let agg_cost = Cost.create () in
  let agg_meter = Meter.create () in
  let to_factory phase = if String.equal phase "offline" then "factory" else phase in
  let consume_circuit j job =
    (* the wait for the circuit counts as online here, as it did when
       the consumer waited for each batch inside the online phase *)
    Atomic.set online_active true;
    let s, prep = Depot.draw depot in
    Fun.protect ~finally:(fun () -> Protocol.close_session s) @@ fun () ->
    let report =
      Fun.protect
        ~finally:(fun () -> Atomic.set online_active false)
        (fun () -> Protocol.consume s (Offline.source_of prep) ~inputs:job.inputs)
    in
    let board = Protocol.session_board s in
    Cost.merge_into ~map_phase:to_factory ~dst:agg_cost (Board.cost board);
    Meter.merge_into ~dst:agg_meter (Board.meter board);
    { index = j; seed = derived_seed base_seed j; report }
  in

  let t_start = Monotonic_clock.now () in
  let prod = Domain.spawn producer in
  let results =
    match Array.to_list (Array.mapi consume_circuit jobs) with
    | results ->
      Domain.join prod;
      results
    | exception e ->
      (* unblock a producer waiting in [put], then join so the
         domain never outlives the stream call *)
      Depot.fail depot e;
      (try Domain.join prod with _ -> ());
      raise e
  in
  let wall_ms = ms_since t_start in
  Meter.merge_into ~dst:agg_meter refill_meter;
  let total_mult =
    List.fold_left (fun acc r -> acc + r.report.Protocol.num_mult) 0 results
  in
  {
    results;
    cost = agg_cost;
    meter = agg_meter;
    depot = Depot.stats depot;
    refills_during_online = Atomic.get refills_during_online;
    circuits = Array.length jobs;
    total_mult;
    wall_ms;
    gates_per_sec = float_of_int total_mult /. (wall_ms /. 1000.);
  }

let report_json r =
  let open Yoso_runtime.Json in
  let d = r.depot in
  let run cr =
    let t = cr.report.Protocol.transcript in
    Obj
      [ ("index", Int cr.index); ("seed", Int cr.seed);
        ("num_mult", Int cr.report.Protocol.num_mult); ("digest", Int t.Board.digest);
        ("frames", Int t.Board.frames) ]
  in
  Obj
    [ ("circuits", Int r.circuits); ("total_mult", Int r.total_mult);
      ("wall_ms", Float (3, r.wall_ms)); ("gates_per_sec", Float (2, r.gates_per_sec));
      ("factory_elements", Int (Cost.elements r.cost ~phase:"factory"));
      ("online_elements", Int (Cost.elements r.cost ~phase:"online"));
      ("refill_bytes", Int (Meter.refill_total r.meter));
      ("refill_batches", Int (List.length (Meter.refills r.meter)));
      ("refills_during_online", Int r.refills_during_online);
      ( "depot",
        Obj
          [ ("puts", Int d.Depot.puts); ("draws", Int d.Depot.draws);
            ("producer_blocks", Int d.Depot.producer_blocks);
            ("consumer_blocks", Int d.Depot.consumer_blocks);
            ("max_occupancy", Int d.Depot.max_occupancy) ] );
      ("runs", List (List.map run r.results)) ]
