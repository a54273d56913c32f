(* The five workloads: what one repetition runs, how it is timed from
   outside the libraries, and the oracles every repetition must pass.

   A repetition is one closed-loop client step: the next circuit is
   submitted only after the previous one returned (the factory
   submits one stream and its depot bounds what is in flight).  Every
   time below is taken around a call into a public entry point; the
   per-stage offline and online times come from timing each
   [Offline.prepare_batch] call and from stamping the first call into
   each thunk of the [Offline.source] handed to [Protocol.consume]. *)

module F = Yoso_field.Field.Fp
module B = Yoso_bigint.Bigint
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Offline = Yoso_mpc.Offline
module Cdn = Yoso_mpc.Cdn_paillier
module Factory = Yoso_factory.Factory
module Depot = Yoso_factory.Depot
module Gen = Yoso_circuit.Generators
module Circuit = Yoso_circuit.Circuit
module Board = Yoso_net.Board
module Meter = Yoso_net.Meter
module Faults = Yoso_runtime.Faults
module Pool = Yoso_parallel.Pool
module Splitmix = Yoso_hash.Splitmix
module Threshold = Yoso_paillier.Threshold

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type circuit_run = {
  online_ms : float;  (** from handing over the inputs to receiving the outputs *)
  digest : int;  (** transcript digest; equal seeds must give equal digests *)
  ok : bool;  (** outputs match plain evaluation and the blame set is right *)
}

type rep = {
  wall_s : float;
  mults : int;  (** mult gates completed *)
  runs : circuit_run array;
  layers : (string * float) list;  (** per-circuit layer values; traced reps only *)
  problems : string list;  (** layer-sum asserts that failed; traced reps only *)
}

type t = {
  name : string;
  circuits : int;  (** circuit runs per repetition *)
  rep : seed:int -> trace:bool -> rep;
  setup : seed:int -> float;  (** one trusted setup on its own, in ms *)
}

(* ------------------------------------------------------------------ *)
(* Inputs and oracles                                                  *)
(* ------------------------------------------------------------------ *)

(* every client's input vector, derived from the workload seed only *)
let input_table circuit seed of_int =
  List.map
    (fun c ->
      let len = List.length (Circuit.input_wires_of_client circuit c) in
      (c, Array.init len (fun i -> of_int (Splitmix.mix (Splitmix.mix seed c) i))))
    (Circuit.clients circuit)

let field_inputs circuit seed =
  let tbl = input_table circuit seed F.of_int in
  fun c -> List.assoc c tbl

(* The fault plan assigns every planted role its misbehaviour; honest
   verifiers must blame exactly those roles, each for what it did:
   per committee, [malicious] roles with their active kind and
   [fail_stop] roles with their omission kind, and nobody else. *)
let blames_ok ~plan ~(adversary : Params.adversary) blames =
  let per_committee = Hashtbl.create 16 in
  List.iter
    (fun (b : Faults.blame) ->
      let c = b.Faults.role.Yoso_runtime.Role.committee in
      let prev = Option.value ~default:[] (Hashtbl.find_opt per_committee c) in
      Hashtbl.replace per_committee c ((b.Faults.role.Yoso_runtime.Role.index, b.Faults.kind) :: prev))
    blames;
  Hashtbl.fold
    (fun committee entries ok ->
      let roles = List.sort_uniq compare entries in
      let active, omitted = List.partition (fun (_, k) -> Faults.is_active k) roles in
      let planted (index, kind) =
        if Faults.is_active kind then Faults.malicious_kind plan ~committee ~index = kind
        else Faults.fail_stop_kind plan ~committee ~index = kind
      in
      ok
      && List.length (List.sort_uniq compare (List.map fst roles)) = List.length roles
      && List.length active = adversary.Params.malicious
      && List.length omitted = adversary.Params.fail_stop
      && List.for_all planted roles)
    per_committee true

(* ------------------------------------------------------------------ *)
(* Byte ledger                                                         *)
(* ------------------------------------------------------------------ *)

(* Meter step labels, by prefix, to the ledger rows; a label no row
   claims lands in the phase's [other] row, so the rows always sum to
   the phase total and a new protocol step shows up there. *)
let offline_rows =
  [
    ("beaver", "beaver:");
    ("open_masked", "open masked beaver values");
    ("pack_helpers", "packing helper randoms");
    ("wire_lambdas", "random wire values");
    ("reenc_inputs", "re-encrypt input lambdas to KFF");
    ("reenc_shares", "re-encrypt packed shares to KFF");
  ]

let online_rows =
  [
    ("fkd", "future key distribution");
    ("input", "input:");
    ("mult", "multiplication:");
    ("output", "output:");
  ]

let ledger meter ~phase rows =
  let steps = Meter.steps meter ~phase in
  let row_bytes (_, prefix) =
    List.fold_left
      (fun acc (label, b) -> if String.starts_with ~prefix label then acc + b else acc)
      0 steps
  in
  let claimed label = List.exists (fun (_, prefix) -> String.starts_with ~prefix label) rows in
  let other =
    List.fold_left (fun acc (label, b) -> if claimed label then acc else acc + b) 0 steps
  in
  let named = List.map (fun ((row, _) as r) -> (row, row_bytes r)) rows in
  (named @ [ ("other", other) ], Meter.phase_total meter ~phase)

(* per-circuit byte rows of one meter, plus the exact-sum asserts *)
let byte_layers meter ~circuits =
  let per v = float_of_int v /. float_of_int circuits in
  let problems = ref [] in
  let rows phase table =
    let named, total = ledger meter ~phase table in
    let sum = List.fold_left (fun acc (_, b) -> acc + b) 0 named in
    if sum <> total then
      problems :=
        Printf.sprintf "%s step bytes sum to %d, phase total is %d" phase sum total
        :: !problems;
    List.map (fun (row, b) -> (Printf.sprintf "%s.%s.bytes" phase row, per b)) named
  in
  let framing =
    List.fold_left (fun acc phase -> acc + Meter.framing_bytes meter ~phase) 0 (Meter.phases meter)
  in
  let layers =
    (("setup.bytes", per (Meter.phase_total meter ~phase:"setup")) :: rows "offline" offline_rows)
    @ rows "online" online_rows
    @ [ ("wire.framing.bytes", per framing) ]
  in
  (layers, !problems)

(* ------------------------------------------------------------------ *)
(* Process-wide probes for traced reps                                 *)
(* ------------------------------------------------------------------ *)

let gc_layers ~circuits (g0 : Gc.stat) (g1 : Gc.stat) =
  let per v = float_of_int v /. float_of_int circuits in
  [
    ("gc.minor_per_circuit", per (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("gc.major_per_circuit", per (g1.Gc.major_collections - g0.Gc.major_collections));
    ("gc.promoted_mwords", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
  ]

(* chunk samples drained from the pool's profiling hook; busy ratio is
   chunk time over the domains' combined wall, imbalance the busiest
   domain's chunk time over the mean *)
let pool_layers ~domains ~wall_s samples =
  let busy = Array.make (max 1 domains) 0. in
  List.iter
    (fun (d, _, ms) -> if d < Array.length busy then busy.(d) <- busy.(d) +. ms)
    samples;
  let total = Array.fold_left ( +. ) 0. busy in
  let mean = total /. float_of_int (Array.length busy) in
  [
    ("pool.chunks", float_of_int (List.length samples));
    ("pool.busy_ratio", total /. (1000. *. wall_s *. float_of_int (max 1 domains)));
    ("pool.imbalance", if mean > 0. then Array.fold_left Float.max 0. busy /. mean else 0.);
  ]

(* wraps [f] with the per-circuit probes of a traced rep *)
let probed ~trace ~domains ~circuits f =
  if not trace then f ()
  else begin
    ignore (Pool.drain_profile ());
    Pool.set_profiling true;
    let g0 = Gc.quick_stat () in
    let rep = Fun.protect ~finally:(fun () -> Pool.set_profiling false) f in
    let g1 = Gc.quick_stat () in
    let samples = Pool.drain_profile () in
    {
      rep with
      layers =
        rep.layers @ gc_layers ~circuits g0 g1 @ pool_layers ~domains ~wall_s:rep.wall_s samples;
    }
  end

let within_5pct ~what ~parts ~whole =
  if Float.abs (parts -. whole) <= 0.05 *. whole then []
  else [ Printf.sprintf "%s: parts sum to %.3f ms, whole is %.3f ms" what parts whole ]

let committee_layers ~circuits (r : Protocol.report list) =
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 r in
  let per v = float_of_int v /. float_of_int circuits in
  let posts = sum (fun x -> x.Protocol.posts) in
  let rejected = sum (fun x -> x.Protocol.posts_rejected) in
  let mults = max 1 (sum (fun x -> x.Protocol.num_mult)) in
  let per_gate v = float_of_int v /. float_of_int mults in
  [
    ("committee.blames", per (sum (fun x -> List.length x.Protocol.blames)));
    ("committee.posts_rejected", per rejected);
    ( "committee.verified_ratio",
      if posts = 0 then 0. else float_of_int (posts - rejected) /. float_of_int posts );
    ("board.posts", per posts);
    ("board.frames", per (sum (fun x -> x.Protocol.transcript.Board.frames)));
    ("online_bytes_per_gate", per_gate (sum (fun x -> x.Protocol.online_bytes)));
    ("online_field_bytes_per_gate", per_gate (sum (fun x -> x.Protocol.online_field_bytes)));
    ("offline_bytes_per_gate", per_gate (sum (fun x -> x.Protocol.offline_bytes)));
  ]

(* ------------------------------------------------------------------ *)
(* One-shot packed protocol                                            *)
(* ------------------------------------------------------------------ *)

let session_setup ~params ~config ~circuit =
  let t0 = now () in
  let s = Protocol.open_session ~params ~config ~circuit () in
  let ms = (now () -. t0) *. 1000. in
  Protocol.close_session s;
  ms

let offline_stage kind =
  if String.starts_with ~prefix:"layer" kind then "offline.layers.ms"
  else Printf.sprintf "offline.%s.ms" kind

let packed ~name ~params ~circuit ~domains ~adversary =
  let config seed = Protocol.config ~adversary ~plan:(Faults.random ~seed) ~seed ~domains () in
  let rep ~seed ~trace =
    let config = config seed in
    let inputs = field_inputs circuit seed in
    probed ~trace ~domains ~circuits:1 @@ fun () ->
    let stages = Hashtbl.create 8 in
    let charge key dt =
      Hashtbl.replace stages key (dt +. Option.value ~default:0. (Hashtbl.find_opt stages key))
    in
    let t0 = now () in
    let s = Protocol.open_session ~params ~config ~circuit () in
    let t1, t2, t3, stamps, report =
      Fun.protect ~finally:(fun () -> Protocol.close_session s) @@ fun () ->
      let t1 = now () in
      let st = Protocol.start_stream s in
      let rec drain acc =
        let a = now () in
        match Offline.prepare_batch st with
        | None -> List.rev acc
        | Some item ->
          charge (offline_stage (Offline.item_kind item)) (now () -. a);
          drain (item :: acc)
      in
      let prep = Offline.assemble (Protocol.session_layout s) (drain []) in
      let t2 = now () in
      (* online stages run from one first draw to the next: the tsk
         holder (future key distribution), the input preps, the first
         mult layer's shares, and the wire lambdas (output step) *)
      let stamps = Array.make 4 None in
      let stamp i = if stamps.(i) = None then stamps.(i) <- Some (now ()) in
      let src = Offline.source_of prep in
      let source =
        {
          src with
          Offline.src_final_holder =
            (fun () ->
              stamp 0;
              src.Offline.src_final_holder ());
          src_input_preps =
            (fun () ->
              stamp 1;
              src.Offline.src_input_preps ());
          src_mult_preps =
            (fun li ->
              stamp 2;
              src.Offline.src_mult_preps li);
          src_wire_lambda =
            (fun () ->
              stamp 3;
              src.Offline.src_wire_lambda ());
        }
      in
      let report = Protocol.consume s source ~inputs in
      (t1, t2, now (), stamps, report)
    in
    let t4 = now () in
    let setup_ms = (t1 -. t0) *. 1000. and offline_ms = (t2 -. t1) *. 1000. in
    let run =
      {
        online_ms = (t3 -. t2) *. 1000.;
        digest = report.Protocol.transcript.Board.digest;
        ok =
          Protocol.check report circuit ~inputs
          && blames_ok ~plan:(Faults.random ~seed) ~adversary report.Protocol.blames;
      }
    in
    let layers, problems =
      if not trace then ([], [])
      else begin
        let at i default = Option.value ~default stamps.(i) in
        let output = at 3 t3 in
        let mult = at 2 output in
        let input = at 1 mult in
        let online =
          [
            ("online.fkd.ms", input -. t2);
            ("online.input.ms", mult -. input);
            ("online.mult.ms", output -. mult);
            ("online.output.ms", t3 -. output);
          ]
          |> List.map (fun (k, dt) -> (k, dt *. 1000.))
        in
        let offline = Hashtbl.fold (fun k dt acc -> (k, dt *. 1000.) :: acc) stages [] in
        let sum l = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. l in
        let bytes, byte_problems = byte_layers report.Protocol.meter ~circuits:1 in
        let time_problems =
          within_5pct ~what:"offline stages vs offline wall" ~parts:(sum offline)
            ~whole:offline_ms
          @ within_5pct ~what:"online stages vs online wall" ~parts:(sum online)
              ~whole:run.online_ms
          @ within_5pct ~what:"setup + offline + online stages vs rep wall"
              ~parts:(setup_ms +. sum offline +. sum online)
              ~whole:((t4 -. t0) *. 1000.)
        in
        ( [ ("setup.ms", setup_ms); ("offline_s", offline_ms /. 1000.) ]
          @ offline @ online @ bytes
          @ committee_layers ~circuits:1 [ report ],
          byte_problems @ time_problems )
      end
    in
    {
      wall_s = t4 -. t0;
      mults = report.Protocol.num_mult;
      runs = [| run |];
      layers;
      problems;
    }
  in
  { name; circuits = 1; rep; setup = (fun ~seed -> session_setup ~params ~config:(config seed) ~circuit) }

(* ------------------------------------------------------------------ *)
(* Streaming factory                                                   *)
(* ------------------------------------------------------------------ *)

let factory ~name ~params ~circuit ~circuits =
  let opts = { Offline.default_opts with Offline.audit_triples = true; packed_reenc = true } in
  let setup ~seed =
    let config = Protocol.config ~seed:(Factory.derived_seed seed 0) ~offline:opts () in
    session_setup ~params ~config ~circuit
  in
  let rep ~seed ~trace =
    let jobs =
      Array.init circuits (fun j ->
          { Factory.circuit; inputs = field_inputs circuit (Splitmix.mix seed j) })
    in
    let config = Protocol.config ~seed ~offline:opts () in
    probed ~trace ~domains:1 ~circuits @@ fun () ->
    let t0 = now () in
    let r = Factory.stream ~params ~config ~jobs () in
    let wall_s = now () -. t0 in
    let phase (report : Protocol.report) p =
      Option.value ~default:0. (List.assoc_opt p report.Protocol.phase_ms)
    in
    let reports = List.map (fun cr -> cr.Factory.report) r.Factory.results in
    let runs =
      Array.of_list
        (List.map
           (fun (cr : Factory.circuit_result) ->
             let report = cr.Factory.report in
             {
               online_ms = phase report "online";
               digest = report.Protocol.transcript.Board.digest;
               ok =
                 Protocol.check report circuit ~inputs:jobs.(cr.Factory.index).Factory.inputs
                 && report.Protocol.blames = [];
             })
           r.Factory.results)
    in
    let layers, problems =
      if not trace then ([], [])
      else begin
        let mean p =
          List.fold_left (fun acc report -> acc +. phase report p) 0. reports
          /. float_of_int circuits
        in
        let bytes, problems = byte_layers r.Factory.meter ~circuits in
        let d = r.Factory.depot in
        let batches = List.length (Meter.refills r.Factory.meter) in
        ( [
            ("setup.ms", mean "setup");
            ("offline_s", mean "offline" /. 1000.);
            ("depot.consumer_blocks", float_of_int d.Depot.consumer_blocks);
            ("depot.producer_blocks", float_of_int d.Depot.producer_blocks);
            ("depot.max_occupancy", float_of_int d.Depot.max_occupancy);
            ( "factory.overlap_ratio",
              if batches = 0 then 0.
              else float_of_int r.Factory.refills_during_online /. float_of_int batches );
          ]
          @ bytes @ committee_layers ~circuits reports,
          problems )
      end
    in
    { wall_s; mults = r.Factory.total_mult; runs; layers; problems }
  in
  { name; circuits; rep; setup }

(* ------------------------------------------------------------------ *)
(* Real threshold Paillier                                             *)
(* ------------------------------------------------------------------ *)

let real_crypto ~name ~n ~t ~bits ~circuit =
  (* the key [Cdn_paillier.execute] generates first thing *)
  let keygen_ms seed =
    let t0 = now () in
    ignore (Threshold.keygen ~bits ~n ~t ~rng:(Random.State.make [| seed |]) ());
    (now () -. t0) *. 1000.
  in
  let rep ~seed ~trace =
    let tbl = input_table circuit seed (fun v -> B.of_int (v land 0x3FFFFFFF)) in
    let inputs c = List.assoc c tbl in
    probed ~trace ~domains:1 ~circuits:1 @@ fun () ->
    let t0 = now () in
    let r = Cdn.execute ~n ~t ~bits ~seed ~circuit ~inputs () in
    let t1 = now () in
    let digest =
      List.fold_left
        (fun acc (c, w, v) -> Splitmix.mix acc (Hashtbl.hash (c, w, B.to_string v)))
        0 r.Cdn.outputs
    in
    {
      wall_s = t1 -. t0;
      mults = Circuit.num_mul circuit;
      runs =
        [|
          {
            online_ms = (t1 -. t0) *. 1000.;
            digest;
            ok = Cdn.check r circuit ~inputs && r.Cdn.rejected_contributions = 0;
          };
        |];
      layers = (if trace then [ ("setup.ms", keygen_ms seed) ] else []);
      problems = [];
    }
  in
  { name; circuits = 1; rep; setup = (fun ~seed -> keygen_ms seed) }

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let names = [ "packed_wide"; "packed_par2"; "narrow_faulty"; "factory_stream"; "real_crypto" ]

(* [toy] shrinks every workload to smoke size: same code paths, same
   oracles, a fraction of a second each *)
let make ~toy name =
  let wide ~domains =
    let n, width = if toy then (8, 8) else (64, 128) in
    let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
    packed ~name ~params
      ~circuit:(Gen.wide_mul_reduced ~width ~depth:2 ~clients:2)
      ~domains ~adversary:Params.no_adversary
  in
  match name with
  | "packed_wide" -> Some (wide ~domains:1)
  | "packed_par2" -> Some (wide ~domains:2)
  | "narrow_faulty" ->
    let n, malicious, fail_stop = if toy then (16, 2, 1) else (128, 16, 8) in
    let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
    Some
      (packed ~name ~params ~circuit:(Gen.dot_product ~len:8) ~domains:1
         ~adversary:{ Params.malicious; passive = 0; fail_stop })
  | "factory_stream" ->
    let n, width, circuits = if toy then (8, 4, 3) else (32, 32, 12) in
    let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
    Some
      (factory ~name ~params
         ~circuit:(Gen.wide_mul_reduced ~width ~depth:2 ~clients:2)
         ~circuits)
  | "real_crypto" ->
    let n, t, bits, len = if toy then (3, 1, 128, 2) else (5, 2, 512, 32) in
    Some (real_crypto ~name ~n ~t ~bits ~circuit:(Gen.dot_product ~len))
  | _ -> None
