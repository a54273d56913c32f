module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit
module Layout = Yoso_circuit.Layout
module Eval = Yoso_circuit.Circuit.Eval (Yoso_field.Field.Fp)
module Cost = Yoso_runtime.Cost
module Splitmix = Yoso_hash.Splitmix
module Faults = Yoso_runtime.Faults
module Board = Yoso_net.Board
module Meter = Yoso_net.Meter
module Sim = Yoso_net.Sim
module Ops = Committee_ops
module Pool = Yoso_parallel.Pool

type report = {
  outputs : Online.output list;
  setup_elements : int;
  offline_elements : int;
  online_elements : int;
  setup_bytes : int;
  offline_bytes : int;
  online_bytes : int;
  online_field_bytes : int;
  posts : int;
  committees : int;
  num_gates : int;
  num_mult : int;
  faults_detected : int;
  posts_rejected : int;
  blames : Faults.blame list;
  net : Sim.stats;
  transcript : Board.transcript;
  meter : Meter.t;
  phase_ms : (string * float) list;
}

let offline_per_gate r = float_of_int r.offline_elements /. float_of_int (max 1 r.num_mult)
let online_per_gate r = float_of_int r.online_elements /. float_of_int (max 1 r.num_mult)

let offline_bytes_per_gate r =
  float_of_int r.offline_bytes /. float_of_int (max 1 r.num_mult)

let online_bytes_per_gate r = float_of_int r.online_bytes /. float_of_int (max 1 r.num_mult)

let online_field_bytes_per_gate r =
  float_of_int r.online_field_bytes /. float_of_int (max 1 r.num_mult)

type exec_config = {
  adversary : Params.adversary;
  plan : Faults.plan option;
  validate : bool;
  seed : int;
  domains : int;
  offline : Offline.opts;
}

type net_config = {
  board : Board.config;
  link : Board.link option;
}

type config = {
  exec : exec_config;
  net : net_config;
}

let config ?(adversary = Params.no_adversary) ?plan ?(validate = true) ?(seed = 0xC0FFEE)
    ?(domains = 1) ?(offline = Offline.default_opts) ?(board = Board.default_config) ?link
    () =
  { exec = { adversary; plan; validate; seed; domains; offline }; net = { board; link } }

let default_config = config ()

(* ------------------------------------------------------------------ *)
(* Produce/consume session halves                                       *)
(* ------------------------------------------------------------------ *)

(* One live pool for the whole process, shared by every session at
   its domain count that brings no pool of its own (the factory's
   sessions run on the stream's pool), so a run of circuits at one
   count pays one spawn and no join.  [holders] counts the open
   sessions on it.  A session at another count shuts an idle pool
   down first: idle workers still join every stop-the-world minor
   collection, and OCaml caps the live domains at 128.  If the live
   pool is held, a session at another count gets a pool of its own,
   joined when it closes.  [acquire_pool] returns the pool and its
   release. *)
type live = { pool : Pool.t; mutable holders : int }

let live : live option ref = ref None
let live_lock = Mutex.create ()
let release l () = Mutex.protect live_lock (fun () -> l.holders <- l.holders - 1)

let acquire_pool ~domains =
  Mutex.protect live_lock @@ fun () ->
  (match !live with
  | Some l when l.holders = 0 && Pool.domains l.pool <> domains ->
    Pool.shutdown l.pool;
    live := None
  | _ -> ());
  match !live with
  | _ when domains = 1 -> (Pool.sequential, ignore)
  | Some l when Pool.domains l.pool = domains ->
    l.holders <- l.holders + 1;
    (l.pool, release l)
  | Some _ ->
    let p = Pool.create ~domains in
    (p, fun () -> Pool.shutdown p)
  | None ->
    let l = { pool = Pool.create ~domains; holders = 1 } in
    live := Some l;
    (l.pool, release l)

(* A session is one circuit's run split open: [open_session] builds
   the board, committee ctx and setup (posting the setup frame);
   the produce half ([produce], or [Offline.start] + [prepare_batch]
   driven by the factory's background producer) runs preprocessing on
   it; [consume] runs the online phase against an {!Offline.source}
   and assembles the report.  [execute] is open + produce + consume in
   one call; the factory hands a session across domains once, between
   the halves, after its preprocessing is complete. *)
type session = {
  s_params : Params.t;
  s_config : config;
  s_circuit : Circuit.t;
  s_board : Board.t;
  s_ctx : Ops.ctx;
  s_layout : Layout.t;
  s_setup : Setup.t;
  s_setup_ms : float;
  mutable s_offline_ms : float;
  mutable s_release : unit -> unit;
}

let ms_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6

let open_session ~params ?(config = default_config) ?pool ~circuit () =
  let { adversary; plan; validate; seed; domains; offline = _ } = config.exec in
  let { board = net; link } = config.net in
  let board = Board.create ~config:net () in
  Board.set_link board link;
  let pool, release =
    match pool with Some p -> (p, ignore) | None -> acquire_pool ~domains
  in
  match
    let ctx = Ops.create_ctx ?plan ~validate ~pool ~board ~params ~adversary ~seed () in
    let layout = Layout.make circuit ~k:params.Params.k in
    let layers = Array.length layout.Layout.mult_layers in
    let t0 = Monotonic_clock.now () in
    let setup =
      Setup.run ~board ~params ~layers ~clients:(Circuit.clients circuit)
        ~rng:(Splitmix.of_int (seed lxor 0x5E7))
    in
    (ctx, layout, setup, ms_since t0)
  with
  | exception e ->
    release ();
    raise e
  | ctx, layout, setup, setup_ms ->
    {
      s_params = params;
      s_config = config;
      s_circuit = circuit;
      s_board = board;
      s_ctx = ctx;
      s_layout = layout;
      s_setup = setup;
      s_setup_ms = setup_ms;
      s_offline_ms = 0.;
      s_release = release;
    }

let close_session s =
  let release = s.s_release in
  s.s_release <- ignore;
  release ()

let session_board s = s.s_board
let session_layout s = s.s_layout
let record_offline_ms s ms = s.s_offline_ms <- s.s_offline_ms +. ms

let produce s =
  let t0 = Monotonic_clock.now () in
  let prep = Offline.run ~opts:s.s_config.exec.offline s.s_ctx s.s_setup s.s_layout in
  record_offline_ms s (ms_since t0);
  prep

let start_stream s = Offline.start ~opts:s.s_config.exec.offline s.s_ctx s.s_setup s.s_layout

let consume s source ~inputs =
  let board = s.s_board and ctx = s.s_ctx and circuit = s.s_circuit in
  let t0 = Monotonic_clock.now () in
  let outputs = Online.run_from ctx s.s_setup source ~inputs in
  let online_ms = ms_since t0 in
  let cost = Board.cost board in
  let meter = Board.meter board in
  {
    outputs;
    setup_elements = Cost.elements cost ~phase:"setup";
    offline_elements = Cost.elements cost ~phase:"offline";
    online_elements = Cost.elements cost ~phase:"online";
    setup_bytes = Meter.phase_total meter ~phase:"setup";
    offline_bytes = Meter.phase_total meter ~phase:"offline";
    online_bytes = Meter.phase_total meter ~phase:"online";
    online_field_bytes = Meter.kind_bytes meter ~phase:"online" Cost.Field_element;
    posts = Board.length board;
    committees = ctx.Ops.committee_counter;
    num_gates = Circuit.size circuit;
    num_mult = Circuit.num_mul circuit;
    faults_detected = Faults.faults_detected ctx.Ops.log;
    posts_rejected = Faults.posts_rejected ctx.Ops.log;
    blames = Faults.blames ctx.Ops.log;
    net = Board.sim_stats board;
    transcript = Board.transcript board;
    meter;
    phase_ms =
      [
        ("setup", s.s_setup_ms);
        ("offline", s.s_offline_ms);
        ("online", online_ms);
      ];
  }

let execute ~params ?(config = default_config) ~circuit ~inputs () =
  let s = open_session ~params ~config ~circuit () in
  Fun.protect
    ~finally:(fun () -> close_session s)
    (fun () ->
      let prep = produce s in
      consume s (Offline.source_of prep) ~inputs)

module Report = struct
  type options = { timings : bool; extra : (string * Yoso_runtime.Json.t) list }

  let default = { timings = false; extra = [] }
end

(* [timings] is opt-in because wall-clock fields would break the
   byte-equality oracles (cross-domain and cross-process reports must
   be identical) *)
let report_json ?(options = Report.default) (r : report) =
  let { Report.timings; extra } = options in
  let open Yoso_runtime.Json in
  let flt x = Float (4, x) and opt on fields = if on then fields else [] in
  let net = r.net and t = r.transcript in
  let output o =
    Obj
      [ ("client", Int o.Online.client); ("wire", Int o.Online.wire);
        ("value", Int (F.to_int o.Online.value)) ]
  in
  let blame bl =
    Obj
      [ ("role", String (Yoso_runtime.Role.to_string bl.Faults.role));
        ("kind", String (Faults.kind_to_string bl.Faults.kind));
        ("phase", String bl.Faults.phase); ("step", String bl.Faults.step) ]
  in
  Obj
    ([ ("num_gates", Int r.num_gates); ("num_mult", Int r.num_mult); ("posts", Int r.posts);
       ("committees", Int r.committees); ("setup_elements", Int r.setup_elements);
       ("offline_elements", Int r.offline_elements); ("online_elements", Int r.online_elements);
       ("offline_per_gate", flt (offline_per_gate r)); ("online_per_gate", flt (online_per_gate r));
       ("setup_bytes", Int r.setup_bytes); ("offline_bytes", Int r.offline_bytes);
       ("online_bytes", Int r.online_bytes); ("online_field_bytes", Int r.online_field_bytes);
       ("offline_bytes_per_gate", flt (offline_bytes_per_gate r));
       ("online_bytes_per_gate", flt (online_bytes_per_gate r));
       ("online_field_bytes_per_gate", flt (online_field_bytes_per_gate r));
       ("faults_detected", Int r.faults_detected); ("posts_rejected", Int r.posts_rejected) ]
    @ opt timings [ ("phase_ms", Obj (List.map (fun (p, ms) -> (p, flt ms)) r.phase_ms)) ]
    @ [ ( "net",
          Obj
            [ ("rounds", Int net.Sim.rounds); ("sent", Int net.Sim.sent);
              ("delivered", Int net.Sim.delivered); ("late", Int net.Sim.late);
              ("dropped", Int net.Sim.dropped); ("bytes_sent", Int net.Sim.bytes_sent);
              ("elapsed_ms", flt net.Sim.elapsed_ms) ] );
        ( "transcript",
          Obj
            [ ("frames", Int t.Board.frames); ("frame_bytes", Int t.Board.frame_bytes);
              ("digest", Int t.Board.digest) ] );
        ("outputs", List (List.map output r.outputs));
        ("blames", List (List.map blame r.blames)) ]
    @ extra)

let expected circuit ~inputs = Eval.run circuit ~inputs

let check report circuit ~inputs =
  let plain = expected circuit ~inputs in
  List.length plain = List.length report.outputs
  && List.for_all2
       (fun (c, v) out ->
         c = out.Online.client
         && F.equal v out.Online.value)
       plain report.outputs
