(* yoso — command-line driver for the YOSO MPC library.

   Subcommands:
     yoso run       execute the packed protocol (or a baseline) on a
                    generated circuit and report outputs + costs
     yoso analyze   Section-6 committee-size analysis (one cell or the
                    whole Table 1 grid)
     yoso sortition Monte-Carlo sortition validation  *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Cdn = Yoso_mpc.Cdn_baseline
module Bgw = Yoso_mpc.Bgw_baseline
module Gen = Yoso_circuit.Generators
module Circuit = Yoso_circuit.Circuit
module Analysis = Yoso_sortition.Analysis
module Sampler = Yoso_sortition.Sampler
module Faults = Yoso_runtime.Faults
module Board = Yoso_net.Board
module Meter = Yoso_net.Meter
module Sim = Yoso_net.Sim
module Factory = Yoso_factory.Factory
module Depot = Yoso_factory.Depot
module Runner = Yoso_transport.Runner
module Daemon = Yoso_transport.Daemon
module Json = Yoso_runtime.Json
module Lang = Yoso_lang.Compiler
module Programs = Yoso_lang.Programs
open Cmdliner

(* ------------------------------------------------------------------ *)
(* circuit selection                                                   *)
(* ------------------------------------------------------------------ *)

let build_circuit kind size seed =
  match kind with
  | "dot" -> (Gen.dot_product ~len:size, size)
  | "wide" -> (Gen.wide_mul_reduced ~width:size ~depth:2 ~clients:2, 2 * size)
  | "poly" -> (Gen.poly_eval ~degree:size, size + 1)
  | "variance" -> (Gen.variance_numerator ~parties:(max 2 size), 3)
  | "matvec" -> (Gen.matrix_vector ~rows:size ~cols:size, size * size)
  | "random" ->
    (Gen.random_dag ~gates:(10 * size) ~clients:2 ~mul_fraction:0.5 ~seed, 2)
  | other -> failwith (Printf.sprintf "unknown circuit kind %S" other)

let demo_inputs kind size len client =
  match kind with
  | "variance" ->
    if client = 0 then [| F.of_int 7; F.of_int (max 2 size); F.of_int (-1) |]
    else [| F.of_int ((3 * client) + 1) |]
  | _ -> Array.init len (fun i -> F.of_int (((client + 2) * (i + 3)) mod 1000))

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* Multi-process execution: every committee member is a forked OS
   process replaying the same seeded protocol; frames cross real
   sockets through the bulletin-board daemon.  The parent serves the
   board and prints the (unanimous) report. *)
let run_transport ~deadline_ms ?journal ?chaos ~topology ~params ~circuit ~inputs
    ~base_config ~json ~extra n =
  let transport = base_config.Protocol.net.Protocol.transport in
  let endpoint = if transport = "tcp" then `Tcp else `Unix_socket in
  (* the journal and the chaos schedule belong to the daemon, not to
     [execute] *)
  let chaos =
    Option.map (fun spec -> Yoso_transport.Chaos.create (Yoso_transport.Chaos.parse spec)) chaos
  in
  let child ~slot:_ ~link =
    let config =
      { base_config with
        Protocol.net = { base_config.Protocol.net with Protocol.link = Some link } }
    in
    match Protocol.execute ~params ~config ~circuit ~inputs () with
    | r -> Json.to_string (Protocol.report_json ~options:{ Protocol.Report.default with extra } r)
    | exception Faults.Protocol_failure f ->
      (* still deterministic: every replica fails at the same step, so
         the reports agree on the failure too *)
      let failure =
        Printf.sprintf "%s/%s (committee %s)" f.Faults.f_phase f.Faults.f_step f.Faults.f_committee
      in
      Json.(to_string (Obj [ ("protocol_failure", String failure) ]))
  in
  let seed = base_config.Protocol.exec.Protocol.seed in
  let meter = Yoso_net.Meter.create () in
  let res =
    Runner.run ~endpoint ~deadline_ms ~meter ?journal ?chaos ~topology ~nslots:n ~seed
      ~child ()
  in
  (match res.Runner.reports with
  | [] ->
    Format.eprintf "transport run produced no reports (down: %s)@."
      (String.concat "," (List.map string_of_int res.Runner.down));
    exit 2
  | (_, first) :: _ ->
    if json then begin
      let st = res.Runner.stats in
      let daemon =
        [ ("frames_in", st.Daemon.frames_in); ("frames_out", st.Daemon.frames_out);
          ("digests_out", st.Daemon.digests_out); ("batches_out", st.Daemon.batches_out);
          ("suppressed_bytes", st.Daemon.suppressed_bytes);
          ("bytes_in", st.Daemon.bytes_in);
          ("bytes_out", st.Daemon.bytes_out); ("reconnects", st.Daemon.reconnects);
          ("replayed_frames", st.Daemon.replayed_frames);
          ("recovered_frames", st.Daemon.recovered_frames);
          ("journal_bytes", st.Daemon.journal_bytes); ("shards", st.Daemon.shards);
          ("digest", st.Daemon.digest) ]
      in
      print_endline
        Json.(
          to_string
            (Obj
               [ ("transport", String transport); ("nslots", Int n);
                 ("agree", Bool res.Runner.agree); ("wall_ms", Float (1, res.Runner.wall_ms));
                 ("down", List (List.map (fun s -> Int s) res.Runner.down));
                 ("restarts", Int res.Runner.restarts);
                 ("daemon", Obj (List.map (fun (k, v) -> (k, Int v)) daemon));
                 (* the members' unanimous report, as they sent it *)
                 ("report", Raw first) ]))
    end
    else begin
      Format.printf "transport: %s, %d member processes + board daemon@." transport n;
      Format.printf "reports: %d collected, unanimous: %b, down: [%s]@."
        (List.length res.Runner.reports) res.Runner.agree
        (String.concat ";" (List.map string_of_int res.Runner.down));
      (match Runner.json_int_field first ~field:"digest" with
      | Some d -> Format.printf "transcript digest: %d@." d
      | None -> ());
      Format.printf "daemon: %d frames in, %d delivered, %d B in, %d B out@."
        res.Runner.stats.Yoso_transport.Daemon.frames_in
        res.Runner.stats.Yoso_transport.Daemon.frames_out
        res.Runner.stats.Yoso_transport.Daemon.bytes_in
        res.Runner.stats.Yoso_transport.Daemon.bytes_out;
      Format.printf
        "routing: %a, %d digest records, %d batches, %d B suppressed, daemon digest %d@."
        Yoso_transport.Topology.pp topology
        res.Runner.stats.Yoso_transport.Daemon.digests_out
        res.Runner.stats.Yoso_transport.Daemon.batches_out
        res.Runner.stats.Yoso_transport.Daemon.suppressed_bytes
        res.Runner.stats.Yoso_transport.Daemon.digest;
      if
        res.Runner.restarts > 0
        || res.Runner.stats.Yoso_transport.Daemon.reconnects > 0
        || res.Runner.stats.Yoso_transport.Daemon.journal_bytes > 0
      then
        Format.printf
          "recovery: %d daemon restarts, %d reconnects, %d frames replayed, %d \
           recovered from journal (%d B)@."
          res.Runner.restarts res.Runner.stats.Yoso_transport.Daemon.reconnects
          res.Runner.stats.Yoso_transport.Daemon.replayed_frames
          res.Runner.stats.Yoso_transport.Daemon.recovered_frames
          res.Runner.stats.Yoso_transport.Daemon.journal_bytes;
      (match res.Runner.stats.Yoso_transport.Daemon.chaos_events with
      | [] -> ()
      | evs ->
        Format.printf "chaos: %s@."
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) evs)));
      Format.printf "wall: %.1f ms@." res.Runner.wall_ms
    end);
  if res.Runner.agree && res.Runner.down = [] then 0 else 2

let run_protocol params protocol program kind size n t malicious fail_stop seed fault_seed json
    net_seed latency drop domains transport deadline_ms journal chaos shards quorum stream =
  let circuit, inputs, compiled =
    match program with
    | None ->
      let circuit, len = build_circuit kind size seed in
      (circuit, demo_inputs kind size len, None)
    | Some name ->
      let p = Programs.by_name name ~size in
      let c = Lang.compile p in
      ( c.Lang.circuit,
        Lang.protocol_inputs c ~inputs:(Programs.demo_inputs p ~seed),
        Some c )
  in
  let extra =
    match compiled with
    | Some c -> [ ("compiler", Lang.stats_json c) ]
    | None -> []
  in
  let net =
    let model =
      { Sim.ideal with Sim.latency_ms = latency; drop = max 0. (min 1. drop) }
    in
    { Board.default_config with Board.model; net_seed }
  in
  if not json then begin
    (match compiled with
    | Some c ->
      Format.printf "%a" Lang.pp_pipeline c;
      Format.printf "compiled matches interpreter: %b@."
        (Lang.check c ~inputs:(Programs.demo_inputs c.Lang.program ~seed))
    | None -> ());
    Format.printf "circuit: %a@." Circuit.pp_stats circuit;
    Format.printf "params:  %a@." Params.pp params
  end;
  (match protocol with
  | `Packed ->
    let adversary = { Params.malicious; passive = 0; fail_stop } in
    let plan = Faults.random ~seed:(Option.value ~default:seed fault_seed) in
    if transport <> "sim" then begin
      let topology = Yoso_transport.Topology.make ~shards ?quorum ~nslots:n () in
      let base_config = Protocol.config ~adversary ~plan ~seed ~board:net ~domains ~transport () in
      exit
        (run_transport ~deadline_ms ?journal ?chaos ~topology ~params ~circuit ~inputs
           ~base_config ~json ~extra n)
    end;
    let config = Protocol.config ~adversary ~plan ~seed ~board:net ~domains () in
    if stream > 1 then begin
      let jobs = Array.init stream (fun _ -> { Factory.circuit; inputs }) in
      let r = Factory.stream ~params ~config ~jobs () in
      if json then print_endline (Json.to_string (Factory.report_json r))
      else begin
        Format.printf "factory: %d circuits, %d mult gates, %.1f ms wall, %.1f gates/s@."
          r.Factory.circuits r.Factory.total_mult r.Factory.wall_ms r.Factory.gates_per_sec;
        let d = r.Factory.depot in
        Format.printf
          "depot: %d puts / %d draws, peak %d circuits, producer blocked %d, consumer \
           blocked %d@."
          d.Depot.puts d.Depot.draws d.Depot.max_occupancy d.Depot.producer_blocks
          d.Depot.consumer_blocks;
        Format.printf "refills: %d batches, %d B attributed, %d while the consumer waited or ran online@."
          (List.length (Meter.refills r.Factory.meter))
          (Meter.side_total r.Factory.meter Meter.Refill)
          r.Factory.refills_during_online;
        List.iter
          (fun cr ->
            Format.printf "  c%d: seed=%d digest=%d correct=%b@." cr.Factory.index
              cr.Factory.seed
              cr.Factory.report.Protocol.transcript.Board.digest
              (Protocol.check cr.Factory.report circuit ~inputs))
          r.Factory.results
      end;
      exit 0
    end;
    let r =
      try Protocol.execute ~params ~config ~circuit ~inputs ()
      with Faults.Protocol_failure f ->
        Format.eprintf
          "protocol failure: %s/%s (committee %s): %d contributions survived, %d \
           required — the network or the adversary silenced too many roles@."
          f.Faults.f_phase f.Faults.f_step f.Faults.f_committee f.Faults.surviving
          f.Faults.required;
        exit 2
    in
    if json then
      print_endline
        (Json.to_string
           (Protocol.report_json
              ~options:{ Protocol.Report.default with Protocol.Report.timings = true; extra }
              r))
    else begin
      List.iter
        (fun o ->
          Format.printf "output: client %d wire %d = %a@." o.Yoso_mpc.Online.client
            o.Yoso_mpc.Online.wire F.pp o.Yoso_mpc.Online.value)
        r.Protocol.outputs;
      Format.printf "correct: %b@." (Protocol.check r circuit ~inputs);
      Format.printf
        "cost: setup=%d offline=%d online=%d elements (%.1f offline/gate, %.1f online/gate)@."
        r.Protocol.setup_elements r.Protocol.offline_elements r.Protocol.online_elements
        (Protocol.offline_per_gate r) (Protocol.online_per_gate r);
      Format.printf
        "bytes: setup=%d offline=%d online=%d (field data %d B online, %.1f B/gate)@."
        r.Protocol.setup_bytes r.Protocol.offline_bytes r.Protocol.online_bytes
        r.Protocol.online_field_bytes
        (Protocol.online_field_bytes_per_gate r);
      Format.printf "net: %d frames, %d late, %d dropped, %.0f ms simulated@."
        r.Protocol.net.Sim.sent r.Protocol.net.Sim.late r.Protocol.net.Sim.dropped
        r.Protocol.net.Sim.elapsed_ms;
      Format.printf "posts: %d over %d committees@." r.Protocol.posts r.Protocol.committees;
      if malicious + fail_stop > 0 then begin
        Format.printf "faults: %d detected, %d posts rejected@." r.Protocol.faults_detected
          r.Protocol.posts_rejected;
        List.iter
          (fun (kind, count) ->
            Format.printf "  %-18s %d@." (Faults.kind_to_string kind) count)
          (Faults.blame_summary r.Protocol.blames)
      end
    end
  | `Cdn ->
    let adversary = { Params.malicious; passive = 0; fail_stop } in
    let r = Cdn.execute ~params ~adversary ~seed ~circuit ~inputs () in
    List.iter
      (fun (c, w, v) -> Format.printf "output: client %d wire %d = %a@." c w F.pp v)
      r.Cdn.outputs;
    Format.printf "correct: %b@." (Cdn.check r circuit ~inputs);
    Format.printf "cost: offline=%d online=%d (%.1f online/gate)@." r.Cdn.offline_elements
      r.Cdn.online_elements (Cdn.online_per_gate r)
  | `Bgw ->
    let r = Bgw.execute ~n ~t:(min t ((n - 1) / 2)) ~seed ~circuit ~inputs () in
    List.iter
      (fun (c, w, v) -> Format.printf "output: client %d wire %d = %a@." c w F.pp v)
      r.Bgw.outputs;
    Format.printf "correct: %b@." (Bgw.check r circuit ~inputs);
    Format.printf "cost: input=%d online=%d (%.1f online/gate)@." r.Bgw.input_elements
      r.Bgw.online_elements (Bgw.online_per_gate r));
  0

(* Parameters the protocol cannot run with, and flags that do not go
   together, are usage errors, checked before anything runs: cmdliner
   prints the message and exits 124. *)
let run_cmd protocol program kind size n t k eps malicious fail_stop seed fault_seed json
    net_seed latency drop domains transport deadline_ms journal chaos shards quorum stream =
  let checked () =
    let params =
      match eps with
      | Some eps -> Params.of_gap ~n ~eps ()
      | None -> Params.create ~n ~t ~k ()
    in
    (* bgw runs no adversary *)
    if protocol <> `Bgw then
      Params.validate_adversary params { Params.malicious; passive = 0; fail_stop };
    if program <> None && protocol <> `Packed then
      invalid_arg "--program runs through the packed protocol only";
    if transport = "sim" then begin
      if journal <> None || chaos <> None then
        invalid_arg "--journal and --chaos need a socket transport (--transport unix|tcp)";
      if quorum <> None || shards > 1 then
        invalid_arg "--quorum and --shards need a socket transport (--transport unix|tcp)"
    end;
    params
  in
  match checked () with
  | exception Invalid_argument msg -> `Error (false, msg)
  | params ->
    `Ok
      (run_protocol params protocol program kind size n t malicious fail_stop seed fault_seed
         json net_seed latency drop domains transport deadline_ms journal chaos shards quorum
         stream)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd c_param f full =
  if full then begin
    Format.printf "%7s %5s | %7s %7s %7s %6s %7s@." "C" "f" "t" "c" "c'" "eps" "k";
    List.iter
      (fun (c, f, row) ->
        match row with
        | None -> Format.printf "%7d %5.2f | infeasible@." c f
        | Some r ->
          Format.printf "%7d %5.2f | %7d %7d %7d %6.3f %7d@." c f r.Analysis.t
            r.Analysis.c r.Analysis.c' r.Analysis.eps r.Analysis.k)
      (Analysis.table1 ())
  end
  else begin
    match Analysis.solve ~f c_param with
    | None -> Format.printf "C=%d f=%.2f: infeasible (⊥)@." c_param f
    | Some r ->
      Format.printf "C=%d f=%.2f:@." c_param f;
      Format.printf "  corruption bound      t   = %d@." r.Analysis.t;
      Format.printf "  committee (with gap)  c   = %d@." r.Analysis.c;
      Format.printf "  committee (eps = 0)   c'  = %d@." r.Analysis.c';
      Format.printf "  gap                   eps = %.4f@." r.Analysis.eps;
      Format.printf "  packing / improvement k   = %d@." r.Analysis.k;
      Format.printf "  slacks: eps1=%.3f eps2=%.3f eps3=%.3f delta=%.4f@." r.Analysis.eps1
        r.Analysis.eps2 r.Analysis.eps3 r.Analysis.delta
  end;
  0

(* ------------------------------------------------------------------ *)
(* sortition                                                           *)
(* ------------------------------------------------------------------ *)

let sortition_cmd c_param f pool trials seed =
  match Analysis.solve ~f c_param with
  | None ->
    Format.printf "C=%d f=%.2f: infeasible@." c_param f;
    1
  | Some row ->
    let pool = match pool with Some p -> p | None -> max (20 * c_param) 100_000 in
    let stats = Sampler.run ~pool ~f ~row ~trials (Yoso_hash.Splitmix.of_int seed) in
    Format.printf "%a@." Sampler.pp stats;
    if stats.Sampler.corruption_bound_violations = 0 && stats.Sampler.gap_violations = 0
    then 0
    else 1

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let n_arg = Arg.(value & opt int 16 & info [ "n"; "committee" ] ~doc:"Committee size.")
let t_arg = Arg.(value & opt int 5 & info [ "t"; "corrupt" ] ~doc:"Malicious bound per committee.")
let k_arg = Arg.(value & opt int 3 & info [ "k"; "pack" ] ~doc:"Packing factor.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.")

let run_t =
  let protocol =
    Arg.(
      value
      & opt (enum [ ("packed", `Packed); ("cdn", `Cdn); ("bgw", `Bgw) ]) `Packed
      & info [ "protocol"; "p" ] ~doc:"packed, cdn or bgw.")
  in
  let program =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"NAME"
          ~doc:
            "Compile a DSL program through the yoso_lang optimizing front-end \
             instead of using a generated circuit: $(b,auction), $(b,variance), \
             $(b,tally) or $(b,linear_model).  $(b,--size) sets the number of \
             bidders / parties / voters / features; inputs are deterministic \
             demo values derived from $(b,--seed).  Packed protocol only; works \
             with every transport.  The JSON report gains a \"compiler\" field \
             with per-pass statistics.")
  in
  let kind =
    Arg.(
      value & opt string "dot"
      & info [ "circuit"; "c" ] ~doc:"dot, wide, poly, variance, matvec or random.")
  in
  let size = Arg.(value & opt int 8 & info [ "size"; "s" ] ~doc:"Circuit size parameter.") in
  let eps =
    Arg.(
      value
      & opt (some float) None
      & info [ "eps" ] ~doc:"Derive t and k from a corruption gap instead of --t/--k.")
  in
  let malicious =
    Arg.(value & opt int 0 & info [ "malicious" ] ~doc:"Malicious roles per committee.")
  in
  let fail_stop =
    Arg.(value & opt int 0 & info [ "fail-stop" ] ~doc:"Crashed roles per committee.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ]
          ~doc:
            "Seed for the adversary's fault plan (which tampering each corrupted role \
             performs); defaults to --seed.  Replaying a fault seed replays the attack.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the full report (counts, measured bytes, network stats) as JSON.")
  in
  let net_seed =
    Arg.(
      value & opt int 1
      & info [ "net-seed" ]
          ~doc:
            "Seed of the simulated network (jitter, loss, synthesized frame bytes).  \
             Equal seeds replay byte-identical transcripts.")
  in
  let latency =
    Arg.(
      value & opt float 0.
      & info [ "latency" ] ~doc:"Per-link latency in ms for the simulated network.")
  in
  let drop =
    Arg.(
      value & opt float 0.
      & info [ "drop" ]
          ~doc:
            "Per-message loss probability on the simulated network (honest posts that \
             vanish are treated like fail-stops; the run may abort with a protocol \
             failure if too few contributions survive).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Worker domains for committee fan-out (packed protocol only).  Outputs, \
             blames and the transcript digest are identical at every value; only \
             wall-clock time changes.")
  in
  let transport =
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s, s)) [ "sim"; "unix"; "tcp" ])) "sim"
      & info [ "transport" ]
          ~doc:
            "How frames travel (packed protocol only).  $(b,sim) keeps everything \
             in-process; $(b,unix) and $(b,tcp) fork one OS process per committee \
             member and route every frame through a bulletin-board daemon over \
             Unix-domain or loopback TCP sockets.  Equal seeds give transcripts \
             byte-identical to the sim run.")
  in
  let deadline =
    Arg.(
      value & opt float 10000.
      & info [ "deadline" ]
          ~doc:
            "Round deadline in wall-clock ms for socket transports: a peer that \
             stays silent past it is treated like a fail-stop.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead journal for the board daemon (socket transports only): \
             every accepted frame is appended before broadcast, and a daemon \
             restarted on the same path recovers the board and resumes serving.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Seeded socket-fault injection (socket transports only), e.g. \
             $(b,sever=0.05,dup=0.02,delay=0.05,delay-ms=20,trunc=0.01,kill=40,seed=7): \
             per-delivery sever/truncate/duplicate/delay rates plus scheduled \
             daemon kill points ($(b,kill) needs $(b,--journal)).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Partition the daemon's board bookkeeping and write-ahead journal into \
             $(docv) shards keyed by posting slot (socket transports only).  The \
             transcript digest chains across shards in global commit order, so the \
             stitched board equals an unsharded run's.")
  in
  let quorum =
    Arg.(
      value
      & opt (some int) None
      & info [ "quorum" ] ~docv:"Q"
          ~doc:
            "Full-frame fan-out (socket transports only): each frame goes in full to \
             the $(docv) slots after its owner in ring order and as a compact digest \
             record to everyone else; each member materializes only the frames it \
             owns or receives in full.  Default $(b,n-1), a full broadcast.")
  in
  let stream =
    Arg.(
      value & opt int 1
      & info [ "stream" ] ~docv:"N"
          ~doc:
            "Run $(docv) instances of the circuit through one long-lived offline \
             factory (packed protocol, sim transport): a background producer domain \
             preprocesses circuit $(b,j+1) while circuit $(b,j) runs its online \
             phase, and hands each finished circuit over a one-slot depot, so at \
             most two circuits are alive.  Per-circuit seeds are derived from \
             $(b,--seed); each circuit's transcript, blames and outputs are \
             byte-identical to a one-shot run at its derived seed.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute YOSO MPC on a generated circuit")
    Term.(
      ret
        (const run_cmd $ protocol $ program $ kind $ size $ n_arg $ t_arg $ k_arg $ eps
       $ malicious $ fail_stop $ seed_arg $ fault_seed $ json $ net_seed $ latency $ drop
       $ domains $ transport $ deadline $ journal $ chaos $ shards $ quorum $ stream))

let analyze_t =
  let c_param = Arg.(value & opt int 1000 & info [ "big-c"; "C" ] ~doc:"Sortition parameter C.") in
  let f = Arg.(value & opt float 0.05 & info [ "frac"; "f" ] ~doc:"Global corruption ratio.") in
  let full = Arg.(value & flag & info [ "table" ] ~doc:"Print the full Table 1 grid.") in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Committee-size analysis with gap (paper Section 6)")
    Term.(const analyze_cmd $ c_param $ f $ full)

let sortition_t =
  let c_param = Arg.(value & opt int 1000 & info [ "big-c"; "C" ] ~doc:"Sortition parameter C.") in
  let f = Arg.(value & opt float 0.05 & info [ "frac"; "f" ] ~doc:"Global corruption ratio.") in
  let pool =
    Arg.(value & opt (some int) None & info [ "pool" ] ~doc:"Global party pool size.")
  in
  let trials = Arg.(value & opt int 2000 & info [ "trials" ] ~doc:"Monte-Carlo trials.") in
  Cmd.v
    (Cmd.info "sortition" ~doc:"Monte-Carlo validation of the committee bounds")
    Term.(const sortition_cmd $ c_param $ f $ pool $ trials $ seed_arg)

let main =
  Cmd.group
    (Cmd.info "yoso" ~version:"1.0.0"
       ~doc:"Scalable YOSO MPC via packed secret-sharing (PODC 2025 reproduction)")
    [ run_t; analyze_t; sortition_t ]

let () = exit (Cmd.eval' main)
