(* E11: chaos sweep — faults below the protocol, transcript unchanged *)

module Daemon = Yoso_transport.Daemon
module Chaos = Yoso_transport.Chaos
open Harness

let run () =
  header
    "E11. Chaos harness: severs/delays/truncations/duplicates + daemon kill, \
     digest byte-identical to fault-free sim";
  let n = 8 in
  let params = Params.create ~n ~t:2 ~k:2 () in
  let seed = 0xE11 in
  let sim_r, sim_json, _, child =
    sim_and_member ~params ~seed ~circuit:(Gen.dot_product ~len:8) ~inputs:(fixture 8)
  in
  let frames = sim_r.Protocol.transcript.Board.frames in
  let digest = sim_r.Protocol.transcript.Board.digest in
  let with_journal f =
    let path = Filename.temp_file "yoso-bench-chaos" ".wal" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Sys.remove path;
        f path)
  in
  let run_case ~label ~chaos_config =
    with_journal (fun journal ->
        let chaos = Chaos.create chaos_config in
        let res, wall_ms = wall (fun () -> Runner.run ~journal ~chaos ~nslots:n ~seed ~child ()) in
        let digest_equal = matches_sim sim_json res in
        if not digest_equal then
          failwith
            (Printf.sprintf "bench chaos: case %s diverged (agree=%b down=%d)" label
               res.Runner.agree (List.length res.Runner.down));
        (label, wall_ms, res, digest_equal))
  in
  (* the drill: daemon killed mid-round, one forced disconnect per
     protocol phase (early/middle/late thirds) *)
  let drill_config =
    { Chaos.none with
      Chaos.seed;
      kill_at = [ frames / 2 ];
      sever_at = [ (frames / 6, 1); ((frames / 2) + (frames / 8), 2); (5 * frames / 6, 3) ];
    }
  in
  let rates = if !smoke then [ 0.05 ] else [ 0.0; 0.02; 0.05; 0.1 ] in
  let rate_config r =
    { Chaos.none with
      Chaos.seed;
      sever_rate = r;
      trunc_rate = r /. 2.;
      dup_rate = r /. 2.;
      delay_rate = r;
      delay_ms = 20.;
    }
  in
  Printf.printf "  %-12s %9s %9s %11s %9s %13s %7s\n" "case" "wall(ms)" "restarts"
    "reconnects" "replayed" "journal(B)" "digest";
  let cases =
    ("kill+sever", drill_config)
    :: List.map (fun r -> (Printf.sprintf "rate=%.2f" r, rate_config r)) rates
  in
  let rows =
    List.map
      (fun (label, cfg) ->
        let ((_, wall_ms, res, digest_equal) as row) = run_case ~label ~chaos_config:cfg in
        let st = res.Runner.stats in
        Printf.printf "  %-12s %9.1f %9d %11d %9d %13d %7b\n" label wall_ms
          res.Runner.restarts st.Daemon.reconnects st.Daemon.replayed_frames
          st.Daemon.journal_bytes digest_equal;
        if label = "kill+sever" && res.Runner.restarts <> 1 then
          failwith "bench chaos: kill point did not restart the daemon exactly once";
        row)
      cases
  in
  Printf.printf
    "  (every case: unanimous reports, zero blames, transcript digest byte-identical\n\
    \   to the fault-free sim — faults live below the protocol, recovery hides them)\n";
  if not !smoke then begin
    let row (label, wall_ms, res, digest_equal) =
      let st = res.Runner.stats in
      Json.(
        Obj
          [ ("case", String label); ("wall_ms", Float (1, wall_ms));
            ("restarts", Int res.Runner.restarts); ("reconnects", Int st.Daemon.reconnects);
            ("replayed", Int st.Daemon.replayed_frames);
            ("recovered", Int st.Daemon.recovered_frames);
            ("journal_bytes", Int st.Daemon.journal_bytes);
            ("digest_identical", Bool digest_equal) ])
    in
    write_json "BENCH_chaos.json"
      Json.(
        Obj
          [ ("experiment", String "chaos"); ("n", Int n); ("frames", Int frames);
            ("transcript_digest", Int digest); ("rows", List (List.map row rows)) ])
  end
