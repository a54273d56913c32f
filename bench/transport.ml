(* E10: multi-process socket transport vs in-process sim *)

module Daemon = Yoso_transport.Daemon
module Topology = Yoso_transport.Topology
open Harness

let run () =
  header "E10. Socket transport: one OS process per committee member vs in-process sim";
  let n_sweep = if !smoke then [ 16 ] else [ 16; 32 ] in
  let circuit = Gen.dot_product ~len:8 in
  let inputs = fixture 8 in
  Printf.printf "  %-5s %-14s %10s %8s | %12s %8s %7s\n" "n" "geometry" "wall (ms)"
    "agree" "egress (B)" "vs bcast" "ratio";
  let rows =
    List.concat_map
      (fun n ->
        let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
        let seed = 0xE10 in
        let sim_r, sim_json, sim_ms, child = sim_and_member ~params ~seed ~circuit ~inputs in
        let sim_digest = sim_r.Protocol.transcript.Board.digest in
        (* two geometries over the same seeded run: full-quorum
           broadcast and the n/8 quorum *)
        let geometries =
          [
            ("broadcast", Topology.make ~nslots:n ());
            ("routed", Topology.make ~quorum:(Topology.default_quorum ~nslots:n) ~nslots:n ());
          ]
        in
        let bcast_egress = ref 0 in
        List.map
          (fun (geometry, (topology : Topology.t)) ->
            let routed = topology.Topology.quorum < n - 1 in
            let res = Runner.run ~topology ~nslots:n ~seed ~child () in
            let st = res.Runner.stats in
            let egress = st.Daemon.bytes_out in
            if not routed then bcast_egress := egress;
            let vs_bcast = float_of_int egress /. float_of_int (max 1 !bcast_egress) in
            (* full-frame deliveries over all deliveries *)
            let ratio =
              float_of_int st.Daemon.frames_out
              /. float_of_int (max 1 (st.Daemon.frames_out + st.Daemon.digests_out))
            in
            Printf.printf "  %-5d %-14s %10.1f %8b | %12d %7.0f%% %7.2f\n" n geometry
              res.Runner.wall_ms res.Runner.agree egress (vs_bcast *. 100.) ratio;
            if not (matches_sim sim_json res) then
              failwith
                (Printf.sprintf "bench transport: n=%d %s run diverged from sim (agree=%b)" n
                   geometry res.Runner.agree);
            (* the daemon's digest chain equals the board transcript
               every member (and the sim) reports *)
            if st.Daemon.digest <> sim_digest then
              failwith
                (Printf.sprintf "bench transport: n=%d %s daemon digest %d <> sim digest %d" n
                   geometry st.Daemon.digest sim_digest);
            if routed then begin
              (* routing must actually suppress traffic: the full-frame
                 share of deliveries is quorum/n, far below 1 *)
              if ratio >= 0.5 then
                failwith
                  (Printf.sprintf "bench transport: n=%d %s routing ratio %.2f >= 0.5" n
                     geometry ratio);
              (* the headline claim: routed egress is at most a fifth of
                 the broadcast geometry's on the same run *)
              if egress * 5 > !bcast_egress then
                failwith
                  (Printf.sprintf
                     "bench transport: n=%d %s egress %d B > 1/5 of broadcast %d B" n
                     geometry egress !bcast_egress)
            end;
            (n, geometry, topology, sim_ms, res, sim_digest, ratio, vs_bcast))
          geometries)
      n_sweep
  in
  Printf.printf
    "  (every report unanimous across both geometries; routed members receive\n\
    \   full frames only from their quorum sources plus digest records from the rest,\n\
    \   yet the daemon's digest chain still equals the in-process transcript)\n";
  if not !smoke then begin
    let row (n, geometry, (topology : Topology.t), sim_ms, res, sim_digest, ratio, vs_bcast) =
      let st = res.Runner.stats in
      Json.(
        Obj
          [ ("n", Int n); ("geometry", String geometry);
            ("routed", Bool (topology.Topology.quorum < n - 1));
            ("quorum", Int topology.Topology.quorum);
            ("sim_ms", Float (1, sim_ms));
            ("unix_ms", Float (1, res.Runner.wall_ms)); ("agree", Bool res.Runner.agree);
            ("transcript_digest", Int sim_digest);
            ("digest_identical", Bool true); ("frames_in", Int st.Daemon.frames_in);
            ("frames_out", Int st.Daemon.frames_out); ("digests_out", Int st.Daemon.digests_out);
            ("batches_out", Int st.Daemon.batches_out);
            ("suppressed_bytes", Int st.Daemon.suppressed_bytes);
            ("daemon_bytes_in", Int st.Daemon.bytes_in);
            ("daemon_bytes_out", Int st.Daemon.bytes_out);
            ("egress_vs_broadcast", Float (4, vs_bcast)); ("routing_ratio", Float (4, ratio)) ])
    in
    write_json "BENCH_transport.json"
      Json.(
        Obj
          [ ("experiment", String "transport"); ("endpoint", String "unix");
            ("rows", List (List.map row rows)) ])
  end
