(* E9: multicore committee execution over an n x domains grid *)

module Pool = Yoso_parallel.Pool
open Harness

let run () =
  header "E9. Multicore committee execution: n x domains grid";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  hardware: %d core(s) recommended by the runtime\n" cores;
  (* --- protocol wall clock over an n x domains grid; the transcript
     digest must be identical in every run of a row.  Each n runs
     [rounds] rounds over the domain counts in order, d=1 and d=2
     swapped in even rounds so they form alternating pairs.  The
     process keeps one live pool, so moving to another count joins the
     old pool and spawns the new one; an untimed run at the same count
     before each timed run absorbs that, and the timed run sees only
     its own pool, as a fresh process would.  A cell reports the median
     of its runs ---------------------------------------------------- *)
  let circuit = Gen.dot_product ~len:8 in
  let inputs = fixture 8 in
  let domain_sweep = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let n_sweep = if !smoke then [ 16 ] else [ 16; 32; 64; 128 ] in
  let rounds = if !smoke then 1 else 5 in
  let times = Hashtbl.create 16 and digests = Hashtbl.create 4 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let run ~timed n domains =
    let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
    let config = Protocol.config ~seed:0x9A12 ~domains () in
    let r, ms = wall (fun () -> Protocol.execute ~params ~config ~circuit ~inputs ()) in
    assert (Protocol.check r circuit ~inputs);
    add digests n r.Protocol.transcript.Board.digest;
    if timed then add times (n, domains) ms
  in
  List.iter
    (fun n ->
      for round = 1 to rounds do
        let order =
          if round mod 2 = 1 then domain_sweep
          else
            match domain_sweep with d1 :: d2 :: rest -> d2 :: d1 :: rest | l -> l
        in
        List.iter
          (fun d ->
            run ~timed:false n d;
            run ~timed:true n d)
          order
      done)
    n_sweep;
  Printf.printf "  %-6s" "n";
  List.iter (fun d -> Printf.printf " %9s" (Printf.sprintf "d=%d (ms)" d)) domain_sweep;
  Printf.printf " %9s %9s\n" "d=2 wins" "digest ok";
  let grid =
    List.map
      (fun n ->
        let runs d = List.rev (Hashtbl.find times (n, d)) in
        let cells = List.map (fun d -> (d, median (runs d), runs d)) domain_sweep in
        let d2_wins = List.length (List.filter Fun.id (List.map2 ( > ) (runs 1) (runs 2))) in
        let row_digests = Hashtbl.find digests n in
        let base_digest = List.hd row_digests in
        let digests_equal = List.for_all (fun d -> d = base_digest) row_digests in
        if not digests_equal then
          failwith
            (Printf.sprintf "bench par: transcript digest varies with domains at n=%d" n);
        Printf.printf "  %-6d" n;
        List.iter (fun (_, ms, _) -> Printf.printf " %9.1f" ms) cells;
        Printf.printf " %6d/%-2d %9b\n" d2_wins rounds digests_equal;
        (n, n / 4, cells, d2_wins, base_digest))
      n_sweep
  in
  (* speedup acceptance only means something on real multicore
     hardware; the determinism checks above always run.  Every row
     with n >= 64 must show at least 1.5x at 4 domains. *)
  if (not !smoke) && cores >= 4 then
    List.iter
      (fun (n, _, cells, _, _) ->
        if n >= 64 then begin
          let ms_at d =
            match List.assoc_opt d (List.map (fun (d, ms, _) -> (d, ms)) cells) with
            | Some ms -> ms
            | None -> failwith "bench par: missing grid cell"
          in
          let speedup = ms_at 1 /. ms_at 4 in
          Printf.printf "  n=%d speedup at 4 domains: %.2fx\n" n speedup;
          if speedup < 1.5 then
            failwith
              (Printf.sprintf "bench par: n=%d speedup at 4 domains below 1.5x" n)
        end)
      grid
  else
    Printf.printf
      "  (speedup assertion skipped: %s)\n"
      (if !smoke then "smoke mode" else "fewer than 4 cores");

  (* --- optional per-domain chunk-time breakdown ------------------- *)
  if !profile then begin
    let n = if !smoke then 16 else 64 in
    let domains = if !smoke then 2 else 4 in
    Printf.printf "  profile: n=%d at %d domains (per-domain chunk times)\n" n domains;
    let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
    Pool.set_profiling true;
    ignore
      (Protocol.execute ~params
         ~config:(Protocol.config ~seed:0x9A12 ~domains ())
         ~circuit ~inputs ());
    Pool.set_profiling false;
    let samples = Pool.drain_profile () in
    let by_domain = Hashtbl.create 8 in
    List.iter
      (fun (d, _, ms) ->
        let cnt, tot, mx =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_domain d)
        in
        Hashtbl.replace by_domain d (cnt + 1, tot +. ms, Float.max mx ms))
      samples;
    let doms = List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) by_domain []) in
    List.iter
      (fun d ->
        let cnt, tot, mx = Hashtbl.find by_domain d in
        Printf.printf "    domain %d: %4d chunks, %8.1f ms total, %6.1f ms max chunk\n"
          d cnt tot mx)
      doms;
    if doms = [] then Printf.printf "    (no pooled chunks ran — 1-domain pools inline)\n"
  end;

  if not !smoke then begin
    let grid_row (n, k, cells, d2_wins, digest) =
      let ms1 =
        match cells with
        | (1, ms, _) :: _ -> ms
        | _ -> failwith "bench par: grid row missing the 1-domain cell"
      in
      (* speedup is relative to this row's own 1-domain median, so the
         trajectory reads directly from the JSON *)
      let cell (d, ms, runs) =
        Json.(
          Obj
            [ ("domains", Int d); ("ms", Float (1, ms)); ("speedup", Float (2, ms1 /. ms));
              ("runs_ms", List (List.map (fun x -> Float (1, x)) runs)) ])
      in
      Json.(
        Obj
          [ ("n", Int n); ("k", Int k); ("cores", Int cores); ("rounds", Int rounds);
            ("cells", List (List.map cell cells)); ("d2_wins", Int d2_wins);
            ("transcript_digest", Int digest); ("digest_identical", Bool true) ])
    in
    write_json "BENCH_par.json"
      Json.(
        Obj
          [
            ("experiment", String "par");
            (* [cores.recommended] is what [Domain.recommended_domain_count]
               reported; [cores.used] is the widest pool the grid actually
               ran.  Keeping both makes a grid recorded on a small box
               readable for what it is. *)
            ( "cores",
              Obj [ ("recommended", Int cores); ("used", Int (List.fold_left max 1 domain_sweep)) ] );
            ("grid", List (List.map grid_row grid));
          ])
  end
