(* One benchmark for the YOSO stack.

   Usage:
     main.exe run <workload> [--seed N] [--seconds S]    end-to-end metrics
     main.exe trace <workload> [--seed N] [--seconds S]  per-layer metrics
     main.exe smoke [BENCHMARK.json]                     every workload at toy size
     main.exe compare A.json B.json                      two result files, metric by metric
     main.exe --workload W --seed N --seconds S --trace 0|1

   The last form is [run] ([--trace 0]) or [trace] ([--trace 1]) under
   the flag names of BENCHMARK.json's command.  Every run prints one
   line per metric and, as its last line, a JSON summary; it also
   writes benchmark/results/<workload>[-trace]-<git-sha>.json plus a
   -latest.json copy when started from the repository root.  See
   benchmark/README.md for the workloads and metrics. *)

type direction = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : direction;
  bound : float option;  (** end-to-end only: allowed worsening, as a share of the median *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

(* keep in step with BENCHMARK.json; [smoke] checks that they agree *)
let end_to_end =
  [
    e2e "gates_per_s" "1/s" Higher 0.20;
    e2e "online_ms" "ms" Lower 0.20;
    e2e "setup_s" "s" Lower 0.25;
    e2e "heap_peak_mb" "MB" Lower 0.20;
  ]

let per_layer =
  List.map (fun (n, u) -> layer n u Lower)
    [
      ("setup.ms", "ms"); ("setup.bytes", "B"); ("offline_s", "s");
      ("offline.lambdas.ms", "ms"); ("offline.inputs.ms", "ms");
      ("offline.layers.ms", "ms"); ("offline.holder.ms", "ms");
      ("online.fkd.ms", "ms"); ("online.input.ms", "ms"); ("online.mult.ms", "ms");
      ("online.output.ms", "ms");
      ("offline_bytes_per_gate", "B/gate"); ("online_bytes_per_gate", "B/gate");
      ("online_field_bytes_per_gate", "B/gate");
      ("offline.beaver.bytes", "B"); ("offline.open_masked.bytes", "B");
      ("offline.pack_helpers.bytes", "B"); ("offline.wire_lambdas.bytes", "B");
      ("offline.reenc_inputs.bytes", "B"); ("offline.reenc_shares.bytes", "B");
      ("offline.other.bytes", "B");
      ("online.fkd.bytes", "B"); ("online.input.bytes", "B"); ("online.mult.bytes", "B");
      ("online.output.bytes", "B"); ("online.other.bytes", "B");
      ("wire.framing.bytes", "B"); ("board.posts", "count"); ("board.frames", "count");
      ("board.post_us", "us");
      ("pool.imbalance", "ratio");
      ("gc.minor_per_circuit", "count"); ("gc.major_per_circuit", "count");
      ("gc.promoted_mwords", "Mword");
      ("committee.blames", "count"); ("committee.posts_rejected", "count");
      ("depot.consumer_blocks", "count"); ("depot.producer_blocks", "count");
      ("depot.max_occupancy", "units");
      ("bigint.powmod_us", "us"); ("paillier.encrypt_us", "us");
      ("threshold.partial_decrypt_us", "us"); ("threshold.combine_us", "us");
      ("threshold.keygen_ms", "ms"); ("feldman.verify_batch_us_per_triple", "us");
      ("trace.overhead_pct", "%"); ("machine.slowdown", "ratio");
    ]
  @ List.map (fun (n, u) -> layer n u Higher)
      [
        ("wire.frame_mb_per_s", "MB/s"); ("pool.chunks", "count");
        ("pool.busy_ratio", "ratio"); ("committee.verified_ratio", "ratio");
        ("factory.overlap_ratio", "ratio");
      ]

(* Transcript digests at the default seed.  A change that alters what
   goes on the wire must re-pin these in the same commit, as it does
   the golden digests of the test suite. *)
let default_seed = 0x5EED

let pinned =
  [
    ("packed_wide", 3214095543468868029);
    ("packed_par2", 3214095543468868029);
    ("narrow_faulty", 3446349373143064170);
    ("factory_stream", 3902245346643458349);
    ("real_crypto", 1946939889982962516);
  ]

(* ------------------------------------------------------------------ *)
(* Running one workload                                                *)
(* ------------------------------------------------------------------ *)

let heap_peak_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
             else None)
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  reps : int;
  digest : int;  (** per-circuit digests of the reference rep, folded *)
  slowdown : float;  (** median {!Speed} kernel time over its reference *)
  raw : (metric * float list) list;  (** end-to-end, as timed *)
  samples : (metric * float list) list;  (** end-to-end, at the reference speed *)
  layers : (metric * float) list;  (** per-layer; traced runs only *)
}

(* a run's timings scaled to the reference machine speed *)
let at_reference_speed ~slowdown m v =
  match m.name with
  | "gates_per_s" -> v *. slowdown
  | "online_ms" | "setup_s" -> v /. slowdown
  | _ -> v

(* setup_s is the median of this many trusted setups, each run on its
   own before the warm-up rep (so no rep's garbage is collected inside
   them), at seeds derived from the workload seed (a 512-bit keygen's
   prime search length depends on its seed) *)
let setup_samples = 31

let run_workload ?(min_reps = 5) ?pin ~micro (w : Workloads.t) ~seed ~seconds ~trace =
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let reference = ref None in
  let fold digests = Array.fold_left Yoso_hash.Splitmix.mix 0 digests in
  let exec ~trace =
    attempted := !attempted + w.Workloads.circuits;
    match w.Workloads.rep ~seed ~trace with
    | exception e ->
      failed := !failed + w.Workloads.circuits;
      errors := Printexc.to_string e :: !errors;
      None
    | rep ->
      let digests = Array.map (fun r -> r.Workloads.digest) rep.Workloads.runs in
      if !reference = None then begin
        reference := Some digests;
        match pin with
        | Some d when d <> fold digests ->
          errors := Printf.sprintf "digest %d differs from the pinned %d" (fold digests) d :: !errors
        | _ -> ()
      end;
      let expected = Option.get !reference in
      let pin_ok = match pin with Some d -> d = fold expected | None -> true in
      errors := rep.Workloads.problems @ !errors;
      Array.iteri
        (fun i r ->
          let same = i < Array.length expected && expected.(i) = r.Workloads.digest in
          if not r.Workloads.ok then errors := Printf.sprintf "circuit %d: oracle failed" i :: !errors;
          if not same then errors := Printf.sprintf "circuit %d: digest differs across reps" i :: !errors;
          if (not r.Workloads.ok) || (not same) || (not pin_ok) || rep.Workloads.problems <> []
          then incr failed)
        rep.Workloads.runs;
      if Array.length rep.Workloads.runs <> w.Workloads.circuits then begin
        errors := "rep returned the wrong number of circuit runs" :: !errors;
        failed := !failed + abs (w.Workloads.circuits - Array.length rep.Workloads.runs)
      end;
      Some rep
  in
  (* the speed kernel runs for a tenth of the time the reps take, at
     least once per gap, so its median is as steady as the reps' *)
  let speeds = ref [] in
  let probe ~budget_s =
    let until = Workloads.now () +. budget_s in
    speeds := Speed.sample () :: !speeds;
    while Workloads.now () < until do
      speeds := Speed.sample () :: !speeds
    done
  in
  probe ~budget_s:0.;
  let setups =
    List.init setup_samples (fun i ->
        w.Workloads.setup ~seed:(Yoso_hash.Splitmix.mix seed i) /. 1000.)
  in
  ignore (exec ~trace:false);
  let t0 = Workloads.now () in
  let timed = ref [] and tries = ref 0 and heap = ref 0. in
  while Workloads.now () -. t0 < seconds || !tries < min_reps do
    incr tries;
    (match exec ~trace:false with
     | Some rep ->
       timed := rep :: !timed;
       probe ~budget_s:(0.1 *. rep.Workloads.wall_s)
     | None -> probe ~budget_s:0.);
    (* the peak over a fixed amount of work, however many reps the
       machine's speed lets the run fit in *)
    if !tries = min_reps then heap := heap_peak_mb ()
  done;
  let slowdown = Stats.median !speeds /. Speed.reference_s in
  let timed = List.rev !timed in
  let runs = List.concat_map (fun r -> Array.to_list r.Workloads.runs) timed in
  let sample = function
    | "gates_per_s" ->
      List.map (fun r -> float_of_int r.Workloads.mults /. r.Workloads.wall_s) timed
    | "online_ms" -> List.map (fun r -> r.Workloads.online_ms) runs
    | "setup_s" -> setups
    | "heap_peak_mb" -> [ !heap ]
    | other -> invalid_arg other
  in
  let layers =
    if not trace then []
    else begin
      let untraced = Stats.median (List.map (fun r -> r.Workloads.wall_s) timed) in
      let measured =
        ("machine.slowdown", slowdown)
        ::
        (match exec ~trace:true with
         | Some rep ->
           ("trace.overhead_pct", 100. *. (rep.Workloads.wall_s -. untraced) /. untraced)
           :: rep.Workloads.layers
         | None -> [])
      in
      let measured = measured @ micro () in
      List.map
        (fun m -> (m, Option.value ~default:0. (List.assoc_opt m.name measured)))
        per_layer
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    reps = List.length timed;
    digest = (match !reference with Some d -> fold d | None -> 0);
    slowdown;
    raw = List.map (fun m -> (m, sample m.name)) end_to_end;
    samples =
      List.map
        (fun m -> (m, List.map (at_reference_speed ~slowdown m) (sample m.name)))
        end_to_end;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Result files                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the checked-out commit, read from .git without running git (the
   benchmark may run in a plain source tree) *)
let git_sha () =
  let read f = try Some (String.trim (read_file f)) with Sys_error _ -> None in
  let resolve r =
    match read (Filename.concat ".git" r) with
    | Some sha -> Some sha
    | None ->
      Option.bind (read ".git/packed-refs") (fun packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None))
  in
  let sha =
    match read ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head ->
      resolve (String.sub head 5 (String.length head - 5))
    | head -> head
  in
  match sha with Some s when String.length s >= 12 -> String.sub s 0 12 | _ -> "nogit"

let direction_name = function Higher -> "higher" | Lower -> "lower"

let metric_json ?(raw = []) m samples value =
  let q1, _, q3 = Stats.quartiles samples in
  let nums l = Json.Arr (List.map (fun v -> Json.Num v) l) in
  Json.Obj
    ([
       ("value", Json.Num value);
       ("unit", Json.Str m.unit_);
       ("better", Json.Str (direction_name m.better));
     ]
    @ (match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> [])
    @ [
        ("median", Json.Num value);
        ("q1", Json.Num q1);
        ("q3", Json.Num q3);
        ("samples", nums samples);
      ]
    @ if raw = [] then [] else [ ("raw_samples", nums raw) ])

let e2e_value samples = if samples = [] then 0. else Stats.median samples

let result_json ~workload ~seed ~seconds ~trace ~sha o =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("mode", Json.Str (if trace then "trace" else "run"));
      ("git_sha", Json.Str sha);
      ("seed", Json.int seed);
      ("seconds", Json.Num seconds);
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("reps", Json.int o.reps);
      ("attempted", Json.int o.attempted);
      ("failed", Json.int o.failed);
      ("digest", Json.int o.digest);
      ("machine_slowdown", Json.Num o.slowdown);
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) o.errors));
      ( "metrics",
        Json.Obj
          (List.map2
             (fun (m, s) (_, raw) -> (m.name, metric_json ~raw m s (e2e_value s)))
             o.samples o.raw) );
      ("layers", Json.Obj (List.map (fun (m, v) -> (m.name, metric_json m [ v ] v)) o.layers));
    ]

let write_results ~workload ~trace json =
  let dir = Filename.concat "benchmark" "results" in
  if Sys.file_exists "benchmark" && Sys.is_directory "benchmark" then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let sha = Json.to_str (Json.member "git_sha" json) in
    let stem = if trace then workload ^ "-trace" else workload in
    let body = Json.to_string json ^ "\n" in
    List.iter
      (fun suffix ->
        Out_channel.with_open_bin
          (Filename.concat dir (Printf.sprintf "%s-%s.json" stem suffix))
          (fun oc -> output_string oc body))
      [ sha; "latest" ]
  end

(* ------------------------------------------------------------------ *)
(* run / trace                                                         *)
(* ------------------------------------------------------------------ *)

let run_cli ~trace ~workload ~seed ~seconds =
  match Workloads.make ~toy:false workload with
  | None ->
    Printf.eprintf "unknown workload %s; workloads: %s\n" workload
      (String.concat ", " Workloads.names);
    exit 2
  | Some w ->
    let pin = if seed = default_seed then List.assoc_opt workload pinned else None in
    let o = run_workload ?pin ~micro:(fun () -> Micro.run ~toy:false) w ~seed ~seconds ~trace in
    let shown =
      if trace then List.map (fun (m, v) -> (m, [ v ], v, v)) o.layers
      else
        List.map2 (fun (m, s) (_, raw) -> (m, s, e2e_value s, e2e_value raw)) o.samples o.raw
    in
    Printf.printf "%s seed=%d reps=%d attempted=%d failed=%d digest=%d machine_slowdown=%.4f\n"
      workload seed o.reps o.attempted o.failed o.digest o.slowdown;
    List.iter
      (fun (m, s, v, raw) ->
        let q1, _, q3 = Stats.quartiles s in
        Printf.printf "  %-36s %14.6g %-7s (n=%d, q1 %.6g, q3 %.6g, as timed %.6g)\n" m.name v
          m.unit_ (List.length s) q1 q3 raw)
      shown;
    List.iter (fun e -> Printf.eprintf "error: %s\n" e) o.errors;
    write_results ~workload ~trace
      (result_json ~workload ~seed ~seconds ~trace ~sha:(git_sha ()) o);
    let correct = o.failed = 0 in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.int o.attempted);
              ("failed", Json.int o.failed);
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun (m, _, v, _) ->
                       (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
                     shown) );
            ]));
    if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Verdict on B against A: [unresolved] when either side's inter-
   quartile spread exceeds the bound, else [worse]/[better] when the
   medians differ by more than the bound in that direction. *)
let verdict ~better ~bound a b =
  let ma = Stats.median a and mb = Stats.median b in
  let gain = (if better = "higher" then mb -. ma else ma -. mb) /. Float.abs ma in
  if Float.max (Stats.spread a) (Stats.spread b) > bound then "unresolved"
  else if gain < -.bound then "worse"
  else if gain > bound then "better"
  else "unchanged"

let str k j = Json.to_str (Json.member k j)

(* prints the table and returns every verdict *)
let compare_results a b =
  Printf.printf "workload %s: A = %s, B = %s\n" (str "workload" a) (str "git_sha" a)
    (str "git_sha" b);
  if str "workload" a <> str "workload" b then
    Printf.printf "  (warning: the files are for different workloads)\n";
  Printf.printf "  %-36s %-7s %12s %12s %12s | %12s %12s %12s  %s\n" "metric" "unit" "A q1"
    "A median" "A q3" "B q1" "B median" "B q3" "verdict";
  List.concat_map
    (fun section ->
      match Json.member section a with
      | Json.Obj entries ->
        List.map
          (fun (name, ea) ->
            let eb = Json.member name (Json.member section b) in
            let nums e = List.map Json.to_num (Json.to_list (Json.member "samples" e)) in
            let sa = nums ea and sb = nums eb in
            let q1a, _, q3a = Stats.quartiles sa and q1b, _, q3b = Stats.quartiles sb in
            let v =
              match (Json.member "bound" ea, sb) with
              | _, [] -> "missing in B"
              | Json.Num bound, _ -> verdict ~better:(str "better" ea) ~bound sa sb
              | _ -> "-"
            in
            Printf.printf "  %-36s %-7s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s\n" name
              (str "unit" ea) q1a (Stats.median sa) q3a q1b (Stats.median sb) q3b v;
            v)
          entries
      | _ -> [])
    [ "metrics"; "layers" ]

let compare_files fa fb =
  let load f =
    try Json.parse (read_file f)
    with Sys_error e | Json.Parse_error e ->
      Printf.eprintf "compare: %s: %s\n" f e;
      exit 2
  in
  ignore (compare_results (load fa) (load fb))

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* Every workload at toy size, traced: outputs, digests (across reps
   and traced vs untraced), blame sets and layer sums are checked;
   timings are not.  Each result file must also survive the JSON
   round trip, and [compare] must find it no better or worse than
   itself.  Given BENCHMARK.json, its metric tables must match ours. *)
let smoke benchmark_json =
  let micro = lazy (Micro.run ~toy:true) in
  let bad = ref [] in
  Option.iter
    (fun path ->
      let declared = Json.parse (read_file path) in
      List.iter
        (fun (key, ours) ->
          let entry m =
            Json.Obj
              ([
                 ("name", Json.Str m.name);
                 ("unit", Json.Str m.unit_);
                 ("better", Json.Str (direction_name m.better));
               ]
              @ match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> [])
          in
          if Json.member key declared <> Json.Arr (List.map entry ours) then
            bad := Printf.sprintf "%s: %s differs from the metric table" path key :: !bad)
        [ ("end_to_end", end_to_end); ("per_layer", per_layer) ])
    benchmark_json;
  List.iter
    (fun name ->
      let w = Option.get (Workloads.make ~toy:true name) in
      let o =
        run_workload ~min_reps:1 ~micro:(fun () -> Lazy.force micro) w ~seed:default_seed
          ~seconds:0. ~trace:true
      in
      let zero = List.filter (fun (_, s) -> not (e2e_value s > 0.)) o.samples in
      List.iter (fun e -> bad := Printf.sprintf "%s: %s" name e :: !bad) o.errors;
      List.iter (fun (m, _) -> bad := Printf.sprintf "%s: %s is not positive" name m.name :: !bad) zero;
      if o.failed > 0 then bad := Printf.sprintf "%s: %d of %d runs failed" name o.failed o.attempted :: !bad;
      let json = result_json ~workload:name ~seed:default_seed ~seconds:0. ~trace:true ~sha:"smoke" o in
      let back = Json.parse (Json.to_string json) in
      if back <> json then bad := Printf.sprintf "%s: result file does not round-trip" name :: !bad;
      if List.exists (fun v -> v = "better" || v = "worse") (compare_results back back) then
        bad := Printf.sprintf "%s: compare finds a result file unlike itself" name :: !bad;
      Printf.printf "smoke %-15s attempted=%d failed=%d digest=%d\n%!" name o.attempted o.failed
        o.digest)
    Workloads.names;
  match List.rev !bad with
  | [] -> print_endline "smoke: ok"
  | problems ->
    List.iter (fun p -> Printf.eprintf "smoke: %s\n" p) problems;
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe run|trace <workload> [--seed N] [--seconds S]\n\
    \       main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe smoke [BENCHMARK.json]\n\
    \       main.exe compare A.json B.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec options acc = function
    | [] -> acc
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let go ?trace ?workload opts =
    let opts = options [] opts in
    List.iter
      (fun (k, _) -> if not (List.mem k [ "seed"; "seconds"; "trace"; "workload" ]) then usage ())
      opts;
    let get k conv default =
      match List.assoc_opt k opts with
      | None -> default
      | Some v -> ( match conv v with Some x -> x | None -> usage ())
    in
    let workload =
      match (workload, List.assoc_opt "workload" opts) with
      | Some w, None | None, Some w -> w
      | _ -> usage ()
    in
    let trace =
      match trace with
      | Some t when not (List.mem_assoc "trace" opts) -> t
      | Some _ -> usage ()
      | None -> get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None) false
    in
    run_cli ~trace ~workload
      ~seed:(get "seed" int_of_string_opt default_seed)
      ~seconds:(get "seconds" float_of_string_opt 15.)
  in
  match args with
  | [ "smoke" ] -> smoke None
  | [ "smoke"; benchmark_json ] -> smoke (Some benchmark_json)
  | [ "compare"; a; b ] -> compare_files a b
  | "run" :: workload :: opts -> go ~trace:false ~workload opts
  | "trace" :: workload :: opts -> go ~trace:true ~workload opts
  | opt :: _ as opts when String.starts_with ~prefix:"--" opt -> go opts
  | _ -> usage ()
