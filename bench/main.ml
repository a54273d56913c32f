(* Benchmark harness: regenerates every quantitative artifact of the
   paper (see DESIGN.md's experiment index).

   Usage:
     dune exec bench/main.exe                   -- everything
     dune exec bench/main.exe -- table1         -- one experiment
     dune exec bench/main.exe -- par transport  -- several, in table order
   Flags: --smoke (toy sizes, no speedup bars and no JSON, in net and
          every experiment from time on), --profile (per-domain chunk
          times in par).
   Experiments, in the order they run: table1 improvements comm bgw net
     ablation-eps ablation-amortization failstop sortition-mc time
     transport chaos par compile factory
   Every protocol run in comm, bgw, the ablations and failstop is
   checked against the in-the-clear evaluation, and sortition-mc
   against the sortition bounds: a wrong answer raises, so the run
   exits non-zero.  Each experiment lives in its own module; what they
   share is in [Harness]. *)

(* The fork-based experiments (transport, chaos) come before the first
   one that spawns a domain (par, factory): OCaml refuses Unix.fork in
   a process that has ever spawned one. *)
let experiments =
  [
    ("table1", Table1.run);
    ("improvements", Improvements.run);
    ("comm", Comm.run);
    ("bgw", Bgw.run);
    ("net", Net.run);
    ("ablation-eps", Ablation_eps.run);
    ("ablation-amortization", Ablation_amortization.run);
    ("failstop", Failstop.run);
    ("sortition-mc", Sortition_mc.run);
    ("time", Time.run);
    ("transport", Transport.run);
    ("chaos", Chaos.run);
    ("par", Par.run);
    ("compile", Compile.run);
    ("factory", Factory.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flag f = List.mem f args in
  Harness.smoke := flag "--smoke";
  Harness.profile := flag "--profile";
  let names = List.filter (fun a -> not (List.mem a [ "--"; "--smoke"; "--profile" ])) args in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %s; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1
      end)
    names;
  List.iter
    (fun (name, run) -> if names = [] || List.mem name names then run ())
    experiments
