(* E12: compiler front-end — pass-by-pass reductions + e2e cost *)

module Lang = Yoso_lang.Compiler
module LProg = Yoso_lang.Programs
module Ir = Yoso_lang.Ir
module LAst = Yoso_lang.Ast
open Harness

let run () =
  header "E12. yoso_lang compiler: pass pipeline reductions + e2e protocol cost";

  (* --- the four named programs: naive vs optimized, both checked
     against the reference interpreter ------------------------------ *)
  let named =
    if !smoke then
      [ ("auction", 3); ("variance", 4); ("tally", 5); ("linear_model", 4) ]
    else [ ("auction", 5); ("variance", 8); ("tally", 9); ("linear_model", 16) ]
  in
  Printf.printf "  %-14s | %19s | %19s | %7s\n" "program" "naive (muls/depth)"
    "optimized (muls/depth)" "checked";
  let named_rows =
    List.map
      (fun (name, size) ->
        let p = LProg.by_name name ~size in
        let opt = Lang.compile p in
        let naive = Lang.compile ~passes:[] p in
        let inputs = LProg.demo_inputs p ~seed:0xE12 in
        let ok = Lang.check opt ~inputs && Lang.check naive ~inputs in
        if not ok then
          failwith (Printf.sprintf "bench compile: %s disagrees with interpreter" name);
        let ns = naive.Lang.naive_stats and os = Lang.final_stats opt in
        Printf.printf "  %-14s | %10d / %-6d | %10d / %-6d | %7b\n" name ns.Ir.muls
          ns.Ir.depth os.Ir.muls os.Ir.depth ok;
        (name, size, opt, ns, os))
      named
  in
  (* CSE must merge the auction's duplicated pairwise comparisons *)
  (match List.find_opt (fun (n, _, _, _, _) -> n = "auction") named_rows with
  | Some (_, _, _, ns, os) ->
    if not (os.Ir.muls < ns.Ir.muls) then
      failwith "bench compile: optimization did not reduce auction multiplications"
  | None -> ());

  (* --- reassociation: a left-nested product chain must come out
     logarithmic ----------------------------------------------------- *)
  let chain_len = 16 in
  let chain =
    let b = LAst.B.create ~name:"chain" () in
    let xs =
      List.init chain_len (fun i ->
          LAst.B.input b ~client:0 (Printf.sprintf "x%d" i))
    in
    LAst.B.output b ~client:0 (LAst.prod xs);
    LAst.B.build b
  in
  let chain_naive = Lang.compile ~passes:[] chain in
  let chain_opt = Lang.compile chain in
  let chain_inputs = LProg.demo_inputs chain ~seed:7 in
  if not (Lang.check chain_opt ~inputs:chain_inputs && Lang.check chain_naive ~inputs:chain_inputs)
  then failwith "bench compile: chain program disagrees with interpreter";
  let cn = chain_naive.Lang.naive_stats and co = Lang.final_stats chain_opt in
  Printf.printf "  product chain (%d leaves): depth %d -> %d\n" chain_len cn.Ir.depth
    co.Ir.depth;
  if not (co.Ir.depth < cn.Ir.depth) then
    failwith "bench compile: reassociation did not reduce product-chain depth";

  (* --- random-expression family: fold+CSE must strictly shrink every
     seed (all nodes are live, so the shrink is never a DCE artifact) *)
  let nseeds = if !smoke then 6 else 24 in
  let random_rows =
    List.init nseeds (fun seed ->
        let p = LProg.random_program ~seed ~size:30 ~clients:3 in
        let opt = Lang.compile p in
        let inputs = LProg.demo_inputs p ~seed:(seed + 1) in
        if not (Lang.check opt ~inputs) then
          failwith (Printf.sprintf "bench compile: random seed %d disagrees" seed);
        let ns = opt.Lang.naive_stats and os = Lang.final_stats opt in
        if not (os.Ir.muls < ns.Ir.muls && os.Ir.nodes < ns.Ir.nodes) then
          failwith
            (Printf.sprintf
               "bench compile: seed %d not strictly smaller (muls %d->%d, nodes %d->%d)"
               seed ns.Ir.muls os.Ir.muls ns.Ir.nodes os.Ir.nodes);
        (seed, ns, os))
  in
  let total f = List.fold_left (fun a (_, ns, os) -> (fst a + f ns, snd a + f os)) (0, 0) random_rows in
  let muls_n, muls_o = total (fun s -> s.Ir.muls) in
  let nodes_n, nodes_o = total (fun s -> s.Ir.nodes) in
  let depth_n, depth_o = total (fun s -> s.Ir.depth) in
  Printf.printf
    "  random family (%d seeds): nodes %d -> %d (-%.1f%%), muls %d -> %d (-%.1f%%), \
     total depth %d -> %d\n"
    nseeds nodes_n nodes_o
    (100. *. float_of_int (nodes_n - nodes_o) /. float_of_int nodes_n)
    muls_n muls_o
    (100. *. float_of_int (muls_n - muls_o) /. float_of_int muls_n)
    depth_n depth_o;
  if depth_o > depth_n then
    failwith "bench compile: passes increased total depth over the random family";

  (* --- e2e protocol cost: the same auction, naively lowered vs
     optimized, through the full packed protocol --------------------- *)
  let p = LProg.auction ~bidders:3 ~width:(if !smoke then 4 else 8) () in
  let run compiled =
    let params = Params.create ~n:16 ~t:5 ~k:3 () in
    let inputs =
      Lang.protocol_inputs compiled ~inputs:(LProg.demo_inputs p ~seed:0xE12)
    in
    let circuit = compiled.Lang.circuit in
    let r, ms = wall (fun () -> Protocol.execute ~params ~circuit ~inputs ()) in
    assert (Protocol.check r circuit ~inputs);
    (r, ms)
  in
  let opt = Lang.compile p and naive = Lang.compile ~passes:[] p in
  let r_opt, ms_opt = run opt and r_naive, ms_naive = run naive in
  (* both executions must announce the same outputs as the interpreter *)
  let interp_outs = Yoso_lang.Interp.run p ~inputs:(LProg.demo_inputs p ~seed:0xE12) in
  let outs_of (r : Protocol.report) =
    List.map (fun o -> (o.Yoso_mpc.Online.client, o.Yoso_mpc.Online.value)) r.Protocol.outputs
  in
  if outs_of r_opt <> interp_outs || outs_of r_naive <> interp_outs then
    failwith "bench compile: protocol outputs differ from the interpreter";
  Printf.printf
    "  e2e auction: naive %d mult gates, %d online elements, %.0f ms\n\
    \               optimized %d mult gates, %d online elements, %.0f ms\n"
    r_naive.Protocol.num_mult r_naive.Protocol.online_elements ms_naive
    r_opt.Protocol.num_mult r_opt.Protocol.online_elements ms_opt;
  if not (r_opt.Protocol.online_elements < r_naive.Protocol.online_elements) then
    failwith "bench compile: optimized circuit not cheaper online than naive lowering";
  Printf.printf
    "  (identical outputs through the protocol; the compiler only removes work)\n";

  if not !smoke then begin
    let e2e r =
      Json.(
        Obj
          [ ("mult_gates", Int r.Protocol.num_mult);
            ("online_elements", Int r.Protocol.online_elements);
            ("offline_elements", Int r.Protocol.offline_elements);
            ("posts", Int r.Protocol.posts) ])
    in
    let program (name, size, opt, ns, os) =
      Json.(
        Obj
          [ ("name", String name); ("size", Int size); ("naive", Ir.stats_json ns);
            ("final", Ir.stats_json os); ("passes", Lang.pass_stats_json opt.Lang.pass_stats) ])
    in
    write_json "BENCH_compile.json"
      Json.(
        Obj
          [
            ("experiment", String "compile");
            ("programs", List (List.map program named_rows));
            ( "chain",
              Obj
                [ ("leaves", Int chain_len); ("naive_depth", Int cn.Ir.depth);
                  ("optimized_depth", Int co.Ir.depth) ] );
            ( "random_family",
              Obj
                [ ("seeds", Int nseeds); ("nodes_naive", Int nodes_n);
                  ("nodes_optimized", Int nodes_o); ("muls_naive", Int muls_n);
                  ("muls_optimized", Int muls_o); ("depth_naive", Int depth_n);
                  ("depth_optimized", Int depth_o); ("strictly_smaller_every_seed", Bool true) ] );
            ( "e2e_auction",
              Obj
                [ ("naive", e2e r_naive); ("optimized", e2e r_opt);
                  ("outputs_match_interpreter", Bool true) ] );
          ])
  end
