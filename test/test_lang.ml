(* yoso_lang: DSL typing, reference interpreter, compiler pass
   pipeline, and compiled-circuit/interpreter equivalence. *)

module F = Yoso_field.Field.Fp
module A = Yoso_lang.Ast
module Interp = Yoso_lang.Interp
module Ir = Yoso_lang.Ir
module Compiler = Yoso_lang.Compiler
module Programs = Yoso_lang.Programs
module Protocol = Yoso_mpc.Protocol
module Params = Yoso_mpc.Params

let felt = Alcotest.testable F.pp F.equal

let inputs_of assoc client =
  match List.assoc_opt client assoc with
  | Some l -> Array.of_list l
  | None -> [||]

(* ------------------------------------------------------------------ *)
(* typing and construction errors                                      *)
(* ------------------------------------------------------------------ *)

let invalid f = try ignore (f ()); false with Invalid_argument _ -> true

let test_typing_errors () =
  Alcotest.(check bool) "empty sum" true (invalid (fun () -> A.sum []));
  Alcotest.(check bool) "empty prod" true (invalid (fun () -> A.prod []));
  Alcotest.(check bool) "dot mismatch" true
    (invalid (fun () -> A.dot [ A.const 1 ] [ A.const 1; A.const 2 ]));
  let b = A.B.create () in
  Alcotest.(check bool) "width 0" true
    (invalid (fun () -> A.B.input b ~client:0 ~width:0 "x"));
  Alcotest.(check bool) "width 31" true
    (invalid (fun () -> A.B.input b ~client:0 ~width:31 "x"));
  Alcotest.(check bool) "negative client" true
    (invalid (fun () -> A.B.input b ~client:(-1) "x"));
  let x = A.B.input b ~client:0 "plain" in
  (* comparisons need bits: unannotated inputs and derived values are
     rejected at construction time *)
  Alcotest.(check bool) "cmp on unannotated input" true
    (invalid (fun () -> A.lt x (A.const 3)));
  let w = A.B.input b ~client:0 ~width:4 "w" in
  Alcotest.(check bool) "cmp on derived expr" true
    (invalid (fun () -> A.lt (A.add w w) w));
  Alcotest.(check bool) "cmp on negative const" true
    (invalid (fun () -> A.lt w (A.const (-1))));
  Alcotest.(check bool) "no outputs" true (invalid (fun () -> A.B.build b));
  A.B.output b ~client:0 x;
  ignore (A.B.build b);
  Alcotest.(check bool) "builder reuse" true
    (invalid (fun () -> A.B.input b ~client:0 "y"))

let test_width_validation () =
  let b = A.B.create () in
  let x = A.B.input b ~client:0 ~width:4 "x" in
  A.B.output b ~client:0 x;
  let p = A.B.build b in
  Alcotest.(check bool) "16 overflows width 4" true
    (invalid (fun () -> Interp.run p ~inputs:(inputs_of [ (0, [ 16 ]) ])));
  Alcotest.(check bool) "negative rejected" true
    (invalid (fun () -> Interp.run p ~inputs:(inputs_of [ (0, [ -1 ]) ])));
  let c = Compiler.compile p in
  Alcotest.(check bool) "compiler validates too" true
    (invalid (fun () ->
         Compiler.protocol_inputs c ~inputs:(inputs_of [ (0, [ 16 ]) ]) 0));
  Alcotest.(check (list (pair int felt)))
    "in-range value passes" [ (0, F.of_int 15) ]
    (Interp.run p ~inputs:(inputs_of [ (0, [ 15 ]) ]))

(* ------------------------------------------------------------------ *)
(* interpreter pins                                                    *)
(* ------------------------------------------------------------------ *)

let test_interp_pins () =
  let b = A.B.create () in
  let x = A.B.input b ~client:0 ~width:8 "x" in
  let y = A.B.input b ~client:1 ~width:8 "y" in
  let u = A.B.input b ~client:1 "u" in
  A.B.output b ~client:0 (A.sub (A.mul x y) (A.const 5));
  A.B.output b ~client:0 (A.lt x y);
  A.B.output b ~client:0 (A.ge x y);
  A.B.output b ~client:0 (A.eq x x);
  A.B.output b ~client:0 (A.is_zero (A.sub u (A.const 21)));
  A.B.output b ~client:0 (A.if_zero (A.sub x (A.const 7)) ~then_:u ~else_:(A.neg u));
  let p = A.B.build b in
  let inputs = inputs_of [ (0, [ 7 ]); (1, [ 9; 21 ]) ] in
  let outs = List.map snd (Interp.run p ~inputs) in
  let expected =
    [ F.of_int ((7 * 9) - 5); F.one; F.zero; F.one; F.one; F.of_int 21 ]
  in
  Alcotest.(check (list felt)) "pinned values" expected outs

(* ------------------------------------------------------------------ *)
(* compiled circuit == interpreter                                     *)
(* ------------------------------------------------------------------ *)

let test_named_programs_equivalence () =
  List.iter
    (fun name ->
      List.iter
        (fun size ->
          let p = Programs.by_name name ~size in
          List.iter
            (fun seed ->
              let inputs = Programs.demo_inputs p ~seed in
              let opt = Compiler.compile p in
              let naive = Compiler.compile ~passes:[] p in
              Alcotest.(check bool)
                (Printf.sprintf "%s size %d seed %d optimized" name size seed)
                true
                (Compiler.check opt ~inputs);
              Alcotest.(check bool)
                (Printf.sprintf "%s size %d seed %d naive" name size seed)
                true
                (Compiler.check naive ~inputs))
            [ 1; 2; 3 ])
        [ 2; 4 ])
    Programs.names

let test_auction_semantics () =
  (* pin the auction against a direct argmax *)
  let bidders = 4 in
  let p = Programs.auction ~bidders ~width:6 () in
  let bids = [ 13; 42; 42; 7 ] in
  let inputs client = [| List.nth bids client |] in
  let outs = Interp.run p ~inputs in
  let max_bid = List.fold_left max 0 bids in
  let winner =
    fst (List.fold_left
           (fun (w, i) b -> if b = max_bid && w < 0 then (i, i + 1) else (w, i + 1))
           (-1, 0) bids)
  in
  Alcotest.(check int) "outputs" (2 * bidders) (List.length outs);
  List.iteri
    (fun i (_, v) ->
      if i mod 2 = 0 then Alcotest.check felt "max" (F.of_int max_bid) v
      else Alcotest.check felt "winner (ties -> lowest index)" (F.of_int winner) v)
    outs;
  let c = Compiler.compile p in
  Alcotest.(check bool) "compiled" true (Compiler.check c ~inputs)

let test_tally_semantics () =
  let voters = 5 and threshold = 3 in
  let p = Programs.tally ~voters ~threshold () in
  List.iter
    (fun votes ->
      let inputs client = [| List.nth votes client |] in
      let expected =
        if List.fold_left ( + ) 0 votes >= threshold then F.one else F.zero
      in
      List.iter
        (fun (_, v) -> Alcotest.check felt "passed" expected v)
        (Interp.run p ~inputs);
      Alcotest.(check bool) "compiled" true
        (Compiler.check (Compiler.compile p) ~inputs))
    [ [ 0; 0; 0; 0; 0 ]; [ 1; 1; 0; 0; 0 ]; [ 1; 1; 1; 0; 0 ]; [ 1; 1; 1; 1; 1 ] ]

(* the headline property: >= 200 seeded random programs, compiled
   (optimized and naive) == reference interpreter *)
let test_random_equivalence () =
  for seed = 0 to 199 do
    let p = Programs.random_program ~seed ~size:12 ~clients:2 in
    let inputs = Programs.demo_inputs p ~seed:(seed * 31 + 1) in
    let opt = Compiler.compile p in
    let naive = Compiler.compile ~passes:[] p in
    if not (Compiler.check opt ~inputs) then
      Alcotest.failf "seed %d: optimized circuit disagrees with interpreter" seed;
    if not (Compiler.check naive ~inputs) then
      Alcotest.failf "seed %d: naive circuit disagrees with interpreter" seed
  done

(* ------------------------------------------------------------------ *)
(* pass-level preservation: each pass alone preserves IR semantics     *)
(* ------------------------------------------------------------------ *)

let ir_input_fn compiled ~inputs =
  (* feed the IR the same slot values the circuit would see *)
  let vectors =
    List.map
      (fun (client, _) ->
        (client, Compiler.protocol_inputs compiled ~inputs client))
      compiled.Compiler.sources
  in
  fun ~client ~slot -> (List.assoc client vectors).(slot)

let test_pass_preservation () =
  let passes =
    [ ("fold", Ir.fold); ("rewrite", Ir.rewrite); ("cse", Ir.cse); ("reassoc", Ir.reassoc) ]
  in
  for seed = 0 to 49 do
    let p = Programs.random_program ~seed ~size:15 ~clients:2 in
    let naive = Compiler.compile ~passes:[] p in
    let inputs = Programs.demo_inputs p ~seed:(seed + 7) in
    let input = ir_input_fn naive ~inputs in
    let reference = Ir.eval naive.Compiler.ir ~input in
    List.iter
      (fun (name, pass) ->
        let transformed = pass naive.Compiler.ir in
        if Ir.eval transformed ~input <> reference then
          Alcotest.failf "seed %d: pass %s changed IR semantics" seed name)
      passes
  done

let test_pass_improvements () =
  (* the engineered targets guarantee strict wins on every seed *)
  for seed = 0 to 19 do
    let p = Programs.random_program ~seed ~size:25 ~clients:3 in
    let c = Compiler.compile p in
    let n = c.Compiler.naive_stats and f = Compiler.final_stats c in
    if not (f.Ir.muls < n.Ir.muls && f.Ir.nodes < n.Ir.nodes) then
      Alcotest.failf "seed %d: no strict reduction (muls %d->%d nodes %d->%d)" seed
        n.Ir.muls f.Ir.muls n.Ir.nodes f.Ir.nodes
  done;
  (* reassociation: left chain becomes logarithmic *)
  let b = A.B.create () in
  let xs = List.init 8 (fun i -> A.B.input b ~client:0 (Printf.sprintf "x%d" i)) in
  A.B.output b ~client:0 (A.prod xs);
  let p = A.B.build b in
  let naive = Compiler.compile ~passes:[] p in
  let opt = Compiler.compile p in
  Alcotest.(check int) "chain depth naive" 7 naive.Compiler.naive_stats.Ir.depth;
  Alcotest.(check int) "chain depth balanced" 3 (Compiler.final_stats opt).Ir.depth

let test_constants_client () =
  let b = A.B.create () in
  let x = A.B.input b ~client:0 "x" in
  A.B.output b ~client:0 (A.add (A.mul x (A.const 3)) (A.const 3));
  let p = A.B.build b in
  let c = Compiler.compile p in
  Alcotest.(check int) "const client above real clients" 1 c.Compiler.const_client;
  (* the two uses of 3 share one constants-client input *)
  Alcotest.(check (list int)) "constants memoized" [ 3 ] c.Compiler.constants;
  let v = Compiler.protocol_inputs c ~inputs:(inputs_of [ (0, [ 10 ]) ]) 1 in
  Alcotest.(check (list felt)) "constants vector" [ F.of_int 3 ] (Array.to_list v)

(* ------------------------------------------------------------------ *)
(* one compiled program through the real packed protocol               *)
(* ------------------------------------------------------------------ *)

let test_protocol_e2e () =
  let p = Programs.tally ~voters:3 ~threshold:2 () in
  let c = Compiler.compile p in
  let inputs = inputs_of [ (0, [ 1 ]); (1, [ 0 ]); (2, [ 1 ]) ] in
  let params = Params.create ~n:16 ~t:5 ~k:3 () in
  let r =
    Protocol.execute ~params ~circuit:c.Compiler.circuit
      ~inputs:(Compiler.protocol_inputs c ~inputs) ()
  in
  Alcotest.(check bool) "protocol correct" true
    (Protocol.check r c.Compiler.circuit ~inputs:(Compiler.protocol_inputs c ~inputs));
  let expected = Interp.run p ~inputs in
  let got =
    List.map
      (fun o -> (o.Yoso_mpc.Online.client, o.Yoso_mpc.Online.value))
      r.Protocol.outputs
  in
  Alcotest.(check (list (pair int felt))) "protocol outputs = interpreter" expected got;
  (* 2 of 3 voted yes, threshold 2: passed *)
  List.iter (fun (_, v) -> Alcotest.check felt "passed" F.one v) got

(* byte-for-byte pin of the compiler statistics for the named
   auction, recorded before they moved onto Yoso_runtime.Json *)
let pinned_auction_stats =
  "{\"program\":\"auction\",\"naive\":{\"nodes\":2943,\"inputs\":360,\
    \"consts\":720,\"adds\":833,\"muls\":1030,\"depth\":15},\
    \"passes\":[{\"pass\":\"fold\",\"after\":{\"nodes\":2763,\"inputs\":360,\
    \"consts\":660,\"adds\":773,\"muls\":970,\"depth\":15}},{\"pass\":\"rewrite\",\
    \"after\":{\"nodes\":2721,\"inputs\":360,\"consts\":661,\"adds\":772,\
    \"muls\":928,\"depth\":14}},{\"pass\":\"cse\",\"after\":{\"nodes\":960,\
    \"inputs\":40,\"consts\":10,\"adds\":412,\"muls\":498,\"depth\":14}},\
    {\"pass\":\"reassoc\",\"after\":{\"nodes\":960,\"inputs\":40,\"consts\":10,\
    \"adds\":412,\"muls\":498,\"depth\":12}},{\"pass\":\"fold2\",\
    \"after\":{\"nodes\":960,\"inputs\":40,\"consts\":10,\"adds\":412,\
    \"muls\":498,\"depth\":12}},{\"pass\":\"cse2\",\"after\":{\"nodes\":954,\
    \"inputs\":40,\"consts\":10,\"adds\":412,\"muls\":492,\"depth\":12}}],\
    \"circuit\":{\"gates\":964,\"inputs\":50,\"outputs\":10,\"adds\":412,\
    \"muls\":492,\"depth\":12,\"mult_width\":179},\"constants\":10}"

let test_stats_json_pinned () =
  let c = Compiler.compile (Programs.by_name "auction" ~size:5) in
  Alcotest.(check string) "auction stats" pinned_auction_stats
    (Yoso_runtime.Json.to_string (Compiler.stats_json c))

let () =
  Alcotest.run "lang"
    [
      ( "ast",
        [
          Alcotest.test_case "typing errors" `Quick test_typing_errors;
          Alcotest.test_case "width validation" `Quick test_width_validation;
        ] );
      ( "interp",
        [
          Alcotest.test_case "pinned values" `Quick test_interp_pins;
          Alcotest.test_case "auction semantics" `Quick test_auction_semantics;
          Alcotest.test_case "tally semantics" `Quick test_tally_semantics;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "named programs == interpreter" `Quick
            test_named_programs_equivalence;
          Alcotest.test_case "200 random programs == interpreter" `Slow
            test_random_equivalence;
          Alcotest.test_case "constants client" `Quick test_constants_client;
          Alcotest.test_case "stats json pinned" `Quick test_stats_json_pinned;
        ] );
      ( "passes",
        [
          Alcotest.test_case "each pass preserves semantics" `Quick
            test_pass_preservation;
          Alcotest.test_case "strict improvements" `Quick test_pass_improvements;
        ] );
      ( "protocol",
        [ Alcotest.test_case "compiled tally end-to-end" `Quick test_protocol_e2e ] );
    ]
