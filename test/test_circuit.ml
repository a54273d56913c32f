module F = Yoso_field.Field.Fp
module C = Yoso_circuit.Circuit
module Builder = Yoso_circuit.Builder
module Layout = Yoso_circuit.Layout
module Gen = Yoso_circuit.Generators
module Eval = Yoso_circuit.Circuit.Eval (Yoso_field.Field.Fp)

let st = Random.State.make [| 0xC1 |]
let felt = Alcotest.testable F.pp F.equal

let const_inputs assoc client = Array.of_list (List.map F.of_int (List.assoc client assoc))

(* ------------------------------------------------------------------ *)
(* Builder + eval basics                                               *)
(* ------------------------------------------------------------------ *)

let test_simple_add_mul () =
  let b = Builder.create () in
  let x = Builder.input b ~client:0 in
  let y = Builder.input b ~client:1 in
  let s = Builder.add b x y in
  let p = Builder.mul b x y in
  let r = Builder.mul b s p in
  Builder.output b ~client:0 r;
  let c = Builder.build b in
  (* (x + y) * (x * y) with x=3, y=4 -> 7 * 12 = 84 *)
  let outs = Eval.run c ~inputs:(const_inputs [ (0, [ 3 ]); (1, [ 4 ]) ]) in
  Alcotest.(check (list (pair int felt))) "output" [ (0, F.of_int 84) ] outs

let test_stats () =
  let c = Gen.wide_mul ~width:4 ~depth:3 ~clients:2 in
  Alcotest.(check int) "mul count" 12 (C.num_mul c);
  Alcotest.(check int) "depth" 3 (C.depth c);
  Alcotest.(check int) "width" 4 (C.mult_width c);
  Alcotest.(check int) "inputs" 8 (C.num_inputs c);
  Alcotest.(check int) "outputs" 4 (C.num_outputs c)

let test_builder_reuse_rejected () =
  let b = Builder.create () in
  let x = Builder.input b ~client:0 in
  Builder.output b ~client:0 x;
  ignore (Builder.build b);
  Alcotest.check_raises "reuse" (Invalid_argument "Builder: already built") (fun () ->
      ignore (Builder.input b ~client:0))

let test_validation () =
  Alcotest.check_raises "use before define"
    (Invalid_argument "Circuit: wire 1 used before definition") (fun () ->
      ignore
        (C.of_gates
           [| C.Input { client = 0; wire = 0 }; C.Add { a = 0; b = 1; out = 2 } |]));
  Alcotest.check_raises "double define"
    (Invalid_argument "Circuit: wire 0 defined twice") (fun () ->
      ignore
        (C.of_gates
           [| C.Input { client = 0; wire = 0 }; C.Input { client = 1; wire = 0 } |]))

let test_sum_product_trees () =
  let b = Builder.create () in
  let ws = List.init 7 (fun _ -> Builder.input b ~client:0) in
  let s = Builder.sum b ws in
  let p = Builder.product b ws in
  Builder.output b ~client:0 s;
  Builder.output b ~client:0 p;
  let c = Builder.build b in
  let inputs _ = Array.of_list (List.map F.of_int [ 1; 2; 3; 4; 5; 6; 7 ]) in
  (match Eval.run c ~inputs with
  | [ (_, s'); (_, p') ] ->
    Alcotest.check felt "sum" (F.of_int 28) s';
    Alcotest.check felt "product" (F.of_int 5040) p'
  | _ -> Alcotest.fail "expected two outputs");
  (* product tree is balanced: depth log2(7) = 3 *)
  Alcotest.(check int) "balanced depth" 3 (C.depth c)

(* stats edge cases: circuits with no multiplication layer at all *)
let test_stats_add_only () =
  let b = Builder.create () in
  let x = Builder.input b ~client:0 in
  let y = Builder.input b ~client:1 in
  let s = Builder.add b (Builder.add b x y) y in
  Builder.output b ~client:0 s;
  let c = Builder.build b in
  Alcotest.(check int) "depth" 0 (C.depth c);
  Alcotest.(check int) "mult width" 0 (C.mult_width c);
  Alcotest.(check int) "muls" 0 (C.num_mul c);
  Alcotest.(check int) "adds" 2 (C.num_add c)

let test_stats_input_output_only () =
  let b = Builder.create () in
  let x = Builder.input b ~client:0 in
  Builder.output b ~client:1 x;
  Builder.output b ~client:2 x;
  let c = Builder.build b in
  Alcotest.(check int) "depth" 0 (C.depth c);
  Alcotest.(check int) "mult width" 0 (C.mult_width c);
  Alcotest.(check int) "size" 3 (C.size c);
  Alcotest.(check (list int)) "clients" [ 0; 1; 2 ] (C.clients c);
  Alcotest.(check (list (pair int felt)))
    "passthrough" [ (1, F.of_int 9); (2, F.of_int 9) ]
    (Eval.run c ~inputs:(const_inputs [ (0, [ 9 ]) ]))

let test_constant_wire_memoized () =
  let b = Builder.create () in
  let x = Builder.input b ~client:0 in
  let c1 = Builder.constant_wire b ~client:3 5 in
  let c2 = Builder.constant_wire b ~client:3 5 in
  let c3 = Builder.constant_wire b ~client:3 7 in
  Alcotest.(check int) "same value -> same wire" c1 c2;
  Alcotest.(check bool) "distinct value -> distinct wire" true (c1 <> c3);
  Builder.output b ~client:0 (Builder.mul b x (Builder.add b c1 c3));
  let c = Builder.build b in
  Alcotest.(check (list (pair int int)))
    "constants in first-use order" [ (3, 5); (3, 7) ] (Builder.constants b);
  (* one input gate per distinct constant, in gate order *)
  Alcotest.(check int) "inputs" 3 (C.num_inputs c);
  let outs =
    Eval.run c ~inputs:(const_inputs [ (0, [ 2 ]); (3, [ 5; 7 ]) ])
  in
  Alcotest.(check (list (pair int felt))) "2*(5+7)" [ (0, F.of_int 24) ] outs

let test_builder_sub () =
  let b = Builder.create () in
  let x = Builder.input b ~client:0 in
  let y = Builder.input b ~client:1 in
  Builder.output b ~client:0 (Builder.sub b ~const_client:2 x y);
  Builder.output b ~client:0 (Builder.sub b ~const_client:2 y x);
  let c = Builder.build b in
  (* both subtractions share the one memoized -1 wire *)
  Alcotest.(check (list (pair int int))) "one -1" [ (2, -1) ] (Builder.constants b);
  let outs =
    Eval.run c ~inputs:(const_inputs [ (0, [ 11 ]); (1, [ 4 ]); (2, [ -1 ]) ])
  in
  Alcotest.(check (list (pair int felt)))
    "11-4 and 4-11" [ (0, F.of_int 7); (0, F.of_int (-7)) ] outs

(* ------------------------------------------------------------------ *)
(* Generators compute the right functions                              *)
(* ------------------------------------------------------------------ *)

let test_dot_product () =
  let len = 9 in
  let c = Gen.dot_product ~len in
  let xs = Array.init len (fun _ -> F.random st) in
  let ys = Array.init len (fun _ -> F.random st) in
  let inputs = function 0 -> xs | _ -> ys in
  let expected = F.dot xs ys in
  List.iter (fun (_, v) -> Alcotest.check felt "dot" expected v) (Eval.run c ~inputs)

let test_poly_eval () =
  let degree = 6 in
  let c = Gen.poly_eval ~degree in
  let coeffs = Array.init (degree + 1) (fun _ -> F.random st) in
  let x = F.random st in
  let inputs = function 0 -> coeffs | _ -> [| x |] in
  let expected = ref F.zero in
  for i = degree downto 0 do
    expected := F.add (F.mul !expected x) coeffs.(i)
  done;
  (match Eval.run c ~inputs with
  | [ (1, v) ] -> Alcotest.check felt "poly" !expected v
  | _ -> Alcotest.fail "expected one output to client 1");
  Alcotest.(check int) "depth = degree" degree (C.depth c)

let test_variance_numerator () =
  let parties = 5 in
  let c = Gen.variance_numerator ~parties in
  let data = [| 3; 1; 4; 1; 5 |] in
  let inputs client =
    if client = 0 then [| F.of_int data.(0); F.of_int parties; F.of_int (-1) |]
    else [| F.of_int data.(client) |]
  in
  let sum = Array.fold_left ( + ) 0 data in
  let sumsq = Array.fold_left (fun a x -> a + (x * x)) 0 data in
  let expected = F.of_int ((parties * sumsq) - (sum * sum)) in
  let outs = Eval.run c ~inputs in
  Alcotest.(check int) "all parties get output" parties (List.length outs);
  List.iter (fun (_, v) -> Alcotest.check felt "variance" expected v) outs

let test_matrix_vector () =
  let rows = 3 and cols = 4 in
  let c = Gen.matrix_vector ~rows ~cols in
  let m = Array.init (rows * cols) (fun i -> F.of_int (i + 1)) in
  let v = Array.init cols (fun i -> F.of_int (i + 10)) in
  let inputs = function 0 -> m | _ -> v in
  let outs = Eval.run c ~inputs in
  Alcotest.(check int) "rows outputs" rows (List.length outs);
  List.iteri
    (fun r (_, got) ->
      let expected = ref F.zero in
      for j = 0 to cols - 1 do
        expected := F.add !expected (F.mul m.((r * cols) + j) v.(j))
      done;
      Alcotest.check felt "row" !expected got)
    outs

let test_random_dag_deterministic () =
  let c1 = Gen.random_dag ~gates:50 ~clients:3 ~mul_fraction:0.5 ~seed:7 in
  let c2 = Gen.random_dag ~gates:50 ~clients:3 ~mul_fraction:0.5 ~seed:7 in
  let c3 = Gen.random_dag ~gates:50 ~clients:3 ~mul_fraction:0.5 ~seed:8 in
  Alcotest.(check int) "same size" (C.size c1) (C.size c2);
  let run c = Eval.run c ~inputs:(fun cl -> [| F.of_int (cl + 2); F.of_int (cl + 5) |]) in
  Alcotest.(check bool) "same outputs" true (run c1 = run c2);
  Alcotest.(check bool) "seed matters (size or outputs differ)" true
    (C.size c1 <> C.size c3 || run c1 <> run c3)

let test_random_dag_mul_fraction () =
  let c = Gen.random_dag ~gates:200 ~clients:2 ~mul_fraction:1.0 ~seed:1 in
  Alcotest.(check int) "all muls" 200 (C.num_mul c);
  let c0 = Gen.random_dag ~gates:200 ~clients:2 ~mul_fraction:0.0 ~seed:1 in
  Alcotest.(check int) "no muls" 0 (C.num_mul c0)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_layout_batching () =
  let width = 10 and depth = 3 in
  let c = Gen.wide_mul ~width ~depth ~clients:2 in
  let k = 4 in
  let l = Layout.make c ~k in
  (* ceil(10/4) = 3 batches per layer, 3 layers *)
  Alcotest.(check int) "num batches" 9 (Layout.num_mult_batches l);
  List.iter
    (fun b ->
      Alcotest.(check bool) "batch size in [1,k]" true
        (Array.length b.Layout.mult_gates >= 1 && Array.length b.Layout.mult_gates <= k))
    (Layout.batches_of_layer l 1);
  Alcotest.(check int) "layer 1 batches" 3 (List.length (Layout.batches_of_layer l 1));
  Alcotest.(check (list int)) "no layer 4" [] (List.map (fun b -> b.Layout.layer) (Layout.batches_of_layer l 4))

let test_layout_covers_all_gates () =
  let c = Gen.random_dag ~gates:120 ~clients:3 ~mul_fraction:0.6 ~seed:3 in
  let l = Layout.make c ~k:5 in
  let total =
    Array.fold_left
      (fun acc batches ->
        acc + List.fold_left (fun a b -> a + Array.length b.Layout.mult_gates) 0 batches)
      0 l.Layout.mult_layers
  in
  Alcotest.(check int) "every mult gate in exactly one batch" (C.num_mul c) total

let test_layout_input_batches () =
  let c = Gen.dot_product ~len:7 in
  let l = Layout.make c ~k:3 in
  (* each client has 7 inputs -> 3 batches each *)
  Alcotest.(check int) "input batches" 6 (Layout.num_input_batches l);
  let sizes = List.map (fun (_, ws) -> Array.length ws) l.Layout.input_batches in
  Alcotest.(check (list int)) "sizes" [ 3; 3; 1; 3; 3; 1 ] sizes

let test_layout_pad () =
  let c = Gen.dot_product ~len:2 in
  let l = Layout.make c ~k:4 in
  Alcotest.(check (array int)) "padding" [| 5; 6; 0; 0 |] (Layout.pad_to_k l [| 5; 6 |] 0);
  Alcotest.check_raises "too long" (Invalid_argument "Layout.pad_to_k: batch longer than k")
    (fun () -> ignore (Layout.pad_to_k l [| 1; 2; 3; 4; 5 |] 0))

let test_layout_bad_k () =
  let c = Gen.dot_product ~len:2 in
  Alcotest.check_raises "k = 0" (Invalid_argument "Layout.make: k must be >= 1") (fun () ->
      ignore (Layout.make c ~k:0))

let test_layout_layers_respect_dependencies () =
  (* every mult gate's operands must have depth < the gate's layer *)
  let c = Gen.random_dag ~gates:150 ~clients:2 ~mul_fraction:0.5 ~seed:11 in
  let l = Layout.make c ~k:6 in
  Array.iter
    (List.iter (fun b ->
         Array.iter
           (fun (a, b', _) ->
             Alcotest.(check bool) "deps earlier" true
               (l.Layout.depths.(a) < b.Layout.layer && l.Layout.depths.(b') < b.Layout.layer))
           b.Layout.mult_gates))
    l.Layout.mult_layers

let () =
  Alcotest.run "circuit"
    [
      ( "builder",
        [
          Alcotest.test_case "add/mul" `Quick test_simple_add_mul;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "reuse rejected" `Quick test_builder_reuse_rejected;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "sum/product trees" `Quick test_sum_product_trees;
          Alcotest.test_case "stats: add-only" `Quick test_stats_add_only;
          Alcotest.test_case "stats: input/output-only" `Quick test_stats_input_output_only;
          Alcotest.test_case "constant_wire memoized" `Quick test_constant_wire_memoized;
          Alcotest.test_case "sub" `Quick test_builder_sub;
        ] );
      ( "generators",
        [
          Alcotest.test_case "dot product" `Quick test_dot_product;
          Alcotest.test_case "poly eval" `Quick test_poly_eval;
          Alcotest.test_case "variance" `Quick test_variance_numerator;
          Alcotest.test_case "matrix-vector" `Quick test_matrix_vector;
          Alcotest.test_case "random dag deterministic" `Quick test_random_dag_deterministic;
          Alcotest.test_case "mul fraction" `Quick test_random_dag_mul_fraction;
        ] );
      ( "layout",
        [
          Alcotest.test_case "batching" `Quick test_layout_batching;
          Alcotest.test_case "covers all gates" `Quick test_layout_covers_all_gates;
          Alcotest.test_case "input batches" `Quick test_layout_input_batches;
          Alcotest.test_case "padding" `Quick test_layout_pad;
          Alcotest.test_case "bad k" `Quick test_layout_bad_k;
          Alcotest.test_case "dependencies" `Quick test_layout_layers_respect_dependencies;
        ] );
    ]
