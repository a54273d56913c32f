module F = Yoso_field.Field.Fp

type def =
  | Inp of { client : int; slot : int }
  | Cst of int (* canonical field value, 0 <= v < p *)
  | Add2 of int * int
  | Mul2 of int * int

type t = { defs : def array; outs : (int * int) list }

(* ------------------------------------------------------------------ *)
(* builder                                                             *)
(* ------------------------------------------------------------------ *)

module B = struct
  type b = { mutable defs : def list; mutable n : int }

  let create () = { defs = []; n = 0 }

  let emit b d =
    let id = b.n in
    b.defs <- d :: b.defs;
    b.n <- id + 1;
    id

  let inp b ~client ~slot = emit b (Inp { client; slot })
  let cst b v = emit b (Cst (F.to_int (F.of_int v)))
  let add b x y = emit b (Add2 (x, y))
  let mul b x y = emit b (Mul2 (x, y))
  let def_of b id = List.nth b.defs (b.n - 1 - id)
  let size b = b.n
  let finish b ~outs = { defs = Array.of_list (List.rev b.defs); outs }
end

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  nodes : int;
  inputs : int;
  consts : int;
  adds : int;
  muls : int;
  depth : int; (* multiplicative depth; additions are free *)
}

let depths ir =
  let d = Array.make (Array.length ir.defs) 0 in
  Array.iteri
    (fun i def ->
      match def with
      | Inp _ | Cst _ -> ()
      | Add2 (a, b) -> d.(i) <- max d.(a) d.(b)
      | Mul2 (a, b) -> d.(i) <- 1 + max d.(a) d.(b))
    ir.defs;
  d

let stats ir =
  let inputs = ref 0 and consts = ref 0 and adds = ref 0 and muls = ref 0 in
  Array.iter
    (function
      | Inp _ -> incr inputs
      | Cst _ -> incr consts
      | Add2 _ -> incr adds
      | Mul2 _ -> incr muls)
    ir.defs;
  let depth = Array.fold_left max 0 (depths ir) in
  {
    nodes = Array.length ir.defs;
    inputs = !inputs;
    consts = !consts;
    adds = !adds;
    muls = !muls;
    depth;
  }

let stats_json s =
  let open Yoso_runtime.Json in
  Obj
    [ ("nodes", Int s.nodes); ("inputs", Int s.inputs); ("consts", Int s.consts);
      ("adds", Int s.adds); ("muls", Int s.muls); ("depth", Int s.depth) ]

let use_counts ir =
  let uses = Array.make (Array.length ir.defs) 0 in
  Array.iter
    (function
      | Inp _ | Cst _ -> ()
      | Add2 (a, b) | Mul2 (a, b) ->
        uses.(a) <- uses.(a) + 1;
        uses.(b) <- uses.(b) + 1)
    ir.defs;
  List.iter (fun (_, o) -> uses.(o) <- uses.(o) + 1) ir.outs;
  uses

(* ------------------------------------------------------------------ *)
(* pass framework: every pass rebuilds the graph reachable from the
   outputs (so each pass also sweeps dead nodes it exposed)            *)
(* ------------------------------------------------------------------ *)

let rebuild ir ~node =
  let b = B.create () in
  let memo = Array.make (Array.length ir.defs) (-1) in
  let rec go i =
    if memo.(i) >= 0 then memo.(i)
    else begin
      let id = node b go ir.defs.(i) in
      memo.(i) <- id;
      id
    end
  in
  let outs = List.map (fun (c, o) -> (c, go o)) ir.outs in
  B.finish b ~outs

(* constant folding/propagation: operations on two known constants
   collapse to a constant *)
let fold ir =
  rebuild ir ~node:(fun b go def ->
      let value i = match B.def_of b i with Cst v -> Some v | _ -> None in
      match def with
      | Inp _ | Cst _ as d -> B.emit b d
      | Add2 (a, b') -> (
        let x = go a and y = go b' in
        match (value x, value y) with
        | Some u, Some v -> B.cst b (F.to_int (F.add (F.of_int u) (F.of_int v)))
        | _ -> B.add b x y)
      | Mul2 (a, b') -> (
        let x = go a and y = go b' in
        match (value x, value y) with
        | Some u, Some v -> B.cst b (F.to_int (F.mul (F.of_int u) (F.of_int v)))
        | _ -> B.mul b x y))

(* algebraic rewrites: x*1 -> x, 1*x -> x, x*0 -> 0, 0*x -> 0,
   x+0 -> x, 0+x -> x *)
let rewrite ir =
  rebuild ir ~node:(fun b go def ->
      let value i = match B.def_of b i with Cst v -> Some v | _ -> None in
      match def with
      | Inp _ | Cst _ as d -> B.emit b d
      | Add2 (a, b') -> (
        let x = go a and y = go b' in
        match (value x, value y) with
        | Some 0, _ -> y
        | _, Some 0 -> x
        | _ -> B.add b x y)
      | Mul2 (a, b') -> (
        let x = go a and y = go b' in
        match (value x, value y) with
        | Some 1, _ -> y
        | _, Some 1 -> x
        | Some 0, _ | _, Some 0 -> B.cst b 0
        | _ -> B.mul b x y))

(* common-subexpression elimination by hash-consing (value numbering);
   addition and multiplication are commutative, so operand ids are
   sorted before lookup *)
let cse ir =
  let table = Hashtbl.create 256 in
  rebuild ir ~node:(fun b go def ->
      let key =
        match def with
        | Inp { client; slot } -> `I (client, slot)
        | Cst v -> `C v
        | Add2 (a, b') ->
          let x = go a and y = go b' in
          `A (min x y, max x y)
        | Mul2 (a, b') ->
          let x = go a and y = go b' in
          `M (min x y, max x y)
      in
      match Hashtbl.find_opt table key with
      | Some id -> id
      | None ->
        let id =
          match (def, key) with
          | (Inp _ | Cst _), _ -> B.emit b def
          | Add2 _, `A (x, y) -> B.add b x y
          | Mul2 _, `M (x, y) -> B.mul b x y
          | _ -> assert false
        in
        Hashtbl.add table key id;
        id)

(* multiplication-depth minimization: flatten maximal single-use
   chains of one operator into leaf lists and recombine greedily,
   always pairing the two shallowest subtrees (Huffman-style, optimal
   for this cost model and never deeper than the original chain) *)
let reassoc ir =
  let uses = use_counts ir in
  let b = B.create () in
  let memo = Array.make (Array.length ir.defs) (-1) in
  let depth = ref [||] in
  let depth_of id =
    if id < Array.length !depth then !depth.(id) else 0
  in
  let record_depth id d =
    if id >= Array.length !depth then begin
      let grown = Array.make (max 64 (2 * (id + 1))) 0 in
      Array.blit !depth 0 grown 0 (Array.length !depth);
      depth := grown
    end;
    !depth.(id) <- d
  in
  let same_op op i =
    match (op, ir.defs.(i)) with
    | `Add, Add2 (a, b') | `Mul, Mul2 (a, b') -> Some (a, b')
    | _ -> None
  in
  (* leaves of the maximal chain rooted at (a, b): an operand is
     expanded when it is the same operator and used nowhere else *)
  let rec leaves op acc i =
    match same_op op i with
    | Some (a, b') when uses.(i) = 1 -> leaves op (leaves op acc a) b'
    | _ -> i :: acc
  in
  let combine op x y =
    let id = match op with `Add -> B.add b x y | `Mul -> B.mul b x y in
    let d =
      match op with
      | `Add -> max (depth_of x) (depth_of y)
      | `Mul -> 1 + max (depth_of x) (depth_of y)
    in
    record_depth id d;
    id
  in
  let rec go i =
    if memo.(i) >= 0 then memo.(i)
    else begin
      let id =
        match ir.defs.(i) with
        | Inp _ | Cst _ as d ->
          let id = B.emit b d in
          record_depth id 0;
          id
        | Add2 (a, b') | Mul2 (a, b') ->
          let op = match ir.defs.(i) with Add2 _ -> `Add | _ -> `Mul in
          let ls = List.rev (leaves op (leaves op [] a) b') in
          let ls = List.map go ls in
          (* repeatedly merge the two shallowest subtrees; stable under
             equal depths (first-come order), hence deterministic *)
          let rec merge = function
            | [] -> assert false
            | [ x ] -> x
            | ls ->
              let sorted =
                List.stable_sort (fun x y -> compare (depth_of x) (depth_of y)) ls
              in
              (match sorted with
              | x :: y :: rest -> merge (combine op x y :: rest)
              | _ -> assert false)
          in
          merge ls
      in
      memo.(i) <- id;
      id
    end
  in
  let outs = List.map (fun (c, o) -> (c, go o)) ir.outs in
  B.finish b ~outs

(* ------------------------------------------------------------------ *)
(* evaluation (for pass debugging and the test suite)                  *)
(* ------------------------------------------------------------------ *)

let eval ir ~input =
  let v = Array.make (Array.length ir.defs) F.zero in
  Array.iteri
    (fun i def ->
      v.(i) <-
        (match def with
        | Inp { client; slot } -> input ~client ~slot
        | Cst c -> F.of_int c
        | Add2 (a, b) -> F.add v.(a) v.(b)
        | Mul2 (a, b) -> F.mul v.(a) v.(b)))
    ir.defs;
  List.map (fun (c, o) -> (c, v.(o))) ir.outs
