type t = {
  mutable gates : Circuit.gate list; (* reversed *)
  mutable next_wire : int;
  mutable built : bool;
  consts : (int * int, Circuit.wire) Hashtbl.t; (* (client, value) -> wire *)
  mutable const_order : (int * int) list; (* reversed first-use order *)
}

let create () =
  {
    gates = [];
    next_wire = 0;
    built = false;
    consts = Hashtbl.create 8;
    const_order = [];
  }

let check_usable b = if b.built then invalid_arg "Builder: already built"

let fresh b =
  let w = b.next_wire in
  b.next_wire <- w + 1;
  w

let push b g = b.gates <- g :: b.gates

let input b ~client =
  check_usable b;
  let wire = fresh b in
  push b (Circuit.Input { client; wire });
  wire

let add b a b' =
  check_usable b;
  let out = fresh b in
  push b (Circuit.Add { a; b = b'; out });
  out

let mul b a b' =
  check_usable b;
  let out = fresh b in
  push b (Circuit.Mul { a; b = b'; out });
  out

(* Circuits have no constant gates: a constant is an ordinary input of
   a designated constants client, materialized once per distinct
   (client, value) pair at first use. *)
let constant_wire b ?(client = 0) v =
  check_usable b;
  match Hashtbl.find_opt b.consts (client, v) with
  | Some w -> w
  | None ->
    let w = input b ~client in
    Hashtbl.add b.consts (client, v) w;
    b.const_order <- (client, v) :: b.const_order;
    w

let constants b = List.rev b.const_order

let sub b ?(const_client = 0) a b' =
  add b a (mul b (constant_wire b ~client:const_client (-1)) b')

let output b ~client wire =
  check_usable b;
  push b (Circuit.Output { client; wire })

let rec reduce_tree b op = function
  | [] -> invalid_arg "Builder: empty wire list"
  | [ w ] -> w
  | ws ->
    (* combine adjacent pairs to keep the tree balanced *)
    let rec pairs = function
      | [] -> []
      | [ w ] -> [ w ]
      | w1 :: w2 :: rest -> op b w1 w2 :: pairs rest
    in
    reduce_tree b op (pairs ws)

let sum b ws = reduce_tree b add ws
let product b ws = reduce_tree b mul ws

let dot b xs ys =
  if List.length xs <> List.length ys then invalid_arg "Builder.dot: length mismatch";
  sum b (List.map2 (mul b) xs ys)

let build b =
  check_usable b;
  b.built <- true;
  Circuit.of_gates (Array.of_list (List.rev b.gates))
