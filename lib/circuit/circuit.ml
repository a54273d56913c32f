type wire = int

type gate =
  | Input of { client : int; wire : wire }
  | Add of { a : wire; b : wire; out : wire }
  | Mul of { a : wire; b : wire; out : wire }
  | Output of { client : int; wire : wire }

type t = {
  gates : gate array;
  wire_count : int;
  input_wires : (int * wire) list;
  output_wires : (int * wire) list;
}

let of_gates gates =
  let defined = Hashtbl.create 64 in
  let max_wire = ref (-1) in
  let define w =
    if w < 0 then invalid_arg "Circuit: negative wire id";
    if Hashtbl.mem defined w then
      invalid_arg (Printf.sprintf "Circuit: wire %d defined twice" w);
    Hashtbl.add defined w ();
    if w > !max_wire then max_wire := w
  in
  let use w =
    if not (Hashtbl.mem defined w) then
      invalid_arg (Printf.sprintf "Circuit: wire %d used before definition" w)
  in
  let inputs = ref [] and outputs = ref [] in
  Array.iter
    (fun g ->
      match g with
      | Input { client; wire } ->
        define wire;
        inputs := (client, wire) :: !inputs
      | Add { a; b; out } | Mul { a; b; out } ->
        use a;
        use b;
        define out
      | Output { client; wire } ->
        use wire;
        outputs := (client, wire) :: !outputs)
    gates;
  let wire_count = !max_wire + 1 in
  for w = 0 to wire_count - 1 do
    if not (Hashtbl.mem defined w) then
      invalid_arg (Printf.sprintf "Circuit: wire id %d unused (ids must be dense)" w)
  done;
  { gates; wire_count; input_wires = List.rev !inputs; output_wires = List.rev !outputs }

let count f c = Array.fold_left (fun acc g -> if f g then acc + 1 else acc) 0 c.gates

let num_inputs c = count (function Input _ -> true | Add _ | Mul _ | Output _ -> false) c
let num_outputs c = count (function Output _ -> true | Add _ | Mul _ | Input _ -> false) c
let num_add c = count (function Add _ -> true | Input _ | Mul _ | Output _ -> false) c
let num_mul c = count (function Mul _ -> true | Input _ | Add _ | Output _ -> false) c
let size c = Array.length c.gates

(* multiplicative depth of each wire; additions stay on their inputs'
   level *)
let wire_depths c =
  let depths = Array.make c.wire_count 0 in
  Array.iter
    (fun g ->
      match g with
      | Input { wire; _ } -> depths.(wire) <- 0
      | Add { a; b; out } -> depths.(out) <- max depths.(a) depths.(b)
      | Mul { a; b; out } -> depths.(out) <- 1 + max depths.(a) depths.(b)
      | Output _ -> ())
    c.gates;
  depths

let depth c =
  let depths = wire_depths c in
  Array.fold_left max 0 depths

let mult_width c =
  let depths = wire_depths c in
  let per_layer = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      match g with
      | Mul { out; _ } ->
        let l = depths.(out) in
        Hashtbl.replace per_layer l (1 + Option.value ~default:0 (Hashtbl.find_opt per_layer l))
      | Input _ | Add _ | Output _ -> ())
    c.gates;
  Hashtbl.fold (fun _ v acc -> max v acc) per_layer 0

let clients c =
  List.sort_uniq compare (List.map fst c.input_wires @ List.map fst c.output_wires)

let input_wires_of_client c client =
  List.filter_map (fun (cl, w) -> if cl = client then Some w else None) c.input_wires

let pp_stats ppf c =
  Format.fprintf ppf
    "gates=%d inputs=%d add=%d mul=%d outputs=%d depth=%d width=%d clients=%d"
    (size c) (num_inputs c) (num_add c) (num_mul c) (num_outputs c) (depth c)
    (mult_width c)
    (List.length (clients c))

let assign_inputs c ~inputs =
  let vectors = Hashtbl.create 8 in
  let next client =
    let v, i =
      match Hashtbl.find_opt vectors client with
      | Some s -> s
      | None ->
        let s = (inputs client, ref 0) in
        Hashtbl.add vectors client s;
        s
    in
    if !i >= Array.length v then
      invalid_arg
        (Printf.sprintf "Circuit.assign_inputs: client %d supplied %d inputs, needs %d"
           client (Array.length v)
           (List.length (input_wires_of_client c client)));
    incr i;
    v.(!i - 1)
  in
  List.map (fun (client, wire) -> (wire, next client)) c.input_wires

module type RING = sig
  type t

  val zero : t
  val add : t -> t -> t
  val mul : t -> t -> t
end

module Eval (R : RING) = struct
  let run c ~inputs =
    let values = Array.make c.wire_count R.zero in
    List.iter (fun (wire, v) -> values.(wire) <- v) (assign_inputs c ~inputs);
    Array.iter
      (function
        | Add { a; b; out } -> values.(out) <- R.add values.(a) values.(b)
        | Mul { a; b; out } -> values.(out) <- R.mul values.(a) values.(b)
        | Input _ | Output _ -> ())
      c.gates;
    List.map (fun (client, w) -> (client, values.(w))) c.output_wires
end
