type mult_batch = {
  layer : int;
  mult_gates : (Circuit.wire * Circuit.wire * Circuit.wire) array;
}

type t = {
  circuit : Circuit.t;
  k : int;
  depths : int array;
  mult_layers : mult_batch list array;
  input_batches : (int * Circuit.wire array) list;
}

let chunk size arr =
  if size < 1 then invalid_arg "Layout.chunk: size must be >= 1";
  let n = Array.length arr in
  List.init ((n + size - 1) / size) (fun c ->
      let lo = c * size in
      Array.sub arr lo (min size (n - lo)))

let make circuit ~k =
  if k < 1 then invalid_arg "Layout.make: k must be >= 1";
  let depths = Circuit.wire_depths circuit in
  let max_depth = Array.fold_left max 0 depths in
  (* gather mult gates per layer, in gate order *)
  let per_layer = Array.make (max_depth + 1) [] in
  Array.iter
    (fun g ->
      match g with
      | Circuit.Mul { a; b; out } ->
        let l = depths.(out) in
        per_layer.(l) <- (a, b, out) :: per_layer.(l)
      | Circuit.Input _ | Circuit.Add _ | Circuit.Output _ -> ())
    circuit.Circuit.gates;
  let mult_layers =
    Array.init max_depth (fun i ->
        let layer = i + 1 in
        let gates = Array.of_list (List.rev per_layer.(layer)) in
        List.map (fun mult_gates -> { layer; mult_gates }) (chunk k gates))
  in
  (* group each client's input wires *)
  let input_batches =
    List.concat_map
      (fun client ->
        let wires = Array.of_list (Circuit.input_wires_of_client circuit client) in
        List.map (fun ws -> (client, ws)) (chunk k wires))
      (Circuit.clients circuit)
    |> List.filter (fun (_, ws) -> Array.length ws > 0)
  in
  { circuit; k; depths; mult_layers; input_batches }

let num_mult_batches t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.mult_layers
let num_input_batches t = List.length t.input_batches

let batches_of_layer t l =
  if l < 1 || l > Array.length t.mult_layers then [] else t.mult_layers.(l - 1)

let pad_to_k t arr dummy =
  let len = Array.length arr in
  if len > t.k then invalid_arg "Layout.pad_to_k: batch longer than k";
  if len = t.k then arr
  else Array.append arr (Array.make (t.k - len) dummy)
