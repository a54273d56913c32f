module F = Yoso_field.Field.Fp
module Te = Ideal_te
module Circuit = Yoso_circuit.Circuit
module Eval = Yoso_circuit.Circuit.Eval (Yoso_field.Field.Fp)
module Bulletin = Yoso_runtime.Bulletin
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix
module Ops = Committee_ops

type report = {
  outputs : (int * Circuit.wire * F.t) list;
  offline_elements : int;
  online_elements : int;
  posts : int;
  num_mult : int;
}

let online_per_gate r = float_of_int r.online_elements /. float_of_int (max 1 r.num_mult)
let offline_per_gate r = float_of_int r.offline_elements /. float_of_int (max 1 r.num_mult)

let execute ~params ?(adversary = Params.no_adversary) ?(seed = 0xCD7) ~circuit ~inputs () =
  let board = Yoso_net.Board.create () in
  let ctx = Ops.create_ctx ~board ~params ~adversary ~seed () in
  let gpc = params.Params.gates_per_committee in
  let te, tsk = Te.keygen ~n:params.Params.n ~t:params.Params.t ~rng:(Splitmix.of_int seed) in
  let m = Circuit.num_mul circuit in

  (* ---- offline: Beaver triples (Protocol 3) ----------------------- *)
  let b1 = Ops.fresh_committee ctx "Cdn-B1" in
  let xs =
    Ops.contributions ctx b1 ~phase:"offline" ~step:"beaver a"
      ~cost:[ (Cost.Ciphertext, m) ]
      (fun rng _ -> Array.init m (fun _ -> Te.encrypt te (F.random rng)))
  in
  let c_a = Array.init m (fun g -> Ops.sum_contributions te xs (fun cts -> cts.(g))) in
  let b2 = Ops.fresh_committee ctx "Cdn-B2" in
  let yz =
    Ops.contributions ctx b2 ~phase:"offline" ~step:"beaver b, c"
      ~cost:[ (Cost.Ciphertext, 2 * m) ]
      (fun rng _ ->
        Array.init m (fun g ->
            let y = F.random rng in
            (Te.encrypt te y, Te.scale te y c_a.(g))))
  in
  let c_b = Array.init m (fun g -> Ops.sum_contributions te yz (fun cts -> fst cts.(g))) in
  let c_c = Array.init m (fun g -> Ops.sum_contributions te yz (fun cts -> snd cts.(g))) in

  (* ---- online: gate-by-gate on ciphertexts ------------------------ *)
  (* inputs: each client broadcasts an encryption of each input value *)
  let wire_ct : F.t Te.ct option array = Array.make circuit.Circuit.wire_count None in
  List.iter
    (fun client ->
      let wires = Circuit.input_wires_of_client circuit client in
      if wires <> [] then
        ignore
          (Yoso_net.Board.post board
             ~author:(Role.id ~committee:(Printf.sprintf "CdnClient%d-In" client) ~index:0)
             ~phase:"online" ~step:"input: encrypted values"
             ~cost:
               [ (Cost.Ciphertext, List.length wires); (Cost.Proof, List.length wires) ]
             ()))
    (Circuit.clients circuit);
  List.iter
    (fun (wire, v) -> wire_ct.(wire) <- Some (Te.encrypt te v))
    (Circuit.assign_inputs circuit ~inputs);
  let get w =
    match wire_ct.(w) with
    | Some c -> c
    | None -> failwith "Cdn_baseline: wire not yet evaluated"
  in
  (* walk gates; additions local, multiplications gathered into
     per-committee batches that respect topological order *)
  let holder = ref (Ops.initial_holder ctx te ~name:"Cdn-D" tsk) in
  let triple_cursor = ref 0 in
  let pending : (int * Circuit.wire * F.t Te.ct * F.t Te.ct) list ref = ref [] in
  (* (triple index, out, c_alpha, c_beta) buffered until either the
     batch is full or a dependent gate needs the result *)
  let flush () =
    let batch = Array.of_list (List.rev !pending) in
    let masked =
      Array.init (2 * Array.length batch) (fun i ->
          let g, _, ca, cb = batch.(i / 2) in
          if i mod 2 = 0 then Te.add te ca c_a.(g) else Te.add te cb c_b.(g))
    in
    let values, next =
      Ops.chain !holder ~size:(2 * gpc) masked (fun h cts ->
          Ops.decrypt_batch ctx te h ~phase:"online" ~step:"beaver opening" cts)
    in
    holder := next;
    Array.iteri
      (fun i (g, out, _, cb) ->
        let eps = values.(2 * i) and delta = values.((2 * i) + 1) in
        wire_ct.(out) <- Some (Te.eval te [| cb; c_a.(g); c_c.(g) |] [| eps; F.neg delta; F.one |]))
      batch;
    pending := []
  in
  let needs w = List.exists (fun (_, out, _, _) -> out = w) !pending in
  Array.iter
    (function
      | Circuit.Input _ -> ()
      | Circuit.Add { a; b; out } ->
        if needs a || needs b then flush ();
        wire_ct.(out) <- Some (Te.add te (get a) (get b))
      | Circuit.Mul { a; b; out } ->
        if needs a || needs b then flush ();
        let g = !triple_cursor in
        incr triple_cursor;
        pending := (g, out, get a, get b) :: !pending
      | Circuit.Output { wire; _ } -> if needs wire then flush ())
    circuit.Circuit.gates;
  flush ();

  (* ---- output: Re-encrypt* the encrypted results to clients ------- *)
  let rng = Splitmix.of_int (seed lxor 0xFACE) in
  let client_keys =
    List.map (fun c -> (c, Ideal_pke.gen rng)) (Circuit.clients circuit)
  in
  let output_gates = Array.of_list circuit.Circuit.output_wires in
  let values =
    Array.map
      (fun (client, w) ->
        let pk, _ = List.assoc client client_keys in
        (pk, get w))
      output_gates
  in
  let packages =
    if Array.length values = 0 then [||]
    else
      Ops.reencrypt_final ctx te !holder ~phase:"online" ~step:"output re-encryption"
        values
  in
  let outputs =
    Array.to_list
      (Array.mapi
         (fun i (client, w) ->
           let _, sk = List.assoc client client_keys in
           (client, w, Ops.open_reenc te sk packages.(i)))
         output_gates)
  in
  let cost = Yoso_net.Board.cost board in
  {
    outputs;
    offline_elements = Cost.elements cost ~phase:"offline";
    online_elements = Cost.elements cost ~phase:"online";
    posts = Yoso_net.Board.length board;
    num_mult = m;
  }

let check report circuit ~inputs =
  let plain = Eval.run circuit ~inputs in
  List.length plain = List.length report.outputs
  && List.for_all2
       (fun (c, v) (c', _, v') -> c = c' && F.equal v v')
       plain report.outputs
