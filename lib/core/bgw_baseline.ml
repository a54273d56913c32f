module F = Yoso_field.Field.Fp
module PS = Yoso_shamir.Packed_shamir.Make (F)
module Bary = Yoso_field.Barycentric.Make (F)
module Circuit = Yoso_circuit.Circuit
module Eval = Yoso_circuit.Circuit.Eval (Yoso_field.Field.Fp)
module Bulletin = Yoso_runtime.Bulletin
module Committee = Yoso_runtime.Committee
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role

type report = {
  outputs : (int * Circuit.wire * F.t) list;
  online_elements : int;
  input_elements : int;
  posts : int;
  num_mult : int;
}

let online_per_gate r = float_of_int r.online_elements /. float_of_int (max 1 r.num_mult)

let execute ~n ~t ?(seed = 0xB6) ~circuit ~inputs () =
  if t < 0 || 2 * t + 1 > n then
    invalid_arg "Bgw_baseline: need 0 <= t < n/2";
  let board = Bulletin.create () in
  let st = Random.State.make [| seed |] in
  let ps = PS.make_params ~n ~k:1 in
  let depths = Circuit.wire_depths circuit in
  let total_rounds = Array.fold_left max 0 depths in
  (* round at which each wire is last consumed (see mli) *)
  let last_use = Array.make circuit.Circuit.wire_count (-1) in
  let touch w r = if r > last_use.(w) then last_use.(w) <- r in
  Array.iter
    (fun g ->
      match g with
      | Circuit.Input _ -> ()
      | Circuit.Add { a; b; out } ->
        touch a depths.(out);
        touch b depths.(out)
      | Circuit.Mul { a; b; out } ->
        touch a (depths.(out) - 1);
        touch b (depths.(out) - 1)
      | Circuit.Output { wire; _ } -> touch wire total_rounds)
    circuit.Circuit.gates;

  (* current committee's degree-t sharings of the defined wires *)
  let shares : PS.sharing option array = Array.make circuit.Circuit.wire_count None in
  let get w =
    match shares.(w) with
    | Some s -> s
    | None -> failwith "Bgw_baseline: wire share missing"
  in

  (* ---- input sharing ------------------------------------------------ *)
  List.iter
    (fun (wire, v) -> shares.(wire) <- Some (PS.share ps ~degree:t ~secrets:[| v |] ~rng:st))
    (Circuit.assign_inputs circuit ~inputs);
  List.iter
    (fun client ->
      let wires = Circuit.input_wires_of_client circuit client in
      if wires <> [] then
        Bulletin.post board
          ~author:(Role.id ~committee:(Printf.sprintf "BgwClient%d" client) ~index:0)
          ~phase:"input"
          ~cost:[ (Cost.Ciphertext, n * List.length wires) ])
    (Circuit.clients circuit);

  (* resharing weights: t+1 senders for carried wires, 2t+1 for
     degree-2t products (GRR reduction) *)
  let weights count =
    Bary.row (Bary.create (Array.init count (PS.share_point ps))) F.zero
  in
  let w_carry = weights (t + 1) in
  let w_reduce = weights ((2 * t) + 1) in

  (* re-share a list of (wire, member-shares, senders-needed) through a
     fresh committee round and install the reduced sharings *)
  let committee_counter = ref 0 in
  let reshare_round round payload =
    incr committee_counter;
    let name = Printf.sprintf "Bgw-R%d#%d" round !committee_counter in
    let committee = Committee.honest_all ~name ~n in
    (* each member speaks once, re-sharing its share of every value *)
    let sub = Hashtbl.create 64 in
    List.iter
      (fun (w, sharing, _) ->
        let polys =
          Array.init n (fun i ->
              PS.share ps ~degree:t ~secrets:[| (sharing : PS.sharing).PS.shares.(i) |] ~rng:st)
        in
        Hashtbl.add sub w polys)
      payload;
    for i = 0 to n - 1 do
      Bulletin.post board ~author:(Committee.role committee i) ~phase:"online"
        ~cost:[ (Cost.Ciphertext, n * List.length payload) ]
    done;
    List.iter
      (fun (w, _, senders) ->
        let polys = Hashtbl.find sub w in
        let weights = if senders = t + 1 then w_carry else w_reduce in
        let new_shares =
          Array.init n (fun j ->
              let acc = ref F.zero in
              for i = 0 to senders - 1 do
                acc := F.add !acc (F.mul weights.(i) (polys.(i) : PS.sharing).PS.shares.(j))
              done;
              !acc)
        in
        shares.(w) <- Some (PS.make_sharing ~degree:t ~shares:new_shares))
      payload
  in

  (* additions executable at a given round *)
  let run_adds round =
    Array.iter
      (fun g ->
        match g with
        | Circuit.Add { a; b; out } ->
          if depths.(out) = round && shares.(out) = None then
            shares.(out) <- Some (PS.add ps (get a) (get b))
        | Circuit.Input _ | Circuit.Mul _ | Circuit.Output _ -> ())
      circuit.Circuit.gates
  in
  run_adds 0;

  (* ---- rounds -------------------------------------------------------- *)
  for r = 0 to total_rounds - 1 do
    (* products of layer r+1, degree 2t, computed by committee r *)
    let products =
      Array.to_list circuit.Circuit.gates
      |> List.filter_map (fun g ->
             match g with
             | Circuit.Mul { a; b; out } when depths.(out) = r + 1 ->
               Some (out, PS.mul ps (get a) (get b), (2 * t) + 1)
             | Circuit.Mul _ | Circuit.Input _ | Circuit.Add _ | Circuit.Output _ -> None)
    in
    (* wires still needed strictly after this round *)
    let carried = ref [] in
    Array.iteri
      (fun w s ->
        match s with
        | Some sharing when last_use.(w) > r -> carried := (w, sharing, t + 1) :: !carried
        | Some _ | None -> ())
      shares;
    reshare_round r (products @ !carried);
    run_adds (r + 1)
  done;

  (* ---- output -------------------------------------------------------- *)
  let output_gates = Array.of_list circuit.Circuit.output_wires in
  if Array.length output_gates > 0 then begin
    incr committee_counter;
    let name = Printf.sprintf "Bgw-Out#%d" !committee_counter in
    let committee = Committee.honest_all ~name ~n in
    for i = 0 to n - 1 do
      Bulletin.post board ~author:(Committee.role committee i) ~phase:"online"
        ~cost:[ (Cost.Field_element, Array.length output_gates) ]
    done
  end;
  let outputs =
    Array.to_list
      (Array.map
         (fun (client, w) ->
           let sharing = get w in
           let pairs = List.init (t + 1) (fun i -> (i, (sharing : PS.sharing).PS.shares.(i))) in
           (client, w, (PS.reconstruct ps ~degree:t pairs).(0)))
         output_gates)
  in
  let cost = Bulletin.cost board in
  {
    outputs;
    online_elements = Cost.elements cost ~phase:"online";
    input_elements = Cost.elements cost ~phase:"input";
    posts = Bulletin.length board;
    num_mult = Circuit.num_mul circuit;
  }

let check report circuit ~inputs =
  let plain = Eval.run circuit ~inputs in
  List.length plain = List.length report.outputs
  && List.for_all2
       (fun (c, v) (c', _, v') -> c = c' && F.equal v v')
       plain report.outputs
