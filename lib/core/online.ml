module F = Yoso_field.Field.Fp
module PS = Yoso_shamir.Packed_shamir.Make (F)
module Pke = Ideal_pke
module Te = Ideal_te
module Circuit = Yoso_circuit.Circuit
module Layout = Yoso_circuit.Layout
module Bulletin = Yoso_runtime.Bulletin
module Committee = Yoso_runtime.Committee
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Faults = Yoso_runtime.Faults
module Ops = Committee_ops
module Board = Yoso_net.Board
module Wire = Yoso_net.Wire
module Pool = Yoso_parallel.Pool

type output = { client : int; wire : Circuit.wire; value : F.t }

let phase = "online"

let chunks size arr =
  let n = Array.length arr in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let len = min size (n - i) in
      go (i + len) (Array.sub arr i len :: acc)
    end
  in
  go 0 []

(* The online phase draws its preprocessing through an
   {!Offline.source}: each thunk is pulled exactly when the protocol
   needs that material — the final tsk holder first (future key
   distribution), then the input preps, then each mult layer's packed
   shares as its committee speaks, and the wire lambdas only at the
   output step.  The holder comes from the last offline committee, so
   the whole of a circuit's preprocessing precedes its online phase. *)
let run_from (ctx : Ops.ctx) (setup : Setup.t) (source : Offline.source) ~inputs =
  let te = setup.Setup.te in
  let p = ctx.Ops.params in
  let n = p.Params.n and k = p.Params.k in
  let gpc = p.Params.gates_per_committee in
  let layout = source.Offline.src_layout in
  let circuit = layout.Layout.circuit in
  let layers = source.Offline.src_layers in
  let ps = PS.make_params ~n ~k in
  let recon_degree = Params.reconstruction_threshold p - 1 in

  (* ---- role keys: layer committees are sampled now, and their
     role-assignment keys become known ------------------------------- *)
  let layer_committees = Array.init layers (fun _ -> Ops.fresh_committee ctx "On-L") in
  let role_keys =
    Array.init layers (fun _ -> Array.init n (fun _ -> Pke.gen ctx.Ops.rng))
  in

  (* ---- future key distribution ------------------------------------ *)
  let client_targets =
    List.map
      (fun (c, entry) ->
        let pk, _ = List.assoc c setup.Setup.client_keys in
        (pk, entry.Setup.kff_sk_ct))
      setup.Setup.kff_clients
  in
  let role_targets =
    List.concat
      (List.init layers (fun li ->
           List.init n (fun i ->
               (fst role_keys.(li).(i), setup.Setup.kff_roles.(li).(i).Setup.kff_sk_ct))))
  in
  let all_targets = Array.of_list (client_targets @ role_targets) in
  let holder = ref (source.Offline.src_final_holder ()) in
  let key_packages = Array.make (Array.length all_targets) None in
  let pos = ref 0 in
  List.iter
    (fun chunk ->
      let packages, next =
        Ops.reencrypt_batch ctx te !holder ~phase ~step:"future key distribution" chunk
      in
      Array.iteri (fun i pkg -> key_packages.(!pos + i) <- Some pkg) packages;
      pos := !pos + Array.length packages;
      holder := next)
    (chunks (max n gpc) all_targets);
  let num_clients = List.length client_targets in
  let client_kff_sk =
    List.mapi
      (fun idx (c, _) ->
        let _, sk = List.assoc c setup.Setup.client_keys in
        (c, Ops.open_reenc te sk (Option.get key_packages.(idx))))
      setup.Setup.kff_clients
  in
  let role_kff_sk li i =
    let idx = num_clients + (li * n) + i in
    let _, sk = role_keys.(li).(i) in
    Ops.open_reenc te sk (Option.get key_packages.(idx))
  in

  (* ---- mu bookkeeping --------------------------------------------- *)
  let mu = Array.make circuit.Circuit.wire_count None in
  let get_mu w =
    match mu.(w) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Online: mu of wire %d not yet computed" w)
  in
  let propagate_additions () =
    Array.iter
      (function
        | Circuit.Add { a; b; out } -> (
          match (mu.(a), mu.(b)) with
          | Some va, Some vb -> mu.(out) <- Some (F.add va vb)
          | _ -> ())
        | Circuit.Input _ | Circuit.Mul _ | Circuit.Output _ -> ())
      circuit.Circuit.gates
  in

  (* ---- input step -------------------------------------------------- *)
  let client_input_cursor = Hashtbl.create 8 in
  List.iter
    (fun ip ->
      let c = ip.Offline.client in
      let kff_sk = List.assoc c client_kff_sk in
      let vec = inputs c in
      Array.iteri
        (fun j w ->
          let cursor = Option.value ~default:0 (Hashtbl.find_opt client_input_cursor c) in
          if cursor >= Array.length vec then
            invalid_arg (Printf.sprintf "Online: client %d input vector too short" c);
          let lambda = Ops.open_reenc te kff_sk ip.Offline.lambda_reencs.(j) in
          mu.(w) <- Some (F.sub vec.(cursor) lambda);
          Hashtbl.replace client_input_cursor c (cursor + 1))
        ip.Offline.wires)
    (source.Offline.src_input_preps ());
  (* one broadcast per client input role, carrying all its mu values —
     the real field elements go over the wire *)
  Board.next_round ctx.Ops.board;
  List.iter
    (fun c ->
      let wires = Circuit.input_wires_of_client circuit c in
      if wires <> [] then
        ignore
          (Board.post ctx.Ops.board
             ~author:(Role.id ~committee:(Printf.sprintf "Client%d-In" c) ~index:0)
             ~phase ~step:"input: publish mu = v - lambda"
             ~items:[ Wire.Field_elements (Array.of_list (List.map get_mu wires)) ]
             ~cost:[ (Cost.Field_element, List.length wires) ]
             ()))
    (Circuit.clients circuit);
  propagate_additions ();

  (* ---- multiplication layers --------------------------------------- *)
  for li = 0 to layers - 1 do
    let committee = layer_committees.(li) in
    let preps = Array.of_list (source.Offline.src_mult_preps li) in
    let nbatches = Array.length preps in
    if nbatches > 0 then begin
      (* public: degree-(k-1) sharings of the mu vectors of each batch *)
      let padded_mu f batch =
        let raw = Array.map f batch.Layout.mult_gates in
        Array.append raw (Array.make (k - Array.length raw) F.zero)
      in
      let pool = ctx.Ops.pool in
      let mu_alpha_sharing =
        Pool.map pool nbatches (fun bi ->
            PS.share_public ps (padded_mu (fun (a, _, _) -> get_mu a) preps.(bi).Offline.batch))
      in
      let mu_beta_sharing =
        Pool.map pool nbatches (fun bi ->
            PS.share_public ps (padded_mu (fun (_, b, _) -> get_mu b) preps.(bi).Offline.batch))
      in
      let step = "multiplication: publish mu-gamma shares" in
      let verified =
        Ops.contributions ctx committee ~phase ~step
          ~cost:[ (Cost.Field_element, nbatches) ]
          ~wire:(fun shares -> [ Wire.Field_elements shares ])
          ~required:(Params.reconstruction_threshold p)
          ~tamper:(fun rng kind i ->
            match kind with
            | Faults.Garbage_ciphertext -> None
            | Faults.Wrong_degree ->
              (* shares drawn off a maximal-degree junk polynomial: the
                 redundancy check over the surviving set would flag
                 exactly these if the forged proof slipped through *)
              Some
                (Array.map
                   (fun _ ->
                     let secrets = Array.init k (fun _ -> F.random rng) in
                     (PS.share ps ~degree:(n - 1) ~secrets ~rng).PS.shares.(i))
                   preps)
            | _ -> Some (Array.map (fun _ -> F.random rng) preps))
          (fun _rng i ->
            let kff_sk = role_kff_sk li i in
            Array.mapi
              (fun bi mp ->
                let open_share reencs = Ops.open_reenc te kff_sk reencs.(i) in
                let la = open_share mp.Offline.alpha_shares in
                let lb = open_share mp.Offline.beta_shares in
                let g = open_share mp.Offline.gamma_shares in
                let ma = (mu_alpha_sharing.(bi) : PS.sharing).PS.shares.(i) in
                let mb = (mu_beta_sharing.(bi) : PS.sharing).PS.shares.(i) in
                F.add (F.add (F.mul ma mb) (F.mul ma lb)) (F.add (F.mul mb la) g))
              preps)
      in
      Array.iteri
        (fun bi mp ->
          let pairs = List.map (fun (i, shares) -> (i, shares.(bi))) verified in
          (* error-detecting reconstruction over the surviving set:
             every share beyond the first degree+1 must lie on the
             interpolated polynomial *)
          let vec =
            match PS.reconstruct_checked ps ~degree:recon_degree pairs with
            | Ok vec -> vec
            | Error bad ->
              List.iter
                (fun i ->
                  Faults.record ctx.Ops.log
                    {
                      Faults.role = Committee.role committee i;
                      kind = Faults.Tamper_share;
                      phase;
                      step;
                    })
                bad;
              raise
                (Faults.Protocol_failure
                   {
                     Faults.f_phase = phase;
                     f_step = step ^ " (inconsistent surviving shares)";
                     f_committee = committee.Committee.name;
                     surviving = List.length pairs - List.length bad;
                     required = Params.reconstruction_threshold p;
                   })
          in
          Array.iteri
            (fun gi (_, _, out) -> mu.(out) <- Some vec.(gi))
            mp.Offline.batch.Layout.mult_gates)
        preps
    end;
    propagate_additions ()
  done;

  (* ---- output step -------------------------------------------------- *)
  let output_gates = Array.of_list circuit.Circuit.output_wires in
  let wire_lambda = source.Offline.src_wire_lambda () in
  let output_values =
    Array.map
      (fun (client, w) ->
        let pk, _ = List.assoc client setup.Setup.client_keys in
        (pk, wire_lambda.(w)))
      output_gates
  in
  let packages =
    if Array.length output_values = 0 then [||]
    else Ops.reencrypt_final ctx te !holder ~phase ~step:"output: re-encrypt lambdas to clients" output_values
  in
  Array.to_list
    (Array.mapi
       (fun idx (client, w) ->
         let _, sk = List.assoc client setup.Setup.client_keys in
         let lambda = Ops.open_reenc te sk packages.(idx) in
         { client; wire = w; value = F.add (get_mu w) lambda })
       output_gates)

let run ctx setup prep ~inputs = run_from ctx setup (Offline.source_of prep) ~inputs
