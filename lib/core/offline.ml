module F = Yoso_field.Field.Fp
module Te = Ideal_te
module Bary = Yoso_field.Barycentric.Make (F)
module Layout = Yoso_circuit.Layout
module Circuit = Yoso_circuit.Circuit
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Ops = Committee_ops
module Board = Yoso_net.Board
module Pool = Yoso_parallel.Pool
module Feldman = Yoso_shamir.Feldman

type input_prep = {
  client : int;
  wires : Circuit.wire array;
  lambda_reencs : F.t Committee_ops.reenc array;
}

type mult_prep = {
  batch : Layout.mult_batch;
  alpha_shares : F.t Committee_ops.reenc array;
  beta_shares : F.t Committee_ops.reenc array;
  gamma_shares : F.t Committee_ops.reenc array;
}

type t = {
  layout : Layout.t;
  wire_lambda : F.t Te.ct array;
  input_preps : input_prep list;
  mult_preps : mult_prep list array;
  final_holder : Committee_ops.holder;
}

type opts = {
  audit_triples : bool;
  audit_tamper : int list;
  packed_reenc : bool;
}

let default_opts =
  { audit_triples = false; audit_tamper = []; packed_reenc = false }

type item =
  | Lambdas of F.t Te.ct array
  | Inputs of input_prep list
  | Layer of int * mult_prep list
  | Holder of Committee_ops.holder

let item_kind = function
  | Lambdas _ -> "lambdas"
  | Inputs _ -> "inputs"
  | Layer (li, _) -> Printf.sprintf "layer%d" li
  | Holder _ -> "holder"

module Faults = Yoso_runtime.Faults

let phase = "offline"

(* The offline protocol as an incremental stream: [start] builds a
   stepper whose stages emit typed preprocessing items in a fixed
   order — wire lambdas, input preps, one item per mult layer, then
   the final tsk holder — with exactly the board posts (same order,
   same costs) the one-shot [run] would make.  Draining every batch
   and [assemble]-ing is byte-identical to the pre-split path at equal
   seeds; the factory's producer steps it batch by batch to time and
   meter each one, then assembles. *)
type stream_state = {
  st_layout : Layout.t;
  mutable st_stages : (unit -> item list) list;
  mutable st_ready : item list;
}

let audit_committee = "Off-Audit"

(* batch product-proof audit of the freshly summed triples: one
   aggregated post per gate chunk carrying the triple commitments and
   Chaum-Pedersen proofs the producing committees would jointly
   publish (statements are computed via the simulator shortcut,
   {!Ideal_te.reveal}).  Verification RLC-aggregates the whole chunk
   into three multiexps; it is CPU-local and never touches the
   transcript. *)
let audit_triples (ctx : Ops.ctx) te opts ~gpc ~c_x ~c_y ~c_z =
  List.iter
    (fun gates ->
      let lo = gates.(0) and len = Array.length gates in
      Board.next_round ctx.Ops.board;
      let prng = Pool.derive_rng ~seed:(Random.State.bits ctx.Ops.frng) lo in
      let step = "beaver: batch product-proof audit" in
      let batch =
        Array.init len (fun i ->
            let g = lo + i in
            let x = Te.reveal te c_x.(g)
            and y = Te.reveal te c_y.(g)
            and z = Te.reveal te c_z.(g) in
            let st, pf = Feldman.Product.prove ~rng:prng ~x ~y ~z in
            if List.mem g opts.audit_tamper then (Feldman.Product.tamper_z st F.one, pf)
            else (st, pf))
      in
      ignore
        (Board.post ctx.Ops.board
           ~author:(Role.id ~committee:audit_committee ~index:(lo / gpc))
           ~phase ~step
           ~cost:[ (Cost.Proof, len); (Cost.Key, 3 * len) ]
           ());
      if not (Feldman.Product.verify_batch batch) then begin
        let bad = Feldman.Product.attribute batch in
        List.iter
          (fun i ->
            Faults.record ctx.Ops.log
              {
                Faults.role = Role.id ~committee:audit_committee ~index:(lo / gpc);
                kind = Faults.Tamper_share;
                phase;
                step = Printf.sprintf "%s (gate %d)" step (lo + i);
              })
          bad;
        raise
          (Faults.Protocol_failure
             {
               Faults.f_phase = phase;
               f_step = step;
               f_committee = audit_committee;
               surviving = len - List.length bad;
               required = len;
             })
      end)
    (Layout.chunk gpc (Array.init (Array.length c_x) Fun.id))

let start ?(opts = default_opts) (ctx : Ops.ctx) (setup : Setup.t) layout =
  let te = setup.Setup.te in
  let p = ctx.Ops.params in
  let n = p.Params.n and t = p.Params.t and k = p.Params.k in
  let gpc = p.Params.gates_per_committee in
  let circuit = layout.Layout.circuit in
  let zero_ct = Te.encrypt te F.zero in
  let pool = ctx.Ops.pool in

  (* ---- enumerate multiplication gates (traversal order) ---------- *)
  let mult_gates =
    Array.of_seq
      (Seq.filter_map
         (function
           | Circuit.Mul { a; b; out } -> Some (a, b, out)
           | Circuit.Input _ | Circuit.Add _ | Circuit.Output _ -> None)
         (Array.to_seq circuit.Circuit.gates))
  in
  let m = Array.length mult_gates in
  let gate_index = Hashtbl.create (max 16 m) in
  Array.iteri (fun g (_, _, out) -> Hashtbl.add gate_index out g) mult_gates;

  (* cross-stage state, filled as stages run *)
  let c_x = ref [||] and c_y = ref [||] and c_z = ref [||] in
  let wire_lambda = Array.make circuit.Circuit.wire_count zero_ct in
  let gamma_ct = ref [||] in
  let holder = ref None in
  let the_holder () =
    match !holder with Some h -> h | None -> failwith "Offline: tsk holder not yet created"
  in
  let packed_of_batch = ref (fun _ -> failwith "Offline: packing stage not yet run") in

  (* ---- stage 1: Beaver triples + random wire values -------------- *)
  let lambda_stage () =
    (* Step 1: Beaver triples (Protocol 3) *)
    let b1 = Ops.fresh_committee ctx "Off-B1" in
    let xs =
      Ops.contributions ctx b1 ~phase ~step:"beaver: first-committee shares"
        ~cost:[ (Cost.Ciphertext, m) ]
        (fun rng _ -> Array.init m (fun _ -> Te.encrypt te (F.random rng)))
    in
    c_x := Pool.map pool m (fun g -> Ops.sum_contributions te xs (fun cts -> cts.(g)));
    let cx = !c_x in
    let b2 = Ops.fresh_committee ctx "Off-B2" in
    let yzs =
      Ops.contributions ctx b2 ~phase ~step:"beaver: second-committee shares and products"
        ~cost:[ (Cost.Ciphertext, 2 * m) ]
        (fun rng _ ->
          Array.init m (fun g ->
              let y = F.random rng in
              (Te.encrypt te y, Te.scale te y cx.(g))))
    in
    c_y := Pool.map pool m (fun g -> Ops.sum_contributions te yzs (fun cts -> fst cts.(g)));
    c_z := Pool.map pool m (fun g -> Ops.sum_contributions te yzs (fun cts -> snd cts.(g)));
    if opts.audit_triples && m > 0 then
      audit_triples ctx te opts ~gpc ~c_x:!c_x ~c_y:!c_y ~c_z:!c_z;

    (* Step 2: random wire values *)
    let random_wires =
      Array.of_seq
        (Seq.filter_map
           (function
             | Circuit.Input { wire; _ } -> Some wire
             | Circuit.Mul { out; _ } -> Some out
             | Circuit.Add _ | Circuit.Output _ -> None)
           (Array.to_seq circuit.Circuit.gates))
    in
    let r_committee = Ops.fresh_committee ctx "Off-R" in
    let lambda_contribs =
      Ops.contributions ctx r_committee ~phase ~step:"random wire values"
        ~cost:[ (Cost.Ciphertext, Array.length random_wires) ]
        (fun rng _ -> Array.map (fun _ -> Te.encrypt te (F.random rng)) random_wires)
    in
    Array.iteri
      (fun idx w ->
        wire_lambda.(w) <- Ops.sum_contributions te lambda_contribs (fun cts -> cts.(idx)))
      random_wires;
    (* addition wires homomorphically, in topological order *)
    Array.iter
      (function
        | Circuit.Add { a; b; out } ->
          wire_lambda.(out) <- Te.add te wire_lambda.(a) wire_lambda.(b)
        | Circuit.Input _ | Circuit.Mul _ | Circuit.Output _ -> ())
      circuit.Circuit.gates;
    [ Lambdas wire_lambda ]
  in

  (* ---- stage 2: dependent values, packing, input re-encryption ---- *)
  let input_stage () =
    (* Step 3: masked openings eps = lambda_a + x, delta = lambda_b + y *)
    let cx = !c_x and cy = !c_y and cz = !c_z in
    let masked =
      Pool.map pool (2 * m) (fun i ->
          let g = i / 2 in
          let a, b, _ = mult_gates.(g) in
          if i mod 2 = 0 then Te.add te wire_lambda.(a) cx.(g)
          else Te.add te wire_lambda.(b) cy.(g))
    in
    let opened, h =
      Ops.chain
        (Ops.initial_holder ctx te ~name:"Off-D" setup.Setup.initial_tsk)
        ~size:(2 * gpc) masked
        (fun h cts -> Ops.decrypt_batch ctx te h ~phase ~step:"open masked beaver values" cts)
    in
    (* Gamma_g = lambda_a * lambda_b - lambda_out, homomorphically *)
    gamma_ct :=
      Pool.map pool m (fun g ->
          let _, b, out = mult_gates.(g) in
          let eps = opened.(2 * g) and delta = opened.((2 * g) + 1) in
          Te.eval te
            [| wire_lambda.(b); cx.(g); cz.(g); wire_lambda.(out) |]
            [| eps; F.neg delta; F.one; F.neg F.one |]);
    let gamma = !gamma_ct in

    (* Step 4: pack values for multiplication gates.
       anchor points: secret slots 0, -1, ..., -(k-1), then 1..t *)
    let sources =
      Array.append
        (Array.init k (fun j -> F.of_int (-j)))
        (Array.init t (fun j -> F.of_int (j + 1)))
    in
    let targets = Array.init n (fun i -> F.of_int (i + 1)) in
    let pack_matrix = Array.map (Bary.row (Bary.create sources)) targets in
    let all_batches = Array.of_list (List.concat (Array.to_list layout.Layout.mult_layers)) in
    (* helper randoms: 3 packed vectors per batch, t helpers each *)
    let helpers = Hashtbl.create 64 in
    let batches_per_committee = max 1 (gpc / max 1 k) in
    List.iter
      (fun batch_chunk ->
        let committee = Ops.fresh_committee ctx "Off-P" in
        let contribs =
          Ops.contributions ctx committee ~phase ~step:"packing helper randoms"
            ~cost:[ (Cost.Ciphertext, 3 * t * Array.length batch_chunk) ]
            (fun rng _ ->
              Array.map
                (fun _ ->
                  Array.init 3 (fun _ ->
                      Array.init t (fun _ -> Te.encrypt te (F.random rng))))
                batch_chunk)
        in
        Array.iteri
          (fun bi batch ->
            let help =
              Array.init 3 (fun v ->
                  Array.init t (fun j ->
                      Ops.sum_contributions te contribs (fun cts -> cts.(bi).(v).(j))))
            in
            Hashtbl.add helpers batch help)
          batch_chunk)
      (Layout.chunk batches_per_committee all_batches);
    (* homomorphic Lagrange evaluation: n encrypted packed shares per vector *)
    let pack cts help =
      let anchors = Array.append cts help in
      Pool.map pool n (fun i -> Te.eval te anchors pack_matrix.(i))
    in
    let padded f batch = Layout.pad_to_k layout (Array.map f batch.Layout.mult_gates) zero_ct in
    (packed_of_batch :=
       fun batch ->
         let help = Hashtbl.find helpers batch in
         let alpha = pack (padded (fun (a, _, _) -> wire_lambda.(a)) batch) help.(0) in
         let beta = pack (padded (fun (_, b, _) -> wire_lambda.(b)) batch) help.(1) in
         let gamma =
           pack (padded (fun (_, _, out) -> gamma.(Hashtbl.find gate_index out)) batch)
             help.(2)
         in
         (alpha, beta, gamma));

    (* Step 5: re-encrypt input-wire lambdas to client KFFs *)
    let input_batches = layout.Layout.input_batches in
    let input_values =
      Array.concat
        (List.map
           (fun (client, wires) ->
             let entry = List.assoc client setup.Setup.kff_clients in
             Array.map (fun w -> (entry.Setup.kff_pk, wire_lambda.(w))) wires)
           input_batches)
    in
    (* ciphertext-level batching bundles every value sharing a client
       KFF into one ciphertext per speaking holder, so the whole input
       step fits one committee round *)
    let reenc = if opts.packed_reenc then Ops.reencrypt_packed else Ops.reencrypt_batch in
    let input_reencs, h =
      Ops.chain h
        ~size:(if opts.packed_reenc then max 1 (Array.length input_values) else gpc)
        input_values
        (fun h chunk -> reenc ctx te h ~phase ~step:"re-encrypt input lambdas to KFF" chunk)
    in
    holder := Some h;
    let _, input_preps =
      List.fold_left_map
        (fun pos (client, wires) ->
          let len = Array.length wires in
          (pos + len, { client; wires; lambda_reencs = Array.sub input_reencs pos len }))
        0 input_batches
    in
    [ Inputs input_preps ]
  in

  (* ---- stage 3 (per mult layer): re-encrypt packed shares --------- *)
  let layer_stage li () =
    let batches = layout.Layout.mult_layers.(li) in
    let kffs = setup.Setup.kff_roles.(li) in
    let values vec = Array.mapi (fun i ct -> (kffs.(i).Setup.kff_pk, ct)) vec in
    let step = "re-encrypt packed shares to KFF" in
    let h, preps =
      if opts.packed_reenc then begin
        (* one bundled committee round per layer: alpha/beta/gamma of
           every batch re-encrypted together, one ciphertext per role
           KFF on the wire *)
        let all =
          Array.concat
            (List.concat_map
               (fun batch ->
                 let alpha, beta, gamma = !packed_of_batch batch in
                 [ values alpha; values beta; values gamma ])
               batches)
        in
        let packages, h =
          Ops.chain (the_holder ()) ~size:(max 1 (Array.length all)) all (fun h chunk ->
              Ops.reencrypt_packed ctx te h ~phase ~step chunk)
        in
        let slice bi v = Array.sub packages ((3 * bi * n) + (v * n)) n in
        ( h,
          List.mapi
            (fun bi batch ->
              { batch; alpha_shares = slice bi 0; beta_shares = slice bi 1; gamma_shares = slice bi 2 })
            batches )
      end
      else begin
        (* shares of one vector fit in one committee round when
           n <= gates_per_committee; chunk otherwise *)
        let reenc h vec =
          Ops.chain h ~size:(max n gpc) (values vec) (fun h chunk ->
              Ops.reencrypt_batch ctx te h ~phase ~step chunk)
        in
        List.fold_left_map
          (fun h batch ->
            let alpha, beta, gamma = !packed_of_batch batch in
            (* the chain takes gamma first, then beta, then alpha *)
            let gamma_shares, h = reenc h gamma in
            let beta_shares, h = reenc h beta in
            let alpha_shares, h = reenc h alpha in
            (h, { batch; alpha_shares; beta_shares; gamma_shares }))
          (the_holder ()) batches
      end
    in
    holder := Some h;
    [ Layer (li, preps) ]
  in

  let holder_stage () = [ Holder (the_holder ()) ] in

  {
    st_layout = layout;
    st_stages =
      (lambda_stage :: input_stage
       :: List.init (Array.length layout.Layout.mult_layers) layer_stage)
      @ [ holder_stage ];
    st_ready = [];
  }

let rec prepare_batch st =
  match st.st_ready with
  | item :: rest ->
    st.st_ready <- rest;
    Some item
  | [] -> (
    match st.st_stages with
    | [] -> None
    | stage :: rest ->
      st.st_stages <- rest;
      st.st_ready <- stage ();
      prepare_batch st)

let assemble layout items =
  let miss what = failwith (Printf.sprintf "Offline.assemble: missing %s" what) in
  let wire_lambda = ref None in
  let inputs = ref None in
  let holder = ref None in
  let layers = Array.make (Array.length layout.Layout.mult_layers) None in
  List.iter
    (function
      | Lambdas a -> wire_lambda := Some a
      | Inputs l -> inputs := Some l
      | Layer (li, preps) -> layers.(li) <- Some preps
      | Holder h -> holder := Some h)
    items;
  {
    layout;
    wire_lambda = (match !wire_lambda with Some a -> a | None -> miss "wire lambdas");
    input_preps = (match !inputs with Some l -> l | None -> miss "input preps");
    mult_preps =
      Array.mapi
        (fun li o ->
          match o with Some preps -> preps | None -> miss (Printf.sprintf "layer %d" li))
        layers;
    final_holder = (match !holder with Some h -> h | None -> miss "final holder");
  }

let run ?opts (ctx : Ops.ctx) (setup : Setup.t) layout =
  let st = start ?opts ctx setup layout in
  let rec drain acc =
    match prepare_batch st with None -> List.rev acc | Some item -> drain (item :: acc)
  in
  assemble layout (drain [])

type source = {
  src_layout : Layout.t;
  src_layers : int;
  src_wire_lambda : unit -> F.t Te.ct array;
  src_input_preps : unit -> input_prep list;
  src_mult_preps : int -> mult_prep list;
  src_final_holder : unit -> Committee_ops.holder;
}

let source_of prep =
  {
    src_layout = prep.layout;
    src_layers = Array.length prep.mult_preps;
    src_wire_lambda = (fun () -> prep.wire_lambda);
    src_input_preps = (fun () -> prep.input_preps);
    src_mult_preps = (fun li -> prep.mult_preps.(li));
    src_final_holder = (fun () -> prep.final_holder);
  }
