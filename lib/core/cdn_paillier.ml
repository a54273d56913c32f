module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier
module T = Yoso_paillier.Threshold
module Sigma = Yoso_nizk.Sigma
module Ideal = Yoso_nizk.Ideal
module Circuit = Yoso_circuit.Circuit

type report = {
  outputs : (int * Circuit.wire * B.t) list;
  modulus : B.t;
  rejected_contributions : int;
}

(* inputs are reduced into [0, N) first, as [execute] encrypts them *)
let reduced_inputs ~modulus inputs client = Array.map (fun v -> B.erem v modulus) (inputs client)

let expected ~modulus circuit ~inputs =
  let module Zn = struct
    type t = B.t

    let zero = B.zero
    let add a b = B.addmod a b modulus
    let mul a b = B.mulmod a b modulus
  end in
  let module Eval = Circuit.Eval (Zn) in
  Eval.run circuit ~inputs:(reduced_inputs ~modulus inputs)

let execute ~n ~t ?(bits = 96) ?(malicious = []) ?(seed = 0xBEEF) ~circuit ~inputs () =
  let st = Random.State.make [| seed |] in
  let tpk, shares = T.keygen ~bits ~n ~t ~rng:st () in
  (* contexts are built once here and threaded through every
     committee: all Z_{N^2} exponentiation below is Montgomery, and
     combine's Lagrange weights are cached across openings *)
  let tctx = T.Ctx.create tpk in
  let pctx = T.Ctx.paillier tctx in
  let pk = tpk.T.pk in
  let modulus = pk.P.n in
  let rejected = ref 0 in
  let is_malicious i = List.mem i malicious in
  let m = Circuit.num_mul circuit in

  (* ---- Beaver triples with real sigma proofs (Protocol 3) --------- *)
  (* each step's proofs are checked as one batch: the contributions
     whose proofs it rejects are counted and left out *)
  let accepted contribs rejects =
    rejected := !rejected + List.length rejects;
    List.filteri (fun j _ -> not (List.mem j rejects)) (Array.to_list contribs)
  in
  let sum = function
    | [] -> None
    | c0 :: rest -> Some (List.fold_left (P.Ctx.add pctx) c0 rest)
  in
  (* the first committee posts, for every gate, each member's encrypted
     random summand with a proof of plaintext knowledge *)
  let first =
    Array.init (m * n) (fun j ->
        let i = j mod n in
        let a = B.random_below st modulus in
        let c, r = P.Ctx.encrypt_r pctx ~rng:st a in
        (* a malicious member lies about the plaintext: its proof will
           not verify *)
        let claimed = if is_malicious i then B.add a B.one else a in
        (c, Sigma.Plaintext_knowledge.prove pctx ~rng:st ~m:claimed ~r ~c))
  in
  let kept =
    accepted
      (Array.mapi (fun j (c, _) -> (j / n, c)) first)
      (Sigma.Plaintext_knowledge.verify_batch pctx first)
  in
  let first_committee g =
    match sum (List.filter_map (fun (g', c) -> if g' = g then Some c else None) kept) with
    | Some c_a -> c_a
    | None -> failwith "Cdn_paillier: all first-committee contributions rejected"
  in
  let second_committee c_a =
    (* c_a is on the board: one table serves every member's c_a^b and
       c_a^x and the verifier's c_a^(sum sigma_i z_i) *)
    let c_a = P.Ctx.table pctx c_a in
    let contribs =
      Array.init n (fun i ->
          let b = B.random_below st modulus in
          let c_b, r = P.Ctx.encrypt_r pctx ~rng:st b in
          let c_c =
            if is_malicious i then P.Ctx.encrypt pctx ~rng:st (B.of_int 1337)
            else P.Ctx.scalar_mul pctx b c_a
          in
          (c_b, c_c, Sigma.Multiplication.prove pctx ~rng:st ~b ~r ~c_a ~c_b ~c_c))
    in
    let kept = accepted contribs (Sigma.Multiplication.verify_batch pctx ~c_a contribs) in
    match (sum (List.map (fun (c_b, _, _) -> c_b) kept), sum (List.map (fun (_, c_c, _) -> c_c) kept)) with
    | Some c_b, Some c_c -> (c_b, c_c)
    | _ -> failwith "Cdn_paillier: all second-committee contributions rejected"
  in
  let triples =
    Array.init m (fun g ->
        let c_a = first_committee g in
        let c_b, c_c = second_committee c_a in
        (c_a, c_b, c_c))
  in

  (* ---- threshold opening with the real scheme ---------------------- *)
  let shares = ref shares in
  let opened_count = ref 0 in
  let open_ct ct =
    (* partial-decryption correctness is attested with the ideal NIZK
       (no sigma protocol without extra setup); honest partials only.
       The quorum raises the one opened ciphertext: one table *)
    let parts = T.Ctx.partial_decrypt_quorum tctx (List.init (t + 1) (fun i -> !shares.(i))) ct in
    for i = 0 to t do
      let proof = Ideal.prove ~relation:"tpdec" ~statement:(string_of_int i) ~witness_ok:true in
      assert (Ideal.verify ~relation:"tpdec" ~statement:(string_of_int i) proof)
    done;
    incr opened_count;
    T.Ctx.combine tctx parts
  in
  (* exercise TKRes/TKRec once mid-protocol: refresh every share *)
  let maybe_refresh () =
    if !opened_count = max 1 m then begin
      let msgs = Array.map (fun s -> T.reshare tpk s ~rng:st) !shares in
      let epoch = T.share_epoch !shares.(0) + 1 in
      shares :=
        Array.init n (fun j ->
            T.recombine_share tpk ~index:(j + 1) ~epoch
              (List.init n (fun i -> (i + 1, msgs.(i).(j)))))
    end
  in

  (* ---- gate-by-gate evaluation over Z_N ---------------------------- *)
  let wire_ct = Array.make circuit.Circuit.wire_count None in
  let get w =
    match wire_ct.(w) with
    | Some c -> c
    | None -> failwith "Cdn_paillier: wire not evaluated"
  in
  let input_value =
    Hashtbl.of_seq
      (List.to_seq (Circuit.assign_inputs circuit ~inputs:(reduced_inputs ~modulus inputs)))
  in
  (* every client posts its encrypted inputs with proofs of plaintext
     knowledge, checked as one batch before any wire is used *)
  let posted =
    Array.of_list
      (List.filter_map
         (function
           | Circuit.Input { wire; _ } ->
             let v = Hashtbl.find input_value wire in
             let c, r = P.Ctx.encrypt_r pctx ~rng:st v in
             Some (wire, (c, Sigma.Plaintext_knowledge.prove pctx ~rng:st ~m:v ~r ~c))
           | _ -> None)
         (Array.to_list circuit.Circuit.gates))
  in
  if Sigma.Plaintext_knowledge.verify_batch pctx (Array.map snd posted) <> [] then
    failwith "Cdn_paillier: honest input proof failed";
  Array.iter (fun (wire, (c, _)) -> wire_ct.(wire) <- Some c) posted;
  let triple_cursor = ref 0 in
  let outputs = ref [] in
  Array.iter
    (fun g ->
      match g with
      | Circuit.Input _ -> ()
      | Circuit.Add { a; b; out } ->
        wire_ct.(out) <- Some (P.Ctx.add pctx (get a) (get b))
      | Circuit.Mul { a; b; out } ->
        let c_a, c_b, c_c = triples.(!triple_cursor) in
        incr triple_cursor;
        let eps = open_ct (P.Ctx.add pctx (get a) c_a) in
        let delta = open_ct (P.Ctx.add pctx (get b) c_b) in
        maybe_refresh ();
        let c_out =
          P.Ctx.linear_combination pctx
            [ get b; c_a; c_c ]
            [ eps; B.erem (B.neg delta) modulus; B.one ]
        in
        wire_ct.(out) <- Some c_out
      | Circuit.Output { client; wire } ->
        outputs := (client, wire, open_ct (get wire)) :: !outputs)
    circuit.Circuit.gates;
  { outputs = List.rev !outputs; modulus; rejected_contributions = !rejected }

let check report circuit ~inputs =
  let plain = expected ~modulus:report.modulus circuit ~inputs in
  List.length plain = List.length report.outputs
  && List.for_all2
       (fun (c, v) (c', _, v') -> c = c' && B.equal v v')
       plain report.outputs
