module F = Yoso_field.Field.Fp
module B = Yoso_bigint.Bigint
module Sha256 = Yoso_hash.Sha256

type group = { modulus : B.t; order : B.t; h : B.t }

(* p' = k q + 1 prime, q = F.p; then h = g0^k has order q (if <> 1) *)
let group =
  lazy
    (let q = B.of_int F.p in
     let st = Random.State.make [| 0xFE1D |] in
     let rec find_modulus k =
       let p' = B.add (B.mul (B.of_int k) q) B.one in
       if B.is_probable_prime st p' then (k, p') else find_modulus (k + 2)
     in
     let k, modulus = find_modulus 2 in
     let rec find_generator g0 =
       let h = B.powmod (B.of_int g0) (B.of_int k) modulus in
       if B.is_one h then find_generator (g0 + 1) else h
     in
     { modulus; order = q; h = find_generator 2 })

(* h is the one base every commitment and verification exponentiates,
   so it gets a Montgomery fixed-base table, grown when it is built to
   every exponent [pow_h] takes (a field element, 31 bits): once
   forced, it is only read.  Varying bases go through the group's
   shared Montgomery context. *)
let mont = lazy (B.Mont.create (Lazy.force group).modulus)

let fb_h =
  lazy
    (let fb = B.Mont.fixed_base (Lazy.force mont) (Lazy.force group).h in
     B.Mont.preload fb ~bits:31;
     fb)

let pow_h e = B.Mont.fixed_powmod (Lazy.force fb_h) (B.of_int e)

(* force the lazy group, Montgomery context and h table; afterwards
   verification is read-only and safe to fan out across domains *)
let prepare () = ignore (Lazy.force fb_h)

(* ------------------------------------------------------------------ *)
(* Chaum-Pedersen product proofs over the same group                    *)
(* ------------------------------------------------------------------ *)

module Product = struct
  type statement = { cx : B.t; cy : B.t; cz : B.t }
  type proof = { a1 : B.t; a2 : B.t; s : F.t }

  let commit v = pow_h (F.to_int v)

  (* Fiat-Shamir challenge in [1, q): both prover and verifier derive
     it from the full transcript prefix, through Hashtbl.hash (a
     heuristic that matches the toy-sized group). *)
  let challenge st p =
    let mix =
      Hashtbl.hash
        ( B.to_string st.cx,
          B.to_string st.cy,
          B.to_string st.cz,
          B.to_string p.a1,
          B.to_string p.a2 )
    in
    let rng = Random.State.make [| 0xCAFE; mix |] in
    let rec nonzero () =
      let v = F.random rng in
      if F.equal v F.zero then nonzero () else v
    in
    nonzero ()

  let prove ~rng ~x ~y ~z =
    let g = Lazy.force group in
    let st = { cx = commit x; cy = commit y; cz = commit z } in
    let w = F.random rng in
    let a1 = pow_h (F.to_int w) in
    let a2 = B.powmod st.cx (B.of_int (F.to_int w)) g.modulus in
    let e = challenge st { a1; a2; s = F.zero } in
    (st, { a1; a2; s = F.add w (F.mul e y) })

  let tamper_z st delta =
    let g = Lazy.force group in
    { st with cz = B.mulmod st.cz (commit delta) g.modulus }

  let verify st p =
    let g = Lazy.force group in
    let mctx = Lazy.force mont in
    let e = B.of_int (F.to_int (challenge st p)) in
    (* h^s =? A1 * Cy^e  and  Cx^s =? A2 * Cz^e *)
    let s = B.of_int (F.to_int p.s) in
    B.equal (pow_h (F.to_int p.s)) (B.Multiexp.run mctx [| (p.a1, B.one); (st.cy, e) |])
    && B.equal
         (B.powmod st.cx s g.modulus)
         (B.Multiexp.run mctx [| (p.a2, B.one); (st.cz, e) |])

  (* Random-linear-combination batch verification: with weights r_i in
     [1, q), both Chaum-Pedersen equations are checked once for the
     whole batch —
       h^(sum_i r_i s_i)        =? prod_i (A1_i^r_i * Cy_i^(r_i e_i))
       prod_i Cx_i^(r_i s_i)    =? prod_i (A2_i^r_i * Cz_i^(r_i e_i))
    — three multi-exponentiations and one fixed-base power instead of
    4 per proof.  A batch that verifies per-proof passes identically;
    a batch containing a bad proof survives with probability 1/q over
    the r_i.  Without [rng] the weights are derived Fiat-Shamir-style
    from one SHA-256 over the whole batch: every statement and every
    proof, responses included, so no entry's weight is known before
    the entry is written. *)
  let batch_digest batch =
    let buf = Buffer.create (Array.length batch * 64) in
    (* sign, length, magnitude: injective on any value a prover posts *)
    let add v =
      let mag = B.to_bytes_be v in
      Buffer.add_char buf (if B.sign v < 0 then '-' else '+');
      Buffer.add_int32_be buf (Int32.of_int (String.length mag));
      Buffer.add_string buf mag
    in
    Array.iter
      (fun (st, p) -> List.iter add [ st.cx; st.cy; st.cz; p.a1; p.a2; B.of_int (F.to_int p.s) ])
      batch;
    Sha256.digest_string (Buffer.contents buf)

  let verify_batch ?rng batch =
    let b = Array.length batch in
    if b = 0 then true
    else begin
      let mctx = Lazy.force mont in
      let rng =
        match rng with
        | Some st -> st
        | None ->
          let d = batch_digest batch in
          Random.State.make
            (Array.init 8 (fun i -> Int32.to_int (String.get_int32_be d (4 * i))))
      in
      let rec nonzero () =
        let v = F.random rng in
        if F.equal v F.zero then nonzero () else v
      in
      let r = Array.init b (fun _ -> nonzero ()) in
      let e = Array.map (fun (st, p) -> challenge st p) batch in
      let lhs1 = ref F.zero in
      Array.iteri (fun i (_, p) -> lhs1 := F.add !lhs1 (F.mul r.(i) p.s)) batch;
      let rhs1 =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun i (st, p) ->
                  [|
                    (p.a1, B.of_int (F.to_int r.(i)));
                    (st.cy, B.of_int (F.to_int (F.mul r.(i) e.(i))));
                  |])
                batch))
      in
      let lhs2 =
        Array.init b (fun i ->
            let st, p = batch.(i) in
            (st.cx, B.of_int (F.to_int (F.mul r.(i) p.s))))
      in
      let rhs2 =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun i (st, p) ->
                  [|
                    (p.a2, B.of_int (F.to_int r.(i)));
                    (st.cz, B.of_int (F.to_int (F.mul r.(i) e.(i))));
                  |])
                batch))
      in
      B.equal (pow_h (F.to_int !lhs1)) (B.Multiexp.run mctx rhs1)
      && B.equal (B.Multiexp.run mctx lhs2) (B.Multiexp.run mctx rhs2)
    end

  (* attribution after a failed batch check: per-proof verification
     over the batch, returning the indices that do not verify (the
     batch check is only a screening step — blame must be exact) *)
  let attribute batch =
    let bad = ref [] in
    Array.iteri (fun i (st, p) -> if not (verify st p) then bad := i :: !bad) batch;
    List.rev !bad
end
