module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier
module Transcript = Yoso_nizk.Transcript
module Sigma = Yoso_nizk.Sigma
module Ideal = Yoso_nizk.Ideal

let st = Random.State.make [| 0x512A |]
let pk, sk = P.keygen ~bits:128 ~rng:st ()
let ctx = P.Ctx.create pk
let sample_unit () = P.sample_unit pk ~rng:st

(* ------------------------------------------------------------------ *)
(* Transcript                                                          *)
(* ------------------------------------------------------------------ *)

let test_transcript_deterministic () =
  let mk () =
    let ts = Transcript.create ~label:"test" in
    Transcript.absorb ts ~label:"x" "hello";
    Transcript.absorb_bigint ts ~label:"y" (B.of_int 42);
    Transcript.challenge_bytes ts ~label:"c" 32
  in
  Alcotest.(check string) "same absorptions, same challenge" (mk ()) (mk ())

let test_transcript_order_sensitive () =
  let chal absorb_order =
    let ts = Transcript.create ~label:"test" in
    List.iter (fun (l, v) -> Transcript.absorb ts ~label:l v) absorb_order;
    Transcript.challenge_bytes ts ~label:"c" 16
  in
  Alcotest.(check bool) "order matters" true
    (chal [ ("a", "1"); ("b", "2") ] <> chal [ ("b", "2"); ("a", "1") ])

let test_transcript_framing_injective () =
  (* "ab" + "c" must differ from "a" + "bc" *)
  let chal parts =
    let ts = Transcript.create ~label:"test" in
    List.iter (fun v -> Transcript.absorb ts ~label:"d" v) parts;
    Transcript.challenge_bytes ts ~label:"c" 16
  in
  Alcotest.(check bool) "no concat ambiguity" true (chal [ "ab"; "c" ] <> chal [ "a"; "bc" ])

let test_transcript_ratchet () =
  let ts = Transcript.create ~label:"test" in
  Transcript.absorb ts ~label:"x" "data";
  let c1 = Transcript.challenge_bytes ts ~label:"c" 16 in
  let c2 = Transcript.challenge_bytes ts ~label:"c" 16 in
  Alcotest.(check bool) "subsequent challenges differ" true (c1 <> c2)

let test_challenge_bigint_bits () =
  let ts = Transcript.create ~label:"test" in
  let v = Transcript.challenge_bigint ts ~label:"c" ~bits:40 in
  Alcotest.(check bool) "within 40 bits" true (B.bit_length v <= 40)

(* ------------------------------------------------------------------ *)
(* Plaintext-knowledge sigma proofs                                    *)
(* ------------------------------------------------------------------ *)

let test_ptk_roundtrip () =
  for _ = 1 to 10 do
    let m = B.random_below st pk.P.n in
    let r = sample_unit () in
    let c = P.Ctx.encrypt_with ctx ~r m in
    let proof = Sigma.Plaintext_knowledge.prove ctx ~rng:st ~m ~r ~c in
    Alcotest.(check bool) "verifies" true (Sigma.Plaintext_knowledge.verify ctx ~c proof)
  done

let test_ptk_rejects_wrong_ciphertext () =
  let m = B.random_below st pk.P.n in
  let r = sample_unit () in
  let c = P.Ctx.encrypt_with ctx ~r m in
  let proof = Sigma.Plaintext_knowledge.prove ctx ~rng:st ~m ~r ~c in
  let c' = P.Ctx.encrypt ctx ~rng:st m in
  Alcotest.(check bool) "different ciphertext rejected" false
    (Sigma.Plaintext_knowledge.verify ctx ~c:c' proof)

let test_ptk_rejects_tampered_proof () =
  let m = B.random_below st pk.P.n in
  let r = sample_unit () in
  let c = P.Ctx.encrypt_with ctx ~r m in
  let proof = Sigma.Plaintext_knowledge.prove ctx ~rng:st ~m ~r ~c in
  let bad = { proof with Sigma.Plaintext_knowledge.z_m = B.add proof.Sigma.Plaintext_knowledge.z_m B.one } in
  Alcotest.(check bool) "tampered z_m rejected" false
    (Sigma.Plaintext_knowledge.verify ctx ~c bad);
  let bad2 = { proof with Sigma.Plaintext_knowledge.a = B.add proof.Sigma.Plaintext_knowledge.a B.one } in
  Alcotest.(check bool) "tampered a rejected" false
    (Sigma.Plaintext_knowledge.verify ctx ~c bad2)

let test_ptk_rejects_wrong_witness_proof () =
  (* prover lies about m: resulting proof must not verify *)
  let m = B.random_below st pk.P.n in
  let r = sample_unit () in
  let c = P.Ctx.encrypt_with ctx ~r m in
  let proof = Sigma.Plaintext_knowledge.prove ctx ~rng:st ~m:(B.add m B.one) ~r ~c in
  Alcotest.(check bool) "wrong witness rejected" false
    (Sigma.Plaintext_knowledge.verify ctx ~c proof)

let test_ptk_size () =
  Alcotest.(check int) "4|N| bits" (4 * 128) (Sigma.Plaintext_knowledge.size_bits ctx)

(* ------------------------------------------------------------------ *)
(* Multiplication sigma proofs                                         *)
(* ------------------------------------------------------------------ *)

let mult_instance () =
  let a = B.random_below st pk.P.n in
  let b = B.random_below st pk.P.n in
  let r = sample_unit () in
  let c_a = P.Ctx.table ctx (P.Ctx.encrypt ctx ~rng:st a) in
  let c_b = P.Ctx.encrypt_with ctx ~r b in
  let c_c = P.Ctx.scalar_mul ctx b c_a in
  (a, b, r, c_a, c_b, c_c)

let test_mult_roundtrip () =
  for _ = 1 to 5 do
    let _, b, r, c_a, c_b, c_c = mult_instance () in
    let proof = Sigma.Multiplication.prove ctx ~rng:st ~b ~r ~c_a ~c_b ~c_c in
    Alcotest.(check bool) "verifies" true
      (Sigma.Multiplication.verify ctx ~c_a ~c_b ~c_c proof);
    (* plaintext of c_c really is a*b *)
    let a = P.Ctx.decrypt ctx sk (P.Ctx.table_ct c_a) in
    Alcotest.(check bool) "c_c = a*b" true
      (B.equal (P.Ctx.decrypt ctx sk c_c) (B.erem (B.mul a b) pk.P.n))
  done

(* proofs read through c_a's table against plain exponentiation: a2 is
   powmod_naive c_a x for the prover's x (recovered as z - e b); a
   table that earlier proofs grew gives, at the same RNG state, the
   proof a fresh table gives; the naive-arithmetic verifier accepts
   it; and both verifiers reject it tampered *)
let test_mult_table () =
  let module O = Yoso_oracles.Sigma in
  let _, b, r, c_a, c_b, c_c = mult_instance () in
  let raw = P.raw in
  let ca = P.Ctx.table_ct c_a in
  let prove c_a seed =
    Sigma.Multiplication.prove ctx ~rng:(Random.State.make [| seed |]) ~b ~r ~c_a ~c_b ~c_c
  in
  let oracle_accepts pf =
    O.verify_multiplication pk ~c_a:(raw ca) ~c_b:(raw c_b) ~c_c:(raw c_c) pf
  in
  for seed = 1 to 4 do
    let pf = prove c_a seed in
    Alcotest.(check bool) "reused table = fresh table" true
      (pf = prove (P.Ctx.table ctx ca) seed);
    let e =
      O.challenge "paillier-mult"
        [ ("N", pk.P.n); ("c_a", raw ca); ("c_b", raw c_b); ("c_c", raw c_c);
          ("a1", pf.a1); ("a2", pf.a2) ]
    in
    let x = B.sub pf.z (B.mul e b) in
    Alcotest.(check bool) "a2 = c_a^x" true (B.equal pf.a2 (B.powmod_naive (raw ca) x pk.P.n2));
    Alcotest.(check bool) "oracle accepts" true (oracle_accepts pf);
    Alcotest.(check bool) "verifies" true (Sigma.Multiplication.verify ctx ~c_a ~c_b ~c_c pf)
  done;
  let pf = prove c_a 5 in
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) ("rejects tampered " ^ what) false
        (Sigma.Multiplication.verify ctx ~c_a ~c_b ~c_c bad);
      Alcotest.(check bool) ("oracle rejects tampered " ^ what) false (oracle_accepts bad))
    [ ("z", { pf with Sigma.Multiplication.z = B.add pf.z B.one });
      ("a2", { pf with Sigma.Multiplication.a2 = B.add pf.a2 B.one }) ]

let test_mult_rejects_wrong_product () =
  let _, b, r, c_a, c_b, _ = mult_instance () in
  (* claim a different product ciphertext *)
  let c_c_bad = P.Ctx.encrypt ctx ~rng:st (B.of_int 999) in
  let proof = Sigma.Multiplication.prove ctx ~rng:st ~b ~r ~c_a ~c_b ~c_c:c_c_bad in
  Alcotest.(check bool) "wrong product rejected" false
    (Sigma.Multiplication.verify ctx ~c_a ~c_b ~c_c:c_c_bad proof)

let test_mult_rejects_swapped_statement () =
  let _, b, r, c_a, c_b, c_c = mult_instance () in
  let proof = Sigma.Multiplication.prove ctx ~rng:st ~b ~r ~c_a ~c_b ~c_c in
  Alcotest.(check bool) "swapped statement rejected" false
    (Sigma.Multiplication.verify ctx ~c_a:(P.Ctx.table ctx c_b) ~c_b:(P.Ctx.table_ct c_a) ~c_c
       proof)

let test_mult_rejects_negative_response () =
  let _, b, r, c_a, c_b, c_c = mult_instance () in
  let proof = Sigma.Multiplication.prove ctx ~rng:st ~b ~r ~c_a ~c_b ~c_c in
  let bad = { proof with Sigma.Multiplication.z = B.neg B.one } in
  Alcotest.(check bool) "negative z rejected" false
    (Sigma.Multiplication.verify ctx ~c_a ~c_b ~c_c bad)

(* ------------------------------------------------------------------ *)
(* Batch verification                                                  *)
(* ------------------------------------------------------------------ *)

module Ptk = Sigma.Plaintext_knowledge
module Mult = Sigma.Multiplication

let ptk_statement rng =
  let m = B.random_below rng pk.P.n in
  let c, r = P.Ctx.encrypt_r ctx ~rng m in
  (c, Ptk.prove ctx ~rng ~m ~r ~c)

let mult_statement rng c_a =
  let b = B.random_below rng pk.P.n in
  let c_b, r = P.Ctx.encrypt_r ctx ~rng b in
  let c_c = P.Ctx.scalar_mul ctx b c_a in
  (c_b, c_c, Mult.prove ctx ~rng ~b ~r ~c_a ~c_b ~c_c)

let ptk_rejected batch =
  List.filter_map
    (fun i -> let c, p = batch.(i) in if Ptk.verify ctx ~c p then None else Some i)
    (List.init (Array.length batch) Fun.id)

let mult_rejected c_a batch =
  List.filter_map
    (fun i ->
      let c_b, c_c, p = batch.(i) in
      if Mult.verify ctx ~c_a ~c_b ~c_c p then None else Some i)
    (List.init (Array.length batch) Fun.id)

let test_batch_empty () =
  let c_a = P.Ctx.table ctx (P.Ctx.encrypt ctx ~rng:st B.one) in
  Alcotest.(check (list int)) "empty PoPK batch" [] (Ptk.verify_batch ctx [||]);
  Alcotest.(check (list int)) "empty Multiplication batch" [] (Mult.verify_batch ctx ~c_a [||])

(* one lying prover among 160: the batch names it and nobody else *)
let test_batch_blames_one () =
  let rng = Random.State.make [| 0xB1A3 |] in
  let batch = Array.init 160 (fun _ -> ptk_statement rng) in
  Alcotest.(check (list int)) "honest batch" [] (Ptk.verify_batch ctx batch);
  let c, r = P.Ctx.encrypt_r ctx ~rng (B.of_int 7) in
  batch.(117) <- (c, Ptk.prove ctx ~rng ~m:(B.of_int 8) ~r ~c);
  Alcotest.(check (list int)) "the one bad proof" [ 117 ] (Ptk.verify_batch ctx batch);
  let c_a = P.Ctx.table ctx (P.Ctx.encrypt ctx ~rng (B.of_int 3)) in
  let batch = Array.init 12 (fun _ -> mult_statement rng c_a) in
  Alcotest.(check (list int)) "honest Multiplication batch" [] (Mult.verify_batch ctx ~c_a batch);
  let c_b, _, p = batch.(4) in
  batch.(4) <- (c_b, P.Ctx.encrypt ctx ~rng (B.of_int 1337), p);
  Alcotest.(check (list int)) "the one wrong product" [ 4 ] (Mult.verify_batch ctx ~c_a batch)

(* z_r -> N - z_r multiplies z_r^N by (-1)^N = -1, an encryption of 0:
   [verify] rejects the proof, while the batch passes it whenever its
   weight is even (its plaintext relation still holds).  Either way
   the batch never blames an honest proof. *)
let test_batch_minus_one () =
  let rng = Random.State.make [| 0x0DD |] in
  for _ = 1 to 16 do
    let batch = Array.init 6 (fun _ -> ptk_statement rng) in
    let bad = Random.State.int rng 6 in
    let c, p = batch.(bad) in
    batch.(bad) <- (c, { p with Ptk.z_r = B.sub pk.P.n p.Ptk.z_r });
    Alcotest.(check (list int)) "verify rejects it" [ bad ] (ptk_rejected batch);
    let got = Ptk.verify_batch ctx batch in
    Alcotest.(check bool) "no honest proof blamed" true (got = [] || got = [ bad ])
  done

(* random batches of 0 to 40 proofs with one field of one proof moved
   by +1: the batch rejects exactly the proofs [verify] rejects *)
let bump v = B.add v B.one
let bump_ct c = P.Ctx.of_raw ctx (bump (P.raw c))

let sigma_batch_props =
  let ptk_fields = [| "z_m"; "z_r"; "a"; "c" |] in
  let mult_fields = [| "z"; "z_r"; "a1"; "a2"; "c_b"; "c_c" |] in
  let gen_case fields =
    QCheck.make
      ~print:(fun (size, bad, field, _) -> Printf.sprintf "size %d, proof %d, field %s" size bad field)
      QCheck.Gen.(
        int_range 0 40 >>= fun size ->
        int_range 0 (max 0 (size - 1)) >>= fun bad ->
        oneofl (Array.to_list fields) >>= fun field ->
        int >|= fun seed -> (size, bad, field, seed))
  in
  [
    QCheck.Test.make ~count:20 ~long_factor:20 ~name:"PoPK batch = per-proof verify"
      (gen_case ptk_fields) (fun (size, bad, field, seed) ->
        let rng = Random.State.make [| seed |] in
        let batch = Array.init size (fun _ -> ptk_statement rng) in
        if size > 0 then begin
          let c, p = batch.(bad) in
          batch.(bad) <-
            (match field with
            | "z_m" -> (c, { p with Ptk.z_m = bump p.Ptk.z_m })
            | "z_r" -> (c, { p with Ptk.z_r = bump p.Ptk.z_r })
            | "a" -> (c, { p with Ptk.a = bump p.Ptk.a })
            | _ -> (bump_ct c, p))
        end;
        Ptk.verify_batch ctx batch = ptk_rejected batch);
    QCheck.Test.make ~count:20 ~long_factor:20 ~name:"Multiplication batch = per-proof verify"
      (gen_case mult_fields) (fun (size, bad, field, seed) ->
        let rng = Random.State.make [| seed |] in
        let c_a = P.Ctx.table ctx (P.Ctx.encrypt ctx ~rng (B.random_below rng pk.P.n)) in
        let batch = Array.init size (fun _ -> mult_statement rng c_a) in
        if size > 0 then begin
          let c_b, c_c, p = batch.(bad) in
          batch.(bad) <-
            (match field with
            | "z" -> (c_b, c_c, { p with Mult.z = bump p.Mult.z })
            | "z_r" -> (c_b, c_c, { p with Mult.z_r = bump p.Mult.z_r })
            | "a1" -> (c_b, c_c, { p with Mult.a1 = bump p.Mult.a1 })
            | "a2" -> (c_b, c_c, { p with Mult.a2 = bump p.Mult.a2 })
            | "c_b" -> (bump_ct c_b, c_c, p)
            | _ -> (c_b, bump_ct c_c, p))
        end;
        Mult.verify_batch ctx ~c_a batch = mult_rejected c_a batch);
  ]

(* ------------------------------------------------------------------ *)
(* Ideal NIZK                                                          *)
(* ------------------------------------------------------------------ *)

let test_ideal_honest () =
  let proof = Ideal.prove ~relation:"reenc" ~statement:"stmt" ~witness_ok:true in
  Alcotest.(check bool) "honest proof verifies" true
    (Ideal.verify ~relation:"reenc" ~statement:"stmt" proof)

(* adversarial code forges by proving with [witness_ok = false] *)
let test_ideal_forge_rejected () =
  let proof = Ideal.prove ~relation:"reenc" ~statement:"stmt" ~witness_ok:false in
  Alcotest.(check bool) "forged proof rejected" false
    (Ideal.verify ~relation:"reenc" ~statement:"stmt" proof)

let test_ideal_binding () =
  let proof = Ideal.prove ~relation:"reenc" ~statement:"stmt" ~witness_ok:true in
  Alcotest.(check bool) "different statement rejected" false
    (Ideal.verify ~relation:"reenc" ~statement:"other" proof);
  Alcotest.(check bool) "different relation rejected" false
    (Ideal.verify ~relation:"decrypt" ~statement:"stmt" proof)

let test_ideal_failed_witness () =
  let proof = Ideal.prove ~relation:"reenc" ~statement:"stmt" ~witness_ok:false in
  Alcotest.(check bool) "failed witness check rejected" false
    (Ideal.verify ~relation:"reenc" ~statement:"stmt" proof)

let () =
  Alcotest.run "nizk"
    [
      ( "transcript",
        [
          Alcotest.test_case "deterministic" `Quick test_transcript_deterministic;
          Alcotest.test_case "order sensitive" `Quick test_transcript_order_sensitive;
          Alcotest.test_case "injective framing" `Quick test_transcript_framing_injective;
          Alcotest.test_case "ratchet" `Quick test_transcript_ratchet;
          Alcotest.test_case "challenge bits" `Quick test_challenge_bigint_bits;
        ] );
      ( "plaintext-knowledge",
        [
          Alcotest.test_case "roundtrip" `Quick test_ptk_roundtrip;
          Alcotest.test_case "wrong ciphertext" `Quick test_ptk_rejects_wrong_ciphertext;
          Alcotest.test_case "tampered proof" `Quick test_ptk_rejects_tampered_proof;
          Alcotest.test_case "wrong witness" `Quick test_ptk_rejects_wrong_witness_proof;
          Alcotest.test_case "size" `Quick test_ptk_size;
        ] );
      ( "multiplication",
        [
          Alcotest.test_case "roundtrip" `Quick test_mult_roundtrip;
          Alcotest.test_case "wrong product" `Quick test_mult_rejects_wrong_product;
          Alcotest.test_case "swapped statement" `Quick test_mult_rejects_swapped_statement;
          Alcotest.test_case "negative response" `Quick test_mult_rejects_negative_response;
          Alcotest.test_case "table" `Quick test_mult_table;
        ] );
      ( "batch",
        [
          Alcotest.test_case "empty" `Quick test_batch_empty;
          Alcotest.test_case "blames one" `Quick test_batch_blames_one;
          Alcotest.test_case "z_r off by -1" `Quick test_batch_minus_one;
        ] );
      (* QCHECK_LONG=1 runs these at [long_factor] times their count *)
      ("sigma-batch", List.map QCheck_alcotest.to_alcotest sigma_batch_props);
      ( "ideal",
        [
          Alcotest.test_case "honest" `Quick test_ideal_honest;
          Alcotest.test_case "forge" `Quick test_ideal_forge_rejected;
          Alcotest.test_case "binding" `Quick test_ideal_binding;
          Alcotest.test_case "failed witness" `Quick test_ideal_failed_witness;
        ] );
    ]
