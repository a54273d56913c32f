module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier
module T = Yoso_paillier.Threshold
module Sigma = Yoso_nizk.Sigma
module O = Yoso_oracles

let st = Random.State.make [| 0xFA11 |]

let big = Alcotest.testable B.pp B.equal
let check_b = Alcotest.check big

(* key generation is the slow part; share one keypair across tests *)
let pk, sk = P.keygen ~bits:128 ~rng:st ()
let tpk5, tshares5 = T.keygen ~bits:128 ~n:5 ~t:2 ~rng:st ()
let ctx = P.Ctx.create pk
let tctx5 = T.Ctx.create tpk5

let rand_msg () = B.random_below st pk.P.n
let tctx5_paillier = T.Ctx.paillier tctx5

(* ------------------------------------------------------------------ *)
(* Base Paillier                                                       *)
(* ------------------------------------------------------------------ *)

let test_enc_dec_roundtrip () =
  for _ = 1 to 20 do
    let m = rand_msg () in
    check_b "dec(enc(m)) = m" m (P.Ctx.decrypt ctx sk (P.Ctx.encrypt ctx ~rng:st m))
  done;
  check_b "zero" B.zero (P.Ctx.decrypt ctx sk (P.Ctx.encrypt ctx ~rng:st B.zero));
  check_b "N-1" (B.sub pk.P.n B.one) (P.Ctx.decrypt ctx sk (P.Ctx.encrypt ctx ~rng:st (B.sub pk.P.n B.one)))

let test_additive_homomorphism () =
  for _ = 1 to 10 do
    let m1 = rand_msg () and m2 = rand_msg () in
    let c = P.Ctx.add ctx (P.Ctx.encrypt ctx ~rng:st m1) (P.Ctx.encrypt ctx ~rng:st m2) in
    check_b "sum" (B.erem (B.add m1 m2) pk.P.n) (P.Ctx.decrypt ctx sk c)
  done

let test_scalar_mul () =
  for _ = 1 to 10 do
    let m = rand_msg () and s = rand_msg () in
    let c = P.Ctx.scalar_mul ctx s (P.Ctx.table ctx (P.Ctx.encrypt ctx ~rng:st m)) in
    check_b "scalar" (B.erem (B.mul s m) pk.P.n) (P.Ctx.decrypt ctx sk c)
  done

let test_linear_combination () =
  let ms = List.init 4 (fun _ -> rand_msg ()) in
  let coeffs = List.init 4 (fun _ -> B.random_below st (B.of_int 1000)) in
  let cts = List.map (P.Ctx.encrypt ctx ~rng:st) ms in
  let c = P.Ctx.linear_combination ctx cts coeffs in
  let expected =
    B.erem (List.fold_left2 (fun acc m k -> B.add acc (B.mul m k)) B.zero ms coeffs) pk.P.n
  in
  check_b "TEval" expected (P.Ctx.decrypt ctx sk c);
  (* coefficients are read mod N: a negative one or one past N gives
     the oracle's ciphertext, not merely one of the same plaintext *)
  let wide = [ B.neg (List.hd coeffs); B.add pk.P.n (rand_msg ()); B.zero; B.sub B.zero pk.P.n ] in
  check_b "coefficients mod N"
    (O.Paillier.linear_combination pk (List.map P.raw cts) wide)
    (P.raw (P.Ctx.linear_combination ctx cts wide));
  check_b "empty combination" B.one (P.raw (P.Ctx.linear_combination ctx [] []));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Paillier.linear_combination: length mismatch") (fun () ->
      ignore (P.Ctx.linear_combination ctx cts (List.tl coeffs)));
  let foreign = P.Ctx.encrypt tctx5_paillier ~rng:st B.one in
  Alcotest.check_raises "foreign ciphertext"
    (Invalid_argument "Paillier.linear_combination: ciphertext under a different key") (fun () ->
      ignore (P.Ctx.linear_combination ctx (foreign :: List.tl cts) coeffs))

let test_rerandomize () =
  let m = rand_msg () in
  let c = P.Ctx.encrypt ctx ~rng:st m in
  let c' = P.Ctx.rerandomize ctx ~rng:st c in
  Alcotest.(check bool) "ciphertext changed" false (B.equal (P.raw c) (P.raw c'));
  check_b "plaintext unchanged" m (P.Ctx.decrypt ctx sk c')

let test_deterministic_encrypt () =
  let m = rand_msg () in
  let r = B.of_int 12345 in
  let c1 = P.Ctx.encrypt_with ctx ~r m and c2 = P.Ctx.encrypt_with ctx ~r m in
  check_b "deterministic" (P.raw c1) (P.raw c2);
  (* encrypt_r draws what sample_unit draws, and returns it *)
  let c, r = P.Ctx.encrypt_r ctx ~rng:(Random.State.make [| 0xE4C |]) m in
  check_b "encrypt_r's unit" (P.sample_unit pk ~rng:(Random.State.make [| 0xE4C |])) r;
  check_b "encrypt_r = encrypt_with its unit" (P.raw (P.Ctx.encrypt_with ctx ~r m)) (P.raw c)

let test_ciphertexts_randomized () =
  let m = rand_msg () in
  let c1 = P.Ctx.encrypt ctx ~rng:st m and c2 = P.Ctx.encrypt ctx ~rng:st m in
  Alcotest.(check bool) "fresh randomness" false (B.equal (P.raw c1) (P.raw c2))

let test_wrong_key_rejected () =
  let pk2, _ = P.keygen ~bits:64 ~rng:st () in
  let c = P.Ctx.encrypt ctx ~rng:st (rand_msg ()) in
  Alcotest.check_raises "decrypt wrong key"
    (Invalid_argument "Paillier.decrypt: ciphertext under a different key") (fun () ->
      let _, sk2 = P.keygen ~bits:64 ~rng:st () in
      ignore (P.Ctx.decrypt ctx sk2 c));
  Alcotest.check_raises "add wrong key"
    (Invalid_argument "Paillier.add: ciphertext under a different key") (fun () ->
      ignore (P.Ctx.add (P.Ctx.create pk2) c c))

(* ------------------------------------------------------------------ *)
(* Threshold scheme                                                    *)
(* ------------------------------------------------------------------ *)

let tmsg () = B.random_below st tpk5.T.pk.P.n

let partials ?(who = [ 0; 1; 2; 3; 4 ]) shares ct =
  List.map (fun i -> T.Ctx.partial_decrypt tctx5 shares.(i) ct) who

let test_threshold_roundtrip () =
  for _ = 1 to 5 do
    let m = tmsg () in
    let ct = T.Ctx.encrypt tctx5 ~rng:st m in
    check_b "t+1 partials decrypt" m (T.Ctx.combine tctx5 (partials tshares5 ct ~who:[ 0; 1; 2 ]));
    check_b "different subset" m (T.Ctx.combine tctx5 (partials tshares5 ct ~who:[ 4; 2; 1 ]));
    check_b "all partials" m (T.Ctx.combine tctx5 (partials tshares5 ct))
  done

let test_threshold_too_few () =
  let ct = T.Ctx.encrypt tctx5 ~rng:st (tmsg ()) in
  Alcotest.check_raises "too few" (Invalid_argument "Threshold.combine: 2 partials, need 3")
    (fun () -> ignore (T.Ctx.combine tctx5 (partials tshares5 ct ~who:[ 0; 1 ])))

let test_threshold_duplicates_ignored () =
  let m = tmsg () in
  let ct = T.Ctx.encrypt tctx5 ~rng:st m in
  let ps = partials tshares5 ct ~who:[ 0; 0; 1; 2 ] in
  (* duplicate index 0 must not be counted twice, so this has only 3
     distinct partials and succeeds *)
  check_b "dedup" m (T.Ctx.combine tctx5 ps)

let test_threshold_after_eval () =
  let m1 = tmsg () and m2 = tmsg () in
  let ct = T.Ctx.eval tctx5 [ T.Ctx.encrypt tctx5 ~rng:st m1; T.Ctx.encrypt tctx5 ~rng:st m2 ] [ B.of_int 3; B.of_int 5 ] in
  let expected = B.erem (B.add (B.mul (B.of_int 3) m1) (B.mul (B.of_int 5) m2)) tpk5.T.pk.P.n in
  check_b "decrypt after eval" expected (T.Ctx.combine tctx5 (partials tshares5 ct ~who:[ 1; 3; 4 ]))

let reshare_all shares epoch =
  (* every party reshapes; recipients combine the same sender subset *)
  let msgs = Array.map (fun s -> T.reshare tpk5 s ~rng:st) shares in
  Array.init 5 (fun j ->
      let subshares = List.init 5 (fun i -> (i + 1, msgs.(i).(j))) in
      T.recombine_share tpk5 ~index:(j + 1) ~epoch subshares)

let test_key_rerandomization () =
  let m = tmsg () in
  let ct = T.Ctx.encrypt tctx5 ~rng:st m in
  let shares1 = reshare_all tshares5 1 in
  check_b "epoch 1 decrypts" m (T.Ctx.combine tctx5 (partials shares1 ct ~who:[ 0; 2; 4 ]));
  (* a second epoch *)
  let shares2 = reshare_all shares1 2 in
  check_b "epoch 2 decrypts" m (T.Ctx.combine tctx5 (partials shares2 ct ~who:[ 1; 2; 3 ]));
  (* old and new shares are different values *)
  Alcotest.(check bool) "share value changed" false
    (B.equal tshares5.(0).T.value shares1.(0).T.value)

let test_rerandomization_partial_subset () =
  (* only t+1 = 3 parties reshare: still enough *)
  let m = tmsg () in
  let ct = T.Ctx.encrypt tctx5 ~rng:st m in
  let msgs = Array.map (fun s -> T.reshare tpk5 s ~rng:st) tshares5 in
  let shares1 =
    Array.init 5 (fun j ->
        let subshares = List.map (fun i -> (i + 1, msgs.(i).(j))) [ 0; 2; 3 ] in
        T.recombine_share tpk5 ~index:(j + 1) ~epoch:1 subshares)
  in
  check_b "subset reshare decrypts" m (T.Ctx.combine tctx5 (partials shares1 ct ~who:[ 0; 1; 4 ]))

let test_mixed_epoch_rejected () =
  let ct = T.Ctx.encrypt tctx5 ~rng:st (tmsg ()) in
  let shares1 = reshare_all tshares5 1 in
  let mixed =
    [ T.Ctx.partial_decrypt tctx5 tshares5.(0) ct;
      T.Ctx.partial_decrypt tctx5 shares1.(1) ct;
      T.Ctx.partial_decrypt tctx5 shares1.(2) ct ]
  in
  Alcotest.check_raises "mixed epochs"
    (Invalid_argument "Threshold.combine: partials from different epochs") (fun () ->
      ignore (T.Ctx.combine tctx5 mixed))

let test_sim_partial_decrypt () =
  let m_real = tmsg () and m_target = tmsg () in
  let ct = T.Ctx.encrypt tctx5 ~rng:st m_real in
  (* corrupt = parties 4,5; honest = 1,2,3 *)
  let honest = [ tshares5.(0); tshares5.(1); tshares5.(2) ] in
  let sims = T.Ctx.sim_partial_decrypt tctx5 ct ~m:m_target ~honest in
  check_b "TDec on simulated partials returns target" m_target (T.Ctx.combine tctx5 sims);
  (* sanity: without simulation the same parties decrypt the real value *)
  check_b "real partials return real plaintext" m_real
    (T.Ctx.combine tctx5 (partials tshares5 ct ~who:[ 0; 1; 2 ]))

let test_sim_not_enough_honest () =
  let ct = T.Ctx.encrypt tctx5 ~rng:st (tmsg ()) in
  Alcotest.check_raises "not enough honest"
    (Invalid_argument "Threshold.sim_partial_decrypt: not enough honest shares")
    (fun () ->
      ignore (T.Ctx.sim_partial_decrypt tctx5 ct ~m:B.zero ~honest:[ tshares5.(0) ]))

let test_keygen_validation () =
  Alcotest.check_raises "t >= n" (Invalid_argument "Threshold.keygen: need 0 <= t < n")
    (fun () -> ignore (T.keygen ~bits:64 ~n:3 ~t:3 ~rng:st ()))

let test_threshold_t0 () =
  (* degenerate single-party "threshold" *)
  let tpk, shares = T.keygen ~bits:64 ~n:2 ~t:0 ~rng:st () in
  let m = B.random_below st tpk.T.pk.P.n in
  let tctx = T.Ctx.create tpk in
  let ct = T.Ctx.encrypt tctx ~rng:st m in
  check_b "t=0" m (T.Ctx.combine tctx [ T.Ctx.partial_decrypt tctx shares.(0) ct ])

(* ------------------------------------------------------------------ *)
(* Context path against the independent oracle                         *)
(* ------------------------------------------------------------------ *)

(* a 5-party key with its shares at epochs 0, 1 and 2, each epoch
   re-shared by every party *)
let ost = Random.State.make [| 0x0AC1E |]
let otpk, oshares0 = T.keygen ~bits:96 ~n:5 ~t:2 ~rng:ost ()
let otctx = T.Ctx.create otpk

let reshare_from shares epoch =
  let msgs = Array.map (fun s -> T.reshare otpk s ~rng:ost) shares in
  Array.init 5 (fun j ->
      T.recombine_share otpk ~index:(j + 1) ~epoch (List.init 5 (fun i -> (i + 1, msgs.(i).(j)))))

let oshares =
  let s1 = reshare_from oshares0 1 in
  [| oshares0; s1; reshare_from s1 2 |]

(* every share's partial decryption of one ciphertext through one
   table, at epochs 0 to 2: later epochs hold negative shares, whose
   first use builds the inverse's table and the rest reuse it *)
let test_partial_decrypt_quorum () =
  let rng = Random.State.make [| 0x7AB1E |] in
  let ct = T.Ctx.encrypt otctx ~rng (B.random_below rng otpk.T.pk.P.n) in
  let negative = Array.exists (fun (s : T.key_share) -> B.sign s.value < 0) in
  Alcotest.(check bool) "an epoch-1 share is negative" true (negative oshares.(1));
  Array.iteri
    (fun epoch shares ->
      let shares = Array.to_list shares in
      List.iter2
        (fun (s : T.key_share) part ->
          let want = O.Threshold.partial_decrypt otpk s (P.raw ct) in
          let name = Printf.sprintf "epoch %d share %d" epoch s.index in
          Alcotest.(check bool) (name ^ ", quorum = oracle") true (part = want);
          Alcotest.(check bool) (name ^ ", single = oracle") true
            (T.Ctx.partial_decrypt otctx s ct = want))
        shares
        (T.Ctx.partial_decrypt_quorum otctx shares ct))
    oshares

(* one random instance per seed: the base operations on [pk]/[sk], a
   TPDec -> combine round trip over a random (t+1)-subset at a random
   epoch, and both sigma relations on a context *)
let ctx_matches_oracle seed =
  let rng = Random.State.make [| seed |] in
  let below n = B.random_below rng n in
  let n = pk.P.n and n2 = pk.P.n2 in
  let m = below n and s = below n in
  let r = P.sample_unit pk ~rng in
  let c = P.Ctx.encrypt_with ctx ~r m in
  let g_ok =
    B.equal (P.Ctx.g_pow ctx m) (O.Paillier.g_pow pk m)
    && B.equal (O.Paillier.g_pow pk m) (B.powmod_naive (B.add B.one n) m n2)
  in
  let enc_ok = B.equal (P.raw c) (O.Paillier.encrypt_with pk ~r m) in
  let dec_ok = B.equal (P.Ctx.decrypt ctx sk c) m && B.equal (O.Paillier.decrypt sk (P.raw c)) m in
  let smul = P.Ctx.scalar_mul ctx s (P.Ctx.table ctx c) in
  let smul_ok =
    B.equal (P.raw smul) (O.Paillier.scalar_mul pk s (P.raw c))
    && B.equal (O.Paillier.decrypt sk (P.raw smul)) (B.erem (B.mul s m) n)
  in
  let ms = List.init 3 (fun _ -> below n) and ks = List.init 3 (fun _ -> below n) in
  let cts = List.map (P.Ctx.encrypt ctx ~rng) ms in
  let lin = P.Ctx.linear_combination ctx cts ks in
  let lin_ok =
    B.equal (P.raw lin) (O.Paillier.linear_combination pk (List.map P.raw cts) ks)
    && B.equal (P.Ctx.decrypt ctx sk lin)
         (B.erem (List.fold_left2 (fun acc m k -> B.add acc (B.mul m k)) B.zero ms ks) n)
  in
  (* threshold *)
  let tm = below otpk.T.pk.P.n in
  let ct = T.Ctx.encrypt otctx ~rng tm in
  let epoch = Random.State.int rng 3 in
  let subset =
    List.filteri (fun i _ -> i <= otpk.T.threshold)
      (List.sort (fun (a, _) (b, _) -> compare a b)
         (List.init 5 (fun i -> (Random.State.bits rng, i + 1))))
    |> List.map snd
  in
  let shares = oshares.(epoch) in
  let parts = List.map (fun i -> T.Ctx.partial_decrypt otctx shares.(i - 1) ct) subset in
  let oparts = List.map (fun i -> O.Threshold.partial_decrypt otpk shares.(i - 1) (P.raw ct)) subset in
  let t_ok =
    parts = oparts
    && B.equal (T.Ctx.combine otctx parts) tm
    && B.equal (O.Threshold.combine otpk parts) tm
  in
  (* sigma proofs: accepted by the context verifier and the oracle on
     the true statement, rejected by both on a false one *)
  let ptk = Sigma.Plaintext_knowledge.prove ctx ~rng ~m ~r ~c in
  let other = P.Ctx.encrypt ctx ~rng (B.add m B.one) in
  let ptk_ok =
    Sigma.Plaintext_knowledge.verify ctx ~c ptk
    && O.Sigma.verify_plaintext_knowledge pk ~c:(P.raw c) ptk
    && (not (Sigma.Plaintext_knowledge.verify ctx ~c:other ptk))
    && not (O.Sigma.verify_plaintext_knowledge pk ~c:(P.raw other) ptk)
  in
  (* c = Enc(m; r) doubles as c_b, so the witness is (m, r) *)
  let ca = List.hd cts in
  let c_a = P.Ctx.table ctx ca in
  let c_c = P.Ctx.scalar_mul ctx m c_a in
  let mul = Sigma.Multiplication.prove ctx ~rng ~b:m ~r ~c_a ~c_b:c ~c_c in
  let bad = Sigma.Multiplication.prove ctx ~rng ~b:m ~r ~c_a ~c_b:c ~c_c:other in
  let raw = P.raw in
  let mul_ok =
    Sigma.Multiplication.verify ctx ~c_a ~c_b:c ~c_c mul
    && O.Sigma.verify_multiplication pk ~c_a:(raw ca) ~c_b:(raw c) ~c_c:(raw c_c) mul
    && (not (Sigma.Multiplication.verify ctx ~c_a ~c_b:c ~c_c:other bad))
    && not (O.Sigma.verify_multiplication pk ~c_a:(raw ca) ~c_b:(raw c) ~c_c:(raw other) bad)
  in
  g_ok && enc_ok && dec_ok && smul_ok && lin_ok && t_ok && ptk_ok && mul_ok

let prop_ctx_matches_oracle =
  QCheck.Test.make ~count:20 ~name:"ctx = oracle" QCheck.(make Gen.nat) ctx_matches_oracle

let () =
  Alcotest.run "paillier"
    [
      ( "base",
        [
          Alcotest.test_case "roundtrip" `Quick test_enc_dec_roundtrip;
          Alcotest.test_case "additive" `Quick test_additive_homomorphism;
          Alcotest.test_case "scalar mul" `Quick test_scalar_mul;
          Alcotest.test_case "linear combination" `Quick test_linear_combination;
          Alcotest.test_case "rerandomize" `Quick test_rerandomize;
          Alcotest.test_case "deterministic" `Quick test_deterministic_encrypt;
          Alcotest.test_case "randomized" `Quick test_ciphertexts_randomized;
          Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "roundtrip" `Quick test_threshold_roundtrip;
          Alcotest.test_case "too few" `Quick test_threshold_too_few;
          Alcotest.test_case "duplicates" `Quick test_threshold_duplicates_ignored;
          Alcotest.test_case "after eval" `Quick test_threshold_after_eval;
          Alcotest.test_case "key rerandomization" `Quick test_key_rerandomization;
          Alcotest.test_case "partial-subset reshare" `Quick test_rerandomization_partial_subset;
          Alcotest.test_case "mixed epochs" `Quick test_mixed_epoch_rejected;
          Alcotest.test_case "SimTPDec" `Quick test_sim_partial_decrypt;
          Alcotest.test_case "SimTPDec too few" `Quick test_sim_not_enough_honest;
          Alcotest.test_case "keygen validation" `Quick test_keygen_validation;
          Alcotest.test_case "t = 0" `Quick test_threshold_t0;
          Alcotest.test_case "partial decrypt quorum" `Quick test_partial_decrypt_quorum;
        ] );
      ("backends", [ QCheck_alcotest.to_alcotest prop_ctx_matches_oracle ]);
    ]
