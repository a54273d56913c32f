(* Independent oracles for the threshold-Paillier, sigma-proof and
   Feldman code in the libraries.  Each function is written from the
   scheme's defining formula on [Bigint.powmod_naive] and recomputes
   every derived constant (Delta, the Lagrange weights, theta_e)
   itself: it shares the key records and the bigint primitives with
   the code it checks, and nothing else.  Values are raw residues, not
   library ciphertexts. *)

module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier
module T = Yoso_paillier.Threshold

(* b^e mod m for either sign of e *)
let pow_signed pow b e m =
  if B.sign e >= 0 then pow b e m else pow (B.invmod b m) (B.neg e) m

module Paillier = struct
  (* g^m for g = 1 + N: by the binomial theorem every term past m*N
     vanishes mod N^2 (the tests pin this against powmod_naive) *)
  let g_pow (pk : P.public_key) m = B.erem (B.add B.one (B.mul (B.erem m pk.n) pk.n)) pk.n2

  (* Enc(m; r) = g^m r^N mod N^2 *)
  let encrypt_with (pk : P.public_key) ~r m =
    B.mulmod (g_pow pk m) (B.powmod_naive r pk.n pk.n2) pk.n2

  (* Dec(c) = L(c^lambda mod N^2) mu mod N, L(x) = (x - 1) / N *)
  let decrypt (sk : P.secret_key) c =
    let pk = sk.pk in
    let x = B.powmod_naive c sk.lambda pk.n2 in
    B.erem (B.mul (B.div (B.sub x B.one) pk.n) sk.mu) pk.n

  (* c^s encrypts s*m *)
  let scalar_mul (pk : P.public_key) s c = B.powmod_naive c (B.erem s pk.n) pk.n2

  (* prod_i c_i^k_i encrypts sum_i k_i m_i *)
  let linear_combination (pk : P.public_key) cs ks =
    List.fold_left2 (fun acc c k -> B.mulmod acc (scalar_mul pk k c) pk.n2) B.one cs ks
end

module Threshold = struct
  (* Delta = n! *)
  let delta n =
    let rec go acc i = if i > n then acc else go (B.mul acc (B.of_int i)) (i + 1) in
    go B.one 1

  (* Delta * l_i(0) = Delta * prod_{j <> i} j / (j - i), exact over
     the integers because every denominator divides Delta *)
  let lagrange_weight ~delta subset i =
    let num, den =
      List.fold_left
        (fun (num, den) j ->
          if j = i then (num, den) else (B.mul num (B.of_int j), B.mul den (B.of_int (j - i))))
        (delta, B.one) subset
    in
    let q, r = B.divmod num den in
    if not (B.is_zero r) then failwith "oracle: non-integral Lagrange weight";
    q

  (* theta_e = 4 Delta^2 (2 Delta^2)^e mod N *)
  let theta (tpk : T.tpk) epoch =
    let n = tpk.pk.n in
    let d2 = B.mul (delta tpk.n_parties) (delta tpk.n_parties) in
    B.erem (B.mul (B.mul (B.of_int 4) d2) (B.powmod_naive (B.mul B.two d2) (B.of_int epoch) n)) n

  (* TPDec: d_i = c^(2 Delta s_i) mod N^2 *)
  let partial_decrypt (tpk : T.tpk) (share : T.key_share) c =
    let e = B.mul B.two (B.mul (delta tpk.n_parties) share.value) in
    T.unsafe_partial ~index:share.index ~epoch:share.epoch
      ~d:(pow_signed B.powmod_naive c e tpk.pk.n2)

  (* TDec over the first t+1 distinct indices: prod d_i^(2 Delta l_i(0))
     = 1 + (m theta_e mod N) N, one exponentiation per partial.  [pow]
     defaults to powmod_naive; the per-partial Montgomery baseline
     passes the library's context powmod instead. *)
  let combine ?(pow = B.powmod_naive) (tpk : T.tpk) (parts : T.partial list) =
    let distinct =
      List.fold_left
        (fun acc (p : T.partial) ->
          if List.exists (fun (q : T.partial) -> q.p_index = p.p_index) acc then acc
          else acc @ [ p ])
        [] parts
    in
    let chosen = List.filteri (fun i _ -> i <= tpk.threshold) distinct in
    if List.length chosen <= tpk.threshold then failwith "oracle: too few partials";
    let epoch = (List.hd chosen).p_epoch in
    if List.exists (fun (p : T.partial) -> p.p_epoch <> epoch) chosen then
      failwith "oracle: partials from different epochs";
    let delta = delta tpk.n_parties in
    let subset = List.map (fun (p : T.partial) -> p.p_index) chosen in
    let n = tpk.pk.n and n2 = tpk.pk.n2 in
    let acc =
      List.fold_left
        (fun acc (p : T.partial) ->
          let w = B.mul B.two (lagrange_weight ~delta subset p.p_index) in
          B.mulmod acc (pow_signed pow p.d w n2) n2)
        B.one chosen
    in
    B.erem (B.mul (B.div (B.sub acc B.one) n) (B.invmod (theta tpk epoch) n)) n
end

module Sigma = struct
  module S = Yoso_nizk.Sigma
  module Transcript = Yoso_nizk.Transcript

  (* the Fiat-Shamir challenge, replayed from the proof's absorptions *)
  let challenge label absorbed =
    let ts = Transcript.create ~label in
    List.iter (fun (l, v) -> Transcript.absorb_bigint ts ~label:l v) absorbed;
    Transcript.challenge_bigint ts ~label:"e" ~bits:S.chal_bits

  let unit_mod (pk : P.public_key) z = B.sign z > 0 && B.is_one (B.gcd z pk.n)

  (* g^z_m z_r^N = a c^e mod N^2 *)
  let verify_plaintext_knowledge (pk : P.public_key) ~c (pf : S.Plaintext_knowledge.proof) =
    let e = challenge "paillier-ptk" [ ("N", pk.n); ("c", c); ("a", pf.a) ] in
    unit_mod pk pf.z_r
    && B.equal
         (B.mulmod (Paillier.g_pow pk pf.z_m) (B.powmod_naive pf.z_r pk.n pk.n2) pk.n2)
         (B.mulmod pf.a (B.powmod_naive c e pk.n2) pk.n2)

  (* g^z z_r^N = a1 c_b^e and c_a^z = a2 c_c^e mod N^2 *)
  let verify_multiplication (pk : P.public_key) ~c_a ~c_b ~c_c (pf : S.Multiplication.proof) =
    let e =
      challenge "paillier-mult"
        [ ("N", pk.n); ("c_a", c_a); ("c_b", c_b); ("c_c", c_c); ("a1", pf.a1); ("a2", pf.a2) ]
    in
    let pow b x = B.powmod_naive b x pk.n2 in
    B.sign pf.z >= 0
    && unit_mod pk pf.z_r
    && B.equal
         (B.mulmod (Paillier.g_pow pk pf.z) (pow pf.z_r pk.n) pk.n2)
         (B.mulmod pf.a1 (pow c_b e) pk.n2)
    && B.equal (pow c_a pf.z) (B.mulmod pf.a2 (pow c_c e) pk.n2)
end

module Feldman = struct
  module Fe = Yoso_shamir.Feldman
  module F = Yoso_field.Field.Fp

  (* per share: h^(s_i) = prod_j C_j^((i+1)^j) mod p', exponents mod q *)
  let verify_dealing_each ~n (d : Fe.dealing) =
    let g = Lazy.force Fe.group in
    let pow b e = B.powmod_naive b e g.modulus in
    Array.length d.shares = n
    && List.for_all
         (fun i ->
           let x = B.of_int (i + 1) in
           let rhs, _ =
             Array.fold_left
               (fun (acc, j) c ->
                 (B.mulmod acc (pow c (B.powmod_naive x (B.of_int j) g.order)) g.modulus, j + 1))
               (B.one, 0) d.commitment
           in
           B.equal (pow g.h (B.of_int (F.to_int d.shares.(i)))) rhs)
         (List.init n Fun.id)
end
