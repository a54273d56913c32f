(* Independent oracles for the code in the libraries, kept out of
   them: nothing shipped links this library.
   - [Poly]: random polynomials under Horner's rule, the reference for
     Barycentric interpolation.
   - [Narrow] and [multiexp_naive]: the retired 30-bit Montgomery
     kernel and the product of independent powmods, the baselines and
     oracles for [Bigint.Mont] and [Bigint.Multiexp].
   - [Paillier], [Threshold], [Sigma]: each function is
     written from the scheme's defining formula on
     [Bigint.powmod_naive] and recomputes every derived constant
     (Delta, the Lagrange weights, theta_e) itself: it shares the key
     records and the bigint primitives with the code it checks, and
     nothing else.  Values are raw residues, not library
     ciphertexts. *)

module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier
module T = Yoso_paillier.Threshold

(* A random polynomial as its coefficient array (constant term first),
   evaluated by Horner's rule: the reference Barycentric
   interpolation must agree with. *)
module Poly (F : Yoso_field.Field.S) = struct
  let random ~degree st = Array.init (degree + 1) (fun _ -> F.random st)
  let eval p x = Array.fold_right (fun c acc -> F.add (F.mul acc x) c) p F.zero
end

(* b^e mod m for either sign of e *)
let pow_signed pow b e m =
  if B.sign e >= 0 then pow b e m else pow (B.invmod b m) (B.neg e) m

(* The retired 30-bit-limb CIOS Montgomery kernel: the baseline
   [bench time] and [bench par] measure the library's wide kernel
   against (the wide one must stay ahead; EXPERIMENTS.md E14 has the
   margins), and an independent powmod oracle for the backend-equality
   property tests at 512/1024/2048 bits.  It shares nothing with the
   wide kernel but the public [Bigint] API: the 30-bit limbs are cut
   from [to_bytes_be] and glued back through [of_bytes_be], once per
   [powmod], outside the ladder. *)
module Narrow = struct
  let nbits = 30
  let nbase = 1 lsl nbits
  let nmask = nbase - 1

  type ctx = {
    modulus : B.t;
    mm : int array;     (* modulus in 30-bit limbs, length l *)
    l : int;
    m' : int;           (* -m^-1 mod 2^30 *)
    r2 : int array;     (* R^2 mod m, R = 2^(30 l) *)
    one_m : int array;  (* R mod m *)
    unit : int array;   (* the plain integer 1 *)
  }

  (* little-endian 30-bit limbs of [0 <= x < 2^(30 l)], a bit-stream
     copy of its big-endian bytes *)
  let limbs ~l x =
    let s = B.to_bytes_be x in
    let n = String.length s in
    let a = Array.make l 0 in
    for k = 0 to n - 1 do
      let byte = Char.code s.[n - 1 - k] in
      let i = 8 * k / nbits and off = 8 * k mod nbits in
      a.(i) <- a.(i) lor ((byte lsl off) land nmask);
      if off + 8 > nbits && i + 1 < l then a.(i + 1) <- a.(i + 1) lor (byte lsr (nbits - off))
    done;
    a

  let of_limbs a =
    let l = Array.length a in
    let nbytes = ((nbits * l) + 7) / 8 in
    B.of_bytes_be
      (String.init nbytes (fun j ->
           let k = nbytes - 1 - j in
           let i = 8 * k / nbits and off = 8 * k mod nbits in
           let v = a.(i) lsr off in
           let v = if off + 8 > nbits && i + 1 < l then v lor (a.(i + 1) lsl (nbits - off)) else v in
           Char.chr (v land 0xff)))

  let create m =
    if B.sign m <= 0 || B.is_even m || B.compare m (B.of_int 3) < 0 then
      invalid_arg "Narrow.create: modulus must be odd and >= 3";
    let l = (B.bit_length m + nbits - 1) / nbits in
    let mm = limbs ~l m in
    let x = ref 1 in
    for _ = 1 to 5 do
      x := (!x * (2 - (mm.(0) * !x))) land nmask
    done;
    let r = B.shift_left B.one (l * nbits) in
    let unit = Array.make l 0 in
    unit.(0) <- 1;
    {
      modulus = m;
      mm;
      l;
      m' = (nbase - !x) land nmask;
      r2 = limbs ~l (B.erem (B.mul r r) m);
      one_m = limbs ~l (B.erem r m);
      unit;
    }

  (* dst := a * b * R^-1 mod m, one carry per step *)
  let mont_mul_into ctx tbuf dst a b =
    let l = ctx.l and mm = ctx.mm and m' = ctx.m' in
    Array.fill tbuf 0 (l + 2) 0;
    for i = 0 to l - 1 do
      let bi = Array.unsafe_get b i in
      let t0 = Array.unsafe_get tbuf 0 + (Array.unsafe_get a 0 * bi) in
      let mu = (t0 * m') land nmask in
      let c = ref ((t0 + (mu * Array.unsafe_get mm 0)) lsr nbits) in
      for j = 1 to l - 1 do
        let p =
          Array.unsafe_get tbuf j + (Array.unsafe_get a j * bi) + (mu * Array.unsafe_get mm j)
        in
        let p = p + !c in
        Array.unsafe_set tbuf (j - 1) (p land nmask);
        c := p lsr nbits
      done;
      let p = Array.unsafe_get tbuf l + !c in
      Array.unsafe_set tbuf (l - 1) (p land nmask);
      Array.unsafe_set tbuf l (Array.unsafe_get tbuf (l + 1) + (p lsr nbits));
      Array.unsafe_set tbuf (l + 1) 0
    done;
    let ge =
      tbuf.(l) > 0
      ||
      let rec go i =
        if i < 0 then true else if tbuf.(i) <> mm.(i) then tbuf.(i) > mm.(i) else go (i - 1)
      in
      go (l - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for j = 0 to l - 1 do
        let d = Array.unsafe_get tbuf j - Array.unsafe_get mm j - !borrow in
        if d < 0 then begin
          Array.unsafe_set dst j (d + nbase);
          borrow := 1
        end
        else begin
          Array.unsafe_set dst j d;
          borrow := 0
        end
      done
    end
    else Array.blit tbuf 0 dst 0 l

  (* 4-bit window of a 30-bit limb magnitude starting at bit 4j *)
  let window30 mag j =
    let pos = 4 * j in
    let limb = pos / nbits and off = pos mod nbits in
    let len = Array.length mag in
    let v = if limb < len then mag.(limb) lsr off else 0 in
    let v = if off + 4 > nbits && limb + 1 < len then v lor (mag.(limb + 1) lsl (nbits - off)) else v in
    v land 15

  (* b^e mod m, ordinary-domain base and result: 4-bit windowed ladder *)
  let powmod ctx b e =
    if B.sign e < 0 then invalid_arg "Narrow.powmod: negative exponent";
    let ebits = B.bit_length e in
    if ebits = 0 then B.one
    else begin
      let l = ctx.l in
      let e30 = limbs ~l:((ebits + nbits - 1) / nbits) e in
      let tbuf = Array.make (l + 2) 0 in
      let bm = Array.make l 0 in
      mont_mul_into ctx tbuf bm (limbs ~l (B.erem b ctx.modulus)) ctx.r2;
      let tbl = Array.make 16 ctx.one_m in
      tbl.(1) <- bm;
      for w = 2 to 15 do
        let d = Array.make l 0 in
        mont_mul_into ctx tbuf d tbl.(w - 1) bm;
        tbl.(w) <- d
      done;
      let nw = (ebits + 3) / 4 in
      let acc = Array.copy tbl.(window30 e30 (nw - 1)) in
      for j = nw - 2 downto 0 do
        for _ = 1 to 4 do
          mont_mul_into ctx tbuf acc acc acc
        done;
        let w = window30 e30 j in
        if w <> 0 then mont_mul_into ctx tbuf acc acc tbl.(w)
      done;
      let dst = Array.make l 0 in
      mont_mul_into ctx tbuf dst acc ctx.unit;
      of_limbs dst
    end
end

(* prod_i b_i^(e_i) mod m as independent exponentiations folded into
   one product: the baseline the library's Straus and Pippenger
   multi-exponentiations must agree with *)
let multiexp_naive ctx pairs =
  let m = B.Mont.modulus ctx in
  Array.fold_left
    (fun acc (b, e) ->
      let b, e = if B.sign e < 0 then (B.invmod b m, B.neg e) else (b, e) in
      B.mulmod acc (B.Mont.powmod ctx b e) m)
    B.one pairs

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
