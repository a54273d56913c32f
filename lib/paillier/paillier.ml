module B = Yoso_bigint.Bigint

type public_key = { n : B.t; n2 : B.t; bits : int }

type secret_key = {
  pk : public_key;
  p : B.t;
  q : B.t;
  lambda : B.t;
  mu : B.t;
}

type ciphertext = { pk_n2 : B.t; c : B.t }

let keygen ?(bits = 128) ~rng () =
  if bits < 16 then invalid_arg "Paillier.keygen: modulus too small";
  let half = bits / 2 in
  let rec gen () =
    let p = B.random_prime rng ~bits:half in
    let q = B.random_prime rng ~bits:half in
    if B.equal p q then gen () else (p, q)
  in
  let p, q = gen () in
  let n = B.mul p q in
  let n2 = B.mul n n in
  let p1 = B.sub p B.one and q1 = B.sub q B.one in
  let lambda = B.div (B.mul p1 q1) (B.gcd p1 q1) in
  (* with g = 1 + N:  L(g^lambda mod N^2) = lambda, so mu = lambda^-1 *)
  let mu = B.invmod lambda n in
  let pk = { n; n2; bits } in
  (pk, { pk; p; q; lambda; mu })

let sample_unit pk ~rng =
  let rec go () =
    let r = B.random_below rng pk.n in
    if B.is_zero r || not (B.is_one (B.gcd r pk.n)) then go () else r
  in
  go ()

(* L(x) = (x - 1) / N for x = 1 mod N *)
let l_function pk x = B.div (B.sub x B.one) pk.n

let check_same fn pk ct =
  if not (B.equal ct.pk_n2 pk.n2) then
    invalid_arg (fn ^ ": ciphertext under a different key")

let raw ct = ct.c

module Ctx = struct
  type t = { pk : public_key; mont_n : B.Mont.ctx; mont_n2 : B.Mont.ctx }

  let create pk = { pk; mont_n = B.Mont.create pk.n; mont_n2 = B.Mont.create pk.n2 }

  let public_key ctx = ctx.pk
  let mont_n ctx = ctx.mont_n
  let mont_n2 ctx = ctx.mont_n2
  let pow_n ctx b e = B.Mont.powmod ctx.mont_n b e
  let pow_n2 ctx b e = B.Mont.powmod ctx.mont_n2 b e

  (* (1 + N)^m = 1 + m*N mod N^2: the closed form beats any
     exponentiation for s = 1 *)
  let g_pow ctx m =
    let m = B.erem m ctx.pk.n in
    B.erem (B.add B.one (B.mul m ctx.pk.n)) ctx.pk.n2

  let randomizer ctx r = pow_n2 ctx r ctx.pk.n

  (* [r] is a unit: checked by the caller, or just drawn by
     [sample_unit] *)
  let encrypt_unit ctx ~r m =
    { pk_n2 = ctx.pk.n2; c = B.mulmod (g_pow ctx m) (randomizer ctx r) ctx.pk.n2 }

  let encrypt_with ctx ~r m =
    if not (B.is_one (B.gcd r ctx.pk.n)) then
      invalid_arg "Paillier.encrypt_with: randomness not a unit";
    encrypt_unit ctx ~r m

  let encrypt_r ctx ~rng m =
    let r = sample_unit ctx.pk ~rng in
    (encrypt_unit ctx ~r m, r)

  let encrypt ctx ~rng m = fst (encrypt_r ctx ~rng m)

  let decrypt ctx (sk : secret_key) ct =
    if not (B.equal ct.pk_n2 sk.pk.n2) then
      invalid_arg "Paillier.decrypt: ciphertext under a different key";
    let x = pow_n2 ctx ct.c sk.lambda in
    B.erem (B.mul (l_function sk.pk x) sk.mu) sk.pk.n

  let add ctx a b =
    check_same "Paillier.add" ctx.pk a;
    check_same "Paillier.add" ctx.pk b;
    { pk_n2 = ctx.pk.n2; c = B.mulmod a.c b.c ctx.pk.n2 }

  type table = {
    t_ct : ciphertext;
    t_mont : B.Mont.ctx;
    t_fb : B.Mont.fixed_base;
    mutable t_inv : B.Mont.fixed_base option;  (* c^-1's, built on first need *)
  }

  let table ctx ct =
    check_same "Paillier.table" ctx.pk ct;
    { t_ct = ct; t_mont = ctx.mont_n2; t_fb = B.Mont.fixed_base ctx.mont_n2 ct.c; t_inv = None }

  let table_ct tb = tb.t_ct

  let pow_ct tb e =
    if B.sign e >= 0 then B.Mont.fixed_powmod tb.t_fb e
    else begin
      let inv =
        match tb.t_inv with
        | Some fb -> fb
        | None ->
          let fb = B.Mont.fixed_base tb.t_mont (B.invmod tb.t_ct.c tb.t_ct.pk_n2) in
          tb.t_inv <- Some fb;
          fb
      in
      B.Mont.fixed_powmod inv (B.neg e)
    end

  let scalar_mul ctx s tb =
    check_same "Paillier.scalar_mul" ctx.pk tb.t_ct;
    { pk_n2 = ctx.pk.n2; c = pow_ct tb (B.erem s ctx.pk.n) }

  (* one multi-exponentiation over every (ciphertext, coefficient)
     pair: the pairs share its squarings *)
  let linear_combination ctx cts coeffs =
    if List.length cts <> List.length coeffs then
      invalid_arg "Paillier.linear_combination: length mismatch";
    List.iter (check_same "Paillier.linear_combination" ctx.pk) cts;
    let pairs = List.map2 (fun ct k -> (ct.c, B.erem k ctx.pk.n)) cts coeffs in
    { pk_n2 = ctx.pk.n2; c = B.Multiexp.run ctx.mont_n2 (Array.of_list pairs) }

  let rerandomize ctx ~rng ct =
    check_same "Paillier.rerandomize" ctx.pk ct;
    let r = sample_unit ctx.pk ~rng in
    { pk_n2 = ctx.pk.n2; c = B.mulmod ct.c (randomizer ctx r) ctx.pk.n2 }

  let of_raw ctx v = { pk_n2 = ctx.pk.n2; c = B.erem v ctx.pk.n2 }
end
