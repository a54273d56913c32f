module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier

let chal_bits = 128
let blind_bits = 128 (* statistical blinding of integer responses *)

module Plaintext_knowledge = struct
  type proof = { a : B.t; z_m : B.t; z_r : B.t }

  let transcript ctx ~c ~a =
    let pk = P.Ctx.public_key ctx in
    let ts = Transcript.create ~label:"paillier-ptk" in
    Transcript.absorb_bigint ts ~label:"N" pk.P.n;
    Transcript.absorb_bigint ts ~label:"c" (P.raw c);
    Transcript.absorb_bigint ts ~label:"a" a;
    Transcript.challenge_bigint ts ~label:"e" ~bits:chal_bits

  let prove ctx ~rng ~m ~r ~c =
    let pk = P.Ctx.public_key ctx in
    let n = pk.P.n and n2 = pk.P.n2 in
    let x = B.random_below rng n in
    let u = P.sample_unit pk ~rng in
    let a = B.mulmod (P.Ctx.g_pow ctx x) (P.Ctx.pow_n2 ctx u n) n2 in
    let e = transcript ctx ~c ~a in
    let z_m = B.erem (B.add x (B.mul e m)) n in
    let z_r = B.mulmod u (P.Ctx.pow_n ctx r e) n in
    { a; z_m; z_r }

  let verify ctx ~c proof =
    let pk = P.Ctx.public_key ctx in
    let n = pk.P.n and n2 = pk.P.n2 in
    if B.sign proof.z_r <= 0 || not (B.is_one (B.gcd proof.z_r n)) then false
    else begin
      let e = transcript ctx ~c ~a:proof.a in
      let lhs = B.mulmod (P.Ctx.g_pow ctx proof.z_m) (P.Ctx.pow_n2 ctx proof.z_r n) n2 in
      let rhs = B.mulmod proof.a (P.Ctx.pow_n2 ctx (P.raw c) e) n2 in
      B.equal lhs rhs
    end

  let size_bits ctx = 4 * (P.Ctx.public_key ctx).P.bits (* a: 2|N|, z_m: |N|, z_r: |N| *)
end

module Multiplication = struct
  type proof = { a1 : B.t; a2 : B.t; z : B.t; z_r : B.t }

  let transcript ctx ~c_a ~c_b ~c_c ~a1 ~a2 =
    let pk = P.Ctx.public_key ctx in
    let ts = Transcript.create ~label:"paillier-mult" in
    Transcript.absorb_bigint ts ~label:"N" pk.P.n;
    Transcript.absorb_bigint ts ~label:"c_a" (P.raw (P.Ctx.table_ct c_a));
    Transcript.absorb_bigint ts ~label:"c_b" (P.raw c_b);
    Transcript.absorb_bigint ts ~label:"c_c" (P.raw c_c);
    Transcript.absorb_bigint ts ~label:"a1" a1;
    Transcript.absorb_bigint ts ~label:"a2" a2;
    Transcript.challenge_bigint ts ~label:"e" ~bits:chal_bits

  let prove ctx ~rng ~b ~r ~c_a ~c_b ~c_c =
    let pk = P.Ctx.public_key ctx in
    let n = pk.P.n and n2 = pk.P.n2 in
    (* x blinds e*b statistically: |x| = |N| + chal + blind bits *)
    let x = B.random_bits rng (B.bit_length n + chal_bits + blind_bits) in
    let u = P.sample_unit pk ~rng in
    let a1 = B.mulmod (P.Ctx.g_pow ctx x) (P.Ctx.pow_n2 ctx u n) n2 in
    let a2 = P.Ctx.pow_ct c_a x in
    let e = transcript ctx ~c_a ~c_b ~c_c ~a1 ~a2 in
    let z = B.add x (B.mul e b) in
    let z_r = B.mulmod u (P.Ctx.pow_n ctx r e) n in
    { a1; a2; z; z_r }

  let verify ctx ~c_a ~c_b ~c_c proof =
    let pk = P.Ctx.public_key ctx in
    let n = pk.P.n and n2 = pk.P.n2 in
    if B.sign proof.z < 0 || B.sign proof.z_r <= 0 || not (B.is_one (B.gcd proof.z_r n))
    then false
    else begin
      let e = transcript ctx ~c_a ~c_b ~c_c ~a1:proof.a1 ~a2:proof.a2 in
      let lhs1 = B.mulmod (P.Ctx.g_pow ctx proof.z) (P.Ctx.pow_n2 ctx proof.z_r n) n2 in
      let rhs1 = B.mulmod proof.a1 (P.Ctx.pow_n2 ctx (P.raw c_b) e) n2 in
      let lhs2 = P.Ctx.pow_ct c_a proof.z in
      let rhs2 = B.mulmod proof.a2 (P.Ctx.pow_n2 ctx (P.raw c_c) e) n2 in
      B.equal lhs1 rhs1 && B.equal lhs2 rhs2
    end

  let size_bits ctx =
    (* a1, a2: 2|N| each; z: |N| + chal + blind; z_r: |N| *)
    (6 * (P.Ctx.public_key ctx).P.bits) + chal_bits + blind_bits
end
