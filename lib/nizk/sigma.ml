module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier

let chal_bits = 128
let blind_bits = 128 (* statistical blinding of integer responses *)

(* The batch checks below share one shape.  A proof that fails the
   cheap per-proof screen (a response out of range) is rejected on its
   own.  The rest are checked as one random linear combination of
   their equations (RLC), with [chal_bits]-bit weights squeezed from
   one transcript over every statement and proof of the batch.  If the
   combination fails, per-proof [verify] decides which are rejected,
   so blame is always exact.

   The argument for the combination holds in Z*_{N^2}.  The left side
   is a unit: g^x always, z_r^N once z_r has passed the screen, and
   c_a^x once c_a is checked.  A right-side base that is not a unit
   then makes the two sides differ, unless its exponent is 0
   (probability 2^-chal_bits). *)

let weights ts count =
  let width = chal_bits / 8 in
  let raw = Transcript.challenge_bytes ts ~label:"weights" (count * width) in
  Array.init count (fun i -> B.of_bytes_be (String.sub raw (i * width) width))

let is_unit_mod n z = B.sign z > 0 && B.is_one (B.gcd z n)

let indices keep items =
  List.filter_map Fun.id (List.mapi (fun i x -> if keep x then None else Some i) items)

let batch_rejects ~screen ~combination_holds ~verify items =
  let items = Array.to_list items in
  let screened = List.filter screen items in
  if screened = [] || combination_holds (Array.of_list screened) then indices screen items
  else indices verify items

(* (prod_i z_r,i^rho_i mod N)^N mod N^2: one N-th power for the batch.
   Reducing mod N first is exact, since (z + kN)^N = z^N mod N^2. *)
let pow_n_combined ctx z_rs rho =
  let pk = P.Ctx.public_key ctx in
  let prod = B.Multiexp.run (P.Ctx.mont_n ctx) (Array.map2 (fun z r -> (z, r)) z_rs rho) in
  P.Ctx.pow_n2 ctx prod pk.P.n

let weighted_sum xs rho =
  let acc = ref B.zero in
  Array.iteri (fun i x -> acc := B.add !acc (B.mul rho.(i) x)) xs;
  !acc

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

  let screen n p = is_unit_mod n p.z_r

  let verify ctx ~c proof =
    let pk = P.Ctx.public_key ctx in
    let n = pk.P.n and n2 = pk.P.n2 in
    if not (screen n proof) then false
    else begin
      let e = transcript ctx ~c ~a:proof.a in
      let lhs = B.mulmod (P.Ctx.g_pow ctx proof.z_m) (P.Ctx.pow_n2 ctx proof.z_r n) n2 in
      let rhs = B.mulmod proof.a (P.Ctx.pow_n2 ctx (P.raw c) e) n2 in
      B.equal lhs rhs
    end

  (* with weights rho_i:
       g^(sum rho_i z_m,i) * (prod z_r,i^rho_i)^N =? prod a_i^rho_i c_i^(rho_i e_i) *)
  let combination_holds ctx batch =
    let pk = P.Ctx.public_key ctx in
    let ts = Transcript.create ~label:"paillier-ptk-batch" in
    Transcript.absorb_bigint ts ~label:"N" pk.P.n;
    Array.iter
      (fun (c, p) ->
        Transcript.absorb_bigint ts ~label:"c" (P.raw c);
        Transcript.absorb_bigint ts ~label:"a" p.a;
        Transcript.absorb_bigint ts ~label:"z_m" p.z_m;
        Transcript.absorb_bigint ts ~label:"z_r" p.z_r)
      batch;
    let rho = weights ts (Array.length batch) in
    let lhs =
      B.mulmod
        (P.Ctx.g_pow ctx (weighted_sum (Array.map (fun (_, p) -> p.z_m) batch) rho))
        (pow_n_combined ctx (Array.map (fun (_, p) -> p.z_r) batch) rho)
        pk.P.n2
    in
    let rhs =
      B.Multiexp.run (P.Ctx.mont_n2 ctx)
        (Array.concat
           (Array.to_list
              (Array.mapi
                 (fun i (c, p) ->
                   let e = transcript ctx ~c ~a:p.a in
                   [| (p.a, rho.(i)); (P.raw c, B.mul rho.(i) e) |])
                 batch)))
    in
    B.equal lhs rhs

  let verify_batch ctx batch =
    let n = (P.Ctx.public_key ctx).P.n in
    batch_rejects batch
      ~screen:(fun (_, p) -> screen n p)
      ~combination_holds:(combination_holds ctx)
      ~verify:(fun (c, p) -> verify ctx ~c p)

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

  let screen n p = B.sign p.z >= 0 && is_unit_mod n p.z_r

  let verify ctx ~c_a ~c_b ~c_c proof =
    let pk = P.Ctx.public_key ctx in
    let n = pk.P.n and n2 = pk.P.n2 in
    if not (screen n proof) then false
    else begin
      let e = transcript ctx ~c_a ~c_b ~c_c ~a1:proof.a1 ~a2:proof.a2 in
      let lhs1 = B.mulmod (P.Ctx.g_pow ctx proof.z) (P.Ctx.pow_n2 ctx proof.z_r n) n2 in
      let rhs1 = B.mulmod proof.a1 (P.Ctx.pow_n2 ctx (P.raw c_b) e) n2 in
      let lhs2 = P.Ctx.pow_ct c_a proof.z in
      let rhs2 = B.mulmod proof.a2 (P.Ctx.pow_n2 ctx (P.raw c_c) e) n2 in
      B.equal lhs1 rhs1 && B.equal lhs2 rhs2
    end

  (* with weights rho_i for the first equation and sigma_i for the
     second, both folded into one check:
       g^(sum rho_i z_i) * (prod z_r,i^rho_i)^N * c_a^(sum sigma_i z_i)
         =? prod a1_i^rho_i c_b,i^(rho_i e_i) a2_i^sigma_i c_c,i^(sigma_i e_i)
     where c_a^(sum sigma_i z_i) is one read of c_a's table *)
  let combination_holds ctx ~c_a batch =
    let pk = P.Ctx.public_key ctx in
    let ca = P.raw (P.Ctx.table_ct c_a) in
    let ts = Transcript.create ~label:"paillier-mult-batch" in
    Transcript.absorb_bigint ts ~label:"N" pk.P.n;
    Transcript.absorb_bigint ts ~label:"c_a" ca;
    Array.iter
      (fun (c_b, c_c, p) ->
        Transcript.absorb_bigint ts ~label:"c_b" (P.raw c_b);
        Transcript.absorb_bigint ts ~label:"c_c" (P.raw c_c);
        Transcript.absorb_bigint ts ~label:"a1" p.a1;
        Transcript.absorb_bigint ts ~label:"a2" p.a2;
        Transcript.absorb_bigint ts ~label:"z" p.z;
        Transcript.absorb_bigint ts ~label:"z_r" p.z_r)
      batch;
    let k = Array.length batch in
    let w = weights ts (2 * k) in
    let rho = Array.sub w 0 k and sigma = Array.sub w k k in
    is_unit_mod pk.P.n ca
    &&
    let zs = Array.map (fun (_, _, p) -> p.z) batch in
    let lhs =
      B.mulmod
        (B.mulmod
           (P.Ctx.g_pow ctx (weighted_sum zs rho))
           (pow_n_combined ctx (Array.map (fun (_, _, p) -> p.z_r) batch) rho)
           pk.P.n2)
        (P.Ctx.pow_ct c_a (weighted_sum zs sigma))
        pk.P.n2
    in
    let rhs =
      B.Multiexp.run (P.Ctx.mont_n2 ctx)
        (Array.concat
           (Array.to_list
              (Array.mapi
                 (fun i (c_b, c_c, p) ->
                   let e = transcript ctx ~c_a ~c_b ~c_c ~a1:p.a1 ~a2:p.a2 in
                   [| (p.a1, rho.(i)); (P.raw c_b, B.mul rho.(i) e);
                      (p.a2, sigma.(i)); (P.raw c_c, B.mul sigma.(i) e) |])
                 batch)))
    in
    B.equal lhs rhs

  let verify_batch ctx ~c_a batch =
    let n = (P.Ctx.public_key ctx).P.n in
    batch_rejects batch
      ~screen:(fun (_, _, p) -> screen n p)
      ~combination_holds:(combination_holds ctx ~c_a)
      ~verify:(fun (c_b, c_c, p) -> verify ctx ~c_a ~c_b ~c_c p)

  let size_bits ctx =
    (* a1, a2: 2|N| each; z: |N| + chal + blind; z_r: |N| *)
    (6 * (P.Ctx.public_key ctx).P.bits) + chal_bits + blind_bits
end
