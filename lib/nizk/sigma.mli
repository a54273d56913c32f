(** Non-interactive sigma protocols for Paillier relations, via the
    Fiat-Shamir transform over {!Transcript}.

    These are the *real* proofs attached to offline-phase broadcasts:

    - {!Plaintext_knowledge}: knowledge of [(m, r)] with
      [c = (1+N)^m r^N mod N^2] — the proof each committee member
      attaches to its random-wire-value and Beaver-share ciphertexts
      (Protocol 3 / Protocol 4 Steps 1-2 and 4).
    - {!Multiplication}: knowledge of [(b, r)] with [c_b = Enc(b; r)]
      and [c_c = c_a^b] — the relation [R] of Protocol 3 (second
      committee of Beaver generation).

    The challenge space is [2^chal_bits]; knowledge soundness error is
    [2^-chal_bits] per proof (statistical parameter, not a bottleneck
    for the reproduction).

    Every prover and verifier takes the key's {!P.Ctx.t}, so
    proving/verifying many statements under one key reuses its
    Montgomery precomputation. *)

module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier

val chal_bits : int

module Plaintext_knowledge : sig
  type proof = { a : B.t; z_m : B.t; z_r : B.t }

  val prove :
    P.Ctx.t ->
    rng:Random.State.t ->
    m:B.t ->
    r:B.t ->
    c:P.ciphertext ->
    proof
  (** [r] must be the randomness actually used in [c]. *)

  val verify : P.Ctx.t -> c:P.ciphertext -> proof -> bool

  val size_bits : P.Ctx.t -> int
  (** Communication size of a proof, in bits (for cost accounting). *)
end

module Multiplication : sig
  type proof = { a1 : B.t; a2 : B.t; z : B.t; z_r : B.t }

  (** [c_a] is passed as its {!P.Ctx.table}: the prover's [c_a^x] and
      the verifier's [c_a^z] are read from it.  [c_a] is public, so
      every prover of a committee and the verifier may share one
      table; a proof is the same as one computed by plain
      exponentiation. *)

  val prove :
    P.Ctx.t ->
    rng:Random.State.t ->
    b:B.t ->
    r:B.t ->
    c_a:P.Ctx.table ->
    c_b:P.ciphertext ->
    c_c:P.ciphertext ->
    proof

  val verify :
    P.Ctx.t ->
    c_a:P.Ctx.table ->
    c_b:P.ciphertext ->
    c_c:P.ciphertext ->
    proof ->
    bool

  val size_bits : P.Ctx.t -> int
end
