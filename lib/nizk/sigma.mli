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
    Montgomery precomputation.

    {b Batch verification.}  [verify_batch] checks a whole step's
    proofs at once and returns the indices it rejects, in increasing
    order.  A proof whose responses are out of range ([z < 0], or
    [z_r] not a unit mod [N]) is rejected on its own.  The others'
    equations are raised to weights [rho_i] (and [sigma_i] for the
    second equation of {!Multiplication}) and multiplied into one
    equation: one [N]-th power of [prod z_r,i^rho_i] and one
    {!B.Multiexp.run} replace an [N]-th power per proof.  If the
    combined equation holds, no other proof is rejected; otherwise
    per-proof [verify] decides, so blame is always exactly what
    [verify] says.

    {i Soundness.}  Let [G = Z*_{N^2}] and [H] its subgroup of [N]-th
    residues (the encryptions of 0).  [G/H] is cyclic of order [N]
    (generated by [1 + N]), so each of its elements other than 1 has
    order [p], [q] or [N].  Decryption is the map [G -> G/H = Z_N],
    so a proof's equations hold modulo [H] exactly when they hold on
    plaintexts, which is its plaintext relation.  If some proof's
    equation fails
    modulo [H], then for any fixed other weights at most one residue
    of its weight mod [min(p, q)] makes the combination hold modulo
    [H]; with weights uniform on [\[0, 2^l)] and [2^l <= min(p, q)],
    that happens with probability at most [2^-l].  So a batch that
    passes proves, except with probability [2^-l], every plaintext
    relation in it.  The weights are [l = chal_bits = 128] bits: this
    needs [p, q > 2^128], which production keys meet and the 64- to
    128-bit test keys do not (their batches are heuristic).

    A failure inside [H] can pass: a proof with [z_r] replaced by
    [N - z_r] is off by [(-1)^N = -1], and passes whenever its weight
    is even.  Its plaintext relation still holds.  Squaring the
    combination (Boyd-Pavlovski) would buy nothing here: since
    [gcd(N, phi(N)) = 1], every element of small order, [-1]
    included, is an [N]-th residue, an encryption of 0.

    The weights are derived Fiat-Shamir style from one {!Transcript}
    that absorbs every statement and proof of the batch, so the
    verifier draws no randomness.  A prover who controls several
    proofs of a batch can grind them (retry a proof until the weights
    suit it); each try succeeds with probability at most [2^-l],
    which is why the weights are 128 bits and not shorter. *)

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

  val verify_batch : P.Ctx.t -> (P.ciphertext * proof) array -> int list
  (** The indices of the proofs {!verify} rejects (see {b Batch
      verification} above); [[]] for an empty batch. *)

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

  val verify_batch :
    P.Ctx.t ->
    c_a:P.Ctx.table ->
    (P.ciphertext * P.ciphertext * proof) array ->
    int list
  (** Every [(c_b, c_c, proof)] of one second committee, all under the
      one [c_a]: the indices of the proofs {!verify} rejects (see
      {b Batch verification} above).  [c_a^(sum sigma_i z_i)] is one
      read of [c_a]'s table. *)

  val size_bits : P.Ctx.t -> int
end
