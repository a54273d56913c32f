(** Paillier encryption (Damgard-Jurik s = 1 form), from scratch.

    The paper instantiates its linearly homomorphic threshold
    encryption by "Shamir sharing a Paillier decryption key" [19, 29];
    this module provides the base (non-threshold) scheme over our
    {!Yoso_bigint}: plaintext ring [Z_N], ciphertexts in [Z_{N^2}],
    [Enc(m; r) = (1 + N)^m * r^N mod N^2].

    {b Contexts.} Every operation goes through a {!Ctx.t}, which
    precomputes the Montgomery contexts for [N] and [N^2] once per
    key.  Build one with {!Ctx.create} and thread it; there is no
    bare-key entry point. *)

module B = Yoso_bigint.Bigint

type public_key = {
  n : B.t;          (** RSA modulus [N = p*q] *)
  n2 : B.t;         (** [N^2] *)
  bits : int;       (** modulus size used at key generation *)
}

type secret_key = {
  pk : public_key;
  p : B.t;
  q : B.t;
  lambda : B.t;     (** [lcm(p-1, q-1)] *)
  mu : B.t;         (** [lambda^{-1} mod N] *)
}

type ciphertext = private { pk_n2 : B.t; c : B.t }

val keygen : ?bits:int -> rng:Random.State.t -> unit -> public_key * secret_key
(** Generates [bits/2]-bit primes [p, q] (default [bits = 128]; test
    scale, not production scale — documented in DESIGN.md).
    @raise Invalid_argument if [bits < 16]. *)

val sample_unit : public_key -> rng:Random.State.t -> B.t
(** A uniform unit of [Z_N] (encryption randomness): rejection
    sampling over [\[0, N)], one [random_below] draw per attempt. *)

val raw : ciphertext -> B.t
(** The underlying [Z_{N^2}] element (for transcripts/hashing). *)

module Ctx : sig
  type t

  val create : public_key -> t
  val public_key : t -> public_key

  val mont_n : t -> B.Mont.ctx
  (** The Montgomery context for [N] — the domain of encryption
      randomness; lets callers drive {!B.Multiexp} over it. *)

  val mont_n2 : t -> B.Mont.ctx
  (** The Montgomery context for [N^2] — the domain of ciphertext
      arithmetic; lets callers drive {!B.Multiexp} over it. *)

  val pow_n : t -> B.t -> B.t -> B.t
  (** Montgomery exponentiation mod [N].
      @raise Invalid_argument on negative exponent. *)

  val pow_n2 : t -> B.t -> B.t -> B.t
  (** Montgomery exponentiation mod [N^2].
      @raise Invalid_argument on negative exponent. *)

  val g_pow : t -> B.t -> B.t
  (** [(1 + N)^m mod N^2] via the closed form [1 + (m mod N)*N]. *)

  val encrypt : t -> rng:Random.State.t -> B.t -> ciphertext
  (** [encrypt ctx ~rng m] for [m] reduced into [Z_N], with
      randomness from {!sample_unit}. *)

  val encrypt_r : t -> rng:Random.State.t -> B.t -> ciphertext * B.t
  (** {!encrypt}, also returning the randomness [r] it drew (the
      witness a sigma proof about the ciphertext needs).  Draws what
      [sample_unit] then [encrypt_with ~r] would, and skips
      [encrypt_with]'s gcd: [sample_unit] has just checked [r]. *)

  val encrypt_with : t -> r:B.t -> B.t -> ciphertext
  (** Deterministic variant with explicit randomness [r].
      @raise Invalid_argument if [r] is not a unit mod [N]. *)

  val decrypt : t -> secret_key -> ciphertext -> B.t
  (** @raise Invalid_argument if the ciphertext is under a key with a
      different modulus. *)

  val add : t -> ciphertext -> ciphertext -> ciphertext
  (** Homomorphic addition of plaintexts.
      @raise Invalid_argument on a foreign ciphertext. *)

  (** {2 Public ciphertexts raised to several exponents}

      A ciphertext on the board is public, and a protocol step may
      raise it to many exponents: the second Beaver committee raises
      [c_a] once per member to multiply and once per member in the
      proof, and the verifier once per proof; every partial decryption
      of an opening raises the opened ciphertext.  A {!table} does the
      squarings of that base once for all of them.  It is built from
      the public ciphertext alone, never from an exponent, so sharing
      it between the holders of different secret exponents is public
      precomputation. *)

  type table
  (** A ciphertext [c] with its exponentiation table mod [N^2] (a
      {!B.Mont.fixed_base} column, which grows to the longest exponent
      seen) and, built the first time a negative exponent needs it,
      the same for [c^-1].  Every use may grow it, so it belongs to one
      domain. *)

  val table : t -> ciphertext -> table
  (** @raise Invalid_argument on a foreign ciphertext. *)

  val table_ct : table -> ciphertext
  (** The ciphertext the table raises. *)

  val pow_ct : table -> B.t -> B.t
  (** [pow_ct tb e] is [c^e mod N^2] for the table's ciphertext [c]
      and an exponent of either sign (a negative one raises [c^-1]).
      Equal, bit for bit, to {!pow_n2} on [c] or [c^-1].
      @raise Division_by_zero if [e < 0] and [c] is not a unit. *)

  val scalar_mul : t -> B.t -> table -> ciphertext
  (** Homomorphic multiplication of the plaintext by a known scalar,
      [c^(s mod N)], read from the ciphertext's table.  A one-off
      product pays the table's first use (4-10% over one powmod).
      @raise Invalid_argument on a foreign ciphertext. *)

  val linear_combination : t -> ciphertext list -> B.t list -> ciphertext
  (** [TEval]: ciphertext of [sum_i coeff_i * m_i], as one
      {!B.Multiexp.run} over the pairs [(c_i, coeff_i mod N)].
      @raise Invalid_argument on list length mismatch or foreign
      ciphertexts. *)

  val rerandomize : t -> rng:Random.State.t -> ciphertext -> ciphertext
  (** Fresh randomness, same plaintext.
      @raise Invalid_argument on a foreign ciphertext. *)

  val of_raw : t -> B.t -> ciphertext
  (** Inject a received value; reduced mod [N^2]. *)
end
