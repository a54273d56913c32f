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

  val encrypt_with : t -> r:B.t -> B.t -> ciphertext
  (** Deterministic variant with explicit randomness [r].
      @raise Invalid_argument if [r] is not a unit mod [N]. *)

  val decrypt : t -> secret_key -> ciphertext -> B.t
  (** @raise Invalid_argument if the ciphertext is under a key with a
      different modulus. *)

  val add : t -> ciphertext -> ciphertext -> ciphertext
  (** Homomorphic addition of plaintexts.
      @raise Invalid_argument on a foreign ciphertext. *)

  val scalar_mul : t -> B.t -> ciphertext -> ciphertext
  (** Homomorphic multiplication of the plaintext by a known scalar.
      @raise Invalid_argument on a foreign ciphertext. *)

  val linear_combination : t -> ciphertext list -> B.t list -> ciphertext
  (** [TEval]: ciphertext of [sum_i coeff_i * m_i].
      @raise Invalid_argument on list length mismatch or foreign
      ciphertexts. *)

  val rerandomize : t -> rng:Random.State.t -> ciphertext -> ciphertext
  (** Fresh randomness, same plaintext.
      @raise Invalid_argument on a foreign ciphertext. *)

  val of_raw : t -> B.t -> ciphertext
  (** Inject a received value; reduced mod [N^2]. *)
end
