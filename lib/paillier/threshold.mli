(** Linearly homomorphic key-rerandomizable threshold encryption
    (Section 4.1 of the paper), instantiated with threshold Paillier
    in the style of Shoup / Damgard-Jurik-Nielsen.

    The decryption exponent [d] (CRT: [d = 0 mod lambda],
    [d = 1 mod N]) is Shamir-shared with a degree-[t] integer
    polynomial.  Partial decryptions are [c^(2*Delta*s_i)] with
    [Delta = n_parties!]; combining [t+1] of them with integral
    Lagrange weights [2*mu_i = 2*Delta*l_i(0)] yields
    [c^(4*Delta^2*D_e)] where [D_e] is the epoch-[e] effective secret.

    {b Key re-randomization} ([TKRes]/[TKRec]): each party re-shares
    [Delta * s_i] with a fresh degree-[t] integer polynomial whose
    blinding coefficients statistically hide the share; recipients
    combine sub-shares with the same integral weights.  Every epoch
    multiplies the effective secret by [2*Delta^2], which [TDec]
    compensates for via the epoch counter carried by shares and
    partials.  (Production systems bound the number of epochs; here
    shares grow by ~[2 log2 Delta + 1] bits per epoch, which is fine
    at test scale.)

    {b Contexts.} Every operation goes through a {!Ctx.t}: it carries
    the Montgomery contexts (via the underlying {!Paillier.Ctx.t})
    plus caches for the [Delta]-scaled Lagrange combining weights (per
    partial subset) and the [theta^-1] epoch compensation scalars, so
    repeated combines over the same committee recompute nothing.  The
    key-share arithmetic of [TKRes]/[TKRec] needs no context. *)

module B = Yoso_bigint.Bigint

type tpk = {
  pk : Paillier.public_key;
  n_parties : int;
  threshold : int;  (** [t]: polynomial degree; [t + 1] partials reconstruct *)
  delta : B.t;      (** [n_parties!] *)
}

type key_share = private {
  index : int;  (** 1-based party index *)
  epoch : int;
  value : B.t;  (** integer share, grows with epoch *)
}

type partial = private { p_index : int; p_epoch : int; d : B.t }

val keygen :
  ?bits:int ->
  n:int ->
  t:int ->
  rng:Random.State.t ->
  unit ->
  tpk * key_share array
(** [TKGen]: dealer-based setup.  @raise Invalid_argument unless
    [0 <= t < n]. *)

(** {1 Context API} *)

module Ctx : sig
  type t

  val create : tpk -> t
  val tpk : t -> tpk

  val paillier : t -> Paillier.Ctx.t
  (** The underlying Paillier context for [pk]. *)

  val encrypt : t -> rng:Random.State.t -> B.t -> Paillier.ciphertext

  val eval : t -> Paillier.ciphertext list -> B.t list -> Paillier.ciphertext
  (** [TEval], delegating to {!Paillier.Ctx.linear_combination}. *)

  val partial_decrypt : t -> key_share -> Paillier.ciphertext -> partial
  (** [TPDec]: [c^(2 Delta s_i) mod N^2] via Montgomery
      exponentiation; a negative share (epoch [>= 1]) raises [c^-1]. *)

  val partial_decrypt_quorum : t -> key_share list -> Paillier.ciphertext -> partial list
  (** {!partial_decrypt} of one ciphertext by each share, in order.
      The [t + 1] partial decryptions of an opening raise the same
      public ciphertext, so they are read from one
      {!Paillier.Ctx.table}, built here, and its squarings are done
      once.  Each partial is bit for bit {!partial_decrypt}'s. *)

  val combine : t -> partial list -> B.t
  (** [TDec]: needs [>= t + 1] partials with distinct indices, all of
      the same epoch; extras ignored.  Uses the cached combining
      weights and [theta^-1]; the [prod d_i ^ (2 mu_i)] core runs as
      one {!B.Multiexp} batch over the Montgomery context for [N^2]
      (Straus for committee-sized batches, Pippenger beyond).
      @raise Invalid_argument otherwise. *)

  val sim_partial_decrypt :
    t -> Paillier.ciphertext -> m:B.t -> honest:key_share list -> partial list
  (** [SimTPDec]: given the honest parties' key shares and a target
      plaintext [m], produces partial decryptions for the honest
      parties such that {!combine} on them returns [m] — by re-basing
      the partials on the adjusted ciphertext
      [beta * (1+N)^(m - Dec(beta))], which is distributed identically
      to a fresh encryption of [m] with [beta]'s randomness component.
      Needs [>= t + 1] honest shares.
      @raise Invalid_argument otherwise. *)

  val weights : t -> int list -> (int * B.t) list
  (** [(i, 2 * mu_i)] combining weights for a partial subset, cached
      per subset. *)

  val preload : ?epochs:int list -> ?subsets:int list list -> t -> unit
  (** Force the context's lazy state now: the combining-weight cache
      for each of [subsets] and the theta-inverse cache for each of
      [epochs].  The caches are plain [Hashtbl]s — not safe for
      concurrent first writes — so a context shared across a Domain
      pool must be preloaded before the fan-out. *)
end

val reshare : tpk -> key_share -> rng:Random.State.t -> B.t array
(** [TKRes]: party [i]'s re-sharing messages; slot [j] (0-based) is
    the sub-share destined for party [j + 1]. *)

val recombine_share :
  tpk -> index:int -> epoch:int -> (int * B.t) list -> key_share
(** [TKRec]: party [index] combines sub-shares [(sender, subshare)]
    produced by {!reshare} on epoch-[e] shares into its epoch-[e+1]
    share; pass [~epoch:(e + 1)].

    {b All recipients must combine the same sender subset} (in
    practice: the broadcast-agreed set of senders whose proofs
    verified) — otherwise the new shares lie on different polynomials.
    Only the first [t + 1] distinct senders in the list are used, so
    passing the same ordered list everywhere suffices.
    @raise Invalid_argument with fewer than [t + 1] distinct senders. *)

val theta : tpk -> int -> B.t
(** [theta_e = 4 Delta^2 (2 Delta^2)^e mod N]: the scalar a combined
    plaintext is implicitly multiplied by after epoch-[e]
    reconstruction (compensated inside {!Ctx.combine}). *)

val share_index : key_share -> int
val share_epoch : key_share -> int
val unsafe_partial : index:int -> epoch:int -> d:B.t -> partial
(** A partial from its parts, with no check that [d] is one.  The
    interface of the test oracle [Yoso_oracles.Threshold], which
    computes partial decryptions by naive arithmetic and compares
    them with {!Ctx.partial_decrypt}'s; the protocol never calls it. *)
