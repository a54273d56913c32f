(** Ideal linearly homomorphic key-rerandomizable threshold encryption
    over [F_p].

    Interface-identical to the paper's TE abstraction (Section 4.1)
    and to the real {!Yoso_paillier.Threshold} instantiation, but
    cheap enough to execute committees of hundreds or thousands of
    roles — all communication-complexity experiments run over this
    module (DESIGN.md substitution table).

    Semantics enforced operationally:
    - a ciphertext's plaintext is only released by {!combine} given
      partial decryptions from [>= t + 1] *distinct* current-epoch key
      shares;
    - key shares are unforgeable capabilities tied to the key pair;
    - {!reshare}/{!recombine} implement [TKRes]/[TKRec]: sub-shares
      from [t + 1] distinct senders of epoch [e] yield an epoch-[e+1]
      share, and old-epoch partials no longer combine with new ones;
    - {!eval} is the linear homomorphism [TEval] (field payloads
      only).

    Payloads are polymorphic for key transport (KFF secret keys travel
    under [tpk]); homomorphic evaluation is restricted to
    [F.t ct]. *)

module F = Yoso_field.Field.Fp

type tpk
type share
type 'a ct
type 'a partial

val keygen : n:int -> t:int -> rng:Yoso_hash.Splitmix.t -> tpk * share array
(** @raise Invalid_argument unless [0 <= t < n]. *)

val n_parties : tpk -> int
val threshold : tpk -> int

val share_index : share -> int
(** 1-based. *)

val share_epoch : share -> int

val encrypt : tpk -> 'a -> 'a ct

val eval : tpk -> F.t ct array -> F.t array -> F.t ct
(** [TEval]: ciphertext of [sum_i coeffs.(i) * m_i].
    @raise Invalid_argument on length mismatch or foreign
    ciphertexts. *)

val add : tpk -> F.t ct -> F.t ct -> F.t ct
val sub : tpk -> F.t ct -> F.t ct -> F.t ct
val scale : tpk -> F.t -> F.t ct -> F.t ct
val add_plain : tpk -> F.t ct -> F.t -> F.t ct

val partial_decrypt : tpk -> share -> 'a ct -> 'a partial
(** [TPDec].  @raise Invalid_argument on a foreign ciphertext or a
    share of a different key. *)

val combine : tpk -> 'a partial list -> 'a
(** [TDec].  @raise Invalid_argument with fewer than [t + 1] distinct
    same-epoch partials, or on inconsistent partials (which cannot
    arise from honest {!partial_decrypt} outputs — malicious roles are
    filtered by proof verification before this point). *)

type subshare

val reshare : tpk -> share -> subshare array
(** [TKRes]: slot [j] (0-based) is destined for party [j + 1] of the
    next committee. *)

val recombine : tpk -> index:int -> subshare list -> share
(** [TKRec]: needs sub-shares addressed to [index] from [>= t + 1]
    distinct senders, all of one epoch; produces the next-epoch
    share.  As with the real scheme, all recipients must use the same
    sender subset; passing identically ordered lists suffices.
    @raise Invalid_argument otherwise. *)

val reveal : tpk -> 'a ct -> 'a
(** Simulator-side extraction (the standard protocol-simulator
    shortcut; see {!Committee_ops}): the plaintext without any
    decryption quorum.  Used where the honest producing committees
    would jointly derive a public function of their plaintexts — e.g.
    the factory's triple-audit commitments — which the simulation
    computes directly instead of running another decrypt chain.  Never
    a substitute for {!combine} on the protocol path.
    @raise Invalid_argument on a foreign ciphertext. *)

val junk_partial : tpk -> index:int -> epoch:int -> 'a -> 'a partial
(** Adversary/test constructor: a syntactically valid partial carrying
    a wrong value. *)

val corrupt_partial : 'a partial -> 'a partial
(** Adversary/test constructor for polymorphic payloads: the honest
    value under a desynchronized epoch — {!combine} rejects it when
    mixed with current-epoch partials. *)
