(** Ideal linearly homomorphic key-rerandomizable threshold encryption
    over [F_p].

    The paper's TE abstraction (Section 4.1) with the decryption and
    re-sharing algorithms stated per committee step, as the protocol
    uses them: every member of a holder committee posts one partial
    decryption row over the step's batch and one re-sharing token, and
    the step validates its verified sender set once.  Cheap enough to
    execute committees of hundreds or thousands of roles — all
    communication-complexity experiments run over this module
    (DESIGN.md substitution table).

    Semantics enforced operationally:
    - a ciphertext's plaintext is only released by {!combine_col} on a
      {!quorum} of partial decryption rows from [>= t + 1] {e distinct}
      current-epoch key shares;
    - key shares are unforgeable capabilities tied to the key pair;
    - {!reshare}/{!recombine_all} implement [TKRes]/[TKRec]: tokens
      from [t + 1] distinct senders of epoch [e] yield the next
      committee's epoch-[e+1] shares, and old-epoch partials no longer
      combine with new ones;
    - {!eval} is the linear homomorphism [TEval] (field payloads
      only).

    Every check costs O(n) per step, not per recipient or per
    ciphertext: {!quorum} and {!recombine_all} read each sender once,
    and {!combine_col} reads only the [t + 1] rows its quorum chose.

    Payloads are polymorphic for key transport (KFF secret keys travel
    under [tpk]); homomorphic evaluation is restricted to
    [F.t ct]. *)

module F = Yoso_field.Field.Fp

type tpk
type share
type 'a ct

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
val scale : tpk -> F.t -> F.t ct -> F.t ct

(** {1 Decryption} *)

type 'a partial
(** One member's partial decryption row: its [TPDec] of every
    ciphertext of a batch, under one share. *)

val partial_decrypt : tpk -> share -> 'a ct array -> 'a partial
(** [TPDec] of each ciphertext, in order.
    @raise Invalid_argument on a foreign ciphertext or a share of a
    different key. *)

type 'a quorum
(** The [t + 1] rows a step decrypts with. *)

val quorum : tpk -> 'a partial list -> 'a quorum
(** Validates a step's rows once: takes the first [t + 1] rows of
    distinct senders (a repeated sender counts once) and checks that
    they share one epoch.
    @raise Invalid_argument ["Ideal_te.quorum: foreign partial"] on a
    row of another key, ["Ideal_te.quorum: <d> partials, need <t+1>"]
    with fewer than [t + 1] distinct senders, or
    ["Ideal_te.quorum: partials from different epochs"]. *)

val senders : 'a quorum -> int
(** The count of distinct senders among the rows {!quorum} read
    ([>= t + 1]). *)

val combine_col : 'a quorum -> int -> 'a
(** [TDec] of ciphertext [c] of the batch from the quorum's [t + 1]
    values in column [c].
    @raise Invalid_argument ["Ideal_te.combine_col: inconsistent
    partials"] when they disagree (which cannot arise from honest
    {!partial_decrypt} rows — malicious roles are filtered by proof
    verification before this point). *)

(** {1 Re-sharing} *)

type token
(** One sender's [TKRes] output; it serves every member of the next
    committee, so it carries no destination. *)

val reshare : tpk -> share -> token
(** @raise Invalid_argument on a share of a different key. *)

val recombine_all : tpk -> token list -> share array
(** [TKRec] for the whole next committee: needs tokens from
    [>= t + 1] distinct senders (a repeated sender counts once), all
    of one epoch; returns the [n] next-epoch shares, index [j + 1] at
    slot [j].
    @raise Invalid_argument ["Ideal_te.recombine_all: foreign token"],
    ["Ideal_te.recombine_all: <d> tokens, need <t+1>"] or
    ["Ideal_te.recombine_all: tokens from different epochs"]. *)

val reveal : tpk -> 'a ct -> 'a
(** Simulator-side extraction (the standard protocol-simulator
    shortcut; see {!Committee_ops}): the plaintext without any
    decryption quorum.  Used where the honest producing committees
    would jointly derive a public function of their plaintexts — e.g.
    the factory's triple-audit commitments — which the simulation
    computes directly instead of running another decrypt chain.  Never
    a substitute for {!combine_col} on the protocol path.
    @raise Invalid_argument on a foreign ciphertext. *)
