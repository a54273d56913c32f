(** The order-[q] commitment group and the Chaum-Pedersen product
    proofs of the offline phase's Beaver-triple audits.

    A value [v] is committed as [h^v] (a Feldman commitment).  For the
    exponent arithmetic to be sound, the group must have prime order
    equal to the share field's modulus: we use the order-[q] subgroup
    of [F_p'^*] where [q = 2^31 - 1] (the MPC field's prime) and
    [p' = kq + 1] is the smallest such prime, with group arithmetic
    over {!Yoso_bigint}.  A 31-bit group is toy-sized (a deployment
    would use a curve of ~256-bit order); the algebra and the
    verification logic are the real scheme's. *)

module F = Yoso_field.Field.Fp
module B = Yoso_bigint.Bigint

type group = private {
  modulus : B.t;   (** [p' = k q + 1], prime *)
  order : B.t;     (** [q = 2^31 - 1 = F.p] *)
  h : B.t;         (** generator of the order-[q] subgroup *)
}

val group : group Lazy.t
(** Deterministically derived once (smallest [k], fixed generator
    search). *)

val prepare : unit -> unit
(** Forces the lazy group, Montgomery context and fixed-base table for
    [h] (grown to full 31-bit exponent coverage).  Call once before
    fanning verification out across domains — afterwards all
    verification state is read-only. *)

(** {1 Product (Beaver-triple) proofs}

    Chaum-Pedersen proofs over the same order-[q] subgroup that a
    committed triple is multiplicative: given [Cx = h^x], [Cy = h^y],
    [Cz = h^z], the prover shows knowledge of [y] with [Cy = h^y] and
    [Cz = Cx^y] — which forces [z = x y].  These are the batch audit
    proofs of the offline factory: one statement per Beaver triple,
    verified per batch with random-linear-combination aggregation. *)
module Product : sig
  type statement = {
    cx : B.t;  (** [h^x] *)
    cy : B.t;  (** [h^y] *)
    cz : B.t;  (** [h^z]; the claim is [z = x y] *)
  }

  type proof = {
    a1 : B.t;  (** [h^w] *)
    a2 : B.t;  (** [Cx^w] *)
    s : F.t;   (** [w + e y] *)
  }

  val commit : F.t -> B.t
  (** [h^v] via the shared fixed-base table. *)

  val prove : rng:Random.State.t -> x:F.t -> y:F.t -> z:F.t -> statement * proof
  (** Honest prover: commits to the triple and proves [Cy = h^y] and
      [Cz = Cx^y] with witness [y].  If [z <> x y] the produced proof
      does not verify (the prover cannot make a false statement pass:
      soundness of Chaum-Pedersen). *)

  val tamper_z : statement -> F.t -> statement
  (** Adversary/test constructor: shifts the claimed [Cz] by
      [h^delta], breaking the product relation. *)

  val verify : statement -> proof -> bool
  (** Both Chaum-Pedersen equations, Fiat-Shamir challenge. *)

  val verify_batch : ?rng:Random.State.t -> (statement * proof) array -> bool
  (** Random-linear-combination aggregation: three multi-exponentiations
      plus one fixed-base power for the whole batch instead of four
      exponentiations per proof.  Accepts every batch {!verify}
      accepts; a bad proof slips through with probability [1/q] over
      the weights.  Without [rng], weights are derived from one
      SHA-256 digest of every statement and proof in the batch
      (Fiat-Shamir), so a prover cannot learn an entry's weight before
      fixing that entry. *)

  val attribute : (statement * proof) array -> int list
  (** Indices whose proofs fail per-proof verification — exact blame
      after {!verify_batch} returns [false]. *)
end
