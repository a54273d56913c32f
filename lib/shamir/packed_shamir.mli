(** Packed Shamir secret sharing (Franklin-Yung), as used throughout
    the paper (Section 3.2, "Notation and Packed Shamir Secret
    Sharing").

    A degree-[d] packed sharing [[x]]_d of a vector [x] of [k] secrets
    is a polynomial [f] of degree at most [d] with [f(-(j-1)) = x_j]
    for [j in 1..k]; party [i] (1-based) holds the share [f(i)].
    Requirements: [k - 1 <= d <= n - 1].  Any [d + 1] shares determine
    the sharing; any [d - k + 1] shares are independent of the secrets.

    The scheme is linearly homomorphic, and multiplication-friendly:
    shares multiply pointwise with degrees adding, and a *public*
    vector can be multiplied in by locally building its deterministic
    degree-[(k-1)] sharing. *)

module Make (F : Yoso_field.Field.S) : sig
  type params
  (** Precomputed evaluation points and cached interpolation bases for
      a fixed [(n, k)]. *)

  val make_params : n:int -> k:int -> params
  (** @raise Invalid_argument unless [1 <= k <= n < F.p / 2]. *)

  val n : params -> int
  val k : params -> int

  val share_point : params -> int -> F.t
  (** [share_point p i] is party [i]'s point (0-based party index,
      point [i + 1]). *)

  type sharing = private { degree : int; shares : F.t array }
  (** [shares.(i)] is party [i]'s share.  The [degree] is the claimed
      degree bound; see {!check_degree}. *)

  val make_sharing : degree:int -> shares:F.t array -> sharing
  (** Unchecked constructor — intended for tests and for adversary
      modules that inject malformed sharings; honest code should use
      {!share}. *)

  val share :
    params -> degree:int -> secrets:F.t array -> rng:Random.State.t -> sharing
  (** Random degree-[degree] packed sharing of [secrets] (length [k]).
      @raise Invalid_argument if the degree is out of range or
      [secrets] does not have length [k]. *)

  val share_public : params -> F.t array -> sharing
  (** The unique degree-[(k-1)] sharing of a public vector: all shares
      are determined by the secrets, so every party can compute it
      locally (used to multiply public vectors into sharings). *)

  val add : params -> sharing -> sharing -> sharing
  (** Pointwise share addition; resulting degree is the max. *)

  val sub : params -> sharing -> sharing -> sharing
  val scale : params -> F.t -> sharing -> sharing
  val add_constant : params -> F.t array -> sharing -> sharing
  (** [add_constant p c s] adds the public vector [c] (via its
      degree-[(k-1)] sharing) to [s]. *)

  val mul : params -> sharing -> sharing -> sharing
  (** Pointwise share multiplication; degrees add.
      @raise Invalid_argument if [d1 + d2 >= n]. *)

  val mul_public : params -> F.t array -> sharing -> sharing
  (** Multiplication by a public vector; degree increases by [k - 1].
      Requires [degree <= n - k]. *)

  val reconstruct : params -> degree:int -> (int * F.t) list -> F.t array
  (** [reconstruct p ~degree shares] recovers the packed secret vector
      from [(party_index, share)] pairs.  Needs at least [degree + 1]
      pairs with distinct party indices; extra pairs are ignored.
      @raise Invalid_argument if there are too few shares. *)

  val reconstruct_checked :
    params -> degree:int -> (int * F.t) list -> (F.t array, int list) result
  (** Error-detecting reconstruction: interpolates a candidate
      polynomial from the first [degree + 1] pairs and verifies every
      remaining pair against it.  [Ok secrets] when the whole set is
      consistent with one degree-[degree] polynomial; [Error parties]
      lists the party indices whose shares disagree with the candidate
      (nonempty only if the set was tampered with).  This is the
      redundancy check honest parties run over the surviving share set
      during online reconstruction.
      @raise Invalid_argument with fewer than [degree + 1] distinct
      pairs. *)

  val check_degree : params -> sharing -> bool
  (** Whether all [n] shares lie on a polynomial of the claimed
      degree — the error-detection check honest parties run on
      received sharings. *)

  val recover_missing : params -> degree:int -> (int * F.t) list -> int -> F.t
  (** Recompute the share of an absent party from [degree + 1] present
      shares (used for fail-stop recovery demonstrations). *)
end
