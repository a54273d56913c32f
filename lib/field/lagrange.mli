(** Lagrange-coefficient computation.

    Both packed Shamir reconstruction and the homomorphic "packing"
    step of the offline phase (Protocol 4, Step 4) are linear maps whose
    coefficients are evaluations of Lagrange basis polynomials.  This
    module computes those coefficient vectors once so the linear map
    can be applied to many sharings (or many ciphertext vectors). *)

module Make (F : Field.S) : sig
  val coeffs_at : points:F.t array -> target:F.t -> F.t array
  (** [coeffs_at ~points ~target] returns weights [w] such that for any
      polynomial [f] of degree [< Array.length points],
      [f target = sum_j w.(j) * f points.(j)].
      @raise Invalid_argument on duplicate points. *)

  val basis_matrix : sources:F.t array -> targets:F.t array -> F.t array array
  (** [basis_matrix ~sources ~targets] has one row per target:
      [row.(j) = l_j(target)] where [l_j] is the [j]-th Lagrange basis
      polynomial over [sources]. *)
end
