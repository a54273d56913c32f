(** Lagrange interpolation in barycentric form: the one interpolation
    kernel.

    {!create} precomputes the barycentric weights of a fixed node set
    of size [m] in [O(m^2)] with one field inversion; each {!row} or
    {!eval} after that costs [O(m)] with none.  {!row} is the linear map
    itself: the offline packing step (Protocol 4, Step 4) builds its
    [n x (t + k)] pack matrix as one row per share point, BGW's
    resharing takes its weights at zero, and packed Shamir sharing and
    reconstruction evaluate through {!eval}.  [n] targets against [m]
    nodes thus cost [O(n m + m^2)], not [O(n m^2)]. *)

module Make (F : Field.S) : sig
  type t

  val create : F.t array -> t
  (** @raise Invalid_argument on duplicate nodes. *)

  val row : t -> F.t -> F.t array
  (** [row t x] is the Lagrange coefficient vector at [x]: entry [j] is
      [l_j(x)], the [j]-th Lagrange basis polynomial over the nodes, so
      [F.dot (row t x) values] is the interpolant through
      [(nodes, values)] at [x].  At a node it is that node's unit
      vector. *)

  val eval : t -> values:F.t array -> F.t -> F.t
  (** [eval t ~values x = F.dot (row t x) values]: the unique
      polynomial of degree [< m] through [(nodes, values)], at [x].
      @raise Invalid_argument unless [values] has one entry per node. *)
end
