(** Imperative circuit builder.

    Produces gates in topological order by construction; wire handles
    are only obtainable from gate-creating calls, so use-before-define
    is impossible through this interface. *)

type t

val create : unit -> t

val input : t -> client:int -> Circuit.wire
val add : t -> Circuit.wire -> Circuit.wire -> Circuit.wire
val mul : t -> Circuit.wire -> Circuit.wire -> Circuit.wire

val constant_wire : t -> ?client:int -> int -> Circuit.wire
(** [constant_wire b ~client v] is the wire carrying the public
    constant [v].  Circuits have no constant gates, so constants enter
    as ordinary inputs of a designated constants client (default
    [0]); the wire is created at first use and memoized, so each
    distinct [(client, v)] pair costs exactly one input gate no matter
    how often it is requested.  At evaluation time the constants
    client must supply the values listed by {!constants}, in order,
    at the positions where they appear in its input sequence. *)

val constants : t -> (int * int) list
(** The [(client, value)] pairs created by {!constant_wire} so far, in
    first-use order — i.e. in the gate order of the corresponding
    input gates. *)

val sub : t -> ?const_client:int -> Circuit.wire -> Circuit.wire -> Circuit.wire
(** [sub b a b'] computes [a - b'] as [a + (-1) * b'], materializing
    the [-1] constant via {!constant_wire} on [const_client] (default
    [0]). *)

val output : t -> client:int -> Circuit.wire -> unit

val sum : t -> Circuit.wire list -> Circuit.wire
(** Balanced addition tree. @raise Invalid_argument on []. *)

val product : t -> Circuit.wire list -> Circuit.wire
(** Balanced multiplication tree (depth [ceil log2 n]).
    @raise Invalid_argument on []. *)

val dot : t -> Circuit.wire list -> Circuit.wire list -> Circuit.wire
(** Inner product: pairwise [mul] then {!sum}. *)

val build : t -> Circuit.t
(** Finalize.  The builder must not be reused afterwards. *)
