(** Arithmetic circuits over a prime field.

    The functionality [F] computed by the MPC protocol is described as
    a circuit of input, addition, multiplication and output gates.
    Gates are stored in topological order (guaranteed by
    {!Builder}); wires are integer ids. *)

type wire = int

type gate =
  | Input of { client : int; wire : wire }
  | Add of { a : wire; b : wire; out : wire }
  | Mul of { a : wire; b : wire; out : wire }
  | Output of { client : int; wire : wire }

type t = private {
  gates : gate array;
  wire_count : int;
  input_wires : (int * wire) list;  (** (client, wire), in gate order *)
  output_wires : (int * wire) list;
}

val of_gates : gate array -> t
(** Validates: every wire is defined exactly once before use, ids are
    dense in [\[0, wire_count)].  @raise Invalid_argument otherwise. *)

(** {1 Statistics} *)

val num_inputs : t -> int
val num_outputs : t -> int
val num_add : t -> int
val num_mul : t -> int
val size : t -> int
(** Total number of gates. *)

val depth : t -> int
(** Multiplicative depth (additions are free). *)

val mult_width : t -> int
(** Maximum number of multiplication gates in one multiplicative
    layer — the "circuit width" of the paper's O(n)-width
    assumption. *)

val clients : t -> int list
(** Sorted, deduplicated ids of clients appearing in inputs or
    outputs. *)

val input_wires_of_client : t -> int -> wire list

val pp_stats : Format.formatter -> t -> unit

(** {1 Plain evaluation} *)

module Eval (F : Yoso_field.Field.S) : sig
  val run : t -> inputs:(int -> F.t array) -> (int * F.t) list
  (** [run c ~inputs] evaluates the circuit in the clear.  [inputs
      client] returns that client's input vector, consumed in gate
      order.  Returns [(client, value)] per output gate, in gate
      order.  @raise Invalid_argument if an input vector is too
      short. *)
end
