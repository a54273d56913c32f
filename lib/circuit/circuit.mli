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

val wire_depths : t -> int array
(** Multiplicative depth of every wire: [0] on input wires, one more
    than the deeper operand on a multiplication's output, the deeper
    operand's on an addition's.  {!depth} is the maximum. *)

val mult_width : t -> int
(** Maximum number of multiplication gates in one multiplicative
    layer — the "circuit width" of the paper's O(n)-width
    assumption. *)

val clients : t -> int list
(** Sorted, deduplicated ids of clients appearing in inputs or
    outputs. *)

val input_wires_of_client : t -> int -> wire list

val pp_stats : Format.formatter -> t -> unit

(** {1 Client inputs} *)

val assign_inputs : t -> inputs:(int -> 'a array) -> (wire * 'a) list
(** [assign_inputs c ~inputs] puts each client's input vector on that
    client's input wires: [inputs client] (called once per client) is
    consumed in gate order, one value per input gate; extra values are
    ignored.  Returns [(wire, value)] per input gate, in gate order.
    Every protocol and {!Eval} read their inputs through this, so a
    short vector fails the same way everywhere.
    @raise Invalid_argument
    ["Circuit.assign_inputs: client <c> supplied <m> inputs, needs <n>"]
    if some client's vector is shorter than its count of input
    gates. *)

(** {1 Plain evaluation} *)

module type RING = sig
  type t

  val zero : t
  val add : t -> t -> t
  val mul : t -> t -> t
end
(** What evaluation uses of the value ring; any {!Yoso_field.Field.S}
    matches, and so does [Z_N] for a runtime modulus. *)

module Eval (R : RING) : sig
  val run : t -> inputs:(int -> R.t array) -> (int * R.t) list
  (** [run c ~inputs] evaluates the circuit in the clear, inputs
      assigned by {!assign_inputs}.  Returns [(client, value)] per
      output gate, in gate order.
      @raise Invalid_argument as {!assign_inputs} on a short input
      vector. *)
end
