(** Typed expression DSL over the protocol's prime field.

    Programs are DAGs of field expressions over per-client input
    vectors.  Inputs may carry a bit-width annotation; comparisons are
    compiled through bit (limb) decomposition and therefore require
    width-annotated-input or constant operands.  [is_zero]/[if_zero]
    work on arbitrary expressions via Fermat exponentiation
    ([x^(p-1)]).  See {!Compiler} for the pass pipeline down to
    {!Yoso_circuit.Circuit.t} and {!Interp} for the clear-evaluation
    reference semantics. *)

module F = Yoso_field.Field.Fp

val max_width : int
(** Largest allowed input bit-width (30): annotated values stay
    strictly below the field modulus, so a canonical field element
    equals its integer value. *)

type decl = private {
  d_client : int;
  d_index : int;  (** position in the client's declaration order *)
  d_width : int option;
  d_label : string;
}

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type expr = private { id : int; node : node }

and node = private
  | Input of decl
  | Const of int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | Sum of expr list
  | Prod of expr list
  | Cmp of cmp * expr * expr
  | Is_zero of expr
  | Mux of expr * expr * expr

(** {1 Expression constructors} *)

val const : int -> expr
(** Public constant; lowered to a designated constants-client input. *)

val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val mul : expr -> expr -> expr
val neg : expr -> expr

val sum : expr list -> expr
(** @raise Invalid_argument on []. *)

val prod : expr list -> expr
(** @raise Invalid_argument on []. *)

val dot : expr list -> expr list -> expr
(** Inner product. @raise Invalid_argument on length mismatch. *)

val lt : expr -> expr -> expr
val le : expr -> expr -> expr
val gt : expr -> expr -> expr
val ge : expr -> expr -> expr
val eq : expr -> expr -> expr
val ne : expr -> expr -> expr
(** Integer comparisons, result 0/1.  Operands must be width-annotated
    inputs or nonnegative constants (their bits must be materializable
    at compile time); the values compared are the operands' integer
    values.  @raise Invalid_argument otherwise. *)

val is_zero : expr -> expr
(** [is_zero x] is 1 if [x = 0] in the field, else 0 (computed as
    [1 - x^(p-1)]; ~59 multiplications, works on any expression). *)

val if_zero : expr -> then_:expr -> else_:expr -> expr
(** [if_zero c ~then_ ~else_] is [then_] when [c = 0], [else_]
    otherwise. *)

val let_ : expr -> (expr -> expr) -> expr
(** [let_ e f] binds [e] once: elaboration and interpretation memoize
    on node identity, so [e] is compiled/evaluated exactly once no
    matter how often [f] uses it. *)

(** {1 Programs} *)

type program = private {
  p_name : string;
  p_decls : decl list;  (** declaration order *)
  p_outputs : (int * expr) list;  (** (client, expr), declaration order *)
}

module B : sig
  type t

  val create : ?name:string -> unit -> t

  val input : t -> client:int -> ?width:int -> string -> expr
  (** Declare the next input of [client] (consumed in declaration
      order), optionally with a bit-width annotation [1 <= width <=
      max_width] enabling comparisons.  The string is a diagnostic
      label.  @raise Invalid_argument on bad width or client. *)

  val output : t -> client:int -> expr -> unit

  val build : t -> program
  (** @raise Invalid_argument if no output was declared or the builder
      was already built. *)
end

val clients : program -> int list
(** Sorted, deduplicated client ids appearing in inputs or outputs. *)

val size : program -> int
(** Number of distinct expression nodes reachable from the outputs. *)

val bit_source_width : expr -> int option
(** Width of the bit decomposition available for a comparison operand
    ([Some] for width-annotated inputs and small nonnegative
    constants), [None] otherwise. *)

val bit_demanded : program -> decl -> bool
(** Whether the declaration is an operand of at least one comparison —
    i.e. whether its client must supply it in bits. *)
