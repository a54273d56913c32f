(** Flat value-numbered intermediate representation and the
    optimization passes that run on it.

    Every def is addressed by its index in {!field:t.defs}; operands
    always point backwards, so the array order is a topological order.
    Passes rebuild the graph reachable from the outputs, which makes
    dead-node elimination implicit: even the "naive" un-optimized IR
    contains no unreachable defs, so pass-reported savings are genuine
    fold/CSE/rewrite wins, not DCE artifacts. *)

module F = Yoso_field.Field.Fp

type def =
  | Inp of { client : int; slot : int }
  | Cst of int  (** canonical field value, [0 <= v < p] *)
  | Add2 of int * int
  | Mul2 of int * int

type t = { defs : def array; outs : (int * int) list }

(** Append-only IR builder used by elaboration and the passes. *)
module B : sig
  type b

  val create : unit -> b
  val inp : b -> client:int -> slot:int -> int
  val cst : b -> int -> int
  val add : b -> int -> int -> int
  val mul : b -> int -> int -> int
  val def_of : b -> int -> def
  val size : b -> int
  val finish : b -> outs:(int * int) list -> t
end

type stats = {
  nodes : int;
  inputs : int;
  consts : int;
  adds : int;
  muls : int;
  depth : int;  (** multiplicative depth; additions are free *)
}

val stats : t -> stats
val stats_json : stats -> Yoso_runtime.Json.t

val depths : t -> int array
(** Per-def multiplicative depth. *)

(** {1 Passes}

    Each pass is semantics-preserving: [eval (pass ir)] equals
    [eval ir] for every input assignment (verified by the property
    tests). *)

val fold : t -> t
(** Constant folding/propagation: [Add2]/[Mul2] of two [Cst] defs
    collapse to a [Cst]. *)

val rewrite : t -> t
(** Algebraic identities: [x*1 -> x], [x*0 -> 0], [x+0 -> x] (and
    their mirror images). *)

val cse : t -> t
(** Common-subexpression elimination by hash-consing; add/mul operand
    pairs are canonicalized by sorting (commutativity). *)

val reassoc : t -> t
(** Multiplication-depth minimization: maximal single-use chains of
    one operator are flattened to leaf lists and recombined greedily,
    always pairing the two shallowest subtrees.  Never increases the
    depth of any rebuilt chain. *)

val eval : t -> input:(client:int -> slot:int -> F.t) -> (int * F.t) list
(** Reference evaluation of the IR, for pass-preservation tests. *)
