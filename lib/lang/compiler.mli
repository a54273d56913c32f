(** Compiler front-end: {!Ast.program} -> optimized {!Ir.t} ->
    {!Yoso_circuit.Circuit.t}.

    The pipeline elaborates the AST into the flat IR (comparisons
    become bit prefix circuits, [is_zero] becomes Fermat
    exponentiation, [Sub]/[Neg] multiply by the [-1] constant), runs
    the default passes, then lowers to a circuit through
    {!Yoso_circuit.Builder}.  Constants materialize as inputs of a
    designated constants client ({!field:compiled.const_client}, one
    id above the program's real clients); {!protocol_inputs} supplies
    their values automatically. *)

module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit

type source = SValue of Ast.decl | SBit of Ast.decl * int
(** One slot of a client's protocol input vector: either a
    declaration's plain value, or bit [i] of a declaration a
    comparison demanded in bits (bits are laid out LSB first). *)

type compiled = {
  program : Ast.program;
  circuit : Circuit.t;
  const_client : int;  (** synthetic client supplying the constants *)
  constants : int list;
      (** values the constants client must input, in gate order *)
  sources : (int * source array) list;
      (** per real client, the slot layout of its input vector *)
  ir : Ir.t;  (** the IR after the last pass *)
  naive_stats : Ir.stats;
  pass_stats : (string * Ir.stats) list;  (** stats after each pass *)
}

val compile : ?passes:(string * (Ir.t -> Ir.t)) list -> Ast.program -> compiled
(** Compile with the given pass list (default [fold; rewrite; cse;
    reassoc; fold2; cse2] — a second fold/cse round picks up
    opportunities the reassociation exposes; [~passes:[]] gives the
    naive lowering). *)

val protocol_inputs :
  compiled -> inputs:(int -> int array) -> int -> F.t array
(** Encode per-client integer inputs (one per declaration, as for
    {!Interp.run}) into the per-client field vectors the circuit
    consumes: bit-demanded declarations are expanded into bits, and
    the constants client's vector is filled from
    {!field:compiled.constants}.  @raise Invalid_argument on
    width-violating values. *)

val check : compiled -> inputs:(int -> int array) -> bool
(** Clear-evaluate the compiled circuit and compare against
    {!Interp.run}. *)

val final_stats : compiled -> Ir.stats

val pass_stats_json : (string * Ir.stats) list -> Yoso_runtime.Json.t
(** A pass log ({!field:compiled.pass_stats}) as a JSON list of
    [{"pass": name, "after": stats}] objects. *)

val stats_json : compiled -> Yoso_runtime.Json.t
(** The program name, naive and per-pass IR statistics and the final
    circuit's shape as one JSON object. *)

val pp_pipeline : Format.formatter -> compiled -> unit
