(** Circuit-dependent layout: the batching step of Turbopack.

    Packs the circuit's multiplication gates, layer by layer, into
    batches of at most [k] gates — one packed sharing per batch — and
    groups each client's input wires into batches of [k].  This is the
    "network routing" structure the circuit-dependent preprocessing is
    built around (Section 3.1). *)

type mult_batch = {
  layer : int; (** multiplicative depth of the batch's outputs (>= 1) *)
  mult_gates : (Circuit.wire * Circuit.wire * Circuit.wire) array;
      (** (left in, right in, out) per gate; length in [1, k] *)
}

type t = private {
  circuit : Circuit.t;
  k : int;
  depths : int array; (** multiplicative depth per wire *)
  mult_layers : mult_batch list array; (** index [l-1] = batches of layer [l] *)
  input_batches : (int * Circuit.wire array) list;
      (** (client, wires) with [1 <= length <= k], in client order *)
}

val make : Circuit.t -> k:int -> t
(** @raise Invalid_argument if [k < 1]. *)

val num_mult_batches : t -> int
val num_input_batches : t -> int

val batches_of_layer : t -> int -> mult_batch list
(** Batches whose outputs live at multiplicative depth [l] (1-based).
    Empty list above the circuit depth. *)

val chunk : int -> 'a array -> 'a array list
(** [chunk size xs] cuts [xs] into consecutive pieces of [size]
    elements, the last one shorter if [size] does not divide the
    length; [\[\]] for an empty [xs].  The one batching rule of the
    protocols: gates into k-batches, ciphertexts into the chunks one
    committee handles ([Committee_ops.chain]).
    @raise Invalid_argument if [size < 1]. *)

val pad_to_k : t -> 'a array -> 'a -> 'a array
(** [pad_to_k t batch dummy] right-pads a batch-indexed vector (one
    entry per gate of a batch) to length [k] with [dummy], the shape
    of one packed sharing's secrets.
    @raise Invalid_argument if [batch] is longer than [k]. *)
