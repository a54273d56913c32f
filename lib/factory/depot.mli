(** Bounded buffer of preprocessing material between the factory's
    producer domain and the consuming online phase.

    The depot stores typed slots keyed by [(circuit, kind)] under one
    mutex and bounds how many whole circuits it holds: a circuit is
    {e held} while at least one of its slots is in the depot.

    - {!reserve} — called by the producer before starting a circuit —
      blocks while two circuits are held, so the depot never holds
      more than two circuits.
    - {!put} never blocks.  A circuit whose production has started is
      always pushed to completion.  This is what makes the scheme
      deadlock-free: the consumer drains circuits fully and in order,
      so the item the consumer blocks on is always produced without
      the producer needing depot space.
    - {!draw} blocks until the requested [(circuit, kind)] slot is
      available, or raises once the depot is closed (or re-raises the
      producer's failure if it was {!fail}ed).

    Draw order is decided solely by the (single-threaded) consumer, so
    {!stats}[.draw_log] is deterministic for a given job sequence no
    matter how production and consumption interleave. *)

type 'a t

exception Closed
(** Raised by {!draw} when the depot is closed and the slot will never
    arrive, and by {!put}/{!reserve} after {!close}. *)

val create : unit -> 'a t

val reserve : 'a t -> unit
(** Producer-side gate, called once per circuit before producing it;
    blocks while two circuits are held (counted in
    {!stats}[.producer_blocks]). *)

val put : 'a t -> circuit:int -> kind:string -> 'a -> unit
(** Deposits a slot; never blocks. *)

val draw : 'a t -> circuit:int -> kind:string -> 'a
(** Removes and returns the next slot of [(circuit, kind)] in put
    order, blocking until one arrives (counted in
    {!stats}[.consumer_blocks]). *)

val close : 'a t -> unit
(** No further puts; blocked draws for missing slots and a blocked
    {!reserve} raise {!Closed}. *)

val fail : 'a t -> exn -> unit
(** Producer died: close and make every subsequent draw re-raise
    [exn] — the consumer surfaces the producer's exception instead of
    hanging. *)

type stats = {
  puts : int;
  draws : int;
  producer_blocks : int;  (** reserve calls that had to wait *)
  consumer_blocks : int;  (** draw calls that had to wait *)
  max_occupancy : int;    (** peak slots held *)
  final_occupancy : int;  (** slots held when the snapshot was taken *)
  draw_log : (int * string) list;
      (** every draw as [(circuit, kind)], in draw order — the
          determinism witness *)
}

val stats : 'a t -> stats
(** Snapshot under the depot lock; take it after the stream ends for
    stable values. *)
