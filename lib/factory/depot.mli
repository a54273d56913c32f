(** One-slot handoff between the factory's producer domain and the
    consumer running online phases: each item is one whole circuit.

    One producer {!put}s items and one consumer {!draw}s them, in put
    order.  A put returns only once the consumer has drawn its item,
    so the producer starts the next circuit only after the consumer
    has taken the previous one: at most two circuits are alive, one in
    its online phase and one being produced or waiting in the slot.
    The depot mutex orders everything the producer wrote before a put
    before everything the consumer reads after the matching draw.

    Neither side idles while it waits: both blocking waits (a draw on
    the empty slot, a put waiting for its draw) go through
    {!Yoso_parallel.Pool.await} on the depot's pool, so a waiting side
    runs the other side's unclaimed fan-out chunks and sleeps only
    when none remain. *)

type 'a t

exception Closed
(** Raised by {!draw} once the depot is closed and empty, and by
    {!put} once it is closed, including while the put waits for its
    draw (the item then stays the producer's). *)

val create : ?pool:Yoso_parallel.Pool.t -> unit -> 'a t
(** [pool] is where a blocked side waits and helps: the pool both
    sides submit their fan-outs to.  By default the depot gets a
    1-domain pool of its own, on which the waits are plain sleeps. *)

val put : 'a t -> 'a -> unit
(** Fills the slot and blocks until the consumer has drawn it (counted
    in {!stats}[.producer_blocks] unless a consumer was already
    waiting), running the pool's open chunks meanwhile. *)

val draw : 'a t -> 'a
(** Empties the slot, blocking until the producer fills it (counted in
    {!stats}[.consumer_blocks]) and running the pool's open chunks
    meanwhile. *)

val close : 'a t -> unit
(** No further puts; a blocked draw and a waiting put raise
    {!Closed}, woken even while they sleep in the pool's wait. *)

val fail : 'a t -> exn -> unit
(** A side died: close, and make every later draw on the empty depot
    re-raise [exn], so the consumer surfaces the producer's exception
    instead of hanging.  The first failure wins. *)

type stats = {
  puts : int;
  draws : int;
  producer_blocks : int;  (** puts that waited for the consumer *)
  consumer_blocks : int;  (** draws that waited for the producer *)
  max_occupancy : int;    (** peak circuits in the slot: 0 or 1 *)
}

val stats : 'a t -> stats
(** Snapshot under the depot lock; take it after the stream ends for
    stable values. *)
