(** Deterministic network simulator.

    The bulletin board in the YOSO model is a broadcast channel with
    round deadlines: a post either lands within the round it was sent
    in ([Delivered]), lands in a later round ([Late] — the sender is
    treated exactly like a fail-stop for that step), or never lands
    ([Dropped]).  Each transmission is delayed by a fixed one-way
    latency and optionally dropped by a seeded coin.  Everything is
    driven by a {!Yoso_hash.Splitmix} stream, so a run is replayable
    byte-for-byte from its seed. *)

type model = {
  latency_ms : float;  (** fixed one-way propagation delay *)
  drop : float;  (** independent loss probability per message *)
}

val ideal : model
(** Zero latency, no loss — the abstract bulletin board.  Under this
    model every post is [Delivered] (unless forced late) and protocol
    behaviour is identical to running without a network. *)

type verdict = Delivered | Late | Dropped

type t

val create : ?model:model -> ?round_ms:float -> seed:int -> unit -> t
(** [round_ms] (default 100) is the synchronous round length: a
    message sent in a round is [Delivered] iff it arrives before the
    round's deadline. *)

val transmit : t -> ?extra_delay_ms:float -> bytes:int -> unit -> verdict
(** Send one message of [bytes] at the current simulated time.
    [extra_delay_ms] models a sender stalling past the deadline (the
    [Faults.Delayed] behaviour). *)

val next_round : t -> unit
(** Advance the clock to the next round boundary. *)

type stats = {
  rounds : int;
  sent : int;
  delivered : int;  (** arrived within their sending round *)
  late : int;
  dropped : int;
  bytes_sent : int;
  elapsed_ms : float;
}

val stats : t -> stats
