(** Deterministic discrete-event network simulator.

    The bulletin board in the YOSO model is a broadcast channel with
    round deadlines: a post either lands within the round it was sent
    in ([Delivered]), lands in a later round ([Late] — the sender is
    treated exactly like a fail-stop for that step), or never lands
    ([Dropped]).  Each transmission is delayed by a per-link model
    (fixed latency, uniform jitter, serialization at finite bandwidth)
    and optionally dropped by a seeded coin.  Everything is driven by
    a {!Yoso_hash.Splitmix} stream, so a run is replayable
    byte-for-byte from its seed. *)

type model = {
  latency_ms : float;  (** fixed one-way propagation delay *)
  jitter_ms : float;  (** uniform extra delay in [\[0, jitter_ms)] *)
  bandwidth_mbps : float;  (** link rate; [<= 0] means infinite *)
  drop : float;  (** independent loss probability per message *)
}

val ideal : model
(** Zero latency, infinite bandwidth, no loss — the abstract bulletin
    board.  Under this model every post is [Delivered] (unless forced
    late) and protocol behaviour is identical to running without a
    network. *)

val lan : model
val wan : model

type verdict = Delivered | Late | Dropped

type t

val create : ?model:model -> ?round_ms:float -> seed:int -> unit -> t
(** [round_ms] (default 100) is the synchronous round length: a
    message sent in a round is [Delivered] iff it arrives before the
    round's deadline. *)

val transmit : t -> ?extra_delay_ms:float -> bytes:int -> unit -> verdict * float
(** Send one message of [bytes] at the current simulated time; returns
    the verdict and the arrival time in ms ([infinity] if dropped).
    [extra_delay_ms] models a sender stalling past the deadline (the
    [Faults.Delayed] behaviour). *)

val next_round : t -> unit
(** Advance the clock to the next round boundary and drain every
    in-flight message that has arrived by then. *)

val deadline_ms : t -> float
val in_flight : t -> int

type stats = {
  rounds : int;
  sent : int;
  delivered : int;  (** arrived within their sending round *)
  late : int;
  dropped : int;
  bytes_sent : int;
  bytes_delivered : int;  (** drained from the queue so far *)
  elapsed_ms : float;
  max_in_flight : int;
}

val stats : t -> stats
