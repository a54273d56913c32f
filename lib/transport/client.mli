(** Committee-member side of the transport: a blocking socket client
    speaking the {!Envelope} protocol against a {!Daemon}.

    The client is driven synchronously from inside the protocol's
    commit path: the member that owns board frame [seq] calls {!post};
    everyone calls {!fetch} and blocks until the daemon's delivery
    for that sequence number arrives (deliveries come in strict [seq]
    order, so out-of-order frames are stashed and replayed).  A peer
    that the daemon declared down — or a round deadline expiring while
    we wait — surfaces as [`Down], which the caller maps onto the
    silent-fault path.

    {b Routing.}  The client registers nothing: the daemon derives
    each slot's interest from the run's {!Topology.t} and delivers the
    frames of the slot's quorum sources ({!Topology.full_sources}) in
    full and everything else — the slot's own frames included, as
    acks — as a [`Summary (checksum, length)] digest record, both
    coalesced into [Deliver_batch] envelopes.

    {b Reconnect.}  A connection that dies mid-run (daemon restart,
    injected fault) is re-established transparently: the client
    redials under {!Transport_policy.default}'s [reconnect] budget,
    sends [Recover] with the next delivery it has not seen, absorbs
    the daemon's ordered catch-up replay, and re-posts any own frames
    the daemon never acknowledged.  Duplicate deliveries (chaos
    injection, replay overlap) are absorbed idempotently.  Only an
    exhausted retry budget surfaces as [`Down] — a timely recovery is
    pure latency. *)

type t

exception Protocol_error of string
(** The daemon broke the envelope protocol (bad message order,
    unexpected sequence number, shutdown mid-round). *)

val connect :
  ?deadline_ms:float ->
  addr:Unix.sockaddr ->
  slot:int ->
  nslots:int ->
  seed:int ->
  unit ->
  t
(** Connects (with bounded retry-and-backoff, so racing the daemon's
    [listen] is safe), sends [Hello] and blocks until [Start] — riding out a daemon
    restart in between via the recover path.  [deadline_ms] is the
    per-round receive deadline used by every subsequent blocking
    wait; defaults to {!Transport_policy.default}'s [round_deadline_ms]. *)

val slot : t -> int
val own_posts : t -> int
(** Number of frames this client has posted so far (drives the
    deterministic crash drill). *)

val post : t -> seq:int -> frame:string -> unit
(** Ship board frame [seq], owned by this slot, to the daemon.  The
    matching digest-record ack is consumed internally when it comes back;
    it is not returned by {!fetch}.  A connection lost mid-write
    triggers recovery (the frame is re-posted if the daemon never
    accepted it).
    @raise Sockio.Closed when the reconnect budget is exhausted. *)

val fetch :
  t -> seq:int -> owner:int -> [ `Frame of string | `Summary of int * int | `Down ]
(** Block until the daemon delivers frame [seq] (posted by slot
    [owner]) — in full ([`Frame]) or as a digest record
    ([`Summary (checksum, length)]) — or return [`Down] if that slot
    is known dead, went dead while we waited, or the round deadline
    expired.  A dropped connection is recovered in place; only an
    exhausted reconnect budget maps to [`Down]. *)

val report : t -> json:string -> unit
(** Send the final report.  Best-effort with one recovery round: a
    daemon that stays unreachable is ignored. *)

val close : t -> unit
