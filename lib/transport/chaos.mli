(** Socket-level chaos injection for the transport.

    A seeded fault layer the daemon consults at two points: once per
    accepted frame (should the daemon "crash" here?) and once per
    delivery record enqueued to a peer (should it be severed,
    truncated, duplicated or delayed?).  Every decision is a stateless
    draw from [(seed, seq, slot)], so a given seed replays the exact
    same fault schedule regardless of select timing, and a restarted
    daemon never re-draws history (a kill point fires once because the
    recovered sequence counter is already past it).

    Faults are injected {e below} the protocol: a severed or truncated
    connection surfaces to the client as EOF mid-stream, which triggers
    its reconnect/catch-up path; a duplicate delivery tests receiver
    idempotence; a delay stalls the connection's write queue (never a
    single frame, so per-connection FIFO order is preserved).  Replay
    traffic is not re-injected — chaos applies to first deliveries
    only, which keeps fault schedules finite. *)

type action =
  | Pass
  | Sever  (** close the connection abruptly (no [Peer_down]) *)
  | Truncate of float
      (** write this fraction of the delivery's envelope, then sever —
          the peer sees a torn envelope followed by EOF *)
  | Duplicate  (** enqueue the delivery twice *)
  | Delay of float  (** stall the connection's writes for this many ms *)

type config = {
  seed : int;
  kill_at : int list;
      (** board sequence numbers after whose acceptance (journal
          append included, broadcast excluded) the daemon crashes *)
  sever_at : (int * int) list;
      (** scheduled [(seq, slot)] severs: close [slot]'s connection
          instead of delivering frame [seq] to it *)
  sever_rate : float;
  trunc_rate : float;
  dup_rate : float;
  delay_rate : float;  (** per-delivery probabilities, summing to <= 1 *)
  delay_ms : float;
}

val none : config
(** All rates zero, nothing scheduled. *)

val active : config -> bool

val parse : string -> config
(** Parses a compact spec:
    ["sever=0.05,dup=0.02,delay=0.05,delay-ms=20,trunc=0.01,kill=40,seed=7"].
    [kill] may repeat.
    @raise Invalid_argument on unknown keys or out-of-range rates. *)

type t

val create : config -> t
(** @raise Invalid_argument if rates are negative or sum past 1. *)

val config : t -> config

val kill_now : t -> seq:int -> bool
(** Whether the daemon should crash after accepting frame [seq]. *)

val on_deliver : t -> seq:int -> slot:int -> action
(** The fault (if any) for delivering frame [seq] to [slot]. *)

val events : t -> (string * int) list
(** Injected-fault counters by kind, sorted. *)
