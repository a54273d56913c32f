(** Byte-level communication accounting.

    Where {!Yoso_runtime.Cost} counts abstract elements (the paper's
    metric), the meter records *measured wire bytes*, split three
    ways: per (phase, element kind) for the payload data itself, per
    (phase, step) for whole frames, and per phase for framing overhead
    (tags, length prefixes, checksums — bytes on the wire that are not
    element data).  It is the one byte ledger: nothing else counts
    frame bytes.  The headline scalability claim is about payload
    data, so keeping overhead in its own bucket lets the benchmark
    report both honestly. *)

module Cost = Yoso_runtime.Cost

type t

val create : unit -> t

val record :
  t ->
  phase:string ->
  step:string ->
  frame_bytes:int ->
  payload:(Cost.kind * int) list ->
  unit
(** [payload] is the per-kind element-data byte tally of the frame;
    [frame_bytes - sum payload] is charged as framing overhead. *)

val merge_into : dst:t -> t -> unit
(** Adds every bucket of [src], side counters included, into [dst] —
    the factory aggregates the per-circuit meters of a stream into one
    stream-level meter. *)

val kind_bytes : t -> phase:string -> Cost.kind -> int
val data_bytes : t -> phase:string -> int
val framing_bytes : t -> phase:string -> int
val phase_total : t -> phase:string -> int
val steps : t -> phase:string -> (string * int) list
val phases : t -> string list
val grand_total : t -> int

(** {1 Side counters}

    Labelled byte attributions kept apart from the phase tables: either
    bytes those tables never see (socket envelopes) or a re-attribution
    of frames they already count (routed deliveries, factory refills).
    Side counts never feed the phase/kind/step totals, so those stay
    equal to an unsocketed one-shot run of the same seeds. *)

type side =
  | Conn_sent  (** envelope bytes the daemon sent on a connection *)
  | Conn_received  (** envelope bytes the daemon received on it *)
  | Route_full  (** full-frame bytes routed to a subscription *)
  | Route_digest  (** compact checksum-record bytes routed to it *)
  | Route_suppressed
      (** full-frame bytes routing avoided for it: what a broadcast
          daemon would have shipped instead of each digest record *)
  | Refill
      (** factory refill bytes of one preprocessing batch (e.g. ["c3/layer2"]:
          circuit 3, layer-2 packed shares) *)

val record_side : t -> side -> label:string -> int -> unit
(** Adds bytes to one [(side, label)] counter.
    @raise Invalid_argument on a negative count. *)

val side_counts : t -> side -> (string * int) list
(** Per-label bytes of one side counter, sorted by label. *)

val side_total : t -> side -> int
(** Summed bytes of one side counter over every label. *)

val refills : t -> (string * int) list
(** [side_counts t Refill]. *)

val routing_ratio : t -> float
(** [full / (full + suppressed)] over all subscriptions — the fraction
    of the broadcast-equivalent volume actually shipped in full.
    [1.0] when nothing was suppressed. *)
