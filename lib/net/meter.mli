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
(** Adds every bucket of [src], refills included, into [dst] —
    the factory aggregates the per-circuit meters of a stream into one
    stream-level meter. *)

val kind_bytes : t -> phase:string -> Cost.kind -> int
val data_bytes : t -> phase:string -> int
val framing_bytes : t -> phase:string -> int
val phase_total : t -> phase:string -> int
val steps : t -> phase:string -> (string * int) list
val phases : t -> string list
val grand_total : t -> int

(** {1 Refill attribution}

    Factory refill bytes of each preprocessing batch, labelled (e.g.
    ["c3/layer2"]: circuit 3, layer-2 packed shares).  They re-attribute
    frames the phase tables already count, so they never feed the
    phase/kind/step totals. *)

val record_refill : t -> label:string -> int -> unit
(** Adds bytes to one batch's refill counter.
    @raise Invalid_argument on a negative count. *)

val refills : t -> (string * int) list
(** Per-batch refill bytes, sorted by label. *)

val refill_total : t -> int
(** Summed refill bytes over every batch. *)
