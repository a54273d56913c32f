(** Write-ahead journal for the bulletin-board daemon.

    The board is the only durable artifact of a YOSO run, so the
    daemon appends every accepted frame to this log {e before}
    broadcasting it.  A restarted daemon replays the journal to
    rebuild its sequence counter, board contents and report table,
    then resumes serving; reconnecting clients catch up on the gap via
    the [Recover] handshake.

    Record layout:

    {v | body length (4B LE) | body | checksum (8B LE) | v}

    where [body] is a varint record kind followed by the kind's
    fields, and the checksum is {!Yoso_net.Wire.checksum} over the
    body.  {!replay} returns the longest intact prefix: a torn tail —
    the expected state after a crash mid-append — is detected by the
    length or checksum check and never yields a partial record.

    Appends go straight to the fd ([Unix.write], no userland
    buffering) and are fsynced in batches of [fsync_every]: an
    in-process restart therefore never loses an accepted record, and
    the power-loss window is bounded by the batch size. *)

type record =
  | Started of { nslots : int }  (** the run's [Start] was broadcast *)
  | Posted of { seq : int; slot : int; frame : string }
      (** board frame [seq], accepted from [slot] *)
  | Reported of { slot : int; json : string }  (** final report landed *)

val pp_record : Format.formatter -> record -> unit

val encode_record : record -> string
(** Exact on-disk bytes of one record (exposed for tests). *)

type t

val open_append : ?fsync_every:int -> path:string -> unit -> t
(** Opens (creating if missing) for append.  A torn tail left by a
    crash is truncated first, so new records always land after the
    last intact one (appends after garbage would be invisible to
    {!replay}).  [fsync_every] defaults to
    {!Transport_policy.default}'s batch size.
    @raise Invalid_argument if [fsync_every < 1]. *)

val append : t -> record -> unit
(** Appends one record; fsyncs when the batch counter fills. *)

val close : t -> unit
(** Syncs and closes.  Idempotent. *)

val path : t -> string

val bytes : t -> int
(** Total file size in bytes (restored prefix + appends). *)

val appended : t -> int
(** Records appended through this handle. *)

val replay : string -> record list
(** Parses the journal at [path] and returns the longest intact prefix
    of records.  A missing file, a torn tail or a corrupted record
    ends the replay at the last complete record — a partial or
    checksum-failing record is never returned. *)

val intact_bytes : string -> int
(** Byte length of the longest intact prefix at [path] (0 for a
    missing file) — where {!replay} stopped parsing. *)
