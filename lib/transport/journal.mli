(** Write-ahead journal for the bulletin-board daemon.

    The board is the only durable artifact of a YOSO run, so the
    daemon appends every accepted frame to this log {e before}
    broadcasting it.  A restarted daemon replays the journal to
    rebuild its sequence counter, board contents and report table,
    then resumes serving; reconnecting clients catch up on the gap via
    the [Recover] handshake.

    The journal is one file of {!Envelope}s, the very [Start], [Post]
    and [Report] messages the daemon speaks, in the order it accepted
    them.  The envelope checksum covers header and body, so {!replay}
    returns the longest intact prefix: a torn tail -- the expected
    state after a crash mid-append -- is incomplete or fails the
    checksum and never yields a partial record.

    Appends go straight to the fd ([Unix.write], no userland
    buffering) and are fsynced in batches of [fsync_every]: an
    in-process restart therefore never loses an accepted record, and
    the power-loss window is bounded by the batch size. *)

type t

val open_append : ?fsync_every:int -> path:string -> unit -> t
(** Opens (creating if missing) for append.  A torn tail left by a
    crash is truncated first, so new records always land after the
    last intact one (appends after garbage would be invisible to
    {!replay}).  [fsync_every] defaults to
    {!Transport_policy.default}'s batch size.
    @raise Invalid_argument if [fsync_every < 1]. *)

val append : t -> Envelope.msg -> unit
(** Appends one record, {!Envelope.encode}d; fsyncs when the batch
    counter fills.  Only [Start], [Post] and [Report] replay: any
    other message ends {!replay} where it was appended. *)

val close : t -> unit
(** Syncs and closes.  Idempotent. *)

val bytes : t -> int
(** Total file size in bytes (restored prefix + appends). *)

val appended : t -> int
(** Records appended through this handle. *)

val replay : string -> Envelope.msg list
(** Feeds the journal at [path] through an {!Envelope.stream} and
    returns the longest intact prefix of records.  Replay stops at the
    first envelope that is incomplete or rejected, or that is not a
    [Start], [Post] or [Report]; a missing file replays as empty. *)

val intact_bytes : string -> int
(** Byte length of the longest intact prefix at [path] (0 for a
    missing file): the file length less what the stream still held
    where {!replay} stopped. *)
