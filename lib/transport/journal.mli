(** Write-ahead journal for the bulletin-board daemon.

    The board is the only durable artifact of a YOSO run, so the
    daemon appends every accepted frame to this log {e before}
    broadcasting it.  A restarted daemon reopens the journal, rebuilds
    its sequence counter, board contents and report table from the
    records it holds, then resumes serving; reconnecting clients catch
    up on the gap via the [Recover] handshake.

    The journal is one file of {!Envelope}s, the very [Start], [Post]
    and [Report] messages the daemon speaks, in the order it accepted
    them.  The envelope checksum covers header and body, so {!scan}
    returns the longest intact prefix: a torn tail -- the expected
    state after a crash mid-append -- is incomplete or fails the
    checksum and never yields a partial record.

    Appends go straight to the fd ([Unix.write], no userland
    buffering) and are fsynced in batches of [fsync_every]: an
    in-process restart therefore never loses an accepted record, and
    the power-loss window is bounded by the batch size. *)

val scan : string -> Envelope.msg list * int
(** [scan data] feeds a journal's bytes through an {!Envelope.stream}
    and returns the longest intact prefix of records and its byte
    length.  The scan stops at the first envelope that is incomplete
    or rejected, or that is not a [Start], [Post] or [Report]. *)

type t

val open_append : ?fsync_every:int -> path:string -> unit -> Envelope.msg list * t
(** Reads the file at [path] once (a missing file is empty), returns
    the records of its intact prefix ({!scan}) and opens it for
    append, creating it if missing.  A torn tail left by a crash is
    truncated first, so new records always land after the last intact
    one (appends after garbage would be invisible to {!scan}).
    [fsync_every] defaults to {!Transport_policy.default}'s batch
    size.
    @raise Invalid_argument if [fsync_every < 1]. *)

val append : t -> Envelope.msg -> unit
(** Appends one record, {!Envelope.encode}d; fsyncs when the batch
    counter fills.  Only [Start], [Post] and [Report] are journal
    records: any other message ends {!scan} where it was appended. *)

val close : t -> unit
(** Syncs and closes.  Idempotent. *)

val bytes : t -> int
(** Total file size in bytes (intact prefix + appends). *)

val appended : t -> int
(** Records appended through this handle. *)
