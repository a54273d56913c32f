(** EINTR-safe socket I/O primitives.

    Every loop in the transport is built on these two calls:
    {!read_exactly} keeps reading until it has the requested byte
    count (sockets deliver frames in arbitrary chunks — a frame split
    at any byte boundary must still assemble), {!write_all} keeps
    writing until the whole string is on the wire.  Both retry
    [EINTR] transparently, park on [select] for [EAGAIN], and enforce
    an optional absolute deadline on the monotonic clock ({!now}). *)

exception Timeout
(** The deadline passed before the operation completed. *)

exception Closed
(** The peer closed the connection ([read] returned 0, or the write
    side took [EPIPE]/[ECONNRESET]). *)

val read_exactly : ?deadline:float -> Unix.file_descr -> int -> string
(** [read_exactly fd n] returns exactly [n] bytes, looping over
    however many partial reads the kernel delivers.  [deadline] is an
    absolute {!now} instant.
    @raise Timeout if the deadline passes first.
    @raise Closed on EOF. *)

val write_all : ?deadline:float -> Unix.file_descr -> string -> unit
(** Writes the whole string, looping over partial writes.
    @raise Timeout if the deadline passes first.
    @raise Closed if the peer is gone. *)

val connect_with_retry :
  ?retry:Transport_policy.retry -> ?seed:int -> Unix.sockaddr -> Unix.file_descr
(** Creates a stream socket for the address family and connects,
    retrying transient failures ([ECONNREFUSED], [ENOENT],
    [EAGAIN], ...) under [retry] (default {!Transport_policy.default}'s
    [connect]): full-jittered exponential backoff seeded by [seed],
    bounded both by the attempt count and by the total elapsed
    budget — the loop gives up rather than overshoot
    [max_elapsed_ms].  Ignores [SIGPIPE] for the process as a side
    effect — transport code must see write failures as exceptions, not
    signals.
    @raise Unix.Unix_error when the last attempt within budget fails. *)

val now : unit -> float
(** Seconds on the monotonic clock (arbitrary origin, never stepped
    by wall-clock changes).  Every transport deadline, budget and
    grace window is measured on it. *)

val deadline_after : float -> float
(** [deadline_after ms] is the absolute {!now} instant [ms]
    milliseconds from now. *)
