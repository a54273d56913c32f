(** Shared timing policy for the socket transport.

    One place for every retry budget and deadline the transport uses:
    the client's first connect, its reconnect-after-drop budget, the
    per-round receive deadline, the daemon's reconnect grace window
    and watchdog, and the journal's fsync batching.  Daemon, client
    and runner all read the same record, so "how patient is the
    system" is one knob instead of five scattered constants.

    Backoff uses {e full jitter}: sleep is uniform in
    [\[0, min(cap, base * 2^(attempt-1)))], drawn statelessly from
    [(seed, attempt)] — deterministic under replay, decorrelated
    across peers — and the whole retry loop is additionally capped by
    a total elapsed budget so backoff can never overshoot a round
    deadline. *)

type retry = {
  attempts : int;  (** maximum tries *)
  base_ms : float;  (** first backoff step *)
  cap_ms : float;  (** per-sleep ceiling *)
  max_elapsed_ms : float;  (** total wall-clock budget for the loop *)
  jitter : bool;  (** full jitter on each sleep (off = deterministic ladder) *)
}

type t = {
  connect : retry;  (** first connect *)
  reconnect : retry;
      (** reconnect after a drop: a peer that cannot re-reach the
          board inside this budget gives up and takes the ordinary
          silent-fault path *)
  round_deadline_ms : float;  (** client blocking-receive deadline *)
  grace_ms : float;
      (** daemon: how long a dead connection's slot may stay silent
          before [Peer_down] is broadcast — the reconnect window *)
  watchdog_s : float;  (** daemon: whole-run watchdog *)
  fsync_every : int;  (** journal: records per fsync batch *)
}

val default : t
(** [connect]: 10 tries, 20 ms base, 500 ms cap, 5 s budget.
    [reconnect]: 10 tries, 25 ms base, 400 ms cap, 3 s budget.
    10 s round deadline, 1.5 s grace, 120 s watchdog, fsync every 64
    records. *)

val backoff_ms : retry -> seed:int -> attempt:int -> float
(** Sleep (ms) before try [attempt+1] ([attempt >= 1]).  With jitter,
    uniform in [\[0, min(cap_ms, base_ms * 2^(attempt-1)))]; without,
    the capped exponential itself.
    @raise Invalid_argument if [attempt < 1]. *)
