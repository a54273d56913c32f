(** A fixed-size [Domain] worker pool with deterministic data-parallel
    primitives.

    Written from scratch on the OCaml 5 stdlib ([Domain] / [Mutex] /
    [Condition]) — no external scheduler.  The design goal is not
    work-stealing cleverness but {e replayability}: a protocol run
    must produce the byte-identical transcript whether it executes on
    1 domain or 8.  Three rules deliver that:

    - {b static chunking by index} — [map t n f] partitions [0..n-1]
      into [min n (4 * domains)] contiguous chunks of near-equal count,
      whose boundaries depend only on [n] and the pool size; which
      domain runs a chunk is scheduling-dependent, but {e what} each
      index computes is not;
    - {b pre-sized result arrays} — every [f i] writes its result into
      slot [i] of an array allocated up front, so output order never
      depends on completion order;
    - {b derived RNGs} — code running under the pool must never draw
      from a shared mutable stream; see {!derive_rng}.

    Chunks are claimed one at a time, so with four chunks per domain a
    domain that drew cheap indices claims more of them, and a skewed
    job does not serialize behind one domain.

    Several domains may submit to one pool at once: each submitter
    drains its own job to the end, and the workers help any open job
    that still has unclaimed chunks, the oldest first.  A domain that
    has to wait for something outside the pool (the factory's consumer
    for a circuit, its producer for the draw) can {!await} it on the
    pool instead, running open jobs' chunks until its condition holds
    and sleeping only while no chunk is left to claim.  The pool is
    {e not} re-entrant: calling [map] from inside
    a closure already running under the same pool deadlocks the
    caller's chunk.  Protocol code parallelizes one layer at a time
    (the per-member fan-out), which never nests. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (the calling
    domain participates in every [map], so [domains] is the total
    parallelism).  [domains <= 1] spawns nothing and every primitive
    runs inline — the sequential semantics are the specification the
    parallel path is tested against.
    @raise Invalid_argument if [domains < 1] or [domains > 128]. *)

val shared : domains:int -> submitters:int -> t
(** [shared ~domains ~submitters] is a pool whose [domains] include
    [submitters] domains the caller brings: it spawns only
    [domains - submitters] workers and chunks every job as a pool of
    [domains] does.  The submitting domains make up the rest of the
    parallelism by {!await}ing on the pool whenever they would block.
    [create ~domains] is [shared ~domains ~submitters:1].
    @raise Invalid_argument if [domains] is outside [[1, 128]] or
    [submitters] outside [[1, domains]]. *)

val domains : t -> int

val sequential : t
(** A shared 1-domain pool: primitives run inline, no worker state.
    Useful as a default where no parallelism was requested. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] is [[| f 0; f 1; ...; f (n-1) |]], with the [f i]
    evaluated concurrently across the pool's domains.  Each [f i] is
    called exactly once if none raises.  A raising [f i] ends its
    chunk (the chunk's later indices are not run); every other chunk
    still runs, and the first exception recorded is re-raised in the
    caller after all chunks settle.
    [f] must not touch shared mutable state (that includes shared RNG
    streams) and must not call back into the same pool.

    Chunk [c] of the [m = min n (4 * domains)] chunks holds the indices
    [c * n / m] to [(c + 1) * n / m - 1], run in ascending order.
    [n = 0] returns [[||]] without waking a single worker; [n = 1] (or
    a 1-domain pool) runs inline. *)

val iter : t -> int -> (int -> unit) -> unit
(** [iter t n f] runs [f 0 .. f (n-1)] under the pool, for effects
    into caller-allocated per-index slots. Same rules as {!map}. *)

val await : t -> (unit -> bool) -> unit
(** [await t ready] returns once [ready ()] holds.  Until then the
    calling domain claims and runs unclaimed chunks of any open job,
    one at a time, rechecking [ready] after each, and sleeps when no
    chunk is left to claim.  [ready] runs with the pool's lock held,
    so it must be quick and must not use the pool; whoever makes it
    true must call {!wake} afterwards, or the sleeper may never see
    it.  A chunk's exception goes to the job's submitter, never to the
    awaiting domain. *)

val wake : t -> unit
(** Wakes every domain sleeping in {!await} (and every idle worker,
    which finds nothing and sleeps again) to recheck its condition. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent; the pool must not be used
    afterwards.  Shutting down {!sequential} is a no-op. *)

val derive_rng : seed:int -> int -> Random.State.t
(** [derive_rng ~seed i] is a fresh RNG for index [i], derived by a
    stateless avalanche mix of [(seed, i)].  Two calls with equal
    arguments yield identical streams; distinct indices yield
    independent streams.  This is the only sanctioned way for code
    under {!map} to obtain randomness: draw one [seed] from the parent
    stream {e before} entering the pool, then derive per-index. *)

(** {1 Per-chunk profiling} *)

val set_profiling : bool -> unit
(** Toggle the per-chunk timing hook (off by default; one flag for the
    whole process).  While enabled, every chunk drained by any pool
    records [(domain, chunk, ms)] — the worker's index within its pool
    ([0] is a domain that submitted the job or {!await}s on the
    pool), the chunk's position in the job, and
    its wall-clock duration. *)

val drain_profile : unit -> (int * int * float) list
(** Return the samples recorded since the last drain, oldest first,
    and clear the buffer.  [bench par --profile] turns this into the
    per-domain chunk-time breakdown. *)
