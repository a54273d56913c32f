(** The bulletin-board daemon: a single-threaded, nonblocking
    select/poll event loop serving {!Envelope} traffic over TCP or
    Unix-domain sockets.  Its {!stats} are the one ledger of what the
    socket transport did: member reports carry only what the protocol
    decided, so they equal the in-process run's byte for byte.

    Protocol, per run:
    + every committee-member process connects and sends [Hello];
    + once all [nslots] slots are present the daemon broadcasts
      [Start {nslots}];
    + the owner of board frame [seq] sends [Post {seq; ...}]; the
      daemon verifies the envelope checksum on ingest, checks [seq]
      against the global post counter (posts arrive in strictly
      increasing order — the protocol's commit order is total),
      appends the frame to the write-ahead journal (when one is
      configured) and delivers it to every slot-bound connection as
      one record: a [Full] record if that slot is in the poster's
      quorum ({!Topology.wants_full} — the daemon derives each slot's
      interest from the run's topology, clients register nothing), a
      [Digest] record (checksum + length) otherwise, the poster's own
      ack included.  Records are coalesced into [Deliver_batch]
      envelopes flushed once per event-loop turn (or when a batch
      reaches the body cap);
    + a connection that dies before delivering its [Report] starts a
      {e grace window}; only if the slot fails to reconnect (via the
      [Recover] handshake) before it expires is [Peer_down]
      broadcast, which surviving members map onto the silent-fault
      path — a timely reconnect degrades to latency, not blame;
    + when every slot has either reported or gone down, the daemon
      flushes, sends [Shutdown] and returns.

    {b Crash recovery.}  With [?journal] set, the daemon appends the
    [Start] it broadcasts and every [Post] and [Report] it accepts to
    one {!Journal} file of envelopes, each frame {e before} its
    delivery.  A daemon restarted on the same journal path reads the
    file once and rebuilds from its intact prefix its board, sequence counter,
    digest chain, start flag and report table (a journal [Start] for
    another slot count is refused), then resumes serving on the same listen
    socket; reconnecting clients
    send [Recover] with the next delivery they have not seen and get
    the gap replayed in order, as the very [Full]/[Digest] records
    live delivery would have sent them.  Re-posts of already-accepted
    frames (byte-identical) are absorbed silently — a reconnecting
    owner cannot prove which in-flight posts survived.

    {b Chaos.}  With [?chaos] set, every first-time delivery record
    may be severed, truncated, duplicated or delayed (catch-up replay
    is exempt; per-connection FIFO order is always preserved — a
    delay stalls the whole connection), and scheduled kill points crash the daemon with {!Crashed} right
    after the journal append, so the restarted daemon never
    re-crashes on the same frame.

    Each connection has its own read-reassembly buffer and write
    queue; the daemon never blocks on any single peer.  Inner bulletin
    frames are forwarded undecoded: a tampered frame must reach the
    board and be excluded by verifiers, not vanish in transit. *)

type stats = {
  frames_in : int;  (** [Post] envelopes accepted (duplicates excluded) *)
  frames_out : int;  (** live [Full] records enqueued (per recipient) *)
  digests_out : int;  (** live [Digest] records enqueued (per recipient, acks included) *)
  batches_out : int;  (** [Deliver_batch] envelopes flushed *)
  suppressed_bytes : int;
      (** full-frame bytes live delivery avoided sending (frames
          summarized as [Digest] records instead) *)
  bytes_in : int;
  bytes_out : int;
  reconnects : int;  (** [Recover] handshakes accepted *)
  replayed_frames : int;  (** catch-up records replayed to reconnectors *)
  recovered_frames : int;  (** board frames rebuilt from the journal at startup *)
  journal_bytes : int;  (** journal file size (0 without) *)
  digest : int;
      (** the daemon's own transcript digest, chained over accepted
          posts in sequence order — equal to the sim board digest in a
          fault-free run with equal seeds *)
  chaos_events : (string * int) list;  (** injected faults by kind, sorted *)
  timed_out : bool;
}

type result = {
  reports : (int * string) list;  (** slot-sorted final reports *)
  down : int list;  (** slots that vanished before reporting *)
  stats : stats;
}

exception Crashed of stats
(** A chaos kill point fired: the daemon dropped every connection and
    closed its journal.  The listen socket is untouched — the caller
    restarts [serve] on it with the same journal path to recover. *)

val serve :
  ?policy:Transport_policy.t ->
  ?journal:string ->
  ?chaos:Chaos.t ->
  ?topology:Topology.t ->
  listen:Unix.file_descr ->
  nslots:int ->
  unit ->
  result
(** Runs the event loop on an already-listening socket until the run
    completes (or [policy]'s watchdog fires, in which case
    [stats.timed_out] is set and partial results are returned).
    [policy] (default {!Transport_policy.default}) also sets the
    reconnect grace window and the journal's fsync batch.  [journal] is the
    write-ahead journal path: read once at startup, appended per
    accepted frame.  [topology] (default {!Topology.make}: full
    quorum; its [nslots] must match) sets every slot's full-frame
    sources.  The listen socket is left open; the caller owns it.
    @raise Crashed when a chaos kill point fires.
    @raise Invalid_argument if the journal's [Start] is for another
    slot count. *)
