(** The bulletin board as a network service.

    Wraps the abstract {!Yoso_runtime.Bulletin} so that every post is
    a real transmission: the message is encoded to a canonical
    {!Wire} frame, sent through the {!Sim} network, and — if it
    arrives — integrity-checked.  Fault behaviours become genuine
    network events: a [Delayed] role is a frame that misses its round
    deadline, a corrupted payload is a frame that fails its checksum,
    and (under lossy models) an honest post can simply vanish.

    No frame is decoded on the protocol's path.  Two checks run where
    frame bytes cross a process boundary: the board daemon verifies
    each [Post] envelope's checksum on ingest and forwards the inner
    frame undecoded (it computes only its {!Wire.checksum}), and
    {!commit} compares what a {!link} delivers with the local replay
    (bytes for a materialized frame, length for a skeleton).  The
    sender never decodes its own frame: {!Wire.to_frame} emits only
    frames {!Wire.of_frame} accepts, and the one flipped byte of a
    [corrupt] frame always fails the checksum, so a sender-side
    decode could only ever answer [not corrupt].

    A frame is written only when a {!link} needs its bytes (its owner
    sends them, a receiver compares them) or it is [corrupt]: then
    {!prepare} encodes it into the encoder's per-domain scratch buffer
    ({!Wire.with_frame}) and copies it out.  Otherwise it writes no
    byte: {!Wire.frame_checksum} folds the synthesized weight into the
    checksum as it is drawn, and {!prepare} keeps the frame's length,
    checksum and payload tally, which is all {!commit} needs.

    Under {!default_config} (ideal network) every post is [Delivered]
    unless forced late, so protocol behaviour — post counts, blame
    verdicts, element tallies — is identical to the unsimulated board;
    the network layer only *adds* the byte measurements. *)

module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role

type config = { model : Sim.model; round_ms : float; net_seed : int }

val default_config : config
(** {!Sim.ideal}, 100 ms rounds, seed 1.  Synthesized wire weight is
    always sized by {!Wire.default_sizing}. *)

type outcome = Delivered | Late | Dropped | Garbled

val outcome_to_string : outcome -> string

(** {1 Transport link}

    A link plugs a genuine inter-process transport behind the board
    façade.  Every committee-member process replays the same
    deterministic commit sequence; the link makes every frame cross a
    real process boundary: the process that {e owns} the author sends
    the encoded frame to the board daemon, every other process blocks
    until the daemon routes it.  [seq] is the frame counter (the
    commit index), identical in all replicas; [phase] names the
    protocol phase the frame belongs to (for interest bookkeeping).

    [local] is the role-local execution switch: when it returns
    [false] for an author, this process prepares that author's frames
    as zero-filled {e skeletons} of identical wire weight
    ({!Wire.frame_checksum} without an RNG) and keeps only their
    length — the content arrives through [recv], either in full
    ([`Frame]) or as the daemon's [`Summary (checksum, length)] digest
    record.  A frame this process
    owns or prepares [local]ly is copied out of the scratch buffer,
    since [send] or the byte comparison needs it.  Owners must always
    be [local]; a full-broadcast link returns [true] for everyone
    (replicated execution).

    [recv] returning [`Down] means the owning process is gone (socket
    EOF or round-deadline timeout); the commit is treated exactly like
    a dropped frame, so silent peers flow into the fault-detection
    path unchanged.  A received frame that differs from the local
    replay — byte equality when the frame was materialized locally,
    wire-weight equality for skeletons — is treated like a frame that
    fails its integrity check ([Garbled]). *)
type delivery = [ `Frame of string | `Summary of int * int | `Down ]

type link = {
  owns : Role.id -> bool;
  local : Role.id -> bool;
  send : seq:int -> phase:string -> author:Role.id -> frame:string -> unit;
  recv : seq:int -> phase:string -> author:Role.id -> delivery;
  stats : unit -> int * int;
      (** [(reconnects, caught_up)]: connection recoveries this link's
          transport survived and deliveries replayed through them;
          [(0, 0)] for a transport that cannot drop connections *)
}

type transcript = { frames : int; frame_bytes : int; digest : int }
(** Rolling summary of every frame ever put on the wire (including
    dropped and garbled ones); two runs with equal seeds produce equal
    transcripts byte for byte. *)

val digest_seed : int
(** The transcript digest before any frame. *)

val chain_digest : int -> int -> int
(** [chain_digest d csum] folds one frame's {!Wire.checksum} into the
    digest [d].  Every transcript digest, the board's and the socket
    daemon's, is [digest_seed] chained over the frames in commit
    order. *)

type t

val create : ?config:config -> unit -> t

val set_link : t -> link option -> unit
(** Installs (or clears) the transport behind the façade.  With no
    link every exchange is local and behaviour is exactly the
    simulated board of PR 2. *)

val post :
  t ->
  author:Role.id ->
  phase:string ->
  step:string ->
  ?items:Wire.item list ->
  ?corrupt:bool ->
  ?force_late:bool ->
  cost:(Cost.kind * int) list ->
  unit ->
  outcome
(** Encode, transmit, deliver.  [items] carry real element data
    (e.g. the online field payloads); any part of [cost] they do not
    cover is synthesized at {!Wire.default_sizing} so the frame has
    the full wire weight of the post.  [corrupt] flips a byte in
    flight: the flipped frame is transmitted and chained into the
    transcript, and the post is [Garbled] unless it is dropped or
    late.  [force_late] stalls the sender past the round deadline.
    Element counts are charged to the bulletin's {!Cost.t}; measured
    bytes are charged to the {!Meter}, and nowhere else.

    Equivalent to {!prepare} (tagged by a per-round post counter)
    followed immediately by {!commit}. *)

(** {1 Split posting}

    A post factors into a pure, parallelizable half ({!prepare}:
    payload synthesis, frame encoding, checksum) and a sequential half
    ({!commit}: transcript digest chain, cost metering, transmission,
    link consistency check, bulletin slot).  Committee fan-out
    prepares all members' frames concurrently, then commits them in
    index order, so the board observes the same sequence — and hashes
    to the same digest — as a fully sequential run. *)

type prepared
(** A frame ready to commit: encoded and checksummed.  It keeps the
    frame's length, its checksum, whether it was corrupted and the
    payload byte tally, not the message items; the frame bytes only
    when the board's link needs them. *)

val prepare :
  t ->
  author:Role.id ->
  phase:string ->
  step:string ->
  ?items:Wire.item list ->
  ?corrupt:bool ->
  ?force_late:bool ->
  cost:(Cost.kind * int) list ->
  tag:int ->
  unit ->
  prepared
(** Pure given [(config, tag)]: safe to call from worker domains.
    [tag] seeds the synthesized blob bytes (via a stateless mix with
    the net seed) and must be unique per post within a round —
    committee fan-out uses the member index. *)

val commit : t -> prepared -> outcome
(** Mutates the board: digest chain, meter, network transmission,
    bulletin slot.  Must be called from one domain, in the intended
    board order, under the link the frame was prepared with: raises
    [Invalid_argument] if a link now needs bytes {!prepare} did not
    keep. *)

val next_round : t -> unit

val sim : t -> Sim.t
val meter : t -> Meter.t
val config : t -> config
val cost : t -> Cost.t
val registry : t -> Role.Registry.t
val length : t -> int
val round : t -> int
val sim_stats : t -> Sim.stats
val transcript : t -> transcript
