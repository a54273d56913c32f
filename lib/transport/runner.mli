(** Orchestrator: forks one OS process per committee slot, stands up
    the bulletin-board {!Daemon} in the parent, hands each child a
    {!Yoso_net.Board.link} wired to a {!Client}, and collects the
    final reports.

    Every child runs the {e same} seeded protocol; the link decides,
    per board frame, whether this child physically ships the frame or
    blocks on the daemon's delivery, and whether it materializes the
    frame at all.  The rule is {!Topology.local}: a child materializes
    exactly the frames it owns or receives in full (those of its
    quorum sources) and byte-compares every received full frame
    against its own replay; every other frame is a zero-filled
    skeleton of identical wire weight, checked against the daemon's
    digest record (checksum + length).  At the default full quorum
    this is replicated execution.  The board digest chains the
    authoritative checksum of whatever crossed the wire, so all
    children produce byte-identical reports — [agree] is the cheap
    agreement oracle — and a fault-free member's report equals a plain
    in-process run's with the same seeds.  What the transport did is
    in [stats] only. *)

module Board = Yoso_net.Board

type endpoint = [ `Unix_socket | `Tcp ]
(** [`Unix_socket] binds a fresh socket under the temp dir;
    [`Tcp] binds 127.0.0.1 on an ephemeral port. *)

type result = {
  reports : (int * string) list;  (** slot-sorted report JSON from each child *)
  down : int list;  (** slots that died before reporting *)
  agree : bool;  (** all collected reports byte-identical *)
  wall_ms : float;
  restarts : int;  (** daemon lives lost to chaos kill points *)
  stats : Daemon.stats;  (** summed field-wise across daemon lives *)
  children : (int * Unix.process_status) list;  (** slot -> exit status *)
}

val run :
  ?endpoint:endpoint ->
  ?deadline_ms:float ->
  ?crash:int * int ->
  ?journal:string ->
  ?chaos:Chaos.t ->
  ?topology:Topology.t ->
  nslots:int ->
  seed:int ->
  child:(slot:int -> link:Board.link -> string) ->
  unit ->
  result
(** Runs one full multi-process committee execution.  [child] is
    executed in each forked process and returns its report JSON;
    [crash = (slot, m)] arms the crash drill on one slot.  The parent
    never runs [child]; it serves the board and reaps the children.
    Default endpoint is [`Unix_socket]; timing comes from
    {!Transport_policy.default}, with [deadline_ms] overriding the
    per-round receive deadline.

    [journal] enables the daemon's write-ahead journal at that path;
    [chaos] injects seeded socket faults.  When a chaos kill point
    fires the daemon is restarted in place on the same listen socket,
    recovering the board from the journal — [restarts] counts the
    lives lost; clients ride the restart out via their reconnect
    path.  [topology] (default {!Topology.make}: full quorum) sets the
    delivery quorum.
    @raise Invalid_argument if [chaos] schedules kill points without
    a [journal]. *)

val json_int_field : string -> field:string -> int option
(** Tiny extractor for ["field": <int>] from the flat report JSON —
    enough to pull digests out of reports for equality checks without
    a JSON dependency. *)
