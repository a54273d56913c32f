(** Streaming offline factory: one long-lived producer/consumer
    pipeline running a sequence of circuits.

    A background producer domain opens one {!Yoso_mpc.Protocol}
    session per circuit (seed derived as [Splitmix.mix seed j]), runs
    its offline committees batch by batch
    ({!Yoso_mpc.Offline.prepare_batch}, metering each batch), assembles
    them and hands the session with its whole preprocessing to a
    one-slot {!Depot}.  The consumer (the calling domain) draws each
    circuit in job order and runs its online phase, so circuit [j]'s
    online phase overlaps circuit [j+1]'s preprocessing.  The handoff
    is a whole circuit because the online phase starts with future key
    distribution, which consumes the tsk holder the last offline
    committee hands on: no part of a circuit's online phase can
    overlap its own preprocessing.

    The stream's domains are one pool ({!Yoso_parallel.Pool.shared}):
    the config's [domains - 1] workers plus the producer and the
    consumer, [domains + 1] in all, and every fan-out of either side is
    chunked for all of them.  A side that would block in the depot
    (the consumer waiting for a circuit, the producer for its draw)
    runs the other side's unclaimed chunks meanwhile and sleeps only
    when none is left, so the consumer's wait for the next circuit
    speeds that circuit's preprocessing up instead of idling a core.

    Every session is self-contained (own board, committee ctx, rng
    streams) and its ctx is used by one domain at a time, the depot
    ordering the handover, so each circuit's transcript digest,
    blames and outputs are byte-identical to an independent one-shot
    {!Yoso_mpc.Protocol.execute} at the same derived seed and offline
    opts, with or without an adversary: streaming changes the
    wall-clock schedule, never bytes. *)

module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit

type job = {
  circuit : Circuit.t;
  inputs : int -> F.t array;
}

type circuit_result = {
  index : int;                         (** position in the job array *)
  seed : int;                          (** derived per-circuit seed *)
  report : Yoso_mpc.Protocol.report;
}

type report = {
  results : circuit_result list;       (** in job order *)
  cost : Yoso_runtime.Cost.t;
      (** element counts summed over the stream, with every circuit's
          ["offline"] phase remapped to ["factory"] — refill traffic
          is its own dimension next to setup/online *)
  meter : Yoso_net.Meter.t;
      (** byte meters summed over the stream, plus one refill row per
          produced batch (["c<j>/<kind>"]) attributing the offline
          bytes that batch put on the wire *)
  depot : Depot.stats;
  refills_during_online : int;
      (** batches the producer prepared while the consumer was
          waiting for a circuit or running its online phase — the
          pipeline-overlap witness *)
  circuits : int;
  total_mult : int;                    (** mult gates summed over the stream *)
  wall_ms : float;                     (** whole-stream wall clock *)
  gates_per_sec : float;               (** [total_mult / wall_ms], sustained *)
}

val derived_seed : int -> int -> int
(** [derived_seed base j] is circuit [j]'s session seed — exposed so
    one-shot comparison runs can reproduce it. *)

val stream :
  params:Yoso_mpc.Params.t ->
  ?config:Yoso_mpc.Protocol.config ->
  jobs:job array ->
  unit ->
  report
(** Runs every job through one factory.  [config] (default
    {!Yoso_mpc.Protocol.default_config}) is the per-circuit template;
    only its seed is rewritten per circuit.  At most two circuits are
    alive: the producer starts circuit [j + 2] only once the consumer
    has drawn circuit [j + 1].  The stream holds [domains + 1] domains
    (its pool's [domains - 1] workers, joined when it returns, the
    producer and the calling domain), whatever the process's live
    pool holds.  A circuit's [phase_ms] ["online"] is
    its online phase alone, not the wait for its preprocessing.
    Producer exceptions (including
    {!Yoso_runtime.Faults.Protocol_failure} from an audit) propagate
    to the caller after the producer domain is joined. *)

val report_json : report -> Yoso_runtime.Json.t
(** Stream-level summary as one JSON object: throughput, depot stats,
    refill attribution, and the per-circuit digest/output list. *)
