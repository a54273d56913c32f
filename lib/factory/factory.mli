(** Streaming offline factory: one long-lived producer/consumer
    pipeline running a sequence of circuits.

    A background producer domain opens one {!Yoso_mpc.Protocol}
    session per circuit (seed derived as [Splitmix.mix seed j]), runs
    the offline committees batch by batch
    ({!Yoso_mpc.Offline.prepare_batch}) and pushes the typed items
    into a {!Depot} that holds at most two circuits.  The consumer
    (the calling domain) draws each circuit's session and
    preprocessing from the depot and runs
    the online phase through a depot-backed
    {!Yoso_mpc.Offline.source}, so circuit [j]'s online phase overlaps
    circuit [j+1]'s preprocessing.

    Every session is self-contained (own board, pool, rng streams),
    so each circuit's transcript digest and outputs are byte-identical
    to an independent one-shot {!Yoso_mpc.Protocol.execute} at the
    same derived seed and offline opts — streaming changes wall-clock
    schedule, never bytes. *)

module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit

type job = {
  circuit : Circuit.t;
  inputs : int -> F.t array;
}

(** One depot slot: the circuit's opened session, or one preprocessing
    batch of it. *)
type slot =
  | Session of Yoso_mpc.Protocol.session
  | Item of Yoso_mpc.Offline.item

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
      (** batches the producer deposited while some circuit's online
          phase was executing — the pipeline-overlap witness *)
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
    only its seed is rewritten per circuit.  The depot holds at most
    two circuits, so the producer starts circuit [j + 2] only once
    circuit [j] has been drawn in full.  Producer exceptions (including
    {!Yoso_runtime.Faults.Protocol_failure} from an audit) propagate
    to the caller after the producer domain is joined. *)

val report_json : report -> Yoso_runtime.Json.t
(** Stream-level summary as one JSON object: throughput, depot stats,
    refill attribution, and the per-circuit digest/output list. *)
