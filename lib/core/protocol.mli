(** End-to-end driver: setup -> offline -> online on one circuit.

    Wires the phases together over a fresh bulletin board, executes
    the full YOSO MPC protocol, and returns the outputs together with
    the communication-cost breakdown the benchmarks report. *)

module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit

type report = {
  outputs : Online.output list;
  setup_elements : int;
  offline_elements : int;
  online_elements : int;
  setup_bytes : int;     (** measured wire bytes, frames included *)
  offline_bytes : int;
  online_bytes : int;
  online_field_bytes : int;
      (** online field-element *data* bytes — the paper's O(1)-per-gate
          quantity, measured on the wire *)
  posts : int;           (** total bulletin-board posts (speak-once events) *)
  committees : int;      (** committees consumed *)
  num_gates : int;
  num_mult : int;
  faults_detected : int;
      (** every deviation honest verifiers caught: rejected tampered
          posts plus silent/delayed roles *)
  posts_rejected : int;  (** posts excluded after verification failed *)
  blames : Yoso_runtime.Faults.blame list;
      (** who misbehaved, how, and at which step it was detected *)
  net : Yoso_net.Board.net;
      (** the board's rounds and its late and dropped frames; sent
          frames and bytes are the [transcript]'s *)
  transcript : Yoso_net.Board.transcript;
      (** rolling digest of every frame on the wire; equal seeds give
          equal transcripts *)
  meter : Yoso_net.Meter.t;        (** full byte breakdown *)
  phase_ms : (string * float) list;
      (** wall-clock per phase ([setup]/[offline]/[online]); excluded
          from {!report_json} unless [timings] is set, since wall time
          is not deterministic *)
}

val offline_per_gate : report -> float
val online_per_gate : report -> float
val offline_bytes_per_gate : report -> float
val online_bytes_per_gate : report -> float
val online_field_bytes_per_gate : report -> float

(** {1 Configuration}

    Execution knobs, grouped by concern into nested sub-records.
    Build one with the smart constructor {!config}. *)

type exec_config = {
  adversary : Params.adversary;
  plan : Yoso_runtime.Faults.plan option;
      (** [None] means [Faults.random ~seed] *)
  validate : bool;
  seed : int;
  domains : int;
      (** worker domains for committee fan-out (see
          {!Yoso_parallel.Pool}); outputs, blames and the transcript
          digest are identical at every value.  The process keeps one
          live pool: sessions at its domain count share it, so a run
          of circuits at one count pays one spawn and no join.  A
          session at another count joins the idle pool first (while
          the pool is held, it gets a pool of its own, joined when it
          closes) *)
  offline : Offline.opts;
      (** amortization switches for the preprocessing half (triple
          audits, packed re-encryptions); default
          {!Offline.default_opts}.  Non-default opts change the
          transcript, so digest-equality comparisons must use the same
          opts on both sides. *)
}
(** What runs: adversary structure, fault plan, seeds and the
    domain count driving committee fan-out. *)

type net_config = {
  board : Yoso_net.Board.config;
  link : Yoso_net.Board.link option;
      (** [Some link] makes every committed frame cross a real process
          boundary (see {!Yoso_net.Board.link}); [None] keeps the
          exchange in-process.  Verdicts and the transcript are
          identical either way — the link only adds the physical
          carrier and its failure modes *)
}
(** How frames travel: the simulated-network model and, optionally,
    the physical transport link behind the board façade. *)

type config = {
  exec : exec_config;
  net : net_config;
}

val config :
  ?adversary:Params.adversary ->
  ?plan:Yoso_runtime.Faults.plan ->
  ?validate:bool ->
  ?seed:int ->
  ?domains:int ->
  ?offline:Offline.opts ->
  ?board:Yoso_net.Board.config ->
  ?link:Yoso_net.Board.link ->
  unit ->
  config
(** Smart constructor; every omitted knob takes the
    {!default_config} value. *)

val default_config : config
(** No adversary, random fault plan from the seed, validation on,
    seed [0xC0FFEE], ideal network, 1 domain, no link. *)

(** {1 Produce/consume session halves}

    One circuit's run split open, so preprocessing and consumption can
    live on different domains: the offline factory's background
    producer opens a session, drives {!start_stream} /
    {!Offline.prepare_batch} to the end and hands the session with the
    assembled preprocessing to the consumer, which runs {!consume} on
    it.  A session is used by one domain at a time: its committee ctx
    (rng, committee counter) decides who is sampled, so the handover
    must be ordered (the factory's depot mutex does this).  {!execute} is
    open + produce + consume in one call — both paths commit the same
    frames in the same order, so their transcripts are
    byte-identical at equal seeds. *)

type session

val open_session :
  params:Params.t ->
  ?config:config ->
  ?pool:Yoso_parallel.Pool.t ->
  circuit:Circuit.t ->
  unit ->
  session
(** Builds the board, committee ctx and layout, and runs setup
    (posting its frame).  The ctx runs its fan-out on [pool] when one
    is given (the caller's, which the caller keeps and shuts down;
    the config's [domains] is then not read: the factory's stream
    runs both its sides' sessions on one pool).  Otherwise it runs on
    the process's live pool when that has the config's [domains]; if
    not, an idle live pool is joined and one of [domains] is spawned,
    and the session holds that pool until {!close_session}.
    @raise Invalid_argument if [domains] is outside [[1, 128]]. *)

val produce : session -> Offline.t
(** The one-shot produce half: full preprocessing under the session
    config's [offline] opts. *)

val start_stream : session -> Offline.stream_state
(** The streaming produce half: an {!Offline} stepper over this
    session (same opts), for batch-at-a-time refills. *)

val consume : session -> Offline.source -> inputs:(int -> F.t array) -> report
(** The consume half: runs the online phase drawing from [source] and
    assembles the report from the session's board. *)

val close_session : session -> unit
(** Ends the session and releases its hold on the pool, which stays
    live for the next session at its domain count (a pool of the
    session's own is joined here).  Idempotent.  {!execute} closes its
    session itself. *)

val session_board : session -> Yoso_net.Board.t
(** The session's bulletin board — the factory reads its meter between
    {!Offline.prepare_batch} calls to attribute refill bytes, and its
    cost/transcript when aggregating a stream report. *)

val session_layout : session -> Yoso_circuit.Layout.t
(** The packing layout [open_session] computed for the circuit. *)

val record_offline_ms : session -> float -> unit
(** Adds producer-side wall time to the session's offline phase
    timing, for producers that drive {!start_stream} themselves rather
    than calling {!produce}. *)

val execute :
  params:Params.t ->
  ?config:config ->
  circuit:Circuit.t ->
  inputs:(int -> F.t array) ->
  unit ->
  report
(** Runs setup -> offline -> online under [config] (default
    {!default_config}): adversary structure and fault plan (default
    [Faults.random ~seed]).  [config.validate] (default [true])
    rejects beyond-bound adversaries up front with
    [Invalid_argument]; with [validate = false] the protocol executes
    anyway and aborts at run time with the structured
    {!Yoso_runtime.Faults.Protocol_failure} once a committee step
    retains too few verified contributions — never a wrong output. *)

(** Opt-in switches for {!report_json}, consolidated into one
    record. *)
module Report : sig
  type options = {
    timings : bool;  (** emit the per-phase wall-clock object ["phase_ms"] *)
    extra : (string * Yoso_runtime.Json.t) list;
        (** caller-supplied fields appended to the object — used by the
            CLI to attach compiler pass statistics; callers on the
            byte-equality paths must pass deterministic values *)
  }

  val default : options
  (** Everything off: equal-seed reports stay byte-identical, so a
      socket member's report equals the in-process run's byte for
      byte. *)
end

val report_json : ?options:Report.options -> report -> Yoso_runtime.Json.t
(** The report as a single JSON object (counts, per-gate metrics, byte
    totals, network stats, transcript digest, outputs, blames).  It
    carries only what the protocol decided, never which transport
    carried the board.  [options] (default {!Report.default}) switches
    on the non-deterministic extras.  {!Yoso_runtime.Json.to_string}
    gives the text members send across process boundaries. *)

val expected : Circuit.t -> inputs:(int -> F.t array) -> (int * F.t) list
(** Plain (in-the-clear) evaluation, for cross-checking. *)

val check : report -> Circuit.t -> inputs:(int -> F.t array) -> bool
(** Whether the protocol outputs match the plain evaluation. *)
