(** Deterministic, seedable fault plans for active-adversary
    execution.

    A {!plan} decides, per role per committee, {e how} a corrupted
    role misbehaves when its committee speaks: malicious roles draw an
    active fault (tampered shares, forged proofs, wrong-degree
    sharings, garbage ciphertexts), fail-stop roles either stay silent
    or post past the round deadline.  Assignments are pure functions
    of [(seed, committee name, role index)], so any execution — and
    any failure it produces — can be replayed exactly from the seed.

    The honest side records everything it detects in a {!log} (the
    blame list surfaced in [Protocol.report]) and signals an
    unrecoverable shortfall of verified contributions with the
    structured {!Protocol_failure} exception instead of a wrong output
    or an [Invalid_argument] escaping from deep inside
    reconstruction. *)

type kind =
  | Tamper_share  (** post corrupted share values / partial decryptions *)
  | Bad_proof  (** post well-formed data under a forged NIZK transcript *)
  | Wrong_degree  (** post shares drawn off a wrong-degree polynomial *)
  | Garbage_ciphertext  (** post an undecodable blob *)
  | Silent  (** fail-stop: post nothing at all *)
  | Delayed  (** post after the round deadline; verifiers ignore it *)

val kind_to_string : kind -> string

val active_kinds : kind list
(** The four tampering kinds — faults where the role posts onto the
    bulletin board under a forged proof, and verifiers reject it. *)

val is_active : kind -> bool
(** [true] for tampering kinds, [false] for [Silent]/[Delayed]. *)

type plan

val random : seed:int -> plan
(** Hash-based assignment: each malicious role independently draws one
    of {!active_kinds}, each fail-stop role draws [Silent] (2/3) or
    [Delayed] (1/3), keyed by [(seed, committee, index)]. *)

val always : kind -> plan
(** Every malicious role uses [kind] (fail-stop roles too, when [kind]
    is [Silent] or [Delayed]; otherwise they stay [Silent]). *)

val silent : plan
(** Malicious roles behave like crashed ones: they post nothing.  The
    pure-omission corruption model earlier revisions hard-coded. *)

val malicious_kind : plan -> committee:string -> index:int -> kind
val fail_stop_kind : plan -> committee:string -> index:int -> kind
(** Always [Silent] or [Delayed]. *)

(** {1 Blame log} *)

type blame = {
  role : Role.id;  (** who misbehaved *)
  kind : kind;  (** how *)
  phase : string;
  step : string;  (** which protocol step detected it *)
}

type log

val create_log : unit -> log
val record : log -> blame -> unit
val blames : log -> blame list
(** Detection order. *)

val faults_detected : log -> int
(** Every recorded deviation, including silent/delayed omissions. *)

val posts_rejected : log -> int
(** Posts that made it onto the board and were excluded by verifiers
    (active tampering plus delayed posts). *)

val summary : log -> (kind * int) list
(** Detection counts per kind, omitting zero rows. *)

val blame_summary : blame list -> (kind * int) list
(** {!summary} over an extracted blame list (e.g. the one a
    [Protocol.report] carries). *)

(** {1 Structured abort} *)

type failure = {
  f_phase : string;
  f_step : string;
  f_committee : string;
  surviving : int;  (** verified contributions that survived exclusion *)
  required : int;  (** threshold the step needed *)
}

exception Protocol_failure of failure
(** Raised by honest protocol code when, after detect-and-exclude, a
    committee step retains fewer verified contributions than its
    threshold.  Registered with [Printexc] for readable traces. *)

val failure_to_string : failure -> string
