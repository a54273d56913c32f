(** [Pi_YOSO-Offline] (Protocol 4).

    Circuit-dependent preprocessing, executed by a chain of offline
    committees over the bulletin board:

    + {b Beaver triples} — committees [Off-B1]/[Off-B2] jointly
      produce an encrypted triple [(c^x, c^y, c^z)] per multiplication
      gate (Protocol 3).
    + {b Random wire values} — committee [Off-R] contributes random
      [lambda] summands for every input-gate and mult-gate output
      wire; addition wires get [lambda]s homomorphically.
    + {b Dependent wire values} — for each mult gate, the tsk-holder
      chain decrypts [epsilon = lambda_alpha + x] and
      [delta = lambda_beta + y] (batched, [2 * gates_per_committee]
      per committee) and everyone computes the encryption of
      [Gamma = lambda_alpha * lambda_beta - lambda_gamma].
    + {b Packing} — committees [Off-P] contribute the [t] helper
      randoms per packed vector; everyone homomorphically evaluates
      the Lagrange map that turns [k] wire ciphertexts + [t] helpers
      into [n] encrypted packed shares (degree [t + k - 1]).
    + {b Re-encryption to the future} — the tsk chain re-encrypts
      input-wire [lambda]s to client KFFs and packed shares to the
      KFFs of the online roles that will consume them.

    Total communication: [O(n)] ring elements per gate (Theorem 1). *)

module F = Yoso_field.Field.Fp
module Te = Ideal_te
module Layout = Yoso_circuit.Layout
module Circuit = Yoso_circuit.Circuit

type input_prep = {
  client : int;
  wires : Circuit.wire array;
  lambda_reencs : F.t Committee_ops.reenc array;  (** per wire, under the client's KFF *)
}

type mult_prep = {
  batch : Layout.mult_batch;
  alpha_shares : F.t Committee_ops.reenc array;  (** packed share of [lambda_alpha] for role [i] *)
  beta_shares : F.t Committee_ops.reenc array;
  gamma_shares : F.t Committee_ops.reenc array;  (** packed share of [Gamma_gamma] *)
}

type t = {
  layout : Layout.t;
  wire_lambda : F.t Te.ct array;  (** [c^lambda] per wire (output step needs these) *)
  input_preps : input_prep list;
  mult_preps : mult_prep list array;  (** index [l - 1] = preps of layer [l] *)
  final_holder : Committee_ops.holder;
      (** the committee holding tsk at the end of preprocessing; the
          online phase consumes it for future-key distribution *)
}

(** {1 Amortization options}

    Both amortizations change what goes on the board (extra audit
    posts, bundled re-encryption rounds), hence the transcript — they
    default off so the one-shot path stays byte-identical to the
    pre-split protocol.  Streamed runs and their one-shot comparison
    runs must enable the same opts for digest equality to hold. *)
type opts = {
  audit_triples : bool;
      (** post one aggregated {!Yoso_shamir.Feldman.Product} proof
          batch per triple chunk and verify it by random linear
          combination ({!Yoso_shamir.Feldman.Product.verify_batch});
          a bad triple aborts with
          {!Yoso_runtime.Faults.Protocol_failure} after exact
          attribution *)
  audit_tamper : int list;
      (** adversary/test hook: gate indices whose audited [z]
          commitment is shifted by [h] before verification *)
  packed_reenc : bool;
      (** ciphertext-level batching of the tsk-chain re-encryptions to
          KFF ({!Committee_ops.reencrypt_packed}): posts are charged
          [distinct targets + n] ciphertexts instead of [len + n] *)
}

val default_opts : opts
(** Everything off. *)

(** {1 Streaming producer interface}

    The offline protocol as an incremental stream of typed
    preprocessing batches — what the factory's producer steps through,
    timing and metering each batch before it assembles them.  Items
    arrive in a fixed order (wire lambdas, input preps, one item per
    mult layer, the final tsk holder), with exactly the board posts of
    the one-shot path. *)
type item =
  | Lambdas of F.t Te.ct array
  | Inputs of input_prep list
  | Layer of int * mult_prep list
  | Holder of Committee_ops.holder

val item_kind : item -> string
(** Batch label: ["lambdas"], ["inputs"], ["layer<i>"], ["holder"]. *)

type stream_state

val start : ?opts:opts -> Committee_ops.ctx -> Setup.t -> Layout.t -> stream_state
(** Builds the stepper; no committee runs until {!prepare_batch}. *)

val prepare_batch : stream_state -> item option
(** Runs the next production stage (posting its committees) and
    returns the next ready item; [None] once every batch is out. *)

val assemble : Layout.t -> item list -> t
(** Reassembles a drained stream into the one-shot preprocessing
    value.  @raise Failure if an item kind is missing. *)

val run : ?opts:opts -> Committee_ops.ctx -> Setup.t -> Layout.t -> t
(** {!start} + drain + {!assemble}: the one-shot path is a degenerate
    single-stream run, byte-identical in transcript to the pre-split
    implementation at equal seeds (with default [opts]). *)

(** {1 Consumption source}

    {!Online} draws material through a [source] — thunks rather than a
    record of arrays — so a caller can observe each draw (the
    benchmark times the online stages this way) by wrapping the
    thunks of {!source_of}. *)
type source = {
  src_layout : Layout.t;
  src_layers : int;
  src_wire_lambda : unit -> F.t Te.ct array;
  src_input_preps : unit -> input_prep list;
  src_mult_preps : int -> mult_prep list;
  src_final_holder : unit -> Committee_ops.holder;
}

val source_of : t -> source
