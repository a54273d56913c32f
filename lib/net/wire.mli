(** Canonical wire format for bulletin-board messages.

    Every object a role posts — field elements, ciphertexts, NIZK
    proofs, partial decryptions, public keys — has a length-prefixed
    binary encoding here, one item kind per {!Cost.kind}, so the
    simulated network can charge *measured bytes* rather than abstract
    element counts.

    The format is canonical: a given message has exactly one valid
    encoding, and decoders reject non-canonical input (varints with
    redundant trailing bytes, field elements [>= p], unknown item
    tags, trailing garbage).  Ideal-functionality objects
    (ciphertexts, proofs, ...) have no concrete bit representation in
    this codebase, so they travel as opaque blobs at modeled sizes;
    see {!sizing}. *)

module F = Yoso_field.Field.Fp
module Cost = Yoso_runtime.Cost
module Splitmix = Yoso_hash.Splitmix

exception Decode_error of string
(** Raised by every decoder on malformed, non-canonical, truncated or
    trailing-garbage input. *)

(** {1 Primitives} *)

val put_varint : Buffer.t -> int -> unit
(** Unsigned LEB128. *)

val put_u8 : Buffer.t -> int -> unit

val put_checksum : Buffer.t -> int -> unit
(** 8 bytes, little-endian — carries a full 63-bit {!checksum}, which
    exceeds the canonical varint range. *)

val put_fixed32 : Buffer.t -> int -> unit
(** 4 bytes, little-endian. *)

val put_bytes : Buffer.t -> string -> unit
(** Varint length prefix followed by the raw bytes. *)

val put_field : Buffer.t -> F.t -> unit

type dec = { src : string; mutable pos : int }

val get_varint : dec -> int
val get_u8 : dec -> int
val get_bytes : dec -> string

val get_checksum : dec -> int
(** The 8 bytes {!put_checksum} writes.  Raises [Decode_error] unless
    the value is in [\[0, max_int\]], the range of {!checksum}. *)

val get_field : dec -> F.t

(** {1 Messages} *)

type item =
  | Field_elements of F.t array  (** tag 1 *)
  | Ciphertexts of string array  (** tag 3 *)
  | Proofs of string array  (** tag 4 *)
  | Partial_decs of string array  (** tag 5 *)
  | Public_keys of string array  (** tag 6 *)

type message = { step : string; items : item list }

val item_kind : item -> Cost.kind

val item_payload_bytes : item -> int
(** Bytes of element *data* the item carries, excluding tags and
    length prefixes (those are accounted as framing overhead). *)

val summary : message -> (Cost.kind * int) list
(** Element tally of a message, in {!Cost.all_kinds} order. *)

(** {1 Message codec}

    No protocol path encodes or decodes a bare message: the board
    writes whole frames ({!with_frame}, {!frame_checksum}).  These two
    are the decoder boundary that the codec's tests and fuzzers drive
    directly (round trips, hostile corpora, the encoder's refusals);
    theirs is the interface they serve. *)

val encode_message : message -> string
(** Raises [Invalid_argument] on a message {!decode_message} would
    reject: more than 4096 items or a vector of more than [2^24]
    elements. *)

val decode_message : string -> message
(** The inverse of {!encode_message}.  Counts are checked against the
    bytes that remain before anything of that size is allocated, so a
    short input declaring a huge vector is rejected without
    materializing it. *)

(** {1 Size model for ideal-functionality objects} *)

type sizing = {
  ciphertext_bytes : int;
  proof_bytes : int;
  partial_bytes : int;
  key_bytes : int;
}

val default_sizing : sizing
(** Modeled on 2048-bit threshold Paillier (ciphertexts and partial
    decryptions live in [Z_{N^2}], 512 bytes) with constant-size
    proofs (32 bytes) and 256-byte public keys. *)

val random_blob : Splitmix.t -> int -> string

val items_of_cost : sizing -> Splitmix.t -> (Cost.kind * int) list -> item list
(** Synthesize wire items at modeled sizes for an abstract element
    tally, one item per entry with a positive count, in list order;
    used for objects whose ideal implementation has no bit
    representation.  {!with_frame} writes the same items straight into
    a frame without building them. *)

val payload_tally : sizing -> item list -> (Cost.kind * int) list -> (Cost.kind * int) list
(** [payload_tally sizing items synth] is the {!item_payload_bytes}
    of [items @ items_of_cost sizing rng synth] summed by kind, in
    {!Cost.all_kinds} order, with a kind present iff one of those
    items has it — computed from the counts, without synthesizing. *)

(** {1 Framing} *)

val checksum : string -> int
(** Transport-integrity checksum (not a MAC — authenticity comes from
    the NIZK layer): the polynomial hash
    [(0x1505 * 31^L + sum_i s.[i] * 31^(L-1-i)) mod 2^62] of the [L]
    bytes of [s], evaluated a 64-bit word at a time
    ({!Splitmix.fold_string}). *)

val checksum_after_flip : int -> len:int -> pos:int -> int -> int
(** [checksum_after_flip csum ~len ~pos b] is the {!checksum} of the
    [len]-byte string whose checksum is [csum] once its byte at [pos],
    of value [b], is replaced by [b lxor 0xff] — without reading the
    string: [(csum + ((b lxor 0xff) - b) * 31^(len-1-pos)) mod 2^62]. *)

val to_frame : message -> string
(** [magic "YW"; version; length-prefixed payload; 8-byte checksum].
    The encoder refuses what the decoder rejects: it raises
    [Invalid_argument] where {!encode_message} does, and on a payload
    longer than {!max_frame_len}.  Every frame it returns therefore
    decodes, [of_frame (to_frame m) = m], which is why a sender never
    needs to decode its own frame.  Equivalent to {!with_frame} with
    no synthesized items, copied out. *)

val to_frame_with_checksum : message -> string * int
(** [(f, checksum f)] where [f = to_frame m], raising as {!to_frame}
    does.  The frame's checksum is derived from the same single pass
    over the payload that produces the trailer, so the frame bytes are
    never hashed a second time. *)

val with_frame :
  ?sizing:sizing ->
  ?rng:Splitmix.t ->
  ?synth:(Cost.kind * int) list ->
  message ->
  (Bytes.t -> int -> int -> 'a) ->
  'a
(** [with_frame ~sizing ?rng ~synth m k] encodes the frame of
    [{m with items = m.items @ items_of_cost sizing rng synth}] — with
    zero-filled blobs and field elements when [rng] is absent (the
    frame's wire weight without its content) — and returns
    [k b len csum]: the frame is the first [len] bytes of [b], and
    [csum] its {!checksum}.  The synthesized items are written in
    place, drawing from [rng] exactly as {!items_of_cost} does, so
    every byte equals that encoding.  [b] is a domain-local scratch
    buffer, valid only until [k] returns: [k] copies out what it keeps
    and must not encode another frame.  Raises [Invalid_argument] as
    {!to_frame} does, counting the synthesized items, or on a negative
    modeled size, before anything is written. *)

val frame_checksum :
  ?sizing:sizing -> ?rng:Splitmix.t -> ?synth:(Cost.kind * int) list -> message -> int * int
(** [frame_checksum ~sizing ?rng ~synth m] is [(len, csum)] as
    {!with_frame} passes them to its continuation, raising where it
    raises and leaving [rng] where it leaves it — but it writes no
    frame: the synthesized items are folded into the checksum as they
    are drawn, and a skeleton's zeros in closed form.  For a caller
    that needs only a frame's length and checksum. *)

val of_frame : string -> message
(** Verifies magic, version, framing and checksum before decoding.
    Frames whose declared payload length exceeds {!max_frame_len} are
    rejected before the payload is materialized.  Every input either
    decodes to a message whose {!to_frame} is the input itself, or
    raises {!Decode_error}.  Nothing on the protocol's path calls it:
    the board daemon forwards frames undecoded and computes only their
    {!checksum}.  It is the decoder the test suite's roundtrip
    properties and hostile-frame fuzzers drive, and the one the
    benchmark's frame micro-measurement times. *)

val max_frame_len : int ref
(** Configurable cap on a frame's declared payload length (default
    64 MiB).  A malicious peer announcing an oversized frame is
    rejected with a structured {!Decode_error} instead of forcing an
    unbounded allocation; transports apply the same cap on ingest, and
    {!to_frame} refuses to emit a payload over it. *)
