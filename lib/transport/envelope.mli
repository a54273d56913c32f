(** Transport envelope: the daemon protocol's message codec.

    Everything that crosses a transport socket is one envelope:

    {v magic "YT" | version 2 | type | body length (4B LE) | body | checksum (8B LE) v}

    The checksum ({!Yoso_net.Wire.checksum} over the eight header
    bytes and the body) is verified on ingest, so a corrupted envelope
    is rejected at the transport layer: a changed type or length byte
    fails it as a changed body byte does.  The bulletin frames
    carried {e inside} [Post] bodies and [Full] records keep their own
    [Wire] checksums and are re-verified by the receiving protocol
    code (a tampered frame must land on the board and be excluded
    there, not vanish in transit).

    The daemon's write-ahead {!Journal} is a file of the same
    envelopes: the [Start], [Post] and [Report] messages it accepted,
    in order.

    The declared body length is capped ({!default_max_body}, tied to
    {!Yoso_net.Wire.max_frame_len}): an oversized header is rejected
    {e before} any body byte is buffered, so a malicious peer cannot
    force unbounded allocation. *)

exception Envelope_error of string
(** Malformed envelope: bad magic/version/type (including the retired
    types 4 and 10), body over the cap, checksum mismatch, or an
    undecodable body.  The decoder raises no other exception on any
    input bytes. *)

type record =
  | Full of { seq : int; slot : int; frame : string }
      (** a whole bulletin frame, delivered to the owner's quorum *)
  | Digest of { seq : int; slot : int; csum : int; len : int }
      (** everyone else's copy: the frame's {!Yoso_net.Wire.checksum}
          (computed by the daemon on ingest) and byte length — enough
          to chain the transcript digest and check wire weight without
          shipping the content *)

type msg =
  | Hello of { slot : int; nslots : int; seed : int }
      (** client -> daemon, once per connection *)
  | Start of { nslots : int }
      (** daemon -> clients when all [nslots] slots said hello *)
  | Post of { seq : int; slot : int; frame : string }
      (** client -> daemon: the owner ships board frame [seq] *)
  | Peer_down of { slot : int }
      (** daemon -> all clients: that slot's connection died *)
  | Report of { slot : int; json : string }
      (** client -> daemon: final protocol report *)
  | Shutdown  (** daemon -> clients: orderly end of the run *)
  | Recover of { slot : int; nslots : int; seed : int; next_seq : int }
      (** client -> daemon on reconnect: [next_seq] is the first
          delivery the client has {e not} seen — the daemon replays
          the journal gap from there *)
  | Recovered of { next_seq : int; started : bool }
      (** daemon -> reconnecting client: the board's high-water mark
          (next sequence number to be assigned) and whether the run
          has started; deliveries for the gap follow in order *)
  | Deliver_batch of record list
      (** daemon -> clients, the only delivery message: one flush's
          worth of [Full] and [Digest] records (live deliveries and
          catch-up replay alike), coalesced into a single envelope.
          Records are in strict [seq] order, both within a batch and
          across consecutive batches on one connection. *)

val pp_msg : Format.formatter -> msg -> unit

val record_size : record -> int
(** Conservative encoded size of one batch record (used by the
    daemon's flush-on-cap logic). *)

val header_len : int
(** Fixed envelope header size (magic + version + type + length). *)

val trailer_len : int
(** Checksum trailer size.  The checksum covers header and body. *)

val default_max_body : int
(** Default cap on the declared body length. *)

val encode : msg -> string
(** Full envelope bytes: header, body, checksum. *)

(** {1 Streaming decoder}

    Sockets deliver envelopes in arbitrary chunks; the stream
    reassembles them.  Feed whatever arrived, then drain with
    {!next} — an envelope split at every byte boundary still
    decodes. *)

type stream

val stream : ?max_body:int -> unit -> stream

val feed : stream -> string -> unit
val feed_bytes : stream -> bytes -> int -> unit
(** [feed_bytes st buf len] appends the first [len] bytes of [buf]. *)

val next : stream -> msg option
(** The next complete envelope, or [None] if more bytes are needed.
    @raise Envelope_error on a malformed envelope (the stream is then
    poisoned — the connection must be dropped). *)

val needed : stream -> int
(** Bytes still missing before {!next} can produce the envelope at the
    front of the buffer; [0] when one is already complete.  Lets a
    blocking reader ask for exactly the right amount.
    @raise Envelope_error if the buffered header is malformed. *)

val buffered : stream -> int
(** Bytes currently held waiting for a complete envelope. *)
