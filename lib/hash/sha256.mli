(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used as the random oracle of the Fiat-Shamir transform in
    {!Yoso_nizk}.  Verified against the NIST short-message test vectors
    in the test suite. *)

type ctx
(** Streaming hash context (mutable). *)

val init : unit -> ctx
val feed_bytes : ctx -> bytes -> unit
val feed_string : ctx -> string -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest.  The context must not be reused. *)

val digest_string : string -> string
(** One-shot: 32-byte (raw) digest of the input. *)

val hex : string -> string
(** Lowercase hex encoding of a raw digest (or any string). *)
