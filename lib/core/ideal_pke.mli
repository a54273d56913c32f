(** Ideal public-key encryption functionality.

    Models the additively homomorphic PKE of Section 5 at the level
    the protocol uses it: confidential transport of values to a key
    holder.  Secrecy is enforced by type abstraction (a ciphertext's
    payload is only reachable through {!dec} with the matching secret
    key); sizes are accounted by the caller as one {!Yoso_runtime.Cost.Ciphertext}
    per ciphertext, matching the paper's element counting.  See the
    substitution table in DESIGN.md.

    Payloads are polymorphic, which is what lets the protocol express
    the paper's nested keys: a KFF secret key travels inside a TE
    ciphertext, and TE partial decryptions of it travel inside PKE
    ciphertexts ("keys for future", Section 3.2). *)

type pk
type sk

val gen : Yoso_hash.Splitmix.t -> pk * sk

type 'a enc

val enc : pk -> 'a -> 'a enc

val dec : sk -> 'a enc -> 'a
(** @raise Invalid_argument if the key does not match. *)
