(** Fiat-Shamir transcript.

    A domain-separated, order-sensitive absorb/squeeze object over
    {!Yoso_hash.Sha256}: the prover and verifier absorb the same
    public values in the same order and derive identical challenges.
    Length-prefixed framing makes the encoding injective (no
    concatenation ambiguity). *)

type t

val create : label:string -> t
val absorb : t -> label:string -> string -> unit
val absorb_bigint : t -> label:string -> Yoso_bigint.Bigint.t -> unit

val challenge_bytes : t -> label:string -> int -> string
(** Squeeze [n] challenge bytes; the transcript state advances, so
    subsequent challenges differ. *)

val challenge_bigint : t -> label:string -> bits:int -> Yoso_bigint.Bigint.t
(** Uniform challenge in [\[0, 2^bits)]. *)
