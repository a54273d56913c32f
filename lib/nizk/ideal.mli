(** Ideal NIZK argument-of-knowledge functionality.

    The complex relations of Protocols 1-2 ([Re-encrypt]/[Decrypt]:
    correct share reconstruction, partial decryption, re-sharing and
    re-encryption, all inside one statement) would require a general
    zkSNARK (Groth-Maller [34] in the paper).  Per the DESIGN.md
    substitution table, we model that proof system as an *ideal
    functionality*: a proof object binds (relation, statement) by
    keeping both strings, and carries a validity bit that an honest
    prover sets by actually checking its witness.

    - {b Completeness/soundness}: perfect by construction — [verify]
      accepts iff the prover's witness check passed and the statement
      is the one proven.
    - {b Zero-knowledge}: trivial — the proof contains only public
      data (the relation and statement it was made for) and one bit.
    - {b Binding}: [verify] compares the proof's relation and
      statement with its own by string equality.  An ideal proof
      never leaves the process, so a digest would add a SHA-256 per
      post and no soundness.
    - {b Size accounting}: a constant {!size_bits} (256) on the wire,
      whatever the statement's length, matching the paper's
      constant-size proof assumption.

    Honest protocol code must call {!prove} with the real witness
    check; adversarial code proves with [witness_ok = false] (a proof
    that can never verify) or mutates statements (detected by the
    binding). *)

type proof

val prove : relation:string -> statement:string -> witness_ok:bool -> proof
(** The caller evaluates its witness against the relation and passes
    the result; honest provers always have [witness_ok = true], and
    [witness_ok = false] is what a malicious role can produce for a
    false statement. *)

val verify : relation:string -> statement:string -> proof -> bool

val size_bits : int
