(** CDN-style MPC over *real* threshold Paillier.

    The genuine-cryptography integration path: whereas
    {!Cdn_baseline} and {!Protocol} run over the ideal TE for
    large-committee communication experiments, this module evaluates a
    circuit over the plaintext ring [Z_N] using

    - {!Yoso_paillier.Threshold} (Shamir-shared Paillier decryption
      exponent, partial decryptions, integral-Lagrange combination),
    - real Fiat-Shamir sigma proofs ({!Yoso_nizk.Sigma}): plaintext
      knowledge for every Beaver/input contribution, and the
      multiplication relation of Protocol 3 for the second Beaver
      committee — verified by the honest majority, so a malicious
      contributor is genuinely *detected* and excluded,
    - the ideal NIZK only for partial-decryption correctness (no
      standard sigma protocol without extra setup; see DESIGN.md).

    Intended for small committees ([n <= 7], test-size moduli):
    everything is executed for real, nothing is mocked.

    {b Step order.}  Each step's proofs are checked as one batch
    ({!Yoso_nizk.Sigma.Plaintext_knowledge.verify_batch},
    {!Yoso_nizk.Sigma.Multiplication.verify_batch}) before the next
    step uses what it accepts:
    + keygen;
    + the first Beaver committee posts its contributions for all m
      triples, checked as one batch of [n * m] proofs;
    + for each triple in turn, a second committee posts its [n]
      contributions, checked as one batch under that triple's [c_a];
    + the clients post every input, checked as one batch before any
      wire is used;
    + the gates are evaluated, opening with the threshold scheme and
      refreshing the key shares once mid-circuit.

    Every random draw comes from one RNG seeded by [seed], in that
    order. *)

module B = Yoso_bigint.Bigint
module Circuit = Yoso_circuit.Circuit

type report = {
  outputs : (int * Circuit.wire * B.t) list;
  modulus : B.t;
  rejected_contributions : int;
      (** contributions whose sigma proofs failed verification *)
}

val execute :
  n:int ->
  t:int ->
  ?bits:int ->
  ?malicious:int list ->
  ?seed:int ->
  circuit:Circuit.t ->
  inputs:(int -> B.t array) ->
  unit ->
  report
(** [malicious] lists committee member indices (0-based) that post
    garbage Beaver contributions with invalid proofs. *)

val expected : modulus:B.t -> Circuit.t -> inputs:(int -> B.t array) -> (int * B.t) list
(** Plain evaluation over [Z_N]. *)

val check : report -> Circuit.t -> inputs:(int -> B.t array) -> bool
