(** [Pi_YOSO-Online] (Protocol 5).

    Consumes the preprocessing of {!Offline} once inputs are known:

    + {b Future key distribution} — the tsk-holder committee
      re-encrypts every KFF secret key to the now-known YOSO
      role-assignment keys (and client long-term keys); the key then
      passes to the output committee and is never needed again.
    + {b Input} — each client opens its [lambda]s with its KFF key and
      broadcasts [mu = v - lambda] per input wire.
    + {b Addition} — [mu]s add locally; no communication.
    + {b Multiplication} — per batch of [k] gates, each role of the
      layer committee opens its packed shares of [lambda_alpha],
      [lambda_beta], [Gamma] and broadcasts the single field element
      [mu_i = mu_alpha_i mu_beta_i + mu_alpha_i lambda_beta_i +
      mu_beta_i lambda_alpha_i + Gamma_i] with a proof; anyone
      reconstructs [mu_gamma] from [t + 2(k-1) + 1] verified shares —
      guaranteed output delivery by proof filtering.
    + {b Output} — [Re-encrypt*] sends [lambda] of each output wire to
      its client, who computes [v = mu + lambda].

    Total communication: [O(1)] elements per gate amortised
    (Theorem 1). *)

module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit

type output = { client : int; wire : Circuit.wire; value : F.t }

val run_from :
  Committee_ops.ctx ->
  Setup.t ->
  Offline.source ->
  inputs:(int -> F.t array) ->
  output list
(** Draws preprocessing through the source's thunks exactly when the
    protocol needs each piece: final holder first (future key
    distribution), then input preps, then each layer's packed shares,
    then the wire lambdas at the output step. *)

val run :
  Committee_ops.ctx ->
  Setup.t ->
  Offline.t ->
  inputs:(int -> F.t array) ->
  output list
(** [run_from] over {!Offline.source_of}.  [inputs client] is the
    client's input vector, consumed in circuit input-gate order.
    Returns one entry per output gate, in gate order.  @raise Failure
    if reconstruction lacks shares (cannot happen under a
    {!Params.validate_adversary}-accepted adversary). *)
