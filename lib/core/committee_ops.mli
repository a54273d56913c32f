(** Shared committee machinery: the [Decrypt] and [Re-encrypt]
    subprotocols (Protocols 1-2 of the paper) and the generic
    "every role contributes once, verification filters the malicious"
    pattern.

    Every operation creates real bulletin-board posts (speak-once
    enforced, costs charged) while the content flows functionally —
    the board is the audit trail, message contents are in-memory
    values (the standard protocol-simulator shortcut; see DESIGN.md).

    Corruption is executed, not assumed: a malicious role posts onto
    the board under a forged NIZK transcript, per the ctx's
    {!Yoso_runtime.Faults} plan.  Honest verifiers check every post
    ({!Yoso_nizk.Ideal.verify}), exclude what fails, record the blame,
    and abort with {!Yoso_runtime.Faults.Protocol_failure} if a step
    retains fewer verified contributions than its threshold.  Since a
    forged proof never verifies, a rejected post is exactly its frame:
    in most steps the step's synthesized weight, for
    [garbage-ciphertext] a frame corrupted in flight, and junk field
    shares only in the step whose payload is wire data (the online
    multiplication step).

    The threshold secret key travels down a chain of committees: each
    [decrypt_batch]/[reencrypt_batch] consumes the current holder
    committee (its roles speak once, posting partials, re-sharing
    messages and proofs) and hands the re-randomized key to a freshly
    sampled committee. *)

module F = Yoso_field.Field.Fp
module Pke = Ideal_pke
module Te = Ideal_te
module Committee = Yoso_runtime.Committee
module Cost = Yoso_runtime.Cost
module Faults = Yoso_runtime.Faults

type ctx = {
  board : Yoso_net.Board.t;
  rng : Yoso_hash.Splitmix.t;
  frng : Random.State.t;  (** field-element randomness *)
  pool : Yoso_parallel.Pool.t;  (** domain pool for committee fan-out *)
  params : Params.t;
  adversary : Params.adversary;
  plan : Faults.plan;  (** how corrupted roles misbehave *)
  log : Faults.log;  (** blame list accumulated by verifiers *)
  mutable committee_counter : int;
}

val create_ctx :
  ?plan:Faults.plan ->
  ?validate:bool ->
  ?pool:Yoso_parallel.Pool.t ->
  board:Yoso_net.Board.t ->
  params:Params.t ->
  adversary:Params.adversary ->
  seed:int ->
  unit ->
  ctx
(** [plan] defaults to [Faults.random ~seed].  [validate] (default
    [true]) runs {!Params.validate_adversary}; chaos harnesses pass
    [false] to execute beyond-bound adversaries and observe the
    structured runtime abort instead.  [pool] (default
    {!Yoso_parallel.Pool.sequential}) runs per-member work of every
    committee step across its domains; results are identical at any
    pool size. *)

val fresh_committee : ctx -> string -> Committee.t
(** Samples a committee with the ctx's adversary structure; names are
    suffixed with a running counter. *)

val contributions :
  ?wire:('a -> Yoso_net.Wire.item list) * (Random.State.t -> Faults.kind -> int -> 'a) ->
  ?required:int ->
  ctx ->
  Committee.t ->
  phase:string ->
  step:string ->
  cost:(Cost.kind * int) list ->
  (Random.State.t -> int -> 'a) ->
  (int * 'a) list
(** [contributions ctx committee ~phase ~step ~cost f]: every speaking
    role posts once ([cost] plus one proof each).  Honest roles post
    [f rng i] with a valid proof.  A malicious role's post is rejected
    (its forged proof never verifies) and the blame log gains an
    entry; what it puts on the wire is the step's frame, corrupted in
    flight for [garbage-ciphertext].  Fail-stop roles stay silent or
    post past the round deadline per the fault plan.

    [wire = (items, junk)] marks a step whose payload is wire data:
    [items] maps a payload to the wire items carrying its element
    data, and a rejected post carries [items (junk rng kind i)] for
    [tamper-share] and [wrong-degree], [items (f rng i)] for
    [bad-proof].  Without [wire] no rejected payload is built.

    Member payloads are built concurrently on the ctx pool; the [rng]
    handed to [f]/[junk] is derived per index from one draw on the
    shared stream, so payloads (and hence transcripts) are independent
    of scheduling and domain count.  [f] and [junk] must draw all
    their randomness from that [rng] and must not touch shared mutable
    state.

    Every post is a real transmission through the ctx's
    {!Yoso_net.Board}: the step opens a fresh network round, and the
    part of [cost] the wire items do not carry is synthesized at
    modeled sizes so each frame has the full byte weight of the post.
    Under non-ideal network models an honest post can arrive late or
    not at all; the role is then excluded exactly like a fail-stop.
    Returns the verified [(index, payload)] list.
    @raise Faults.Protocol_failure if fewer than [required] (default
    [1]) contributions survive verification. *)

val sum_contributions :
  Te.tpk -> (int * 'a) list -> ('a -> F.t Te.ct) -> F.t Te.ct
(** [sum_contributions te verified column]: the homomorphic sum of
    [column payload] over the verified [(index, payload)] list of
    {!contributions}, in list order — one encrypted value that is
    random as long as one contributor is honest.
    @raise Invalid_argument on an empty list. *)

(** {1 The tsk chain} *)

type holder
(** A committee currently holding the shares of [tsk]. *)

val initial_holder : ctx -> Te.tpk -> name:string -> Te.share array -> holder

val decrypt_batch :
  ctx -> Te.tpk -> holder -> phase:string -> step:string -> F.t Te.ct array ->
  F.t array * holder
(** [Decrypt] (Protocol 2), batched: each speaking holder role posts
    one broadcast containing its partial decryption of every
    ciphertext, its [n] re-sharing messages for the next committee,
    and one proof.  Verification excludes malicious holders' posts
    before [TDec].  Returns the decrypted values and the next
    holder.
    @raise Faults.Protocol_failure with fewer than [t + 1] verified
    contributions. *)

type 'a reenc
(** A value re-encrypted towards one recipient: the on-board partial
    encryptions, openable only with the matching secret key. *)

val reencrypt_batch :
  ctx -> Te.tpk -> holder -> phase:string -> step:string ->
  (Pke.pk * 'a Te.ct) array ->
  'a reenc array * holder
(** [Re-encrypt] (Protocol 1), batched over many [(recipient, ct)]
    values: each speaking holder role posts one broadcast with, per
    value, its partial decryption encrypted under the recipient key,
    plus its re-sharing messages and one proof.
    @raise Faults.Protocol_failure with fewer than [t + 1] verified
    contributions. *)

val reencrypt_packed :
  ctx -> Te.tpk -> holder -> phase:string -> step:string ->
  (Pke.pk * 'a Te.ct) array ->
  'a reenc array * holder
(** Ciphertext-level batched [Re-encrypt]: values sharing a recipient
    travel as one bundled ciphertext per speaking holder, so the post
    is charged [distinct targets + n] ciphertexts instead of
    [len + n] — the factory's amortization of the tsk-chain
    re-encryptions to KFF.  Functionally identical to
    {!reencrypt_batch} (same packages, same key handoff); only the
    wire accounting differs, so it changes the transcript and is
    opt-in via {!Offline.opts}. *)

val reencrypt_final :
  ctx -> Te.tpk -> holder -> phase:string -> step:string ->
  (Pke.pk * 'a Te.ct) array ->
  'a reenc array
(** [Re-encrypt*] (online output step): same, but the holder does not
    re-share [tsk] — the chain ends. *)

val chain :
  holder -> size:int -> 'a array -> (holder -> 'a array -> 'b array * holder) ->
  'b array * holder
(** [chain h ~size items step] walks the tsk chain over [items]: it
    cuts them into consecutive chunks of at most [size]
    ({!Yoso_circuit.Layout.chunk}), one chunk per committee, and runs
    [step] on each in order — the first chunk's step consumes [h],
    every later one the holder its predecessor handed on.  Returns the
    steps' results concatenated in chunk order, and the last holder
    ([h] itself when [items] is empty: no committee speaks).  [step] is
    one of the batched subprotocols above, e.g.
    [fun h cts -> decrypt_batch ctx te h ~phase ~step cts]; a [size] of
    at least [Array.length items] makes the whole array one committee
    step.
    @raise Invalid_argument if [size < 1]. *)

val open_reenc : Te.tpk -> Pke.sk -> 'a reenc -> 'a
(** Recipient side: decrypt the partial encryptions with the matching
    secret key and run [TDec] on [t + 1] of them.
    @raise Invalid_argument on a wrong key or too few partials. *)
