module F = Yoso_field.Field.Fp
module Pke = Ideal_pke
module Te = Ideal_te
module Bulletin = Yoso_runtime.Bulletin
module Committee = Yoso_runtime.Committee
module Cost = Yoso_runtime.Cost
module Faults = Yoso_runtime.Faults
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix
module Nizk = Yoso_nizk.Ideal
module Board = Yoso_net.Board
module Wire = Yoso_net.Wire
module Pool = Yoso_parallel.Pool

type ctx = {
  board : Board.t;
  rng : Splitmix.t;
  frng : Random.State.t;
  pool : Pool.t;
  params : Params.t;
  adversary : Params.adversary;
  plan : Faults.plan;
  log : Faults.log;
  mutable committee_counter : int;
}

let create_ctx ?plan ?(validate = true) ?(pool = Pool.sequential) ~board ~params ~adversary
    ~seed () =
  if validate then Params.validate_adversary params adversary;
  {
    board;
    rng = Splitmix.of_int seed;
    frng = Random.State.make [| seed lxor 0x5EED |];
    pool;
    params;
    adversary;
    plan = (match plan with Some p -> p | None -> Faults.random ~seed);
    log = Faults.create_log ();
    committee_counter = 0;
  }

let fresh_committee ctx prefix =
  ctx.committee_counter <- ctx.committee_counter + 1;
  let name = Printf.sprintf "%s#%d" prefix ctx.committee_counter in
  Committee.sample ~name ~n:ctx.params.Params.n
    ~malicious:ctx.adversary.Params.malicious ~passive:ctx.adversary.Params.passive
    ~fail_stop:ctx.adversary.Params.fail_stop ctx.rng

(* Every speaking role posts once; the post's content is verified
   before it contributes.  Honest (and passive) roles prove their
   witness; malicious roles genuinely build a corrupted payload per
   the ctx fault plan and post it under a forged transcript (the ideal
   NIZK is sound, so a false statement can never carry a verifying
   proof); fail-stop roles stay silent or post past the deadline.
   Detected deviations are recorded in the blame log; if fewer than
   [required] contributions survive exclusion, the step aborts with
   the structured [Faults.Protocol_failure].

   Every post travels through the simulated network: [wire] maps a
   payload to its real wire items (online field data); everything the
   declared cost covers beyond that is synthesized at modeled sizes,
   so the frame carries the full byte weight of the post.  Under the
   ideal network model every frame is Delivered and the outcomes below
   collapse to the abstract bulletin-board behaviour.

   The fan-out runs in two phases.  Phase A — per-member payload
   construction and frame encoding — is pure given the member index
   (fault-plan lookups are hash-based, payload randomness comes from a
   per-index derived RNG, blob bytes from the tag-derived stream) and
   runs under the ctx's domain pool.  Phase B walks members in index
   order on the calling domain, committing frames to the board and
   running verification, so board order, digest chain, blame log and
   the returned list are identical at every domain count. *)

(* what member [i] intends to put on the wire, computed in Phase A *)
type 'a intent =
  | Contribute of 'a * Board.prepared  (* honest/passive, or Bad_proof *)
  | Tampered of Faults.kind * 'a option * Board.prepared
  | Delayed_post of Faults.kind * Board.prepared  (* posts past the deadline *)
  | Stays_silent of Faults.kind

let contributions ?tamper ?wire ?(required = 1) ctx committee ~phase ~step ~cost f =
  Board.next_round ctx.board;
  let proofed_cost = (Cost.Proof, 1) :: cost in
  let relation = "contribution:" ^ step in
  let name = committee.Committee.name in
  let items_of payload = match wire with Some w -> w payload | None -> [] in
  let round = Board.round ctx.board in
  (* one draw from the shared stream, before the fan-out; every member
     derives its own RNG from (step_seed, index) *)
  let step_seed = Random.State.bits ctx.frng in
  (* Phase A: build every member's payload and frame in parallel *)
  let intents =
    Pool.map ctx.pool committee.Committee.size (fun i ->
        let author = Committee.role committee i in
        let rng = Pool.derive_rng ~seed:step_seed i in
        let prep ?items ?corrupt ?force_late () =
          Board.prepare ctx.board ~author ~phase ~step ?items ?corrupt ?force_late
            ~cost:proofed_cost ~tag:(Splitmix.mix round i) ()
        in
        match Committee.status committee i with
        | Committee.Honest | Committee.Passive ->
          let payload = f rng i in
          Contribute (payload, prep ~items:(items_of payload) ())
        | Committee.Fail_stop -> (
          match Faults.fail_stop_kind ctx.plan ~committee:name ~index:i with
          | Faults.Delayed -> Delayed_post (Faults.Delayed, prep ~force_late:true ())
          | _ -> Stays_silent Faults.Silent)
        | Committee.Malicious -> (
          match Faults.malicious_kind ctx.plan ~committee:name ~index:i with
          | Faults.Silent -> Stays_silent Faults.Silent
          | Faults.Delayed -> Delayed_post (Faults.Delayed, prep ~force_late:true ())
          | Faults.Bad_proof ->
            (* correct data, equivocated proof *)
            let payload = f rng i in
            Tampered (Faults.Bad_proof, Some payload, prep ~items:(items_of payload) ())
          | active -> (
            (* build the corrupted payload the role actually posts *)
            let payload = match tamper with Some t -> t rng active i | None -> None in
            match payload with
            | None ->
              (* undecodable blob: a frame corrupted in the sender's
                 hand, caught by the receiver's integrity check *)
              Tampered (active, None, prep ~corrupt:true ())
            | Some p -> Tampered (active, payload, prep ~items:(items_of p) ()))))
  in
  (* Phase B: commit to the board and verify, in index order *)
  let out = ref [] in
  Array.iteri
    (fun i intent ->
      let author = Committee.role committee i in
      let statement = Role.to_string author in
      let blame kind = Faults.record ctx.log { Faults.role = author; kind; phase; step } in
      match intent with
      | Contribute (payload, p) -> (
        match Board.commit ctx.board p with
        | Board.Delivered ->
          let proof = Nizk.prove ~relation ~statement ~witness_ok:true in
          if Nizk.verify ~relation ~statement proof then out := (i, payload) :: !out
          else assert false (* ideal NIZK is complete *)
        (* an honest frame the network delays or loses is observationally
           a fail-stop: the step excludes the role *)
        | Board.Late -> blame Faults.Delayed
        | Board.Dropped -> blame Faults.Silent
        | Board.Garbled -> blame Faults.Tamper_share (* unreachable: honest encode *))
      | Stays_silent kind -> blame kind
      | Delayed_post (kind, p) ->
        ignore (Board.commit ctx.board p);
        blame kind
      | Tampered (kind, payload, p) ->
        let outcome = Board.commit ctx.board p in
        let proof = Nizk.forge ~relation ~statement in
        let accepted =
          match (payload, outcome) with
          | None, _ -> false (* rejected at parse time *)
          | Some _, (Board.Late | Board.Dropped | Board.Garbled) -> false
          | Some _, Board.Delivered -> Nizk.verify ~relation ~statement proof
        in
        if accepted then out := (i, Option.get payload) :: !out else blame kind)
    intents;
  let out = List.rev !out in
  let surviving = List.length out in
  if surviving < required then
    raise
      (Faults.Protocol_failure
         { Faults.f_phase = phase; f_step = step; f_committee = name; surviving; required });
  out

let sum_contributions te verified column =
  match verified with
  | [] -> invalid_arg "Committee_ops.sum_contributions: no contributions"
  | (_, first) :: rest ->
    List.fold_left (fun acc (_, p) -> Te.add te acc (column p)) (column first) rest

(* ------------------------------------------------------------------ *)
(* tsk chain                                                            *)
(* ------------------------------------------------------------------ *)

type holder = { committee : Committee.t; shares : Te.share array; prefix : string }

let initial_holder ctx _te ~name shares =
  let committee = fresh_committee ctx name in
  if Array.length shares <> ctx.params.Params.n then
    invalid_arg "Committee_ops.initial_holder: share count <> n";
  { committee; shares; prefix = name }

(* hand the re-randomized key to a fresh committee: one [TKRec] for
   the whole committee, from the step's verified tokens *)
let pass_key ctx te next_prefix tokens =
  let next = fresh_committee ctx next_prefix in
  { committee = next; shares = Te.recombine_all te tokens; prefix = next_prefix }

(* the step's quorum: its verified partial decryption rows, checked
   once for every ciphertext of the batch *)
let quorum_of te verified = Te.quorum te (List.map (fun (_, (row, _)) -> row) verified)

(* junk partial decryptions under the holder's true epoch: syntactically
   valid, wrong values — exactly what combine_col would choke on if the
   forged proof were not caught first *)
let tampered_partials te holder cts rng i =
  let epoch = Te.share_epoch holder.shares.(i) in
  Te.junk_partial te ~index:(i + 1) ~epoch (Array.map (fun _ -> F.random rng) cts)

let decrypt_batch ctx te holder ~phase ~step cts =
  let n = ctx.params.Params.n in
  let cost = [ (Cost.Partial_decryption, Array.length cts); (Cost.Ciphertext, n) ] in
  let tamper rng kind i =
    match kind with
    | Faults.Garbage_ciphertext -> None
    | _ ->
      (* corrupted partials; reshares kept honest so the tampering is
         only caught by transcript verification, not by accident *)
      Some (tampered_partials te holder cts rng i, Te.reshare te holder.shares.(i))
  in
  let verified =
    contributions ~tamper
      ~required:(Te.threshold te + 1)
      ctx holder.committee ~phase ~step ~cost
      (fun _rng i ->
        let share = holder.shares.(i) in
        (Te.partial_decrypt te share cts, Te.reshare te share))
  in
  let q = quorum_of te verified in
  let values = Pool.map ctx.pool (Array.length cts) (Te.combine_col q) in
  let next = pass_key ctx te holder.prefix (List.map (fun (_, (_, tk)) -> tk) verified) in
  (values, next)

(* [senders] is the step's count of distinct verified senders, counted
   once by its quorum and shared by every package the step opens *)
type 'a reenc = { senders : int; target : Pke.pk; guarded : 'a Pke.enc }

let open_reenc te sk r =
  if r.senders < Te.threshold te + 1 then
    invalid_arg "Committee_ops.open_reenc: not enough partial encryptions";
  Pke.dec sk r.guarded

let reencrypt_generic ?cost ctx te holder ~phase ~step ~reshare values =
  let n = ctx.params.Params.n in
  let len = Array.length values in
  let cost =
    match cost with
    | Some c -> c
    | None -> if reshare then [ (Cost.Ciphertext, len + n) ] else [ (Cost.Ciphertext, len) ]
  in
  let cts = Array.map snd values in
  let tamper _rng kind i =
    match kind with
    | Faults.Garbage_ciphertext -> None
    | _ ->
      (* payloads are polymorphic (KFF keys travel here), so junk field
         elements cannot be fabricated; instead misreport by rotating
         the partials across the batch (each slot carries the partial
         of a *different* ciphertext), or desynchronize the epoch when
         the batch has a single value *)
      let share = holder.shares.(i) in
      let partials =
        if len > 1 then
          Te.partial_decrypt te share (Array.init len (fun v -> cts.((v + 1) mod len)))
        else Te.corrupt_partial (Te.partial_decrypt te share cts)
      in
      Some (partials, if reshare then Some (Te.reshare te share) else None)
  in
  let verified =
    contributions ~tamper
      ~required:(Te.threshold te + 1)
      ctx holder.committee ~phase ~step ~cost
      (fun _rng i ->
        let share = holder.shares.(i) in
        (Te.partial_decrypt te share cts, if reshare then Some (Te.reshare te share) else None))
  in
  let q = quorum_of te verified in
  let senders = Te.senders q in
  let packages =
    Pool.map ctx.pool len (fun v ->
        let target, _ = values.(v) in
        { senders; target; guarded = Pke.enc target (Te.combine_col q v) })
  in
  (packages, verified)

let token_of (_, (_, r)) =
  match r with Some tk -> tk | None -> assert false

let reencrypt_batch ctx te holder ~phase ~step values =
  let packages, verified =
    reencrypt_generic ctx te holder ~phase ~step ~reshare:true values
  in
  let next = pass_key ctx te holder.prefix (List.map token_of verified) in
  (packages, next)

(* ciphertext-level batching: every value destined for one recipient
   travels inside ONE bundled ciphertext per speaking holder (the
   recipient unpacks the bundle locally), so a member's post carries
   [distinct targets + n] ciphertexts instead of [len + n].  The
   in-memory packages stay per-value — only the wire accounting (and
   hence bytes/gate) amortizes. *)
let reencrypt_packed ctx te holder ~phase ~step values =
  let n = ctx.params.Params.n in
  let targets = Hashtbl.create 16 in
  Array.iter (fun (pk, _) -> Hashtbl.replace targets pk ()) values;
  let cost = [ (Cost.Ciphertext, Hashtbl.length targets + n) ] in
  let packages, verified =
    reencrypt_generic ~cost ctx te holder ~phase ~step ~reshare:true values
  in
  let next = pass_key ctx te holder.prefix (List.map token_of verified) in
  (packages, next)

let reencrypt_final ctx te holder ~phase ~step values =
  let packages, _ = reencrypt_generic ctx te holder ~phase ~step ~reshare:false values in
  packages

let chain holder ~size items step =
  let last, outs =
    List.fold_left_map
      (fun h chunk ->
        let out, next = step h chunk in
        (next, out))
      holder
      (Yoso_circuit.Layout.chunk size items)
  in
  (Array.concat outs, last)
