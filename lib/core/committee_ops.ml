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
   witness.  A malicious role's post is rejected: the ideal NIZK is
   sound, so its forged proof never verifies and nothing reads what the
   frame carries.  A rejected post is therefore exactly its frame: the
   step's synthesized weight, flipped in flight for
   garbage-ciphertext; only a step whose payload is wire data
   ([wire]) builds what the role puts there — junk for tamper-share
   and wrong-degree, the honest payload for bad-proof.  Fail-stop
   roles stay silent or post past the deadline.  Detected deviations
   are recorded in the blame log; if fewer than [required]
   contributions survive exclusion, the step aborts with the
   structured [Faults.Protocol_failure].

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
  | Contribute of 'a * Board.prepared  (* honest or passive *)
  | Rejected of Faults.kind * Board.prepared  (* committed, then blamed *)
  | Stays_silent

let contributions ?wire ?(required = 1) ctx committee ~phase ~step ~cost f =
  Board.next_round ctx.board;
  let proofed_cost = (Cost.Proof, 1) :: cost in
  let relation = "contribution:" ^ step in
  let name = committee.Committee.name in
  let items_of payload = match wire with Some (items, _) -> items payload | None -> [] in
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
        let delayed () = Rejected (Faults.Delayed, prep ~force_late:true ()) in
        match Committee.status committee i with
        | Committee.Honest | Committee.Passive ->
          let payload = f rng i in
          Contribute (payload, prep ~items:(items_of payload) ())
        | Committee.Fail_stop -> (
          match Faults.fail_stop_kind ctx.plan ~committee:name ~index:i with
          | Faults.Delayed -> delayed ()
          | _ -> Stays_silent)
        | Committee.Malicious -> (
          match (Faults.malicious_kind ctx.plan ~committee:name ~index:i, wire) with
          | Faults.Silent, _ -> Stays_silent
          | Faults.Delayed, _ -> delayed ()
          | Faults.Garbage_ciphertext, _ ->
            (* a frame corrupted in the sender's hand, caught by the
               receiver's integrity check *)
            Rejected (Faults.Garbage_ciphertext, prep ~corrupt:true ())
          | kind, None -> Rejected (kind, prep ())
          | Faults.Bad_proof, Some (items, _) ->
            (* correct data, equivocated proof *)
            Rejected (Faults.Bad_proof, prep ~items:(items (f rng i)) ())
          | kind, Some (items, junk) ->
            Rejected (kind, prep ~items:(items (junk rng kind i)) ())))
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
      | Stays_silent -> blame Faults.Silent
      | Rejected (kind, p) ->
        ignore (Board.commit ctx.board p);
        blame kind)
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
let pass_key ctx te holder tokens =
  let next = fresh_committee ctx holder.prefix in
  { committee = next; shares = Te.recombine_all te tokens; prefix = holder.prefix }

(* The one holder step of [Decrypt] and [Re-encrypt]: every speaking
   holder posts its partial decryption row of [cts] and its re-sharing
   token under [cost]; the verified rows make one quorum, [col q c]
   maps column [c] of it.  Returns the mapped columns and the verified
   tokens, for {!pass_key}. *)
let holder_step ctx te holder ~phase ~step ~cost cts col =
  let verified =
    contributions
      ~required:(Te.threshold te + 1)
      ctx holder.committee ~phase ~step ~cost
      (fun _rng i ->
        let share = holder.shares.(i) in
        (Te.partial_decrypt te share cts, Te.reshare te share))
  in
  let q = Te.quorum te (List.map (fun (_, (row, _)) -> row) verified) in
  (Pool.map ctx.pool (Array.length cts) (col q), List.map (fun (_, (_, tk)) -> tk) verified)

let decrypt_batch ctx te holder ~phase ~step cts =
  let cost =
    [ (Cost.Partial_decryption, Array.length cts); (Cost.Ciphertext, ctx.params.Params.n) ]
  in
  let values, tokens = holder_step ctx te holder ~phase ~step ~cost cts Te.combine_col in
  (values, pass_key ctx te holder tokens)

(* [senders] is the step's count of distinct verified senders, counted
   once by its quorum and shared by every package the step opens *)
type 'a reenc = { senders : int; target : Pke.pk; guarded : 'a Pke.enc }

let open_reenc te sk r =
  if r.senders < Te.threshold te + 1 then
    invalid_arg "Committee_ops.open_reenc: not enough partial encryptions";
  Pke.dec sk r.guarded

(* a value's package: column [v] of the quorum, encrypted towards the
   value's recipient *)
let package values q v =
  let target = fst values.(v) in
  { senders = Te.senders q; target; guarded = Pke.enc target (Te.combine_col q v) }

let reencrypt_batch ctx te holder ~phase ~step values =
  let cost = [ (Cost.Ciphertext, Array.length values + ctx.params.Params.n) ] in
  let packages, tokens =
    holder_step ctx te holder ~phase ~step ~cost (Array.map snd values) (package values)
  in
  (packages, pass_key ctx te holder tokens)

(* ciphertext-level batching: every value destined for one recipient
   travels inside ONE bundled ciphertext per speaking holder (the
   recipient unpacks the bundle locally), so a member's post carries
   [distinct targets + n] ciphertexts instead of [len + n].  The
   in-memory packages stay per-value — only the wire accounting (and
   hence bytes/gate) amortizes. *)
let reencrypt_packed ctx te holder ~phase ~step values =
  let targets = Hashtbl.create 16 in
  Array.iter (fun (pk, _) -> Hashtbl.replace targets pk ()) values;
  let cost = [ (Cost.Ciphertext, Hashtbl.length targets + ctx.params.Params.n) ] in
  let packages, tokens =
    holder_step ctx te holder ~phase ~step ~cost (Array.map snd values) (package values)
  in
  (packages, pass_key ctx te holder tokens)

(* the chain ends: the post carries no re-sharing (its cost charges
   none) and no holder receives the tokens *)
let reencrypt_final ctx te holder ~phase ~step values =
  let cost = [ (Cost.Ciphertext, Array.length values) ] in
  fst (holder_step ctx te holder ~phase ~step ~cost (Array.map snd values) (package values))

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
