module Bulletin = Yoso_runtime.Bulletin
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix

type config = { model : Sim.model; round_ms : float; net_seed : int }

let default_config = { model = Sim.ideal; round_ms = 100.; net_seed = 1 }

type outcome = Delivered | Late | Dropped | Garbled

(* A transport link turns each committed frame into a genuine exchange
   between OS processes.  Every process replays the same deterministic
   post sequence; the link decides, per author, whether this process
   physically sends the frame, receives it in full, or receives only
   its routed (checksum, length) digest record.  [local] says whether
   this process must materialize the author's true frame bytes
   (owners always, and every author whose frames it receives in full)
   or may prepare a zero-filled skeleton of the same wire weight
   (role-local execution). *)
type delivery = [ `Frame of string | `Summary of int * int | `Down ]

type link = {
  owns : Role.id -> bool;
  local : Role.id -> bool;
  send : seq:int -> phase:string -> author:Role.id -> frame:string -> unit;
  recv : seq:int -> phase:string -> author:Role.id -> delivery;
  stats : unit -> int * int;
      (* (reconnects, caught-up deliveries) survived so far; (0, 0)
         for a transport that cannot drop connections *)
}

let outcome_to_string = function
  | Delivered -> "delivered"
  | Late -> "late"
  | Dropped -> "dropped"
  | Garbled -> "garbled"

type transcript = { frames : int; frame_bytes : int; digest : int }

let digest_seed = 0x9e3779b9
let chain_digest d csum = ((d * 1000003) + csum) land max_int

type t = {
  bulletin : Bulletin.t;
  sim : Sim.t;
  meter : Meter.t;
  config : config;
  mutable frames : int;
  mutable frame_bytes : int;
  mutable digest : int;
  mutable round_posts : int;  (* sequential posts tagged within the round *)
  mutable link : link option;
}

let create ?(config = default_config) () =
  {
    bulletin = Bulletin.create ();
    sim = Sim.create ~model:config.model ~round_ms:config.round_ms ~seed:config.net_seed ();
    meter = Meter.create ();
    config;
    frames = 0;
    frame_bytes = 0;
    digest = digest_seed;
    round_posts = 0;
    link = None;
  }

let set_link t link = t.link <- link

let sim t = t.sim
let meter t = t.meter
let config t = t.config
let cost t = Bulletin.cost t.bulletin
let registry t = Bulletin.registry t.bulletin
let length t = Bulletin.length t.bulletin
let round t = Bulletin.round t.bulletin
let sim_stats t = Sim.stats t.sim
let transcript t = { frames = t.frames; frame_bytes = t.frame_bytes; digest = t.digest }

let next_round t =
  Bulletin.next_round t.bulletin;
  Sim.next_round t.sim;
  t.round_posts <- 0

(* flip one byte of the frame in flight; any single flip is caught by
   the magic / length / checksum checks in [Wire.of_frame] *)
let corrupt_frame frame =
  let b = Bytes.of_string frame in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.unsafe_to_string b

type prepared = {
  p_author : Role.id;
  p_phase : string;
  p_step : string;
  p_payload : (Cost.kind * int) list;  (* payload bytes by kind *)
  p_frame : string option;  (* kept only when a link sends or compares it *)
  p_len : int;
  p_csum : int;  (* Wire.checksum of the frame *)
  p_force_late : bool;
  p_cost : (Cost.kind * int) list;
  p_corrupt : bool;  (* flipped in the sender's hand *)
  p_local : bool;  (* true frame bytes; false = zero-filled skeleton *)
}

(* The pure half of a post: encode the frame with the missing wire
   weight synthesized in place.  Blob bytes come from an RNG derived
   statelessly from [(net_seed, tag)], so a frame's content depends
   only on its tag — never on how many frames other domains have
   prepared, which is what keeps the transcript digest identical at
   any domain count.  The frame's digest checksum falls out of the
   encoding pass (only a corrupted frame is hashed again).  The frame
   is built in the encoder's scratch buffer and copied out only when
   its bytes outlive this call: a link sends it or compares it with
   what arrives, or it is corrupted.  Otherwise its length, checksum
   and payload tally are all Phase B needs. *)
let prepare t ~author ~phase ~step ?(items = []) ?(corrupt = false) ?(force_late = false)
    ~cost ~tag () =
  let carried = Wire.summary { Wire.step; items } in
  let missing =
    List.filter_map
      (fun (kind, n) ->
        let m = n - Option.value ~default:0 (List.assoc_opt kind carried) in
        if m > 0 then Some (kind, m) else None)
      cost
  in
  (* role-local execution: a frame some other process ships — and
     whose content this process will receive routed (or as a checksum
     digest) — is prepared as a zero-filled skeleton of identical wire
     weight, skipping the per-byte blob stream entirely *)
  let local, keep =
    match t.link with
    | None -> (true, false)
    | Some l -> (l.local author, l.owns author || l.local author)
  in
  let rng =
    if local then Some (Splitmix.of_int (Splitmix.mix (t.config.net_seed lxor 0x0b10b5) tag))
    else None
  in
  let frame, len, csum =
    Wire.with_frame ?rng ~synth:missing { Wire.step; items } (fun b len csum ->
        if corrupt then
          let bad = corrupt_frame (Bytes.sub_string b 0 len) in
          ((if keep then Some bad else None), len, Wire.checksum bad)
        else ((if keep then Some (Bytes.sub_string b 0 len) else None), len, csum))
  in
  {
    p_author = author;
    p_phase = phase;
    p_step = step;
    p_payload = Wire.payload_tally Wire.default_sizing items missing;
    p_frame = frame;
    p_len = len;
    p_csum = csum;
    p_force_late = force_late;
    p_cost = cost;
    p_corrupt = corrupt;
    p_local = local;
  }

(* The sequential half: transcript digest, cost charging, transmission
   and bulletin slot — everything whose order is the board's order. *)
let commit t p =
  let { p_author = author; p_phase = phase; p_step = step; p_payload = payload; p_frame;
        p_len = frame_bytes; p_csum; p_force_late = force_late; p_cost = cost; p_corrupt;
        p_local; } = p in
  let frame () =
    match p_frame with
    | Some f -> f
    | None -> invalid_arg "Board.commit: a link was set after the frame was prepared"
  in
  t.frames <- t.frames + 1;
  t.frame_bytes <- t.frame_bytes + frame_bytes;
  let tally = Bulletin.cost t.bulletin in
  Meter.record t.meter ~phase ~step ~frame_bytes ~payload;
  let extra_delay_ms = if force_late then 2. *. t.config.round_ms else 0. in
  let verdict, _arrival = Sim.transmit t.sim ~extra_delay_ms ~bytes:frame_bytes () in
  (* Transport exchange: under a link the frame crosses a real process
     boundary.  The owning process physically sends it; every other
     process blocks until the board daemon routes it — in full for
     members of the author's quorum, or as a (checksum, length) digest
     record for everyone else.  The sequence number is the frame
     counter, which advances identically in every replica, so all
     processes exchange the same frames in the same order. *)
  let exchange =
    match t.link with
    | None -> `Local
    | Some link ->
      let seq = t.frames - 1 in
      if link.owns author then begin
        link.send ~seq ~phase ~author ~frame:(frame ());
        `Local
      end
      else
        (link.recv ~seq ~phase ~author
          :> [ `Local | `Frame of string | `Summary of int * int | `Down ])
  in
  (* Transcript digest: chain the authoritative checksum of what
     crossed the wire.  Locally materialized frames (sim runs, owned
     frames) contribute their own checksum, carried from [prepare]; a
     delivered full frame contributes the checksum of the received
     bytes (the carried one when they equal the local replay), and a
     digest record contributes the checksum the daemon computed on
     ingest — all of which equal the owner's true
     checksum, so every member (and the sim run at equal seeds) chains
     to the same digest.  A [`Down] exchange chains the local
     skeleton's checksum, which is seed-deterministic and therefore
     identical across all survivors.  [consistent] is the receiver's
     integrity oracle: byte equality when the frame was locally
     replayed in full, wire-weight (length) equality for role-local
     skeletons — content integrity then rests on the frame's own
     checksum, which the daemon verifies on ingest. *)
  let csum, consistent =
    match exchange with
    | `Local | `Down -> (p_csum, true)
    | `Frame f when p_local && String.equal f (frame ()) -> (p_csum, true)
    | `Frame f -> (Wire.checksum f, (not p_local) && String.length f = frame_bytes)
    | `Summary (csum, len) -> (csum, len = frame_bytes)
  in
  t.digest <- chain_digest t.digest csum;
  match exchange with
  | `Down ->
    (* the owning process vanished mid-round: nothing ever reached the
       board.  Observationally a fail-stop — same path as a Sim drop,
       so the verify/exclude/blame machinery handles it unchanged. *)
    Role.Registry.speak (Bulletin.registry t.bulletin) author;
    List.iter (fun (kind, n) -> Cost.charge tally ~phase kind n) cost;
    Dropped
  | `Local | `Frame _ | `Summary _ -> (
    match verdict with
    | Sim.Dropped ->
      (* the role spoke — its one shot is consumed and the bytes were
         sent — but nothing ever reaches the board *)
      Role.Registry.speak (Bulletin.registry t.bulletin) author;
      List.iter (fun (kind, n) -> Cost.charge tally ~phase kind n) cost;
      Dropped
    | Sim.Late ->
      Bulletin.post t.bulletin ~author ~phase ~cost;
      Late
    | Sim.Delivered ->
      (* a frame that fails its integrity check occupies its slot on
         the board but contributes nothing; verification will exclude
         the author.  The sender's own frame needs no decode here: the
         encoder emits only frames [Wire.of_frame] accepts, and the
         single flipped byte of a corrupted one always fails the
         checksum. *)
      Bulletin.post t.bulletin ~author ~phase ~cost;
      if consistent && not p_corrupt then Delivered else Garbled)

(* post = prepare + commit with a tag drawn from the per-round post
   counter; single-threaded callers never see the split. *)
let post t ~author ~phase ~step ?(items = []) ?(corrupt = false) ?(force_late = false) ~cost ()
    =
  let tag = Splitmix.mix (Bulletin.round t.bulletin) t.round_posts in
  t.round_posts <- t.round_posts + 1;
  commit t (prepare t ~author ~phase ~step ~items ~corrupt ~force_late ~cost ~tag ())
