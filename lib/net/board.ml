module Bulletin = Yoso_runtime.Bulletin
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix

type config = { drop : float; net_seed : int }

let default_config = { drop = 0.; net_seed = 1 }

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
}

type transcript = { frames : int; frame_bytes : int; digest : int }

let digest_seed = 0x9e3779b9
let chain_digest d csum = ((d * 1000003) + csum) land max_int

type net = { rounds : int; late : int; dropped : int }

type t = {
  bulletin : Bulletin.t;
  coin : Splitmix.t;  (* the loss coin, drawn only when [drop > 0] *)
  meter : Meter.t;
  config : config;
  mutable late : int;
  mutable dropped : int;
  mutable frames : int;
  mutable frame_bytes : int;
  mutable digest : int;
  mutable round_posts : int;  (* sequential posts tagged within the round *)
  mutable link : link option;
}

let create ?(config = default_config) () =
  {
    bulletin = Bulletin.create ();
    coin = Splitmix.of_int config.net_seed;
    meter = Meter.create ();
    config;
    late = 0;
    dropped = 0;
    frames = 0;
    frame_bytes = 0;
    digest = digest_seed;
    round_posts = 0;
    link = None;
  }

let set_link t link = t.link <- link

let meter t = t.meter
let config t = t.config
let cost t = Bulletin.cost t.bulletin
let registry t = Bulletin.registry t.bulletin
let length t = Bulletin.length t.bulletin
let round t = Bulletin.round t.bulletin
let net t = { rounds = round t; late = t.late; dropped = t.dropped }
let transcript t = { frames = t.frames; frame_bytes = t.frame_bytes; digest = t.digest }

let next_round t =
  Bulletin.next_round t.bulletin;
  t.round_posts <- 0

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

(* The pure half of a post: the frame's length and checksum, with the
   missing wire weight synthesized.  Blob bytes come from an RNG
   derived statelessly from [(net_seed, tag)], so a frame's content
   depends only on its tag — never on how many frames other domains
   have prepared, which is what keeps the transcript digest identical
   at any domain count.  A frame a link sends or compares with what
   arrives, or a corrupted one, is encoded in the encoder's scratch
   buffer, its checksum falling out of the encoding pass; a corrupted
   frame's checksum is then moved by the one term of the fold its
   flipped byte changes, and only a frame a link keeps is copied out.
   Any other frame is never written: its checksum is folded as its
   weight is drawn, and its length, checksum and payload tally are all
   Phase B needs. *)
let prepare t ~author ~phase ~step ?(items = []) ?(corrupt = false) ?(force_late = false)
    ~cost ~tag () =
  let msg = { Wire.step; items } in
  let carried = Wire.summary msg in
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
    if keep || corrupt then
      Wire.with_frame ?rng ~synth:missing msg (fun b len csum ->
          (* flip the middle byte in flight; any single flip is caught
             by the magic / length / checksum checks in [Wire.of_frame] *)
          let csum =
            if corrupt then begin
              let i = len / 2 in
              let byte = Bytes.get_uint8 b i in
              Bytes.set_uint8 b i (byte lxor 0xff);
              Wire.checksum_after_flip csum ~len ~pos:i byte
            end
            else csum
          in
          ((if keep then Some (Bytes.sub_string b 0 len) else None), len, csum))
    else
      let len, csum = Wire.frame_checksum ?rng ~synth:missing msg in
      (None, len, csum)
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

(* The sequential half: transcript digest, cost charging, loss coin
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
  (* the loss coin is drawn before the exchange, and only when loss is
     on, so the ideal network consumes no randomness; a frame a link
     later reports [`Down] is still counted here *)
  let verdict =
    if t.config.drop > 0. && Splitmix.float t.coin < t.config.drop then begin
      t.dropped <- t.dropped + 1;
      Dropped
    end
    else if force_late then begin
      t.late <- t.late + 1;
      Late
    end
    else Delivered
  in
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
  match (exchange, verdict) with
  | `Down, _ | _, Dropped ->
    (* the role spoke — its one shot is consumed and the bytes were
       sent — but nothing ever reaches the board: a lost frame, or an
       owning process that vanished mid-round.  Observationally a
       fail-stop, so the verify/exclude/blame machinery handles it
       unchanged. *)
    Role.Registry.speak (Bulletin.registry t.bulletin) author;
    List.iter (fun (kind, n) -> Cost.charge tally ~phase kind n) cost;
    Dropped
  | _, Late ->
    Bulletin.post t.bulletin ~author ~phase ~cost;
    Late
  | _, (Delivered | Garbled) ->
    (* a frame that fails its integrity check occupies its slot on
       the board but contributes nothing; verification will exclude
       the author.  The sender's own frame needs no decode here: the
       encoder emits only frames [Wire.of_frame] accepts, and the
       single flipped byte of a corrupted one always fails the
       checksum. *)
    Bulletin.post t.bulletin ~author ~phase ~cost;
    if consistent && not p_corrupt then Delivered else Garbled

(* post = prepare + commit with a tag drawn from the per-round post
   counter; single-threaded callers never see the split. *)
let post t ~author ~phase ~step ?(items = []) ?(corrupt = false) ?(force_late = false) ~cost ()
    =
  let tag = Splitmix.mix (Bulletin.round t.bulletin) t.round_posts in
  t.round_posts <- t.round_posts + 1;
  commit t (prepare t ~author ~phase ~step ~items ~corrupt ~force_late ~cost ~tag ())
