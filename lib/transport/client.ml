module Splitmix = Yoso_hash.Splitmix

type t = {
  mutable fd : Unix.file_descr;
  addr : Unix.sockaddr;
  slot : int;
  nslots : int;
  seed : int;
  deadline_ms : float;
  mutable stream : Envelope.stream;  (* reset on reconnect: torn bytes die with the socket *)
  pending : (int, [ `Frame of string | `Summary of int * int ]) Hashtbl.t;
      (* seq -> delivery, non-own *)
  unacked : (int, string) Hashtbl.t;  (* own posts without a digest ack yet *)
  down : bool array;
  mutable next_deliver : int;  (* low-water mark: deliveries are monotone *)
  mutable own_posts : int;
  mutable started : bool;
  mutable shutdown : bool;
}

exception Protocol_error of string

let violate fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt
let slot t = t.slot
let own_posts t = t.own_posts

(* Pull one envelope off the socket, blocking at most until [deadline].
   [Envelope.needed] tells us exactly how many bytes complete the
   front envelope, so the blocking reads are always right-sized. *)
let rec recv t ~deadline =
  match Envelope.next t.stream with
  | Some m -> m
  | None ->
    let k = max 1 (Envelope.needed t.stream) in
    Envelope.feed t.stream (Sockio.read_exactly ?deadline t.fd k);
    recv t ~deadline

(* Deliveries arrive in daemon commit order, so a [Peer_down] can only
   be seen after every frame its slot managed to post — marking the
   slot down never races a frame we still owe to [pending].  A
   delivery below the low-water mark is a duplicate (chaos injection,
   or replay overlapping an in-flight frame) and is absorbed
   silently — the board's total order makes re-delivery idempotent.
   An own-slot delivery (always a digest record) is the daemon's ack
   for an in-flight post. *)
let deliver t ~seq ~slot d =
  if seq >= t.next_deliver then begin
    t.next_deliver <- seq + 1;
    if slot = t.slot then Hashtbl.remove t.unacked seq
    else Hashtbl.replace t.pending seq d
  end

let absorb t msg =
  match msg with
  | Envelope.Deliver_batch records ->
    List.iter
      (function
        | Envelope.Full { seq; slot; frame } -> deliver t ~seq ~slot (`Frame frame)
        | Envelope.Digest { seq; slot; csum; len } ->
          deliver t ~seq ~slot (`Summary (csum, len)))
      records
  | Envelope.Peer_down { slot } ->
    if slot < 0 || slot >= t.nslots then violate "peer-down for slot %d" slot;
    t.down.(slot) <- true
  | Envelope.Shutdown -> t.shutdown <- true
  | Envelope.Start _ -> t.started <- true
  | Envelope.Recovered _ -> violate "recovered outside a recover handshake"
  | Envelope.Hello _ | Envelope.Post _ | Envelope.Report _ | Envelope.Recover _ ->
    violate "daemon sent a client-only message"

(* Reconnect and catch up: fresh socket, [Recover] handshake carrying
   the next delivery we have not seen, then re-post any own frames the
   daemon never acknowledged (they form a consecutive run from the
   daemon's recovered counter — replicated execution blocks on every
   earlier frame, so the re-post can introduce no gap).  Bounded by
   the reconnect policy's attempt and elapsed budgets; exhaustion
   raises [Sockio.Closed] and the caller takes the silent-fault
   path. *)
let recover t =
  if t.shutdown then raise Sockio.Closed;
  let retry = Transport_policy.default.reconnect in
  let t0 = Sockio.now () in
  let handshakes = 3 in
  let rec go attempt =
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    match
      let fd =
        Sockio.connect_with_retry ~retry
          ~seed:(Splitmix.mix t.seed (t.slot + (attempt lsl 16)))
          t.addr
      in
      t.fd <- fd;
      t.stream <- Envelope.stream ();
      Sockio.write_all fd
        (Envelope.encode
           (Envelope.Recover
              { slot = t.slot; nslots = t.nslots; seed = t.seed; next_seq = t.next_deliver }));
      let deadline = Some (Sockio.deadline_after t.deadline_ms) in
      match recv t ~deadline with
      | Envelope.Recovered { next_seq; started } ->
        if started then t.started <- true;
        Hashtbl.fold
          (fun seq frame acc -> if seq >= next_seq then (seq, frame) :: acc else acc)
          t.unacked []
        |> List.sort compare
        |> List.iter (fun (seq, frame) ->
               Sockio.write_all fd
                 (Envelope.encode (Envelope.Post { seq; slot = t.slot; frame })))
      | m -> violate "expected recovered, got %s" (Format.asprintf "%a" Envelope.pp_msg m)
    with
    | () -> ()
    | exception ((Sockio.Closed | Sockio.Timeout | Unix.Unix_error _) as e) ->
      let elapsed = (Sockio.now () -. t0) *. 1000. in
      if attempt >= handshakes || elapsed > retry.Transport_policy.max_elapsed_ms then
        match e with
        | Sockio.Timeout | Sockio.Closed -> raise Sockio.Closed
        | e -> raise e
      else go (attempt + 1)
  in
  go 1

let connect ?(deadline_ms = Transport_policy.default.round_deadline_ms) ~addr ~slot ~nslots
    ~seed () =
  if slot < 0 || slot >= nslots then invalid_arg "Client.connect: slot out of range";
  let fd =
    Sockio.connect_with_retry ~retry:Transport_policy.default.connect
      ~seed:(Splitmix.mix seed slot) addr
  in
  let t =
    {
      fd;
      addr;
      slot;
      nslots;
      seed;
      deadline_ms;
      stream = Envelope.stream ();
      pending = Hashtbl.create 64;
      unacked = Hashtbl.create 8;
      down = Array.make nslots false;
      next_deliver = 0;
      own_posts = 0;
      started = false;
      shutdown = false;
    }
  in
  Sockio.write_all fd (Envelope.encode (Envelope.Hello { slot; nslots; seed }));
  let deadline = Some (Sockio.deadline_after deadline_ms) in
  let rec await_start () =
    if not t.started then
      match recv t ~deadline with
      | msg ->
        absorb t msg;
        await_start ()
      | exception Sockio.Closed ->
        (* daemon died between accept and start: recover re-hellos via
           the Recover handshake, which also reports the start flag *)
        recover t;
        await_start ()
  in
  await_start ();
  t

let post t ~seq ~frame =
  (* recorded before the write: if the daemon dies mid-flight the
     recover handshake decides whether this frame needs re-posting *)
  Hashtbl.replace t.unacked seq frame;
  t.own_posts <- t.own_posts + 1;
  try Sockio.write_all t.fd (Envelope.encode (Envelope.Post { seq; slot = t.slot; frame }))
  with Sockio.Closed -> recover t

let fetch t ~seq ~owner =
  let deadline = Some (Sockio.deadline_after t.deadline_ms) in
  let rec go () =
    match Hashtbl.find_opt t.pending seq with
    | Some d ->
      Hashtbl.remove t.pending seq;
      (d :> [ `Frame of string | `Summary of int * int | `Down ])
    | None ->
      if t.down.(owner) || t.shutdown then `Down
      else (
        match recv t ~deadline with
        | msg ->
          absorb t msg;
          go ()
        | exception Sockio.Timeout ->
          (* round deadline expired: this frame is not coming *)
          t.down.(owner) <- true;
          `Down
        | exception Sockio.Closed -> (
          (* the board went away mid-wait: reconnect, catch up, keep
             waiting; only an exhausted retry budget blames the owner *)
          match recover t with
          | () -> go ()
          | exception (Sockio.Closed | Unix.Unix_error _) ->
            t.down.(owner) <- true;
            `Down))
  in
  go ()

let report t ~json =
  let payload = Envelope.encode (Envelope.Report { slot = t.slot; json }) in
  try Sockio.write_all t.fd payload
  with Sockio.Closed | Unix.Unix_error _ -> (
    (* one recovery round for the final report; past that, best-effort *)
    try
      recover t;
      Sockio.write_all t.fd payload
    with Sockio.Closed | Sockio.Timeout | Unix.Unix_error _ | Protocol_error _ -> ())

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
