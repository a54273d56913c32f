module Wire = Yoso_net.Wire

(* select granularity *)
let tick_s = 0.1

type stats = {
  frames_in : int;
  frames_out : int;
  digests_out : int;
  batches_out : int;
  suppressed_bytes : int;
  bytes_in : int;
  bytes_out : int;
  reconnects : int;
  replayed_frames : int;
  recovered_frames : int;
  journal_bytes : int;
  digest : int;
  chaos_events : (string * int) list;
  timed_out : bool;
}

type result = { reports : (int * string) list; down : int list; stats : stats }

exception Crashed of stats

type conn = {
  fd : Unix.file_descr;
  id : int;  (* accept order, names pre-hello connections *)
  stream : Envelope.stream;
  outq : string Queue.t;  (* envelope bytes *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable slot : int option;
  mutable batch : Envelope.record list;  (* pending delivery records, reversed *)
  mutable batch_bytes : int;
  mutable reported : bool;
  mutable closed : bool;
  mutable stall_until : float;  (* chaos delay: writes parked until then *)
  mutable sever_after_flush : bool;  (* chaos truncate: close once outq drains *)
  mutable sent_b : int;  (* daemon -> peer *)
  mutable recv_b : int;  (* peer -> daemon *)
}

let conn_name c =
  match c.slot with Some s -> Printf.sprintf "slot%d" s | None -> Printf.sprintf "conn#%d" c.id

exception Protocol_violation of string

let violate fmt = Printf.ksprintf (fun s -> raise (Protocol_violation s)) fmt

(* internal: a chaos kill point fired; unwinds to the crash handler *)
exception Crash_now

let serve ?(policy = Transport_policy.default) ?journal:journal_path ?chaos ?topology
    ~listen ~nslots () =
  let topo = match topology with Some t -> t | None -> Topology.make ~nslots () in
  if topo.Topology.nslots <> nslots then invalid_arg "Daemon.serve: topology nslots mismatch";
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let conns = ref [] in
  let accepted = ref 0 in
  (* seq -> (posting slot, frame, frame checksum) *)
  let board : (int, int * string * int) Hashtbl.t = Hashtbl.create 64 in
  let next_seq = ref 0 in
  let started = ref false in
  let reports = Hashtbl.create 8 in
  let down = ref [] in
  (* slots whose connection died: blamed only after the grace window,
     so a successful reconnect degrades to latency instead of blame *)
  let pending_down : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let frames_in = ref 0 in
  let frames_out = ref 0 in
  let digests_out = ref 0 in
  let batches_out = ref 0 in
  let suppressed = ref 0 in
  let reconnects = ref 0 in
  let replayed = ref 0 in
  let recovered = ref 0 in
  let timed_out = ref false in
  (* the daemon's own transcript digest: chained over accepted posts
     in sequence order, same chain as Board, so a fault-free run can
     be checked against the sim digest without any client's help *)
  let digest = ref Yoso_net.Board.digest_seed in
  let chain csum = digest := Yoso_net.Board.chain_digest !digest csum in
  let scratch = Bytes.create 65536 in
  let t0 = Sockio.now () in

  (* crash recovery: the journal is the only state that survives a
     daemon death — rebuild board, sequence counter, digest chain,
     start flag and report table from its intact prefix before
     accepting traffic.  Posts were journaled in sequence order *)
  let journal =
    Option.map
      (fun path ->
        let records, j =
          Journal.open_append ~fsync_every:policy.Transport_policy.fsync_every ~path ()
        in
        List.iter
          (function
            | Envelope.Start { nslots = n } ->
              if n <> nslots then
                invalid_arg
                  (Printf.sprintf "Daemon.serve: journal is for %d slots, run has %d" n
                     nslots);
              started := true
            | Envelope.Post { seq; slot; frame } ->
              let csum = Wire.checksum frame in
              Hashtbl.replace board seq (slot, frame, csum);
              next_seq := seq + 1;
              chain csum;
              incr recovered
            | Envelope.Report { slot; json } -> Hashtbl.replace reports slot json
            | _ -> ())
          records;
        j)
      journal_path
  in
  let jappend msg = Option.iter (fun j -> Journal.append j msg) journal in

  let enqueue c payload =
    if (not c.closed) && not c.sever_after_flush then Queue.add payload c.outq
  in
  (* coalesce this connection's pending delivery records into one
     envelope.  Records were appended in seq order, so a flushed batch
     preserves the board's total order *)
  let flush_batch c =
    match c.batch with
    | [] -> ()
    | records ->
      let payload = Envelope.encode (Envelope.Deliver_batch (List.rev records)) in
      c.batch <- [];
      c.batch_bytes <- 0;
      incr batches_out;
      enqueue c payload
  in
  (* control traffic must not overtake batched records queued
     earlier: flush first *)
  let enqueue_ctl c payload =
    flush_batch c;
    enqueue c payload
  in
  let append_record c r =
    let sz = Envelope.record_size r in
    if c.batch_bytes + sz > Envelope.default_max_body - 4096 then flush_batch c;
    c.batch <- r :: c.batch;
    c.batch_bytes <- c.batch_bytes + sz
  in
  (* abrupt connection loss: close now, blame only after the grace
     window (unless the slot already reported) *)
  let drop_conn c =
    if not c.closed then begin
      c.closed <- true;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      match c.slot with
      | Some s
        when (not c.reported)
             && (not (Hashtbl.mem reports s))
             && (not (List.mem s !down))
             && not (Hashtbl.mem pending_down s) ->
        Hashtbl.replace pending_down s
          (Sockio.now () +. (policy.Transport_policy.grace_ms /. 1000.))
      | _ -> ()
    end
  in
  (* a reconnect took over the slot: retire the old connection without
     scheduling blame — the daemon may not have seen its EOF yet *)
  let supersede c =
    if not c.closed then begin
      c.closed <- true;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  (* the record slot [me] gets for [owner]'s frame: in full inside the
     owner's quorum, a compact digest record everywhere else — for the
     owner itself that record is its ack *)
  let record_for ~me ~seq ~owner ~frame ~csum =
    if Topology.wants_full topo ~me ~owner then Envelope.Full { seq; slot = owner; frame }
    else Envelope.Digest { seq; slot = owner; csum; len = String.length frame }
  in
  (* live delivery is counted here; catch-up replay appends its
     records directly and is counted in [replayed] *)
  let append_live c record =
    append_record c record;
    match record with
    | Envelope.Full _ -> incr frames_out
    | Envelope.Digest { len; _ } ->
      incr digests_out;
      suppressed := !suppressed + len
  in
  (* first-time delivery of one accepted post to one slot-bound
     connection, riding its per-connection batch.  Chaos is consulted
     once per record; catch-up replay bypasses it (fault schedules stay
     finite) *)
  let deliver c ~seq ~owner ~frame ~csum =
    let me = match c.slot with Some s -> s | None -> assert false in
    let record = record_for ~me ~seq ~owner ~frame ~csum in
    let send () = append_live c record in
    match chaos with
    | Some ch when not c.sever_after_flush -> (
      match Chaos.on_deliver ch ~seq ~slot:me with
      | Chaos.Pass -> send ()
      | Chaos.Duplicate ->
        send ();
        send ()
      | Chaos.Delay ms ->
        (* stall the whole connection, never one record: per-connection
           FIFO order is what the client's catch-up logic relies on *)
        send ();
        let until = Sockio.now () +. (ms /. 1000.) in
        if until > c.stall_until then c.stall_until <- until
      | Chaos.Sever -> drop_conn c
      | Chaos.Truncate f ->
        flush_batch c;
        let payload = Envelope.encode (Envelope.Deliver_batch [ record ]) in
        let len = String.length payload in
        let k = max 1 (min (len - 1) (int_of_float (f *. float_of_int len))) in
        enqueue c (String.sub payload 0 k);
        c.sever_after_flush <- true)
    | _ -> send ()
  in
  (* only slot-bound connections receive broadcasts: a reconnecting
     connection must get its ordered replay first, or new frames would
     arrive out of order and be dropped as stale by the client *)
  let targets () = List.filter (fun c -> (not c.closed) && c.slot <> None) !conns in
  let broadcast msg =
    let payload = Envelope.encode msg in
    List.iter (fun c -> enqueue_ctl c payload) (targets ())
  in
  let expire_pending now =
    let expired =
      Hashtbl.fold (fun s d acc -> if d <= now then s :: acc else acc) pending_down []
    in
    List.iter
      (fun s ->
        Hashtbl.remove pending_down s;
        if (not (List.mem s !down)) && not (Hashtbl.mem reports s) then begin
          down := s :: !down;
          broadcast (Envelope.Peer_down { slot = s })
        end)
      expired
  in
  let hellos () =
    List.length (List.filter (fun c -> c.slot <> None && not c.closed) !conns)
  in
  let maybe_start () =
    if (not !started) && hellos () = nslots then begin
      started := true;
      jappend (Envelope.Start { nslots });
      broadcast (Envelope.Start { nslots })
    end
  in
  let handle c msg =
    match msg with
    | Envelope.Hello { slot; nslots = peer_nslots; seed = _ } ->
      if peer_nslots <> nslots then
        violate "hello: peer expects %d slots, run has %d" peer_nslots nslots;
      if slot < 0 || slot >= nslots then violate "hello: slot %d out of range" slot;
      if List.exists (fun c' -> c'.slot = Some slot && not c'.closed) !conns then
        violate "hello: slot %d already connected" slot;
      c.slot <- Some slot;
      Hashtbl.remove pending_down slot;
      if !started then enqueue c (Envelope.encode (Envelope.Start { nslots }))
      else maybe_start ()
    | Envelope.Recover { slot; nslots = peer_nslots; seed = _; next_seq = client_next } ->
      if peer_nslots <> nslots then
        violate "recover: peer expects %d slots, run has %d" peer_nslots nslots;
      if slot < 0 || slot >= nslots then violate "recover: slot %d out of range" slot;
      if c.slot <> None then violate "recover on an already-bound connection";
      if client_next < 0 || client_next > !next_seq then
        violate "recover: slot %d claims %d deliveries, board has %d" slot client_next
          !next_seq;
      List.iter (fun c' -> if c'.slot = Some slot && not c'.closed then supersede c') !conns;
      Hashtbl.remove pending_down slot;
      c.slot <- Some slot;
      c.reported <- Hashtbl.mem reports slot;
      incr reconnects;
      enqueue c
        (Envelope.encode (Envelope.Recovered { next_seq = !next_seq; started = !started }));
      (* ordered catch-up: replay the board gap as the very records
         live delivery would have sent; a missing seq is a gap left by
         a dead slot and the survivors skipped it too *)
      for seq = client_next to !next_seq - 1 do
        match Hashtbl.find_opt board seq with
        | Some (owner, frame, csum) ->
          append_record c (record_for ~me:slot ~seq ~owner ~frame ~csum);
          incr replayed
        | None -> ()
      done;
      maybe_start ()
    | Envelope.Post { seq; slot; frame } ->
      if not !started then violate "post before start";
      if c.slot <> Some slot then violate "post: slot %d on connection %s" slot (conn_name c);
      if seq < !next_seq then begin
        (* a reconnecting owner re-posts frames it cannot prove the
           daemon accepted; byte-identical duplicates are absorbed *)
        match Hashtbl.find_opt board seq with
        | Some (s, f, _) when s = slot && f = frame -> ()
        | _ -> violate "post: seq %d, already at %d" seq !next_seq
      end
      else begin
        (* strictly monotone, gaps allowed: a frame owned by a dead slot
           is never posted and survivors continue past it *)
        next_seq := seq + 1;
        incr frames_in;
        (* a garbled inner frame is forwarded like any other:
           members blame it, exclusion is the verifiers' job *)
        let csum = Wire.checksum frame in
        Hashtbl.replace board seq (slot, frame, csum);
        chain csum;
        jappend msg;
        (* accepted and journaled: a scheduled kill fires here, before
           the delivery, so the restarted daemon (whose recovered
           counter is already past [seq]) never re-crashes *)
        (match chaos with
        | Some ch when Chaos.kill_now ch ~seq -> raise Crash_now
        | _ -> ());
        List.iter (fun c -> deliver c ~seq ~owner:slot ~frame ~csum) (targets ())
      end
    | Envelope.Report { slot; json } ->
      if c.slot <> Some slot then violate "report: slot %d on connection %s" slot (conn_name c);
      Hashtbl.replace reports slot json;
      jappend msg;
      c.reported <- true
    | Envelope.Start _ | Envelope.Deliver_batch _ | Envelope.Peer_down _ | Envelope.Shutdown
    | Envelope.Recovered _ ->
      violate "client sent a daemon-only message"
  in
  (* hand [n] freshly read bytes to the connection's envelope stream
     and handle every complete envelope *)
  let ingest c n =
    c.recv_b <- c.recv_b + n;
    Envelope.feed_bytes c.stream scratch n;
    try
      let rec drain () =
        match Envelope.next c.stream with
        | Some msg ->
          handle c msg;
          drain ()
        | None -> ()
      in
      drain ()
    with Envelope.Envelope_error _ | Protocol_violation _ -> drop_conn c
  in
  let read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> drop_conn c
    | n -> ingest c n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop_conn c
  in
  (* A failed write means the peer has gone, but what it sent before
     closing — typically its final [Report] — may still sit unread in
     the receive buffer.  Handle all of it before dropping, or a client
     that reports and exits while deliveries are queued for it would be
     blamed as down. *)
  let drain_and_drop c =
    let rec go () =
      if not c.closed then
        match Unix.read c.fd scratch 0 (Bytes.length scratch) with
        | 0 -> ()
        | n ->
          ingest c n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> ()
    in
    go ();
    drop_conn c
  in
  let write_conn c =
    if (not c.closed) && not (Queue.is_empty c.outq) then begin
      let head = Queue.peek c.outq in
      let len = String.length head - c.out_off in
      match Unix.single_write_substring c.fd head c.out_off len with
      | n ->
        c.sent_b <- c.sent_b + n;
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          if Queue.is_empty c.outq && c.sever_after_flush then drop_conn c
        end
        else c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> drain_and_drop c
    end
  in
  let accept_conn () =
    match Unix.accept ~cloexec:true listen with
    | fd, _addr ->
      Unix.set_nonblock fd;
      incr accepted;
      conns :=
        !conns
        @ [
            {
              fd;
              id = !accepted;
              stream = Envelope.stream ();
              outq = Queue.create ();
              out_off = 0;
              slot = None;
              batch = [];
              batch_bytes = 0;
              reported = false;
              closed = false;
              stall_until = 0.;
              sever_after_flush = false;
              sent_b = 0;
              recv_b = 0;
            };
          ]
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let slots_settled () =
    !started
    && List.for_all
         (fun s -> Hashtbl.mem reports s || List.mem s !down)
         (List.init nslots Fun.id)
  in
  let pending_writes () =
    List.exists (fun c -> (not c.closed) && not (Queue.is_empty c.outq)) !conns
  in
  (* main event loop *)
  let rec loop () =
    if Sockio.now () -. t0 > policy.Transport_policy.watchdog_s then timed_out := true
    else if slots_settled () && not (pending_writes ()) then ()
    else begin
      let now = Sockio.now () in
      expire_pending now;
      let live = List.filter (fun c -> not c.closed) !conns in
      let rds = listen :: List.map (fun c -> c.fd) live in
      let wrs =
        List.filter_map
          (fun c ->
            if Queue.is_empty c.outq || c.stall_until > now then None else Some c.fd)
          live
      in
      (match Unix.select rds wrs [] tick_s with
      | rready, wready, _ ->
        if List.memq listen rready then accept_conn ();
        List.iter
          (fun c -> if (not c.closed) && List.memq c.fd wready then write_conn c)
          live;
        List.iter
          (fun c -> if (not c.closed) && List.memq c.fd rready then read_conn c)
          live;
        (* one flush per event-loop turn: every delivery that arrived
           in this turn's reads rides out in a single coalesced
           envelope per connection *)
        List.iter (fun c -> if not c.closed then flush_batch c) live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  let mk_stats () =
    let bytes_in = List.fold_left (fun a c -> a + c.recv_b) 0 !conns in
    let bytes_out = List.fold_left (fun a c -> a + c.sent_b) 0 !conns in
    {
      frames_in = !frames_in;
      frames_out = !frames_out;
      digests_out = !digests_out;
      batches_out = !batches_out;
      suppressed_bytes = !suppressed;
      bytes_in;
      bytes_out;
      reconnects = !reconnects;
      replayed_frames = !replayed;
      recovered_frames = !recovered;
      journal_bytes = (match journal with Some j -> Journal.bytes j | None -> 0);
      digest = !digest;
      chaos_events = (match chaos with Some ch -> Chaos.events ch | None -> []);
      timed_out = !timed_out;
    }
  in
  let close_all () =
    List.iter
      (fun c ->
        if not c.closed then begin
          c.closed <- true;
          try Unix.close c.fd with Unix.Unix_error _ -> ()
        end)
      !conns
  in
  (match loop () with
  | () -> ()
  | exception Crash_now ->
    (* simulated daemon crash: every connection is dropped on the
       floor and only the journal survives.  The listen socket stays
       open (the caller owns it), so a restarted serve on the same fd
       picks up the reconnect storm. *)
    close_all ();
    Option.iter Journal.close journal;
    raise (Crashed (mk_stats ())));
  (* orderly shutdown: tell everyone, best-effort flush, close *)
  if not !timed_out then begin
    broadcast Envelope.Shutdown;
    let flush_deadline = Sockio.now () +. 1.0 in
    let rec flush () =
      if pending_writes () && Sockio.now () < flush_deadline then begin
        let live = List.filter (fun c -> not c.closed) !conns in
        let wrs =
          (* shutdown overrides any chaos stall *)
          List.filter_map
            (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
            live
        in
        (match Unix.select [] wrs [] 0.05 with
        | _, wready, _ -> List.iter (fun c -> if List.memq c.fd wready then write_conn c) live
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        flush ()
      end
    in
    flush ()
  end;
  close_all ();
  Option.iter Journal.close journal;
  {
    reports =
      Hashtbl.fold (fun s j acc -> (s, j) :: acc) reports [] |> List.sort compare;
    down = List.sort compare !down;
    stats = mk_stats ();
  }
