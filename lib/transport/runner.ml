module Board = Yoso_net.Board
module Role = Yoso_runtime.Role

type endpoint = [ `Unix_socket | `Tcp ]

type result = {
  reports : (int * string) list;
  down : int list;
  agree : bool;
  wall_ms : float;
  restarts : int;
  stats : Daemon.stats;
  children : (int * Unix.process_status) list;
}

(* The link a child plugs into its board: [owns] maps role index
   [mod nslots] onto this client's slot; [local] is [Topology.local];
   [send] posts owned frames; [recv] blocks on the daemon's delivery.
   [crash_after m] makes the process die ([Unix._exit 13]) when it is
   about to post its [m+1]-th own frame — the deterministic mid-round
   crash drill. *)
let link_of_client ?crash_after ~topology client =
  let me = Client.slot client in
  let owner (r : Role.id) = Topology.owner_slot topology ~index:r.Role.index in
  {
    Board.owns = (fun r -> owner r = me);
    (* this process materializes the frames it owns or receives in
       full; everything else is a skeleton whose digest record arrives
       through [recv] *)
    local = (fun r -> Topology.local topology ~me ~owner:(owner r));
    send =
      (fun ~seq ~phase:_ ~author:_ ~frame ->
        (match crash_after with
        | Some m when Client.own_posts client >= m ->
          (* the crash drill: vanish mid-round, right before our next
             owned post, so survivors must blame us for it *)
          Unix._exit 13
        | _ -> ());
        Client.post client ~seq ~frame);
    recv =
      (fun ~seq ~phase:_ ~author ->
        (Client.fetch client ~seq ~owner:(owner author) :> Board.delivery));
  }

let sock_counter = ref 0

let make_listener endpoint =
  match endpoint with
  | `Unix_socket ->
    incr sock_counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "yoso-%d-%d.sock" (Unix.getpid ()) !sock_counter)
    in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Unix.ADDR_UNIX path, Some path)
  | `Tcp ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen fd 64;
    (fd, Unix.getsockname fd, None)

(* field-wise stats accumulation across daemon lives; [b] is the
   later life, whose journal size and chaos counters are already
   cumulative (the journal file grows across restarts and the Chaos.t
   is shared between them) *)
let add_stats a b =
  {
    Daemon.frames_in = a.Daemon.frames_in + b.Daemon.frames_in;
    frames_out = a.frames_out + b.frames_out;
    digests_out = a.digests_out + b.digests_out;
    batches_out = a.batches_out + b.batches_out;
    suppressed_bytes = a.suppressed_bytes + b.suppressed_bytes;
    bytes_in = a.bytes_in + b.bytes_in;
    bytes_out = a.bytes_out + b.bytes_out;
    reconnects = a.reconnects + b.reconnects;
    replayed_frames = a.replayed_frames + b.replayed_frames;
    recovered_frames = a.recovered_frames + b.recovered_frames;
    journal_bytes = b.journal_bytes;
    (* the restarted daemon re-chains the whole journal, so the last
       life's digest already covers every accepted post *)
    digest = b.digest;
    chaos_events = b.chaos_events;
    timed_out = a.timed_out || b.timed_out;
  }

let run ?(endpoint = `Unix_socket) ?deadline_ms ?crash ?journal ?chaos ?topology
    ~nslots ~seed ~child () =
  let topology = match topology with Some t -> t | None -> Topology.make ~nslots () in
  if topology.Topology.nslots <> nslots then invalid_arg "Runner.run: topology nslots mismatch";
  (match chaos with
  | Some ch when (Chaos.config ch).Chaos.kill_at <> [] && journal = None ->
    invalid_arg "Runner.run: chaos kill points need a journal to restart from"
  | _ -> ());
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let t0 = Sockio.now () in
  (* listen before forking: the backlog holds children that connect
     before the daemon's event loop starts accepting *)
  let listen, addr, unlink_path = make_listener endpoint in
  let spawn slot =
    match Unix.fork () with
    | 0 ->
      (* child: its whole life is connect -> replay protocol -> report *)
      let status =
        try
          Unix.close listen;
          let client =
            Client.connect ?deadline_ms ~addr ~slot ~nslots ~seed ()
          in
          let crash_after =
            match crash with Some (s, m) when s = slot -> Some m | _ -> None
          in
          let link = link_of_client ?crash_after ~topology client in
          let json = child ~slot ~link in
          Client.report client ~json;
          Client.close client;
          0
        with e ->
          Printf.eprintf "[yoso-transport] slot %d: %s\n%!" slot (Printexc.to_string e);
          3
      in
      Unix._exit status
    | pid -> (slot, pid)
  in
  let pids = List.init nslots spawn in
  let finish () =
    let children =
      List.map
        (fun (slot, pid) ->
          let _, status = Unix.waitpid [] pid in
          (slot, status))
        pids
    in
    (try Unix.close listen with Unix.Unix_error _ -> ());
    (match unlink_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ());
    children
  in
  (* a chaos kill is a daemon death, not a run death: restart serving
     on the same listen fd (its backlog holds the reconnect storm) and
     recover the board from the journal *)
  let rec go crashed =
    match Daemon.serve ?journal ?chaos ~topology ~listen ~nslots () with
    | d -> (d, crashed)
    | exception Daemon.Crashed st -> go (st :: crashed)
  in
  match go [] with
  | d, crashed ->
    let children = finish () in
    let agree =
      match d.Daemon.reports with
      | [] -> false
      | (_, first) :: rest -> List.for_all (fun (_, j) -> String.equal j first) rest
    in
    {
      reports = d.reports;
      down = d.down;
      agree;
      wall_ms = (Sockio.now () -. t0) *. 1000.;
      restarts = List.length crashed;
      stats = List.fold_left (fun acc s -> add_stats s acc) d.stats crashed;
      children;
    }
  | exception e ->
    (* daemon blew up: don't leak children *)
    List.iter (fun (_, pid) -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
    ignore (finish ());
    raise e

let json_int_field json ~field =
  let needle = Printf.sprintf "\"%s\":" field in
  match String.index_opt json '{' with
  | None -> None
  | Some _ -> (
    let nlen = String.length needle in
    let jlen = String.length json in
    let rec find i =
      if i + nlen > jlen then None
      else if String.sub json i nlen = needle then Some (i + nlen)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let i = ref start in
      while !i < jlen && json.[!i] = ' ' do incr i done;
      let stop = ref !i in
      if !stop < jlen && json.[!stop] = '-' then incr stop;
      while !stop < jlen && json.[!stop] >= '0' && json.[!stop] <= '9' do incr stop done;
      if !stop = !i then None else int_of_string_opt (String.sub json !i (!stop - !i)))
