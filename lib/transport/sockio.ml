exception Timeout
exception Closed

(* monotonic seconds: deadlines and elapsed budgets must not move
   when the wall clock is stepped *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let deadline_after ms = now () +. (ms /. 1000.)

(* Park until [fd] is ready in the given direction, honouring the
   absolute deadline.  EINTR during select is retried with the
   remaining budget, so a signal cannot extend the wait. *)
let rec wait ~dir ~deadline fd =
  let budget =
    match deadline with
    | None -> -1.
    | Some d ->
      let left = d -. now () in
      if left <= 0. then raise Timeout else left
  in
  let rd, wr = match dir with `Read -> ([ fd ], []) | `Write -> ([], [ fd ]) in
  match Unix.select rd wr [] budget with
  | [], [], _ -> if deadline <> None then raise Timeout else wait ~dir ~deadline fd
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ~dir ~deadline fd

let read_exactly ?deadline fd n =
  if n < 0 then invalid_arg "Sockio.read_exactly: negative count";
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Bytes.unsafe_to_string buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> raise Closed
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait ~dir:`Read ~deadline fd;
        go off
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed
  in
  (* even a blocking socket gets a select first when a deadline is set,
     so a silent peer cannot pin us in read(2) forever *)
  if deadline <> None && n > 0 then wait ~dir:`Read ~deadline fd;
  go 0

let write_all ?deadline fd s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let rec go off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait ~dir:`Write ~deadline fd;
        go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed
  in
  go 0

let connect_with_retry ?(retry = Transport_policy.default.connect) ?(seed = 0) addr =
  if retry.Transport_policy.attempts < 1 then
    invalid_arg "Sockio.connect_with_retry: attempts must be >= 1";
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> () (* no sigpipe on this platform *));
  let domain = Unix.domain_of_sockaddr addr in
  let t0 = now () in
  let rec go attempt =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception
        (Unix.Unix_error
           ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EWOULDBLOCK
             | Unix.EINTR | Unix.ETIMEDOUT ),
             _,
             _ ) as e)
      when attempt < retry.Transport_policy.attempts ->
      Unix.close fd;
      let sleep = Transport_policy.backoff_ms retry ~seed ~attempt in
      (* the total elapsed cap dominates the attempt budget: doubling
         backoff must never overshoot the round deadline *)
      let elapsed = (now () -. t0) *. 1000. in
      if elapsed +. sleep > retry.Transport_policy.max_elapsed_ms then raise e
      else begin
        Unix.sleepf (sleep /. 1000.);
        go (attempt + 1)
      end
    | exception e ->
      Unix.close fd;
      raise e
  in
  go 1
