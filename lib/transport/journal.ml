(* ------------------------------------------------------------------ *)
(* Scan                                                                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

(* Longest intact prefix of a journal's bytes: the file is one
   envelope stream, and parsing stops at the first envelope that is
   incomplete, fails to decode or is not a journal record -- a torn
   tail is expected after a crash and never yields a partial record.
   Returns the records and the byte offset where parsing stopped. *)
let scan data =
  let st = Envelope.stream () in
  Envelope.feed st data;
  let rec go acc =
    let stop = String.length data - Envelope.buffered st in
    match Envelope.next st with
    | Some ((Envelope.Start _ | Envelope.Post _ | Envelope.Report _) as m) -> go (m :: acc)
    | Some _ | None | (exception Envelope.Envelope_error _) -> (List.rev acc, stop)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Appender                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  fsync_every : int;
  mutable unsynced : int;
  mutable bytes : int;  (* total file bytes, restored prefix included *)
  mutable appended : int;
  mutable closed : bool;
}

let open_append ?(fsync_every = Transport_policy.default.fsync_every) ~path () =
  if fsync_every < 1 then invalid_arg "Journal.open_append: fsync_every must be >= 1";
  let data = read_file path in
  let records, intact = scan data in
  (* a torn tail left by a crash must be cut before appending: new
     records written after garbage would be unreachable to a scan,
     which stops at the first damaged record *)
  if intact < String.length data then Unix.truncate path intact;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  (records, { fd; fsync_every; unsynced = 0; bytes = intact; appended = 0; closed = false })

let bytes t = t.bytes
let appended t = t.appended

let write_all fd s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let rec go off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let sync t =
  if (not t.closed) && t.unsynced > 0 then begin
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    t.unsynced <- 0
  end

let append t msg =
  if t.closed then invalid_arg "Journal.append: journal is closed";
  let s = Envelope.encode msg in
  write_all t.fd s;
  t.bytes <- t.bytes + String.length s;
  t.appended <- t.appended + 1;
  t.unsynced <- t.unsynced + 1;
  if t.unsynced >= t.fsync_every then sync t

let close t =
  if not t.closed then begin
    sync t;
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

