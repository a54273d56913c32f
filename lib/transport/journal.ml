module Wire = Yoso_net.Wire

type record =
  | Started of { nslots : int }
  | Posted of { seq : int; slot : int; frame : string }
  | Reported of { slot : int; json : string }

let pp_record ppf = function
  | Started { nslots } -> Format.fprintf ppf "started{nslots=%d}" nslots
  | Posted { seq; slot; frame } ->
    Format.fprintf ppf "posted{seq=%d;slot=%d;%dB}" seq slot (String.length frame)
  | Reported { slot; json } ->
    Format.fprintf ppf "reported{slot=%d;%dB}" slot (String.length json)

(* record layout: | body length (4B LE) | body | checksum (8B LE) |
   body = varint kind, then the kind's fields.  The checksum is
   Wire.checksum over the body, so a torn or bit-flipped tail is
   detected and recovery stops at the last intact record. *)

let kind_of = function Started _ -> 1 | Posted _ -> 2 | Reported _ -> 3

let encode_record r =
  let body =
    let buf = Buffer.create 64 in
    Wire.put_varint buf (kind_of r);
    (match r with
    | Started { nslots } -> Wire.put_varint buf nslots
    | Posted { seq; slot; frame } ->
      Wire.put_varint buf seq;
      Wire.put_varint buf slot;
      Wire.put_bytes buf frame
    | Reported { slot; json } ->
      Wire.put_varint buf slot;
      Wire.put_bytes buf json);
    Buffer.contents buf
  in
  let blen = String.length body in
  let buf = Buffer.create (4 + blen + 8) in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((blen lsr (8 * i)) land 0xff))
  done;
  Buffer.add_string buf body;
  let h = Wire.checksum body in
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((h lsr (8 * i)) land 0xff))
  done;
  Buffer.contents buf

let max_record_body () = !Wire.max_frame_len + 4096

let decode_body body =
  let d = { Wire.src = body; pos = 0 } in
  let r =
    match Wire.get_varint d with
    | 1 -> Started { nslots = Wire.get_varint d }
    | 2 ->
      let seq = Wire.get_varint d in
      let slot = Wire.get_varint d in
      let frame = Wire.get_bytes d in
      Posted { seq; slot; frame }
    | 3 ->
      let slot = Wire.get_varint d in
      let json = Wire.get_bytes d in
      Reported { slot; json }
    | k -> raise (Wire.Decode_error (Printf.sprintf "journal: unknown record kind %d" k))
  in
  if d.Wire.pos <> String.length body then
    raise (Wire.Decode_error "journal: trailing bytes in record body");
  r

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

(* Longest intact prefix: parsing stops at the first record whose
   length header, body or checksum is truncated or inconsistent — a
   torn tail is expected after a crash and never yields a partial
   record.  Returns the records and the byte offset where parsing
   stopped. *)
let scan path =
  let data = read_file path in
  let len = String.length data in
  let byte i = Char.code data.[i] in
  let rec go pos acc =
    if pos + 4 > len then (List.rev acc, pos)
    else
      let blen =
        byte pos lor (byte (pos + 1) lsl 8) lor (byte (pos + 2) lsl 16)
        lor (byte (pos + 3) lsl 24)
      in
      if blen < 0 || blen > max_record_body () then (List.rev acc, pos)
      else if pos + 4 + blen + 8 > len then (List.rev acc, pos)
      else
        let body = String.sub data (pos + 4) blen in
        (* all 64 bits of the trailer: a 63-bit [int] would drop bit 63 *)
        if String.get_int64_le data (pos + 4 + blen) <> Int64.of_int (Wire.checksum body) then
          (List.rev acc, pos)
        else
          match decode_body body with
          | r -> go (pos + 4 + blen + 8) (r :: acc)
          | exception Wire.Decode_error _ -> (List.rev acc, pos)
  in
  go 0 []

let replay path = fst (scan path)
let intact_bytes path = snd (scan path)

(* ------------------------------------------------------------------ *)
(* Appender                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  path : string;
  fsync_every : int;
  mutable unsynced : int;
  mutable bytes : int;  (* total file bytes, restored prefix included *)
  mutable appended : int;
  mutable closed : bool;
}

let open_append ?(fsync_every = Transport_policy.default.fsync_every) ~path () =
  if fsync_every < 1 then invalid_arg "Journal.open_append: fsync_every must be >= 1";
  (* a torn tail left by a crash must be cut before appending: new
     records written after garbage would be unreachable to replay,
     which stops at the first damaged record *)
  (match Unix.stat path with
  | { Unix.st_size; _ } ->
    let intact = intact_bytes path in
    if intact < st_size then Unix.truncate path intact
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let bytes = (Unix.fstat fd).Unix.st_size in
  { fd; path; fsync_every; unsynced = 0; bytes; appended = 0; closed = false }

let path t = t.path
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

let append t r =
  if t.closed then invalid_arg "Journal.append: journal is closed";
  let s = encode_record r in
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

