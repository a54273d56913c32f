module Wire = Yoso_net.Wire

exception Envelope_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Envelope_error s)) fmt

type record =
  | Full of { seq : int; slot : int; frame : string }
  | Digest of { seq : int; slot : int; csum : int; len : int }

type msg =
  | Hello of { slot : int; nslots : int; seed : int }
  | Start of { nslots : int }
  | Post of { seq : int; slot : int; frame : string }
  | Peer_down of { slot : int }
  | Report of { slot : int; json : string }
  | Shutdown
  | Recover of { slot : int; nslots : int; seed : int; next_seq : int }
  | Recovered of { next_seq : int; started : bool }
  | Deliver_batch of record list

let pp_msg ppf = function
  | Hello { slot; nslots; seed } ->
    Format.fprintf ppf "hello{slot=%d;nslots=%d;seed=%d}" slot nslots seed
  | Start { nslots } -> Format.fprintf ppf "start{nslots=%d}" nslots
  | Post { seq; slot; frame } ->
    Format.fprintf ppf "post{seq=%d;slot=%d;%dB}" seq slot (String.length frame)
  | Peer_down { slot } -> Format.fprintf ppf "peer-down{slot=%d}" slot
  | Report { slot; json } ->
    Format.fprintf ppf "report{slot=%d;%dB}" slot (String.length json)
  | Shutdown -> Format.fprintf ppf "shutdown"
  | Recover { slot; nslots; seed; next_seq } ->
    Format.fprintf ppf "recover{slot=%d;nslots=%d;seed=%d;next=%d}" slot nslots seed
      next_seq
  | Recovered { next_seq; started } ->
    Format.fprintf ppf "recovered{next=%d;started=%b}" next_seq started
  | Deliver_batch records ->
    let fulls =
      List.length (List.filter (function Full _ -> true | Digest _ -> false) records)
    in
    Format.fprintf ppf "deliver-batch{%d records;%d full}" (List.length records) fulls

let magic0 = 'Y'
let magic1 = 'T'
(* version 2 folds the header into the checksum *)
let version = 2
let header_len = 8 (* magic(2) version(1) type(1) length(4, LE) *)
let trailer_len = 8 (* Wire.checksum of header and body, 8 bytes LE *)

(* envelopes carry whole bulletin frames plus a little framing of
   their own; cap accordingly *)
let default_max_body = !Wire.max_frame_len + 4096

(* tags 4 and 10 belonged to retired messages: never reuse them, so a
   stray old-format envelope is rejected as an unknown type *)
let tag = function
  | Hello _ -> 1
  | Start _ -> 2
  | Post _ -> 3
  | Peer_down _ -> 5
  | Report _ -> 6
  | Shutdown -> 7
  | Recover _ -> 8
  | Recovered _ -> 9
  | Deliver_batch _ -> 11

(* wire size of one batch record, for the daemon's flush-on-cap logic:
   kind byte + generous varint headroom (+ checksum trailer for digest
   records) *)
let record_size = function
  | Full { frame; _ } -> 1 + 10 + 10 + 10 + String.length frame
  | Digest _ -> 1 + 10 + 10 + 10 + 8

let put_record buf = function
  | Full { seq; slot; frame } ->
    Wire.put_u8 buf 0;
    Wire.put_varint buf seq;
    Wire.put_varint buf slot;
    Wire.put_bytes buf frame
  | Digest { seq; slot; csum; len } ->
    Wire.put_u8 buf 1;
    Wire.put_varint buf seq;
    Wire.put_varint buf slot;
    Wire.put_varint buf len;
    (* the 63-bit checksum exceeds the canonical varint cap: fixed
       8 bytes LE, same layout as the envelope trailer *)
    Wire.put_checksum buf csum

let get_record d =
  match Wire.get_u8 d with
  | 0 ->
    let seq = Wire.get_varint d in
    let slot = Wire.get_varint d in
    let frame = Wire.get_bytes d in
    Full { seq; slot; frame }
  | 1 ->
    let seq = Wire.get_varint d in
    let slot = Wire.get_varint d in
    let len = Wire.get_varint d in
    let csum = Wire.get_checksum d in
    Digest { seq; slot; csum; len }
  | k -> fail "deliver-batch: unknown record kind %d" k

let encode_body buf = function
  | Hello { slot; nslots; seed } ->
    Wire.put_varint buf slot;
    Wire.put_varint buf nslots;
    Wire.put_varint buf seed
  | Shutdown -> ()
  | Start { nslots } -> Wire.put_varint buf nslots
  | Post { seq; slot; frame } ->
    Wire.put_varint buf seq;
    Wire.put_varint buf slot;
    Wire.put_bytes buf frame
  | Peer_down { slot } -> Wire.put_varint buf slot
  | Report { slot; json } ->
    Wire.put_varint buf slot;
    Wire.put_bytes buf json
  | Recover { slot; nslots; seed; next_seq } ->
    Wire.put_varint buf slot;
    Wire.put_varint buf nslots;
    Wire.put_varint buf seed;
    Wire.put_varint buf next_seq
  | Recovered { next_seq; started } ->
    Wire.put_varint buf next_seq;
    Wire.put_varint buf (if started then 1 else 0)
  | Deliver_batch records ->
    Wire.put_varint buf (List.length records);
    List.iter (put_record buf) records

(* [env] is one whole envelope less its trailer.  A body that passed
   the checksum can still be hostile: every [Wire] decode failure
   inside it surfaces as [Envelope_error] *)
let decode_body ~tag env =
  let d = { Wire.src = env; pos = header_len } in
  let msg =
    try
      match tag with
      | 1 ->
        let slot = Wire.get_varint d in
        let nslots = Wire.get_varint d in
        let seed = Wire.get_varint d in
        Hello { slot; nslots; seed }
      | 2 -> Start { nslots = Wire.get_varint d }
      | 3 ->
        let seq = Wire.get_varint d in
        let slot = Wire.get_varint d in
        let frame = Wire.get_bytes d in
        Post { seq; slot; frame }
      | 5 -> Peer_down { slot = Wire.get_varint d }
      | 6 ->
        let slot = Wire.get_varint d in
        let json = Wire.get_bytes d in
        Report { slot; json }
      | 7 -> Shutdown
      | 8 ->
        let slot = Wire.get_varint d in
        let nslots = Wire.get_varint d in
        let seed = Wire.get_varint d in
        let next_seq = Wire.get_varint d in
        Recover { slot; nslots; seed; next_seq }
      | 9 ->
        let next_seq = Wire.get_varint d in
        let started =
          match Wire.get_varint d with
          | 0 -> false
          | 1 -> true
          | b -> fail "recovered: bad started flag %d" b
        in
        Recovered { next_seq; started }
      | 11 ->
        let n = Wire.get_varint d in
        if n > 1 lsl 20 then fail "deliver-batch: %d records" n;
        Deliver_batch (List.init n (fun _ -> get_record d))
      | t -> fail "unknown envelope type %d" t
    with Wire.Decode_error e -> fail "envelope type %d: %s" tag e
  in
  if d.Wire.pos <> String.length env then
    fail "envelope body: %d trailing bytes" (String.length env - d.Wire.pos);
  msg

let encode msg =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (String.make header_len '\000');
  encode_body buf msg;
  let env = Buffer.to_bytes buf in
  let blen = Bytes.length env - header_len in
  Bytes.set env 0 magic0;
  Bytes.set env 1 magic1;
  Bytes.set_uint8 env 2 version;
  Bytes.set_uint8 env 3 (tag msg);
  Bytes.set_int32_le env 4 (Int32.of_int blen);
  (* the checksum covers the header too: a type or length byte
     changed in transit must not decode as another message *)
  let h = Wire.checksum (Bytes.unsafe_to_string env) in
  let out = Bytes.extend env 0 trailer_len in
  Bytes.set_int64_le out (header_len + blen) (Int64.of_int h);
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Streaming reassembly                                                *)
(* ------------------------------------------------------------------ *)

(* [buf.[pos .. len)] holds the bytes not yet consumed.  Appends blit
   into spare capacity.  When a chunk does not fit, the live bytes
   slide to the front if the consumed prefix is at least as long (so a
   slide is paid for by bytes already consumed), and otherwise move to
   a buffer of twice the capacity: time and allocation stay linear in
   the bytes fed. *)
type stream = { mutable buf : bytes; mutable pos : int; mutable len : int; max_body : int }

let stream ?(max_body = default_max_body) () =
  { buf = Bytes.empty; pos = 0; len = 0; max_body }

let buffered st = st.len - st.pos

(* a buffer grown for one large envelope is released once drained *)
let retain_cap = 1 lsl 18

(* room for [n] more bytes at [len] *)
let reserve st n =
  let live = buffered st in
  if st.len + n > Bytes.length st.buf then begin
    let cap = Bytes.length st.buf in
    let dst =
      if live + n <= cap && live <= st.pos then st.buf
      else Bytes.create (max (live + n) (max 4096 (2 * cap)))
    in
    Bytes.blit st.buf st.pos dst 0 live;
    st.buf <- dst;
    st.pos <- 0;
    st.len <- live
  end

let feed_bytes st src n =
  reserve st n;
  Bytes.blit src 0 st.buf st.len n;
  st.len <- st.len + n

let feed st chunk = feed_bytes st (Bytes.unsafe_of_string chunk) (String.length chunk)

let byte st i = Char.code (Bytes.get st.buf (st.pos + i))

(* header fields of the envelope currently at the front of the buffer;
   validates everything the header alone can prove wrong *)
let peek_header st =
  if Bytes.get st.buf st.pos <> magic0 || Bytes.get st.buf (st.pos + 1) <> magic1 then
    fail "bad envelope magic";
  if byte st 2 <> version then fail "unsupported envelope version %d" (byte st 2);
  let t = byte st 3 in
  let blen = byte st 4 lor (byte st 5 lsl 8) lor (byte st 6 lsl 16) lor (byte st 7 lsl 24) in
  (* the length guard fires on the header alone, before the body is
     allowed to accumulate *)
  if blen > st.max_body then fail "envelope body %d exceeds cap %d" blen st.max_body;
  (t, blen)

let needed st =
  if buffered st < header_len then header_len - buffered st
  else
    let _, blen = peek_header st in
    max 0 (header_len + blen + trailer_len - buffered st)

let next st =
  if buffered st < header_len then None
  else begin
    let t, blen = peek_header st in
    if buffered st < header_len + blen + trailer_len then None
    else begin
      let env = Bytes.sub_string st.buf st.pos (header_len + blen) in
      (* compared as all 64 bits, as [Wire.of_frame] does: a 63-bit
         [int] would drop bit 63 and accept two trailers for one body *)
      if Bytes.get_int64_le st.buf (st.pos + header_len + blen)
         <> Int64.of_int (Wire.checksum env)
      then fail "envelope checksum mismatch";
      st.pos <- st.pos + header_len + blen + trailer_len;
      if st.pos = st.len then begin
        st.pos <- 0;
        st.len <- 0;
        if Bytes.length st.buf > retain_cap then st.buf <- Bytes.empty
      end;
      Some (decode_body ~tag:t env)
    end
  end
