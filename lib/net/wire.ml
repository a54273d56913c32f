module F = Yoso_field.Field.Fp
module Cost = Yoso_runtime.Cost
module Splitmix = Yoso_hash.Splitmix

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Primitive encoders (into a Buffer)                                  *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

(* unsigned LEB128 *)
let put_varint buf v =
  if v < 0 then invalid_arg "Wire.put_varint: negative";
  let rec go v =
    if v < 0x80 then put_u8 buf v
    else begin
      put_u8 buf (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let put_fixed32 buf v =
  put_u8 buf v;
  put_u8 buf (v lsr 8);
  put_u8 buf (v lsr 16);
  put_u8 buf (v lsr 24)

let put_bytes buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_field buf (x : F.t) = put_fixed32 buf (F.to_int x)

(* ------------------------------------------------------------------ *)
(* Primitive decoders (over a string with a cursor)                    *)
(* ------------------------------------------------------------------ *)

type dec = { src : string; mutable pos : int }

let remaining d = String.length d.src - d.pos

let get_u8 d =
  if d.pos >= String.length d.src then fail "truncated (u8)";
  let c = Char.code d.src.[d.pos] in
  d.pos <- d.pos + 1;
  c

let get_varint d =
  let rec go shift acc nbytes =
    if shift > 49 then fail "varint too long";
    let b = get_u8 d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then begin
      (* canonical: a multi-byte encoding must not end in a zero byte *)
      if nbytes > 0 && b = 0 then fail "non-canonical varint";
      acc
    end
    else go (shift + 7) acc (nbytes + 1)
  in
  go 0 0 0

let get_fixed32 d =
  let b0 = get_u8 d in
  let b1 = get_u8 d in
  let b2 = get_u8 d in
  let b3 = get_u8 d in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let get_bytes d =
  let len = get_varint d in
  if len > remaining d then fail "length prefix %d exceeds remaining %d" len (remaining d);
  let s = String.sub d.src d.pos len in
  d.pos <- d.pos + len;
  s

let get_field d =
  let v = get_fixed32 d in
  if v >= F.p then fail "field element %d out of range (p = %d)" v F.p;
  F.of_int v

(* [min_bytes] is the shortest encoding of one element: a count the
   remaining bytes cannot hold is rejected before anything of that size
   is allocated *)
let get_count d ~what ~max ~min_bytes =
  let n = get_varint d in
  if n > max then fail "%s count %d exceeds limit %d" what n max;
  if n > remaining d / min_bytes then
    fail "%s count %d exceeds remaining %d bytes" what n (remaining d);
  n

(* ------------------------------------------------------------------ *)
(* Bulletin message items                                              *)
(* ------------------------------------------------------------------ *)

type item =
  | Field_elements of F.t array
  | Ciphertexts of string array
  | Proofs of string array
  | Partial_decs of string array
  | Public_keys of string array

type message = { step : string; items : item list }

let max_vec = 1 lsl 24
let max_items = 4096

(* the encoder refuses every shape the decoder rejects *)
let check_count n =
  if n > max_vec then invalid_arg (Printf.sprintf "Wire: vector of %d exceeds %d" n max_vec)

let put_count buf n =
  check_count n;
  put_varint buf n

let item_kind = function
  | Field_elements _ -> Cost.Field_element
  | Ciphertexts _ -> Cost.Ciphertext
  | Proofs _ -> Cost.Proof
  | Partial_decs _ -> Cost.Partial_decryption
  | Public_keys _ -> Cost.Key

(* one item kind per element kind; tags 2 and 7 are unassigned *)
let kind_tag = function
  | Cost.Field_element -> 1
  | Cost.Ciphertext -> 3
  | Cost.Proof -> 4
  | Cost.Partial_decryption -> 5
  | Cost.Key -> 6

let item_count = function
  | Field_elements v -> Array.length v
  | Ciphertexts a | Proofs a | Partial_decs a | Public_keys a -> Array.length a

(* bytes of element *data* an item carries, excluding tags and length
   prefixes (those are accounted as framing overhead by the meter) *)
let item_payload_bytes = function
  | Field_elements v -> 4 * Array.length v
  | Ciphertexts bs | Proofs bs | Partial_decs bs | Public_keys bs ->
    Array.fold_left (fun acc b -> acc + String.length b) 0 bs

let put_blob_array buf bs =
  put_count buf (Array.length bs);
  Array.iter (put_bytes buf) bs

let get_blob_array d ~what =
  let n = get_count d ~what ~max:max_vec ~min_bytes:1 in
  Array.init n (fun _ -> get_bytes d)

let put_item buf it =
  put_u8 buf (kind_tag (item_kind it));
  match it with
  | Field_elements v ->
    put_count buf (Array.length v);
    Array.iter (put_field buf) v
  | Ciphertexts bs | Proofs bs | Partial_decs bs | Public_keys bs -> put_blob_array buf bs

let get_item d =
  match get_u8 d with
  | 1 ->
    let n = get_count d ~what:"field vector" ~max:max_vec ~min_bytes:4 in
    Field_elements (Array.init n (fun _ -> get_field d))
  | 3 -> Ciphertexts (get_blob_array d ~what:"ciphertexts")
  | 4 -> Proofs (get_blob_array d ~what:"proofs")
  | 5 -> Partial_decs (get_blob_array d ~what:"partials")
  | 6 -> Public_keys (get_blob_array d ~what:"keys")
  | t -> fail "unknown item tag %d" t

(* Message and frame encoding run under the Domain pool in Phase A
   (every committee member's frame is built there), and a fresh Buffer
   per call is pure allocation churn.  Each domain reuses one growable
   scratch buffer — domain-local, so no locking; [Buffer.contents]
   still copies out an immutable string.  Oversized buffers are
   released after use so one huge frame does not pin memory. *)
let scratch_key = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let with_scratch f =
  let buf = Domain.DLS.get scratch_key in
  Buffer.clear buf;
  Fun.protect (fun () -> f buf) ~finally:(fun () ->
      if Buffer.length buf > 1 lsl 20 then Buffer.reset buf)

(* [extra] items, written by the caller, follow the message's own *)
let put_message ?(extra = 0) buf m =
  let n = List.length m.items + extra in
  if n > max_items then invalid_arg (Printf.sprintf "Wire: %d items exceed %d" n max_items);
  put_bytes buf m.step;
  put_varint buf n;
  List.iter (put_item buf) m.items

let encode_message m =
  with_scratch (fun buf ->
      put_message buf m;
      Buffer.contents buf)

let decode_message_at d =
  let step = get_bytes d in
  let n = get_count d ~what:"items" ~max:max_items ~min_bytes:2 in
  let items = List.init n (fun _ -> get_item d) in
  { step; items }

let decode_message s =
  let d = { src = s; pos = 0 } in
  let m = decode_message_at d in
  if d.pos <> String.length s then fail "trailing garbage (%d bytes)" (remaining d);
  m

(* ------------------------------------------------------------------ *)
(* Wire-size model for ideal-functionality objects                     *)
(* ------------------------------------------------------------------ *)

type sizing = {
  ciphertext_bytes : int;
  proof_bytes : int;
  partial_bytes : int;
  key_bytes : int;
}

(* modeled on 2048-bit threshold Paillier (ciphertexts and partial
   decryptions live in Z_{N^2} = 4096 bits) with constant-size
   Groth-Maller-style proofs (256-bit tag, as Nizk.size_bits) *)
let default_sizing =
  { ciphertext_bytes = 512; proof_bytes = 32; partial_bytes = 512; key_bytes = 256 }

(* payload bytes of one synthesized element of a kind *)
let element_bytes sizing = function
  | Cost.Field_element -> 4
  | Cost.Ciphertext -> sizing.ciphertext_bytes
  | Cost.Proof -> sizing.proof_bytes
  | Cost.Partial_decryption -> sizing.partial_bytes
  | Cost.Key -> sizing.key_bytes

(* whole words from the stream, then one draw per trailing byte *)
let fill_blob rng b off len =
  let full = 8 * (len / 8) in
  Splitmix.fill_bytes rng b off full;
  for i = full to len - 1 do
    Bytes.set b (off + i) (Char.chr (Splitmix.int rng 256))
  done

let random_blob rng len =
  let b = Bytes.create len in
  fill_blob rng b 0 len;
  Bytes.unsafe_to_string b

let blobs rng len n = Array.init n (fun _ -> random_blob rng len)

let items_of_cost sizing rng cost =
  List.filter_map
    (fun (kind, n) ->
      if n <= 0 then None
      else
        Some
          (match kind with
          | Cost.Field_element ->
            Field_elements (Array.init n (fun _ -> F.of_int (Splitmix.int rng F.p)))
          | Cost.Ciphertext -> Ciphertexts (blobs rng sizing.ciphertext_bytes n)
          | Cost.Proof -> Proofs (blobs rng sizing.proof_bytes n)
          | Cost.Partial_decryption -> Partial_decs (blobs rng sizing.partial_bytes n)
          | Cost.Key -> Public_keys (blobs rng sizing.key_bytes n)))
    cost

let payload_tally sizing items synth =
  let bytes =
    List.map (fun it -> (item_kind it, item_payload_bytes it)) items
    @ List.filter_map
        (fun (kind, n) -> if n <= 0 then None else Some (kind, n * element_bytes sizing kind))
        synth
  in
  List.filter_map
    (fun k ->
      match List.filter (fun (k', _) -> k' = k) bytes with
      | [] -> None
      | l -> Some (k, List.fold_left (fun acc (_, b) -> acc + b) 0 l))
    Cost.all_kinds

(* ------------------------------------------------------------------ *)
(* Framing: magic, version, length, payload, checksum                  *)
(* ------------------------------------------------------------------ *)

(* Transport integrity checksum, written as 8 little-endian bytes.
   Detects corruption in flight; it is not a cryptographic MAC
   (authenticity comes from the NIZK layer).  It is the polynomial hash

     checksum s = (0x1505 * 31^L + sum_i s.[i] * 31^(L-1-i)) mod 2^62

   [fold] evaluates it by Horner's rule eight bytes at a time, in
   native 63-bit arithmetic: reducing mod 2^62 ([land max_int]) once at
   the end equals reducing after every byte.  Unreduced folds compose
   over concatenation,

     fold h (a ^ b) = fold h a * 31^|b| + fold 0 b

   which lets a sender derive the whole-frame checksum from its one
   pass over the payload. *)
let checksum_seed = 0x1505

let p2 = 31 * 31
let p3 = p2 * 31
let p4 = p3 * 31
let p5 = p4 * 31
let p6 = p5 * 31
let p7 = p6 * 31
let p8 = p7 * 31

(* 31^k mod 2^63 *)
let pow31 k =
  let rec go acc b k =
    if k = 0 then acc else go (if k land 1 = 1 then acc * b else acc) (b * b) (k lsr 1)
  in
  go 1 31 k

let fold h s off len =
  let code j = Char.code (String.unsafe_get s j) in
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Wire.fold";
  let h = ref h and i = ref off in
  let stop = off + len in
  while !i <= stop - 8 do
    let j = !i in
    h :=
      (!h * p8) + (code j * p7) + (code (j + 1) * p6) + (code (j + 2) * p5)
      + (code (j + 3) * p4) + (code (j + 4) * p3) + (code (j + 5) * p2)
      + (code (j + 6) * 31) + code (j + 7);
    i := j + 8
  done;
  while !i < stop do
    h := (!h * 31) + code !i;
    incr i
  done;
  !h

let checksum s = fold checksum_seed s 0 (String.length s) land max_int

let put_checksum buf h =
  for i = 0 to 7 do
    put_u8 buf ((h lsr (8 * i)) land 0xff)
  done

(* all 64 bits: a value outside [checksum]'s range is rejected, never
   folded into a 63-bit [int] that would drop bit 63 *)
let get_checksum d =
  if remaining d < 8 then fail "truncated (checksum)";
  let v = String.get_int64_le d.src d.pos in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    fail "checksum %Lx out of range" v;
  d.pos <- d.pos + 8;
  Int64.to_int v

let magic0 = 'Y'
let magic1 = 'W'
let version = 1

(* Decode-time cap on frame payloads.  A peer that declares a huge
   payload length must be rejected *before* the decoder commits to
   materializing it, otherwise a single malicious frame forces an
   unbounded allocation.  Mutable so transports (and tests) can tighten
   it; the default comfortably holds every frame the protocol emits. *)
let max_frame_len = ref (1 lsl 26)

let varint_len v =
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

(* [put_varint] into bytes at [pos]; returns the position after it *)
let rec set_varint b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    set_varint b (pos + 1) (v lsr 7)
  end

(* the encoded length of the item [items_of_cost] makes for a kind *)
let synth_len sizing (kind, n) =
  check_count n;
  let size = element_bytes sizing kind in
  if size < 0 then invalid_arg (Printf.sprintf "Wire: negative element size %d" size);
  let per = match kind with Cost.Field_element -> 4 | _ -> varint_len size + size in
  1 + varint_len n + (n * per)

(* Writes the item [items_of_cost] would encode for [(kind, n)] at
   [pos], drawing from [rng] in the same order (zeros without one);
   returns the position after it. *)
let write_synth sizing rng b pos (kind, n) =
  Bytes.set b pos (Char.chr (kind_tag kind));
  let pos = ref (set_varint b (pos + 1) n) in
  (match kind with
  | Cost.Field_element ->
    for _ = 1 to n do
      let v = match rng with Some r -> Splitmix.int r F.p | None -> 0 in
      Bytes.set_int32_le b !pos (Int32.of_int v);
      pos := !pos + 4
    done
  | _ ->
    let size = element_bytes sizing kind in
    for _ = 1 to n do
      pos := set_varint b !pos size;
      (match rng with
      | Some r -> fill_blob r b !pos size
      | None -> Bytes.fill b !pos size '\000');
      pos := !pos + size
    done);
  !pos

(* Every frame is built in a domain-local scratch [Bytes], reused like
   the scratch buffer: a caller reads the frame inside [with_frame]'s
   continuation and copies it out only if it keeps the bytes.  An
   oversized scratch is released after use. *)
let frame_key = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096))

(* One encoder for every frame.  The message's own items are encoded
   into the scratch buffer; the synthesized items' lengths are known
   up front, so the header is written first, the real items are blitted
   behind it and the synthesized ones are written in place after them.
   One pass over the payload then yields both the trailer and, by the
   concatenation identity, the checksum of the whole frame. *)
let with_frame ?(sizing = default_sizing) ?rng ?(synth = []) m k =
  let synth = List.filter (fun (_, n) -> n > 0) synth in
  let slen = List.fold_left (fun acc ks -> acc + synth_len sizing ks) 0 synth in
  with_scratch (fun buf ->
      put_message ~extra:(List.length synth) buf m;
      let rlen = Buffer.length buf in
      let plen = rlen + slen in
      if plen > !max_frame_len then
        invalid_arg
          (Printf.sprintf "Wire: frame payload %d exceeds max_frame_len %d" plen !max_frame_len);
      let hlen = 3 + varint_len plen in
      let flen = hlen + plen + 8 in
      let cell = Domain.DLS.get frame_key in
      if Bytes.length !cell < flen then cell := Bytes.create (max flen (2 * Bytes.length !cell));
      let b = !cell in
      Bytes.set b 0 magic0;
      Bytes.set b 1 magic1;
      Bytes.set b 2 (Char.chr version);
      ignore (set_varint b 3 plen);
      Buffer.blit buf 0 b hlen rlen;
      ignore (List.fold_left (write_synth sizing rng b) (hlen + rlen) synth);
      let s = Bytes.unsafe_to_string b in
      let body = fold 0 s hlen plen in
      let scale = pow31 plen in
      Bytes.set_int64_le b (hlen + plen)
        (Int64.of_int (((checksum_seed * scale) + body) land max_int));
      let whole = (fold checksum_seed s 0 hlen * scale) + body in
      let csum = fold whole s (hlen + plen) 8 land max_int in
      Fun.protect (fun () -> k b flen csum) ~finally:(fun () ->
          if Bytes.length !cell > 1 lsl 20 then cell := Bytes.create 4096))

let to_frame_with_checksum m = with_frame m (fun b len csum -> (Bytes.sub_string b 0 len, csum))

let to_frame m = fst (to_frame_with_checksum m)

(* The payload is verified and decoded where it lies in the frame.  A
   decode that ends exactly at the payload's end read no byte past it
   (the cursor only advances), so this accepts precisely the frames a
   decode of the extracted payload would. *)
let of_frame s =
  let d = { src = s; pos = 0 } in
  if remaining d < 3 then fail "truncated frame";
  if s.[0] <> magic0 || s.[1] <> magic1 then fail "bad magic";
  d.pos <- 2;
  let v = get_u8 d in
  if v <> version then fail "unsupported version %d" v;
  let len = get_varint d in
  if len > !max_frame_len then
    fail "frame payload %d exceeds max_frame_len %d" len !max_frame_len;
  if len > remaining d then fail "length prefix %d exceeds remaining %d" len (remaining d);
  let start = d.pos in
  let stop = start + len in
  if String.length s - stop <> 8 then fail "bad frame trailer";
  (* compared as all 64 bits: a 63-bit [int] would drop the top bit and
     accept two trailers for one payload *)
  if String.get_int64_le s stop <> Int64.of_int (fold checksum_seed s start len land max_int)
  then fail "checksum mismatch";
  let m = decode_message_at d in
  if d.pos <> stop then fail "payload does not end at the trailer";
  m

let summary m =
  List.filter_map
    (fun k ->
      match List.filter (fun it -> item_kind it = k) m.items with
      | [] -> None
      | l -> Some (k, List.fold_left (fun acc it -> acc + item_count it) 0 l))
    Cost.all_kinds
