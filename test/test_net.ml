module F = Yoso_field.Field.Fp
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix
module Wire = Yoso_net.Wire
module Sim = Yoso_net.Sim
module Meter = Yoso_net.Meter
module Board = Yoso_net.Board
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators
module Pool = Yoso_parallel.Pool

let rejects name f =
  match f () with
  | exception Wire.Decode_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Decode_error" name

(* ------------------------------------------------------------------ *)
(* Wire primitives                                                     *)
(* ------------------------------------------------------------------ *)

let enc f =
  let buf = Buffer.create 16 in
  f buf;
  Buffer.contents buf

let test_varint_roundtrip () =
  List.iter
    (fun v ->
      let s = enc (fun b -> Wire.put_varint b v) in
      let d = { Wire.src = s; pos = 0 } in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Wire.get_varint d);
      Alcotest.(check int) "consumed" (String.length s) d.Wire.pos)
    [ 0; 1; 127; 128; 255; 300; 16384; 1 lsl 24; (1 lsl 40) + 17 ]

let test_varint_rejections () =
  (* multi-byte encoding ending in zero: 0x80 0x00 re-encodes 0 *)
  rejects "non-canonical" (fun () ->
      Wire.get_varint { Wire.src = "\x80\x00"; pos = 0 });
  rejects "truncated" (fun () -> Wire.get_varint { Wire.src = "\x80"; pos = 0 });
  rejects "too long" (fun () ->
      Wire.get_varint { Wire.src = String.make 9 '\x80' ^ "\x01"; pos = 0 })

let test_field_codec () =
  let vals = [ 0; 1; 12345; F.p - 1 ] in
  List.iter
    (fun v ->
      let s = enc (fun b -> Wire.put_field b (F.of_int v)) in
      Alcotest.(check int) "4 bytes" 4 (String.length s);
      Alcotest.(check int) "roundtrip" v
        (F.to_int (Wire.get_field { Wire.src = s; pos = 0 })))
    vals;
  (* out-of-range: p itself and anything above must be rejected *)
  List.iter
    (fun v ->
      let s = enc (fun b -> Wire.put_fixed32 b v) in
      rejects "field >= p" (fun () -> Wire.get_field { Wire.src = s; pos = 0 }))
    [ F.p; F.p + 1; 0x7fffffff + 1 ]

let test_bytes_truncation () =
  (* declared length exceeds what is actually there *)
  rejects "length overrun" (fun () -> Wire.get_bytes { Wire.src = "\x05ab"; pos = 0 })

(* ------------------------------------------------------------------ *)
(* Messages and frames                                                 *)
(* ------------------------------------------------------------------ *)

let item_equal a b =
  match (a, b) with
  | Wire.Field_elements x, Wire.Field_elements y ->
    Array.length x = Array.length y && Array.for_all2 F.equal x y
  | Wire.Ciphertexts x, Wire.Ciphertexts y
  | Wire.Proofs x, Wire.Proofs y
  | Wire.Partial_decs x, Wire.Partial_decs y
  | Wire.Public_keys x, Wire.Public_keys y -> x = y
  | _ -> false

let sample_message () =
  {
    Wire.step = "test: every item kind";
    items =
      [
        Wire.Field_elements (Array.init 9 (fun i -> F.of_int (i * i)));
        Wire.Ciphertexts [| "ct-one"; "ct-two" |];
        Wire.Proofs [| String.make 32 'p' |];
        Wire.Partial_decs [| "pd"; ""; "x" |];
        Wire.Public_keys [| String.make 16 'k' |];
        Wire.Field_elements [| F.one |];
      ];
  }

let message_equal m1 m2 =
  m1.Wire.step = m2.Wire.step
  && List.length m1.Wire.items = List.length m2.Wire.items
  && List.for_all2 item_equal m1.Wire.items m2.Wire.items

let test_message_roundtrip () =
  let m = sample_message () in
  Alcotest.(check bool) "roundtrip" true (message_equal m (Wire.decode_message (Wire.encode_message m)))

let test_message_trailing_garbage () =
  let s = Wire.encode_message (sample_message ()) in
  rejects "trailing garbage" (fun () -> Wire.decode_message (s ^ "\x00"))

let test_frame_roundtrip () =
  let m = sample_message () in
  Alcotest.(check bool) "roundtrip" true (message_equal m (Wire.of_frame (Wire.to_frame m)))

let test_frame_tamper_rejection () =
  (* flipping any single byte of the frame must be caught *)
  let frame = Wire.to_frame (sample_message ()) in
  for i = 0 to String.length frame - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
    rejects (Printf.sprintf "tampered byte %d" i) (fun () ->
        Wire.of_frame (Bytes.unsafe_to_string b))
  done;
  rejects "truncated frame" (fun () ->
      Wire.of_frame (String.sub frame 0 (String.length frame - 1)))

let test_item_accounting () =
  Alcotest.(check int) "field payload" 20
    (Wire.item_payload_bytes (Wire.Field_elements (Array.make 5 F.one)));
  Alcotest.(check int) "blob payload" 11
    (Wire.item_payload_bytes (Wire.Ciphertexts [| "hello"; "world!" |]));
  let m = sample_message () in
  let s = Wire.summary m in
  (* two field items tally under one kind, in Cost.all_kinds order *)
  Alcotest.(check (list (pair string int)))
    "summary"
    [ ("field", 10); ("ciphertext", 2); ("proof", 1); ("partial-dec", 3); ("key", 1) ]
    (List.map (fun (k, n) -> (Cost.kind_to_string k, n)) s)

let test_items_of_cost () =
  let rng = Splitmix.of_int 99 in
  let items =
    Wire.items_of_cost Wire.default_sizing rng
      [ (Cost.Field_element, 3); (Cost.Ciphertext, 2); (Cost.Proof, 1); (Cost.Key, 0) ]
  in
  Alcotest.(check int) "zero-count kinds skipped" 3 (List.length items);
  let payload = List.fold_left (fun acc it -> acc + Wire.item_payload_bytes it) 0 items in
  Alcotest.(check int) "modeled sizes" ((3 * 4) + (2 * 512) + 32) payload

let arb_message =
  QCheck.map
    (fun (seed, nitems) ->
      let rng = Splitmix.of_int seed in
      let item () =
        match Splitmix.int rng 5 with
        | 0 -> Wire.Field_elements (Array.init (Splitmix.int rng 20) (fun _ -> F.of_int (Splitmix.int rng F.p)))
        | 1 -> Wire.Ciphertexts (Array.init (Splitmix.int rng 4) (fun _ -> Wire.random_blob rng (Splitmix.int rng 64)))
        | 2 -> Wire.Proofs (Array.init (Splitmix.int rng 4) (fun _ -> Wire.random_blob rng 32))
        | 3 -> Wire.Partial_decs (Array.init (Splitmix.int rng 4) (fun _ -> Wire.random_blob rng (Splitmix.int rng 64)))
        | _ -> Wire.Public_keys (Array.init (Splitmix.int rng 3) (fun _ -> Wire.random_blob rng 16))
      in
      { Wire.step = Printf.sprintf "step-%d" (seed land 0xff); items = List.init nitems (fun _ -> item ()) })
    QCheck.(pair int (int_bound 6))

(* byte-at-a-time reference for [Wire.checksum]: the per-byte Horner
   recurrence, reduced mod 2^62 after every step *)
let ref_checksum s =
  let h = ref 0x1505 in
  String.iter (fun c -> h := ((!h * 31) + Char.code c) land max_int) s;
  !h

let test_checksum_reference () =
  let rng = Splitmix.of_int 0xC5 in
  for len = 0 to 300 do
    let s = Wire.random_blob rng len in
    Alcotest.(check int) (Printf.sprintf "random, length %d" len) (ref_checksum s) (Wire.checksum s);
    let ff = String.make len '\xff' in
    Alcotest.(check int) (Printf.sprintf "all 0xff, length %d" len) (ref_checksum ff)
      (Wire.checksum ff)
  done;
  let mib = Wire.random_blob rng (1 lsl 20) in
  Alcotest.(check int) "1 MiB" (ref_checksum mib) (Wire.checksum mib)

let test_splitmix_fill () =
  List.iter
    (fun len ->
      let a = Splitmix.of_int len and b = Splitmix.of_int len in
      let filled = Bytes.make (len + 6) '?' in
      Splitmix.fill_bytes a filled 3 len;
      let expected = Bytes.make (len + 6) '?' in
      for i = 0 to ((len + 7) / 8) - 1 do
        let w = Splitmix.next b in
        for k = 0 to min 8 (len - (8 * i)) - 1 do
          Bytes.set expected (3 + (8 * i) + k)
            (Char.chr (Int64.to_int (Int64.shift_right_logical w (8 * k)) land 0xff))
        done
      done;
      Alcotest.(check string) (Printf.sprintf "length %d" len) (Bytes.to_string expected)
        (Bytes.to_string filled);
      Alcotest.(check int64) (Printf.sprintf "stream continues, length %d" len) (Splitmix.next b)
        (Splitmix.next a))
    [ 0; 1; 7; 8; 9; 15; 16; 17; 63; 64; 512; 1001 ]

(* the frame layout built from its parts around a payload, with the
   reference checksum as its trailer *)
let frame_of_payload payload =
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf "YW";
  Wire.put_u8 buf 1;
  Wire.put_bytes buf payload;
  Wire.put_checksum buf (ref_checksum payload);
  Buffer.contents buf

let ref_frame m = frame_of_payload (Wire.encode_message m)

(* The reference for [Wire.with_frame]: the synthesized items
   materialized ([Wire.items_of_cost], or zero-filled without an RNG)
   and appended to the real ones, then encoded whole; and the payload
   tally by a table pass over every item. *)
let skeleton_items sizing cost =
  let zeros len n = Array.make n (String.make len '\000') in
  List.filter_map
    (fun (kind, n) ->
      if n <= 0 then None
      else
        Some
          (match kind with
          | Cost.Field_element -> Wire.Field_elements (Array.make n F.zero)
          | Cost.Ciphertext -> Wire.Ciphertexts (zeros sizing.Wire.ciphertext_bytes n)
          | Cost.Proof -> Wire.Proofs (zeros sizing.Wire.proof_bytes n)
          | Cost.Partial_decryption -> Wire.Partial_decs (zeros sizing.Wire.partial_bytes n)
          | Cost.Key -> Wire.Public_keys (zeros sizing.Wire.key_bytes n)))
    cost

let ref_tally items =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun it ->
      let k = Wire.item_kind it in
      Hashtbl.replace tbl k
        (Wire.item_payload_bytes it + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    items;
  List.filter_map (fun k -> Option.map (fun b -> (k, b)) (Hashtbl.find_opt tbl k)) Cost.all_kinds

let gen_cost =
  QCheck.Gen.(list_size (int_bound 6) (pair (oneofl Cost.all_kinds) (int_range (-1) 5)))

let gen_sizing =
  let open QCheck.Gen in
  frequency
    [
      (1, return Wire.default_sizing);
      ( 3,
        let size = int_bound 70 in
        let* ciphertext_bytes = size and* proof_bytes = size and* partial_bytes = size in
        let+ key_bytes = size in
        { Wire.ciphertext_bytes; proof_bytes; partial_bytes; key_bytes } );
    ]

let print_cost cost =
  String.concat "; "
    (List.map (fun (k, n) -> Printf.sprintf "%s %d" (Cost.kind_to_string k) n) cost)

let arb_post =
  QCheck.make
    ~print:(fun (m, cost, sz, seed) ->
      Printf.sprintf "%d real items; cost [%s]; sizing %d/%d/%d/%d; rng %s"
        (List.length m.Wire.items) (print_cost cost) sz.Wire.ciphertext_bytes sz.Wire.proof_bytes
        sz.Wire.partial_bytes sz.Wire.key_bytes
        (match seed with Some s -> string_of_int s | None -> "none (skeleton)"))
    QCheck.Gen.(quad (QCheck.gen arb_message) gen_cost gen_sizing (opt int))

(* a frame of 0xff bytes, encoded to leave the scratch buffer dirty *)
let dirty = { Wire.step = ""; items = [ Wire.Ciphertexts [| String.make 20000 '\xff' |] ] }

(* [Wire.with_frame] writes the synthesized weight in place: same bytes,
   length and checksum as encoding the materialized items, the same
   RNG draws, and the same payload tally.  It runs on a dirty scratch
   buffer, so a skeleton byte it does not write shows. *)
let in_place_equals_materialized (m, cost, sizing, seed) =
  let rng () = Option.map Splitmix.of_int seed in
  let old_rng = rng () and new_rng = rng () in
  ignore (Wire.to_frame dirty);
  let got =
    Wire.with_frame ~sizing ?rng:new_rng ~synth:cost m (fun b len csum ->
        (Bytes.sub_string b 0 len, len, csum))
  in
  let synthesized =
    match old_rng with
    | Some r -> Wire.items_of_cost sizing r cost
    | None -> skeleton_items sizing cost
  in
  let full = { m with Wire.items = m.Wire.items @ synthesized } in
  let frame, csum = Wire.to_frame_with_checksum full in
  got = (frame, String.length frame, csum)
  && String.equal frame (ref_frame full)
  && csum = ref_checksum frame
  && Wire.payload_tally sizing m.Wire.items cost = ref_tally full.Wire.items
  &&
  match (old_rng, new_rng) with
  | Some a, Some b -> Splitmix.next a = Splitmix.next b
  | _ -> true

let qcheck_props =
  [
    QCheck.Test.make ~count:200 ~name:"message roundtrip" arb_message (fun m ->
        message_equal m (Wire.decode_message (Wire.encode_message m)));
    QCheck.Test.make ~count:200 ~name:"frame roundtrip" arb_message (fun m ->
        message_equal m (Wire.of_frame (Wire.to_frame m)));
    QCheck.Test.make ~count:200 ~name:"frame = reference layout, sender checksum = checksum"
      arb_message (fun m ->
        let f, h = Wire.to_frame_with_checksum m in
        String.equal f (ref_frame m) && String.equal f (Wire.to_frame m) && h = ref_checksum f);
    QCheck.Test.make ~count:100 ~name:"digest chains the checksum of the frame sent"
      QCheck.(pair arb_message bool)
      (fun (m, corrupt) ->
        let b = Board.create () in
        let sent = ref [] in
        Board.set_link b
          (Some
             {
               Board.owns = (fun _ -> true);
               local = (fun _ -> true);
               send = (fun ~seq:_ ~phase:_ ~author:_ ~frame -> sent := frame :: !sent);
               recv = (fun ~seq:_ ~phase:_ ~author:_ -> `Down);
               stats = (fun () -> (0, 0));
             });
        ignore
          (Board.post b ~author:(Role.id ~committee:"Q#1" ~index:0) ~phase:"p"
             ~step:m.Wire.step ~items:m.Wire.items ~corrupt
             ~cost:[ (Cost.Ciphertext, 3); (Cost.Proof, 1) ]
             ());
        match !sent with
        | [ frame ] ->
          (* the chain's first link, over the bytes that went out: a
             corrupted frame is hashed as flipped, and still rejected *)
          (Board.transcript b).Board.digest
          = ((0x9e3779b9 * 1000003) + ref_checksum frame) land max_int
          && corrupt
             = (match Wire.of_frame frame with
               | _ -> false
               | exception Wire.Decode_error _ -> true)
        | _ -> false);
    QCheck.Test.make ~count:300 ~name:"in-place synthesis = materialized items" arb_post
      in_place_equals_materialized;
  ]

(* ------------------------------------------------------------------ *)
(* Encoder limits and decoder fuzzing                                  *)
(* ------------------------------------------------------------------ *)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let with_cap cap f =
  let saved = !Wire.max_frame_len in
  Wire.max_frame_len := cap;
  Fun.protect ~finally:(fun () -> Wire.max_frame_len := saved) f

(* the decoder's item limit, restated *)
let within_limits m = List.length m.Wire.items <= 4096

(* messages at the encoder's limits: item lists around 4096, and a
   frame cap a few bytes either side of the payload length; plus items
   for [Wire.with_frame] to synthesize — a few, which can tip the item
   count past 4096, or one vector just over 2^24 elements *)
let arb_edge =
  let open QCheck.Gen in
  let field = map F.of_int (int_bound (F.p - 1)) in
  let small =
    oneof
      [
        map (fun v -> Wire.Field_elements v) (array_size (int_bound 4) field);
        map (fun a -> Wire.Proofs a) (array_size (int_bound 3) (string_size (int_bound 4)));
      ]
  in
  let items =
    frequency
      [
        (3, list_size (int_bound 4) small);
        (1, map (fun n -> List.init n (fun _ -> Wire.Field_elements [||])) (int_range 4094 4098));
      ]
  in
  let kind = oneofl Cost.all_kinds in
  let synth =
    frequency
      [
        (2, return []);
        (3, list_size (int_bound 2) (pair kind (int_bound 3)));
        (1, map (fun (k, d) -> [ (k, (1 lsl 24) + d) ]) (pair kind (int_range 1 2)));
      ]
  in
  let print (m, synth, slack) =
    Printf.sprintf "%d items, synth [%s], cap slack %d" (List.length m.Wire.items)
      (print_cost synth) slack
  in
  QCheck.make ~print
    (triple (map (fun items -> { Wire.step = "edge"; items }) items) synth (int_range (-3) 3))

let edge_sizing = { Wire.ciphertext_bytes = 9; proof_bytes = 0; partial_bytes = 3; key_bytes = 1 }

(* [Wire.to_frame] on the message with the synthesized items
   materialized, and [Wire.with_frame] synthesizing them in place:
   each raises exactly when the decoder would reject the frame, and
   otherwise emits a frame that decodes to that message.  A vector
   over 2^24 is only ever given to [with_frame], which must refuse it
   before building anything. *)
let encoder_refuses_what_decoder_rejects (m, synth, slack) =
  let counts_ok = List.for_all (fun (_, n) -> n <= 1 lsl 24) synth in
  let full () =
    { m with Wire.items = m.Wire.items @ Wire.items_of_cost edge_sizing (Splitmix.of_int 3) synth }
  in
  let ok = counts_ok && within_limits (full ()) in
  let plen = if ok then String.length (Wire.encode_message (full ())) else 0 in
  let cap = if ok then max 0 (plen + slack) else !Wire.max_frame_len in
  with_cap cap (fun () ->
      let decodable = ok && plen <= cap in
      let accepts encode =
        match encode () with
        | exception Invalid_argument _ -> not decodable
        | f -> decodable && message_equal (full ()) (Wire.of_frame f)
      in
      ((not counts_ok) || accepts (fun () -> Wire.to_frame (full ())))
      && accepts (fun () ->
             Wire.with_frame ~sizing:edge_sizing ~rng:(Splitmix.of_int 3) ~synth m
               (fun b len _ -> Bytes.sub_string b 0 len)))

(* vectors over 2^24 elements, one per encoding path: refused before a
   byte is written.  Each element type's array is 128 MiB, so one is
   collected before the next is made. *)
let test_encoder_refuses_long_vectors () =
  let n = (1 lsl 24) + 1 in
  let refuses what items =
    match Wire.to_frame { Wire.step = "long"; items } with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s of %d elements must be refused" what n
  in
  List.iter
    (fun check ->
      check ();
      Gc.full_major ())
    [
      (fun () -> refuses "field vector" [ Wire.Field_elements (Array.make n F.zero) ]);
      (fun () -> refuses "blob array" [ Wire.Ciphertexts (Array.make n "") ]);
    ]

(* A payload as the encoder lays it out, one segment per field, so a
   mutator can target one field and re-render the rest unchanged. *)
type seg =
  | Len of int  (* byte-length prefix: step, blob *)
  | Count of int  (* item count, vector count *)
  | Tag of int  (* item tag *)
  | Fe of int  (* field element, 4 bytes little-endian *)
  | Raw of string  (* step and blob bytes, or bytes a mutator spliced in *)

let segs_of_message m =
  let blob s = [ Len (String.length s); Raw s ] in
  let fes v = List.map (fun x -> Fe (F.to_int x)) (Array.to_list v) in
  let blobs tag bs =
    Tag tag :: Count (Array.length bs) :: List.concat_map blob (Array.to_list bs)
  in
  let item = function
    | Wire.Field_elements v -> Tag 1 :: Count (Array.length v) :: fes v
    | Wire.Ciphertexts bs -> blobs 3 bs
    | Wire.Proofs bs -> blobs 4 bs
    | Wire.Partial_decs bs -> blobs 5 bs
    | Wire.Public_keys bs -> blobs 6 bs
  in
  blob m.Wire.step @ (Count (List.length m.Wire.items) :: List.concat_map item m.Wire.items)

let render segs =
  let buf = Buffer.create 64 in
  List.iter
    (function
      | Len v | Count v -> Wire.put_varint buf v
      | Tag v -> Wire.put_u8 buf v
      | Fe v -> Wire.put_fixed32 buf v
      | Raw s -> Buffer.add_string buf s)
    segs;
  Buffer.contents buf

let gen_wire_message =
  let open QCheck.Gen in
  let field = map F.of_int (int_bound (F.p - 1)) in
  let blobs = array_size (int_bound 3) (string_size (int_bound 12)) in
  let item =
    oneof
      [
        map (fun v -> Wire.Field_elements v) (array_size (int_bound 5) field);
        map (fun a -> Wire.Ciphertexts a) blobs;
        map (fun a -> Wire.Proofs a) blobs;
        map (fun a -> Wire.Partial_decs a) blobs;
        map (fun a -> Wire.Public_keys a) blobs;
      ]
  in
  let* step = string_size ~gen:printable (int_bound 8) in
  let+ items = list_size (int_bound 5) item in
  { Wire.step; items }

(* canonical LEB128 bytes of [v] made non-canonical: the last byte gets
   a continuation bit and 1-9 redundant groups follow, the longer ones
   past the decoder's eight-byte limit *)
let overlong_varint v =
  let open QCheck.Gen in
  let canon = render [ Count v ] in
  let last = String.length canon - 1 in
  let body = String.sub canon 0 last ^ String.make 1 (Char.chr (Char.code canon.[last] lor 0x80)) in
  let+ extra = int_range 1 9 in
  body ^ String.make (extra - 1) '\x80' ^ "\x00"

(* Structure-aware mutations of a valid frame, named for the report.
   Mutations inside the payload recompute the trailer, so the parser
   is exercised past the checksum; header and trailer mutations keep
   the bytes as they fall. *)
let mutate m =
  let open QCheck.Gen in
  let segs = Array.of_list (segs_of_message m) in
  let payload = Wire.encode_message m in
  let frame = Wire.to_frame m in
  let plen = String.length payload in
  let hlen = String.length frame - plen - 8 in
  let splice i j repl =
    frame_of_payload
      (render
         (Array.to_list (Array.sub segs 0 i) @ repl
         @ Array.to_list (Array.sub segs j (Array.length segs - j))))
  in
  (* a mutation of one segment kind, when the message has one *)
  let at name wanted f =
    let idx =
      List.filter (fun i -> wanted segs.(i)) (List.init (Array.length segs) Fun.id)
    in
    if idx = [] then None
    else
      Some
        (let* i = oneofl idx in
         let+ name', bytes = f i segs.(i) in
         (name ^ name', bytes))
  in
  let varint_seg = function Len _ | Count _ -> true | _ -> false in
  let flip =
    let* pos = int_bound (String.length frame - 1) in
    let+ mask = int_range 1 255 in
    let b = Bytes.of_string frame in
    Bytes.set b pos (Char.chr (Char.code frame.[pos] lxor mask));
    if pos >= hlen && pos < hlen + plen then
      ("flip payload byte", frame_of_payload (Bytes.sub_string b hlen plen))
    else ("flip header/trailer byte", Bytes.to_string b)
  in
  let truncate =
    let* raw = bool in
    if raw then
      map (fun k -> ("truncate frame", String.sub frame 0 k)) (int_bound (String.length frame - 1))
    else
      map
        (fun k -> ("truncate payload", frame_of_payload (String.sub payload 0 k)))
        (int_bound (plen - 1))
  in
  let extend =
    let* raw = bool in
    let+ tail = string_size (int_range 1 8) in
    if raw then ("extend frame", frame ^ tail)
    else ("extend payload", frame_of_payload (payload ^ tail))
  in
  let frame_length =
    let+ len =
      oneof
        [
          map (fun d -> plen + d) (int_range 1 16);
          return ((1 lsl 26) + 1);
          int_range 0 (1 lsl 40);
        ]
    in
    let buf = Buffer.create (plen + 24) in
    Buffer.add_string buf "YW\001";
    Wire.put_varint buf len;
    Buffer.add_string buf payload;
    Wire.put_checksum buf (ref_checksum payload);
    ("inflated frame length", Buffer.contents buf)
  in
  let noise =
    let+ junk = string_size (int_bound 64) in
    ("random payload", frame_of_payload junk)
  in
  let inflate =
    at "inflated " varint_seg (fun i seg ->
        let v = match seg with Len v | Count v -> v | _ -> 0 in
        let+ v' =
          oneof
            [
              map (fun d -> v + d) (int_range 1 1000);
              oneofl [ 4096; 4097; 1 lsl 24; (1 lsl 24) + 1; (1 lsl 56) - 1 ];
              map (fun k -> 1 lsl k) (int_range 8 55);
            ]
        in
        let seg' = match seg with Len _ -> Len v' | _ -> Count v' in
        ((match seg with Len _ -> "length prefix" | _ -> "count"), splice i (i + 1) [ seg' ]))
  in
  let overlong =
    at "overlong varint" varint_seg (fun i seg ->
        let v = match seg with Len v | Count v -> v | _ -> 0 in
        let+ bytes = overlong_varint v in
        ("", splice i (i + 1) [ Raw bytes ]))
  in
  let field =
    at "field element >= p" (function Fe _ -> true | _ -> false) (fun i _ ->
        let+ v = oneof [ int_range F.p ((1 lsl 32) - 1); return F.p ] in
        ("", splice i (i + 1) [ Fe v ]))
  in
  let tag =
    at "item tag " (function Tag _ -> true | _ -> false) (fun i _ ->
        let+ t = int_bound 255 in
        (string_of_int t, splice i (i + 1) [ Tag t ]))
  in
  oneof
    ([ flip; truncate; extend; frame_length; noise ]
    @ List.filter_map Fun.id [ inflate; overlong; field; tag ])

let arb_hostile =
  QCheck.make
    ~print:(fun (name, f) -> Printf.sprintf "%s: %s" name (hex f))
    QCheck.Gen.(gen_wire_message >>= mutate)

(* The decoder's contract on any input: decode to a message whose
   frame is the input itself, or raise [Decode_error] — any other
   exception escapes and fails the caller.  Allocation is bounded by
   the input's length, so a short frame cannot make the decoder
   materialize a count it does not carry. *)
let decodes_to_itself_or_rejects f =
  Gc.minor ();
  let before = Hostile.words_allocated () in
  let bounded () =
    Hostile.words_allocated () -. before <= Hostile.allocation_bound (String.length f)
  in
  match Wire.of_frame f with
  | exception Wire.Decode_error _ -> bounded ()
  | m -> bounded () && String.equal (Wire.to_frame m) f

let test_wire_corpus () =
  List.iter
    (fun (name, h, expected) ->
      match Wire.of_frame (Hostile.of_hex h) with
      | exception Wire.Decode_error e ->
        if not (Hostile.contains e expected) then
          Alcotest.failf "%s: rejected with %S, expected %S" name e expected;
        Alcotest.(check bool) (name ^ ": bounded allocation") true
          (decodes_to_itself_or_rejects (Hostile.of_hex h))
      | _ -> Alcotest.failf "%s: must be rejected" name)
    Wire_corpus.frames

let wire_fuzz_props =
  [
    QCheck.Test.make ~count:500 ~long_factor:50 ~name:"encoder refuses what the decoder rejects"
      arb_edge encoder_refuses_what_decoder_rejects;
    QCheck.Test.make ~count:500 ~long_factor:50 ~name:"segment model = encoder layout"
      (QCheck.make gen_wire_message) (fun m ->
        String.equal (render (segs_of_message m)) (Wire.encode_message m));
    QCheck.Test.make ~count:2000 ~long_factor:50
      ~name:"mutated frames decode to themselves or raise Decode_error" arb_hostile
      (fun (_, f) -> decodes_to_itself_or_rejects f);
  ]

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_ideal_delivers () =
  let sim = Sim.create ~seed:7 () in
  for _ = 1 to 50 do
    match Sim.transmit sim ~bytes:1000 () with
    | Sim.Delivered, arrival -> Alcotest.(check (float 0.0)) "instant" 0.0 arrival
    | _ -> Alcotest.fail "ideal network must deliver"
  done;
  let s = Sim.stats sim in
  Alcotest.(check int) "all delivered" 50 s.Sim.delivered;
  Alcotest.(check int) "no loss" 0 s.Sim.dropped

let test_sim_late_and_drain () =
  let sim = Sim.create ~round_ms:100. ~seed:7 () in
  (match Sim.transmit sim ~extra_delay_ms:150. ~bytes:64 () with
  | Sim.Late, _ -> ()
  | _ -> Alcotest.fail "150ms past a 100ms deadline must be late");
  Alcotest.(check int) "in flight" 1 (Sim.in_flight sim);
  Sim.next_round sim;
  Alcotest.(check int) "still in flight" 1 (Sim.in_flight sim);
  Sim.next_round sim;
  Alcotest.(check int) "drained" 0 (Sim.in_flight sim);
  Alcotest.(check int) "bytes arrive late" 64 (Sim.stats sim).Sim.bytes_delivered

let test_sim_latency_beyond_round () =
  let model = { Sim.ideal with Sim.latency_ms = 250. } in
  let sim = Sim.create ~model ~round_ms:100. ~seed:1 () in
  match Sim.transmit sim ~bytes:8 () with
  | Sim.Late, _ -> ()
  | _ -> Alcotest.fail "latency past the deadline must be late"

let test_sim_bandwidth () =
  (* 1 Mbit/s: a 125000-byte frame takes 1000 ms > 100 ms deadline *)
  let model = { Sim.ideal with Sim.bandwidth_mbps = 1. } in
  let sim = Sim.create ~model ~round_ms:100. ~seed:1 () in
  (match Sim.transmit sim ~bytes:125_000 () with
  | Sim.Late, arrival -> Alcotest.(check (float 1e-6)) "serialization" 1000.0 arrival
  | _ -> Alcotest.fail "big frame on thin pipe must be late");
  match Sim.transmit sim ~bytes:100 () with
  | Sim.Delivered, _ -> ()
  | _ -> Alcotest.fail "small frame fits the round"

let test_sim_drop () =
  let model = { Sim.ideal with Sim.drop = 1.0 } in
  let sim = Sim.create ~model ~seed:3 () in
  (match Sim.transmit sim ~bytes:10 () with
  | Sim.Dropped, _ -> ()
  | _ -> Alcotest.fail "drop = 1 must drop");
  Alcotest.(check int) "nothing in flight" 0 (Sim.in_flight sim)

let test_sim_deterministic () =
  let run () =
    let sim = Sim.create ~model:Sim.wan ~round_ms:50. ~seed:0xD15C () in
    List.init 300 (fun i ->
        let v, a = Sim.transmit sim ~bytes:(100 + (i * 37 mod 5000)) () in
        if i mod 10 = 0 then Sim.next_round sim;
        (v, a))
  in
  Alcotest.(check bool) "replay identical" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Meter                                                               *)
(* ------------------------------------------------------------------ *)

let test_meter_roles_and_phases () =
  let m = Meter.create () in
  Meter.record m ~phase:"online" ~step:"mul" ~frame_bytes:100
    ~payload:[ (Cost.Field_element, 40); (Cost.Proof, 32) ];
  Meter.record m ~phase:"online" ~step:"mul" ~frame_bytes:50
    ~payload:[ (Cost.Field_element, 40) ];
  Meter.record m ~phase:"offline" ~step:"beaver" ~frame_bytes:600
    ~payload:[ (Cost.Ciphertext, 512) ];
  Alcotest.(check int) "kind bytes" 80 (Meter.kind_bytes m ~phase:"online" Cost.Field_element);
  Alcotest.(check int) "data" 112 (Meter.data_bytes m ~phase:"online");
  Alcotest.(check int) "framing" 38 (Meter.framing_bytes m ~phase:"online");
  Alcotest.(check int) "phase total" 150 (Meter.phase_total m ~phase:"online");
  Alcotest.(check (list (pair string int))) "steps" [ ("mul", 150) ] (Meter.steps m ~phase:"online");
  Alcotest.(check (list string)) "phases" [ "offline"; "online" ] (Meter.phases m);
  Alcotest.(check int) "grand total" 750 (Meter.grand_total m);
  Alcotest.check_raises "payload > frame"
    (Invalid_argument "Meter.record: payload exceeds frame") (fun () ->
      Meter.record m ~phase:"x" ~step:"s" ~frame_bytes:1
        ~payload:[ (Cost.Key, 2) ])

let all_sides =
  Meter.[ Conn_sent; Conn_received; Route_full; Route_digest; Route_suppressed; Refill ]

let test_meter_refills () =
  let m = Meter.create () in
  Meter.record_side m Meter.Refill ~label:"c0/lambdas" 100;
  Meter.record_side m Meter.Refill ~label:"c0/lambdas" 20;
  Meter.record_side m Meter.Refill ~label:"c1/holder" 5;
  Alcotest.(check int) "per-batch accumulates" 120
    (List.assoc "c0/lambdas" (Meter.refills m));
  Alcotest.(check int) "refill total" 125 (Meter.side_total m Meter.Refill);
  (* refills are a side-attribution, never phase traffic *)
  Alcotest.(check int) "no phase traffic" 0 (Meter.grand_total m);
  let dst = Meter.create () in
  Meter.record_side dst Meter.Refill ~label:"c1/holder" 1;
  Meter.merge_into ~dst m;
  Alcotest.(check int) "merged batch" 6 (List.assoc "c1/holder" (Meter.refills dst));
  Alcotest.(check int) "merged total" 126 (Meter.side_total dst Meter.Refill)

let test_meter_side_counters () =
  let m = Meter.create () in
  (* counter [i] gets label "a" += i+1 twice and label "b" += 10 *)
  List.iteri
    (fun i side ->
      Meter.record_side m side ~label:"a" (i + 1);
      Meter.record_side m side ~label:"b" 10;
      Meter.record_side m side ~label:"a" (i + 1))
    all_sides;
  List.iteri
    (fun i side ->
      Alcotest.(check (list (pair string int)))
        "per-label, sorted, counters kept apart"
        [ ("a", 2 * (i + 1)); ("b", 10) ]
        (Meter.side_counts m side);
      Alcotest.(check int) "total" ((2 * (i + 1)) + 10) (Meter.side_total m side))
    all_sides;
  Alcotest.(check int) "side counts are not phase traffic" 0 (Meter.grand_total m);
  (* merge adds counter-by-counter and label-by-label *)
  let dst = Meter.create () in
  Meter.record_side dst Meter.Route_digest ~label:"c" 7;
  Meter.merge_into ~dst m;
  Meter.merge_into ~dst m;
  List.iteri
    (fun i side ->
      let extra = if side = Meter.Route_digest then [ ("c", 7) ] else [] in
      Alcotest.(check (list (pair string int)))
        "merged twice"
        ([ ("a", 4 * (i + 1)); ("b", 20) ] @ extra)
        (Meter.side_counts dst side))
    all_sides;
  List.iter
    (fun side ->
      Alcotest.check_raises "negative rejected"
        (Invalid_argument "Meter.record_side: negative count") (fun () ->
          Meter.record_side m side ~label:"x" (-1)))
    all_sides

let test_meter_routing_ratio () =
  let m = Meter.create () in
  Alcotest.(check (float 0.)) "nothing routed" 1.0 (Meter.routing_ratio m);
  Meter.record_side m Meter.Route_full ~label:"slot0" 30;
  Meter.record_side m Meter.Route_digest ~label:"slot0" 1000;
  Meter.record_side m Meter.Route_suppressed ~label:"slot0" 50;
  Meter.record_side m Meter.Route_suppressed ~label:"slot1" 40;
  (* digest records are not full-frame volume: 30 / (30 + 90) *)
  Alcotest.(check (float 1e-12)) "full / (full + suppressed)" 0.25 (Meter.routing_ratio m)

(* ------------------------------------------------------------------ *)
(* Board                                                               *)
(* ------------------------------------------------------------------ *)

let author i = Role.id ~committee:"T#1" ~index:i

let test_board_post_delivered () =
  let b = Board.create () in
  let outcome =
    Board.post b ~author:(author 0) ~phase:"online" ~step:"hello"
      ~items:[ Wire.Field_elements [| F.one; F.of_int 2 |] ]
      ~cost:[ (Cost.Field_element, 2); (Cost.Proof, 1) ]
      ()
  in
  Alcotest.(check string) "delivered" "delivered" (Board.outcome_to_string outcome);
  Alcotest.(check int) "on the board" 1 (Board.length b);
  (* element counts charged exactly as the abstract bulletin would *)
  Alcotest.(check int) "elements" 3 (Cost.elements (Board.cost b) ~phase:"online");
  (* real field data: 2 elements * 4 bytes *)
  Alcotest.(check int) "field bytes" 8
    (Meter.kind_bytes (Board.meter b) ~phase:"online" Cost.Field_element);
  (* the proof the cost declares is synthesized at its modeled size *)
  Alcotest.(check int) "proof bytes" 32
    (Meter.kind_bytes (Board.meter b) ~phase:"online" Cost.Proof)

let test_board_corrupt_garbled () =
  let b = Board.create () in
  let outcome =
    Board.post b ~author:(author 1) ~phase:"online" ~step:"evil" ~corrupt:true
      ~cost:[ (Cost.Field_element, 1) ] ()
  in
  Alcotest.(check string) "garbled" "garbled" (Board.outcome_to_string outcome);
  (* the slot is consumed: the frame landed, it just decodes to nothing *)
  Alcotest.(check int) "still occupies a post" 1 (Board.length b)

let test_board_force_late () =
  let b = Board.create () in
  let outcome =
    Board.post b ~author:(author 2) ~phase:"online" ~step:"slow" ~force_late:true
      ~cost:[] ()
  in
  Alcotest.(check string) "late" "late" (Board.outcome_to_string outcome);
  (* a late post still takes its slot on the board *)
  Alcotest.(check int) "on the board" 1 (Board.length b)

let test_board_drop_consumes_slot () =
  let config =
    { Board.default_config with Board.model = { Sim.ideal with Sim.drop = 1.0 } }
  in
  let b = Board.create ~config () in
  let outcome =
    Board.post b ~author:(author 3) ~phase:"online" ~step:"lost" ~cost:[] ()
  in
  Alcotest.(check string) "dropped" "dropped" (Board.outcome_to_string outcome);
  Alcotest.(check int) "never reaches the board" 0 (Board.length b);
  (* speak-once is still consumed: the role sent its message *)
  Alcotest.(check bool) "spoke" true
    (Role.Registry.has_spoken (Board.registry b) (author 3))

let test_board_speak_once () =
  let b = Board.create () in
  ignore (Board.post b ~author:(author 4) ~phase:"p" ~step:"once" ~cost:[] ());
  match Board.post b ~author:(author 4) ~phase:"p" ~step:"twice" ~cost:[] () with
  | exception _ -> ()
  | _ -> Alcotest.fail "second post by the same role must be refused"

let posts_script b =
  ignore
    (Board.post b ~author:(Role.id ~committee:"A#1" ~index:0) ~phase:"online" ~step:"s1"
       ~items:[ Wire.Field_elements [| F.of_int 5 |] ]
       ~cost:[ (Cost.Field_element, 1) ]
       ());
  Board.next_round b;
  ignore
    (Board.post b ~author:(Role.id ~committee:"A#1" ~index:1) ~phase:"online" ~step:"s2"
       ~cost:[ (Cost.Ciphertext, 3) ]
       ());
  Board.transcript b

let test_board_transcript_replay () =
  let t1 = posts_script (Board.create ()) in
  let t2 = posts_script (Board.create ()) in
  Alcotest.(check bool) "byte-identical replay" true (t1 = t2);
  Alcotest.(check int) "two frames" 2 t1.Board.frames;
  (* a different net seed synthesizes different blob bytes *)
  let t3 =
    posts_script (Board.create ~config:{ Board.default_config with Board.net_seed = 2 } ())
  in
  Alcotest.(check bool) "seed changes the transcript" true (t1.Board.digest <> t3.Board.digest)

(* The outcome the board owes a sender, pinned without a sender-side
   decode: under an ideal network, a post is [Garbled] exactly when it
   was corrupted, and the transcript chains the reference checksum of
   the bytes that went out — with no link, as the owner of a full-local
   link, as a full-local receiver, and as a skeleton receiver given the
   owner's frame or its digest record. *)
let board_outcome_oracle =
  QCheck.Test.make ~count:100 ~name:"outcome oracle: Garbled iff corrupt, digest = reference chain"
    QCheck.(pair arb_message bool)
    (fun (m, corrupt) ->
      let run link =
        let b = Board.create () in
        Board.set_link b link;
        let outcome =
          Board.post b ~author:(Role.id ~committee:"Q#1" ~index:0) ~phase:"p" ~step:m.Wire.step
            ~items:m.Wire.items ~corrupt
            ~cost:[ (Cost.Ciphertext, 3); (Cost.Proof, 1) ]
            ()
        in
        (outcome, (Board.transcript b).Board.digest)
      in
      let link ~owns ~local ?(send = fun ~seq:_ ~phase:_ ~author:_ ~frame:_ -> ()) delivery =
        Some
          {
            Board.owns = (fun _ -> owns);
            local = (fun _ -> local);
            send;
            recv = (fun ~seq:_ ~phase:_ ~author:_ -> delivery);
            stats = (fun () -> (0, 0));
          }
      in
      let sent = ref "" in
      let owner =
        run
          (link ~owns:true ~local:true
             ~send:(fun ~seq:_ ~phase:_ ~author:_ ~frame -> sent := frame)
             `Down)
      in
      let frame = !sent in
      let expected =
        ( (if corrupt then Board.Garbled else Board.Delivered),
          ((0x9e3779b9 * 1000003) + ref_checksum frame) land max_int )
      in
      List.for_all (( = ) expected)
        [
          owner;
          run None;
          run (link ~owns:false ~local:true (`Frame frame));
          run (link ~owns:false ~local:false (`Frame frame));
          run (link ~owns:false ~local:false (`Summary (ref_checksum frame, String.length frame)));
        ])

(* A link that owns every author and records what it sends. *)
let recording_link sent =
  {
    Board.owns = (fun _ -> true);
    local = (fun _ -> true);
    send = (fun ~seq:_ ~phase:_ ~author:_ ~frame -> sent := frame :: !sent);
    recv = (fun ~seq:_ ~phase:_ ~author:_ -> `Down);
    stats = (fun () -> (0, 0));
  }

let prepare_post b i ~corrupt =
  Board.prepare b ~author:(author i) ~phase:"p" ~step:"s" ~corrupt
    ~items:[ Wire.Field_elements [| F.of_int i |] ]
    ~cost:[ (Cost.Field_element, 2); (Cost.Ciphertext, 1 + (i mod 4)); (Cost.Proof, 1) ]
    ~tag:i ()

(* Frames are encoded in one reused scratch buffer per domain.  A frame
   a link needs (or a corrupted one) is copied out in [prepare], so
   preparing a second post before committing the first cannot change
   the bytes the first one sends. *)
let test_board_scratch_reuse () =
  List.iter
    (fun corrupt ->
      let what = Printf.sprintf "corrupt=%b" corrupt in
      let plain = Board.create () in
      ignore (Board.commit plain (prepare_post plain 0 ~corrupt));
      ignore (Board.commit plain (prepare_post plain 1 ~corrupt:false));
      let alone =
        let b = Board.create () and sent = ref [] in
        Board.set_link b (Some (recording_link sent));
        ignore (Board.commit b (prepare_post b 0 ~corrupt));
        List.hd !sent
      in
      let b = Board.create () and sent = ref [] in
      Board.set_link b (Some (recording_link sent));
      let pa = prepare_post b 0 ~corrupt in
      let pb = prepare_post b 1 ~corrupt:false in
      ignore (Board.commit b pa);
      ignore (Board.commit b pb);
      match List.rev !sent with
      | [ a; b_frame ] ->
        Alcotest.(check string) (what ^ ": first frame = its frame on its own") alone a;
        Alcotest.(check bool) (what ^ ": the two frames differ") false (String.equal a b_frame);
        (match Wire.of_frame a with
        | m ->
          Alcotest.(check bool) (what ^ ": decodes unless corrupt") false corrupt;
          Alcotest.(check int) "real item + three synthesized" 4 (List.length m.Wire.items)
        | exception Wire.Decode_error _ ->
          Alcotest.(check bool) (what ^ ": rejected iff corrupt") true corrupt);
        Alcotest.(check bool) (what ^ ": transcript = link-less run") true
          (Board.transcript b = Board.transcript plain)
      | l -> Alcotest.failf "%s: expected 2 frames sent, got %d" what (List.length l))
    [ false; true ]

(* Phase A under a 2-domain pool: each domain encodes in its own
   scratch, and the frames committed in index order chain to the same
   transcript, and send the same bytes, as at 1 domain. *)
let test_board_phase_a_domains () =
  let run ~link domains =
    let pool = Pool.create ~domains in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let b = Board.create () and sent = ref [] in
        if link then Board.set_link b (Some (recording_link sent));
        let prepared = Pool.map pool 48 (fun i -> prepare_post b i ~corrupt:(i mod 7 = 3)) in
        Array.iter (fun p -> ignore (Board.commit b p)) prepared;
        (Board.transcript b, List.rev !sent))
  in
  let base = run ~link:false 1 in
  List.iter
    (fun link ->
      let one = run ~link 1 and two = run ~link 2 in
      Alcotest.(check bool) (Printf.sprintf "link=%b: 2 domains = 1 domain" link) true (one = two);
      Alcotest.(check bool)
        (Printf.sprintf "link=%b: transcript = link-less" link)
        true
        (fst one = fst base);
      Alcotest.(check int) (Printf.sprintf "link=%b: frames sent" link) (if link then 48 else 0)
        (List.length (snd two)))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Protocol integration                                                *)
(* ------------------------------------------------------------------ *)

let params16 = Params.create ~n:16 ~t:3 ~k:3 ()
let circuit = Gen.dot_product ~len:4
let inputs c = Array.init 4 (fun i -> F.of_int ((c * 10) + i + 1))

let test_protocol_replay () =
  let run () =
    Protocol.execute ~params:params16
      ~config:(Protocol.config ~seed:11 ())
      ~circuit ~inputs ()
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "correct" true (Protocol.check r1 circuit ~inputs);
  Alcotest.(check bool) "transcripts byte-identical" true (r1.Protocol.transcript = r2.Protocol.transcript);
  Alcotest.(check bool) "frames flowed" true (r1.Protocol.transcript.Board.frames > 0);
  Alcotest.(check int) "every post is a frame" r1.Protocol.net.Sim.sent
    r1.Protocol.transcript.Board.frames

let test_protocol_bytes_measured () =
  let r =
    Protocol.execute ~params:params16
      ~config:(Protocol.config ~seed:11 ())
      ~circuit ~inputs ()
  in
  Alcotest.(check bool) "setup bytes" true (r.Protocol.setup_bytes > 0);
  Alcotest.(check bool) "offline bytes" true (r.Protocol.offline_bytes > 0);
  Alcotest.(check bool) "online bytes" true (r.Protocol.online_bytes > 0);
  Alcotest.(check bool) "field data present" true (r.Protocol.online_field_bytes > 0);
  Alcotest.(check int) "field data is 4 bytes/element" 0 (r.Protocol.online_field_bytes mod 4);
  (* wire accounting can never undercut the data it carries *)
  Alcotest.(check bool) "frames dominate data" true
    (r.Protocol.online_bytes >= r.Protocol.online_field_bytes);
  let total = r.Protocol.setup_bytes + r.Protocol.offline_bytes + r.Protocol.online_bytes in
  Alcotest.(check int) "meter total = frames on the wire" total
    r.Protocol.transcript.Board.frame_bytes

let test_protocol_over_lan () =
  let net = { Board.default_config with Board.model = Sim.lan; Board.round_ms = 200. } in
  let r =
    Protocol.execute ~params:params16
      ~config:(Protocol.config ~seed:11 ~board:net ())
      ~circuit ~inputs ()
  in
  Alcotest.(check bool) "correct over lan" true (Protocol.check r circuit ~inputs);
  Alcotest.(check bool) "time passed" true (r.Protocol.net.Sim.elapsed_ms > 0.)

let test_protocol_lossy_never_wrong () =
  (* under loss the protocol either completes correctly or aborts with
     the structured failure — never a wrong output *)
  let net = { Board.default_config with Board.model = { Sim.ideal with Sim.drop = 0.08 } } in
  for seed = 1 to 5 do
    match
      Protocol.execute ~params:params16
        ~config:(Protocol.config ~seed ~board:net ())
        ~circuit ~inputs ()
    with
    | r ->
      Alcotest.(check bool) "correct despite loss" true (Protocol.check r circuit ~inputs)
    | exception Yoso_runtime.Faults.Protocol_failure _ -> ()
  done

(* The meter is the one byte ledger: on a run where the network loses
   frames and the adversary both delays posts and garbles frames, its
   totals equal the transcript's and the simulator's, its phases add
   up to its grand total, and the board holds exactly the frames that
   were not dropped.  The latency model is ideal, so a corrupted frame
   is either dropped or delivered garbled: more garbage-ciphertext
   blames than dropped frames means at least one arrived [Garbled]. *)
let test_meter_single_ledger () =
  let net = { Board.default_config with Board.model = { Sim.ideal with Sim.drop = 0.02 } } in
  let adversary = { Params.malicious = 3; passive = 0; fail_stop = 2 } in
  let config =
    Protocol.config ~adversary ~plan:(Yoso_runtime.Faults.random ~seed:7) ~seed:11 ~board:net ()
  in
  let r = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  let s = r.Protocol.net and tr = r.Protocol.transcript and m = r.Protocol.meter in
  let garbage =
    List.length
      (List.filter
         (fun b -> b.Yoso_runtime.Faults.kind = Yoso_runtime.Faults.Garbage_ciphertext)
         r.Protocol.blames)
  in
  Alcotest.(check bool) "correct" true (Protocol.check r circuit ~inputs);
  Alcotest.(check bool) "some frames late" true (s.Sim.late > 0);
  Alcotest.(check bool) "some frames dropped" true (s.Sim.dropped > 0);
  Alcotest.(check bool) "some frames garbled" true (garbage > s.Sim.dropped);
  Alcotest.(check int) "meter = transcript bytes" tr.Board.frame_bytes (Meter.grand_total m);
  Alcotest.(check int) "meter = bytes sent" s.Sim.bytes_sent (Meter.grand_total m);
  Alcotest.(check int) "phases add up" (Meter.grand_total m)
    (List.fold_left (fun acc phase -> acc + Meter.phase_total m ~phase) 0 (Meter.phases m));
  Alcotest.(check int) "every transmission is a frame" s.Sim.sent tr.Board.frames;
  Alcotest.(check int) "posts = frames not dropped" (s.Sim.sent - s.Sim.dropped) r.Protocol.posts

let test_report_json () =
  let r =
    Protocol.execute ~params:params16
      ~config:(Protocol.config ~seed:11 ())
      ~circuit ~inputs ()
  in
  let js = Yoso_runtime.Json.to_string (Protocol.report_json r) in
  Alcotest.(check bool) "object" true (String.length js > 2 && js.[0] = '{');
  List.iter
    (fun key ->
      let re = Printf.sprintf "\"%s\":" key in
      let found =
        let rec scan i =
          i + String.length re <= String.length js
          && (String.sub js i (String.length re) = re || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (key ^ " present") true found)
    [
      "num_mult"; "online_field_bytes_per_gate"; "offline_bytes"; "net"; "transcript";
      "digest"; "outputs"; "blames";
    ]

(* Byte-for-byte pins of the report JSON for a seeded faulty run,
   recorded before the report moved onto Yoso_runtime.Json: any change
   to key order, decimals or escaping fails here. *)
let pinned_report_default =
  "{\"num_gates\":17,\"num_mult\":4,\"posts\":259,\"committees\":16,\
    \"setup_elements\":39,\"offline_elements\":4704,\"online_elements\":936,\
    \"offline_per_gate\":1176.0000,\"online_per_gate\":234.0000,\
    \"setup_bytes\":14743,\"offline_bytes\":2334976,\"online_bytes\":433180,\
    \"online_field_bytes\":160,\"offline_bytes_per_gate\":583744.0000,\
    \"online_bytes_per_gate\":108295.0000,\"online_field_bytes_per_gate\":40.0000,\
    \"faults_detected\":16,\"posts_rejected\":16,\"transport\":\"sim\",\
    \"net\":{\"rounds\":17,\"sent\":259,\"delivered\":259,\"late\":0,\
    \"dropped\":0,\"bytes_sent\":2782899,\"bytes_delivered\":2765027,\
    \"elapsed_ms\":1700.0000,\"max_in_flight\":16},\"transcript\":{\"frames\":259,\
    \"frame_bytes\":2782899,\"digest\":782272987632467621},\
    \"outputs\":[{\"client\":0,\"wire\":14,\"value\":130},{\"client\":1,\
    \"wire\":14,\"value\":130}],\"blames\":[{\"role\":\"Off-B1#1[15]\",\
    \"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"beaver: first-committee shares\"},{\"role\":\"Off-B2#2[0]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"beaver: second-committee shares and products\"},\
    {\"role\":\"Off-R#3[2]\",\"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"random wire values\"},{\"role\":\"Off-D#4[12]\",\
    \"kind\":\"wrong-degree\",\"phase\":\"offline\",\
    \"step\":\"open masked beaver values\"},{\"role\":\"Off-P#6[6]\",\
    \"kind\":\"garbage-ciphertext\",\"phase\":\"offline\",\
    \"step\":\"packing helper randoms\"},{\"role\":\"Off-D#5[14]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt input lambdas to KFF\"},{\"role\":\"Off-D#7[2]\",\
    \"kind\":\"wrong-degree\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#8[7]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#9[15]\",\
    \"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#10[0]\",\
    \"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#11[4]\",\
    \"kind\":\"garbage-ciphertext\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#12[6]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#13[10]\",\
    \"kind\":\"tamper-share\",\"phase\":\"online\",\
    \"step\":\"future key distribution\"},{\"role\":\"Off-D#15[8]\",\
    \"kind\":\"wrong-degree\",\"phase\":\"online\",\
    \"step\":\"future key distribution\"},{\"role\":\"On-L#14[4]\",\
    \"kind\":\"bad-proof\",\"phase\":\"online\",\
    \"step\":\"multiplication: publish mu-gamma shares\"},\
    {\"role\":\"Off-D#16[8]\",\"kind\":\"bad-proof\",\"phase\":\"online\",\
    \"step\":\"output: re-encrypt lambdas to clients\"}]}"

let pinned_report_stats_extra =
  "{\"num_gates\":17,\"num_mult\":4,\"posts\":259,\"committees\":16,\
    \"setup_elements\":39,\"offline_elements\":4704,\"online_elements\":936,\
    \"offline_per_gate\":1176.0000,\"online_per_gate\":234.0000,\
    \"setup_bytes\":14743,\"offline_bytes\":2334976,\"online_bytes\":433180,\
    \"online_field_bytes\":160,\"offline_bytes_per_gate\":583744.0000,\
    \"online_bytes_per_gate\":108295.0000,\"online_field_bytes_per_gate\":40.0000,\
    \"faults_detected\":16,\"posts_rejected\":16,\"transport\":\"sim\",\
    \"reconnects\":0,\"replays\":0,\"net\":{\"rounds\":17,\"sent\":259,\
    \"delivered\":259,\"late\":0,\"dropped\":0,\"bytes_sent\":2782899,\
    \"bytes_delivered\":2765027,\"elapsed_ms\":1700.0000,\"max_in_flight\":16},\
    \"transcript\":{\"frames\":259,\"frame_bytes\":2782899,\
    \"digest\":782272987632467621},\"outputs\":[{\"client\":0,\"wire\":14,\
    \"value\":130},{\"client\":1,\"wire\":14,\"value\":130}],\
    \"blames\":[{\"role\":\"Off-B1#1[15]\",\"kind\":\"tamper-share\",\
    \"phase\":\"offline\",\"step\":\"beaver: first-committee shares\"},\
    {\"role\":\"Off-B2#2[0]\",\"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"beaver: second-committee shares and products\"},\
    {\"role\":\"Off-R#3[2]\",\"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"random wire values\"},{\"role\":\"Off-D#4[12]\",\
    \"kind\":\"wrong-degree\",\"phase\":\"offline\",\
    \"step\":\"open masked beaver values\"},{\"role\":\"Off-P#6[6]\",\
    \"kind\":\"garbage-ciphertext\",\"phase\":\"offline\",\
    \"step\":\"packing helper randoms\"},{\"role\":\"Off-D#5[14]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt input lambdas to KFF\"},{\"role\":\"Off-D#7[2]\",\
    \"kind\":\"wrong-degree\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#8[7]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#9[15]\",\
    \"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#10[0]\",\
    \"kind\":\"tamper-share\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#11[4]\",\
    \"kind\":\"garbage-ciphertext\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#12[6]\",\
    \"kind\":\"bad-proof\",\"phase\":\"offline\",\
    \"step\":\"re-encrypt packed shares to KFF\"},{\"role\":\"Off-D#13[10]\",\
    \"kind\":\"tamper-share\",\"phase\":\"online\",\
    \"step\":\"future key distribution\"},{\"role\":\"Off-D#15[8]\",\
    \"kind\":\"wrong-degree\",\"phase\":\"online\",\
    \"step\":\"future key distribution\"},{\"role\":\"On-L#14[4]\",\
    \"kind\":\"bad-proof\",\"phase\":\"online\",\
    \"step\":\"multiplication: publish mu-gamma shares\"},\
    {\"role\":\"Off-D#16[8]\",\"kind\":\"bad-proof\",\"phase\":\"online\",\
    \"step\":\"output: re-encrypt lambdas to clients\"}],\"pin\":{\"list\":[1,\
    \"a\"]}}"

let test_report_json_pinned () =
  let adversary = { Params.malicious = 1; passive = 0; fail_stop = 0 } in
  let config =
    Protocol.config ~adversary ~plan:(Yoso_runtime.Faults.random ~seed:0xBAD) ~seed:11 ()
  in
  let r = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  Alcotest.(check int) "blames present" 16 (List.length r.Protocol.blames);
  let to_string = Yoso_runtime.Json.to_string in
  Alcotest.(check string) "default options" pinned_report_default
    (to_string (Protocol.report_json r));
  let extra = Yoso_runtime.Json.[ ("pin", Obj [ ("list", List [ Int 1; String "a" ]) ]) ] in
  Alcotest.(check string) "transport_stats + extra" pinned_report_stats_extra
    (to_string
       (Protocol.report_json
          ~options:{ Protocol.Report.default with transport_stats = true; extra }
          r))

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "varint rejections" `Quick test_varint_rejections;
          Alcotest.test_case "field codec" `Quick test_field_codec;
          Alcotest.test_case "bytes truncation" `Quick test_bytes_truncation;
          Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "trailing garbage" `Quick test_message_trailing_garbage;
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame tampering" `Quick test_frame_tamper_rejection;
          Alcotest.test_case "payload accounting" `Quick test_item_accounting;
          Alcotest.test_case "items of cost" `Quick test_items_of_cost;
          Alcotest.test_case "checksum = byte-at-a-time reference" `Quick
            test_checksum_reference;
          Alcotest.test_case "splitmix fill = next stream" `Quick test_splitmix_fill;
          Alcotest.test_case "encoder refuses vectors over 2^24" `Quick
            test_encoder_refuses_long_vectors;
        ] );
      ("wire-properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props);
      ( "wire-fuzz",
        Alcotest.test_case "hostile frame corpus" `Quick test_wire_corpus
        :: List.map QCheck_alcotest.to_alcotest wire_fuzz_props );
      ( "sim",
        [
          Alcotest.test_case "ideal delivers" `Quick test_sim_ideal_delivers;
          Alcotest.test_case "late and drain" `Quick test_sim_late_and_drain;
          Alcotest.test_case "latency" `Quick test_sim_latency_beyond_round;
          Alcotest.test_case "bandwidth" `Quick test_sim_bandwidth;
          Alcotest.test_case "drop" `Quick test_sim_drop;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        ] );
      ( "meter",
        [
          Alcotest.test_case "roles and phases" `Quick test_meter_roles_and_phases;
          Alcotest.test_case "refill buckets" `Quick test_meter_refills;
          Alcotest.test_case "side counters" `Quick test_meter_side_counters;
          Alcotest.test_case "routing ratio" `Quick test_meter_routing_ratio;
        ] );
      ( "board",
        [
          Alcotest.test_case "post delivered" `Quick test_board_post_delivered;
          Alcotest.test_case "corrupt garbled" `Quick test_board_corrupt_garbled;
          Alcotest.test_case "force late" `Quick test_board_force_late;
          Alcotest.test_case "drop consumes slot" `Quick test_board_drop_consumes_slot;
          Alcotest.test_case "speak once" `Quick test_board_speak_once;
          Alcotest.test_case "transcript replay" `Quick test_board_transcript_replay;
          QCheck_alcotest.to_alcotest ~long:false board_outcome_oracle;
          Alcotest.test_case "scratch reuse cannot leak into a kept frame" `Quick
            test_board_scratch_reuse;
          Alcotest.test_case "phase A at 2 domains = 1 domain" `Quick test_board_phase_a_domains;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "seeded replay" `Quick test_protocol_replay;
          Alcotest.test_case "bytes measured" `Quick test_protocol_bytes_measured;
          Alcotest.test_case "over lan" `Quick test_protocol_over_lan;
          Alcotest.test_case "lossy never wrong" `Quick test_protocol_lossy_never_wrong;
          Alcotest.test_case "meter is the one byte ledger" `Quick test_meter_single_ledger;
          Alcotest.test_case "report json" `Quick test_report_json;
          Alcotest.test_case "report json pinned" `Quick test_report_json_pinned;
        ] );
    ]
