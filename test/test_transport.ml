(* Socket transport: envelope codec, EINTR-safe socket I/O, the
   bulletin-board daemon, and the sim/loopback equivalence the whole
   design rests on — same seeds through the in-process board and
   through forked processes over real sockets must yield identical
   transcripts. *)

module F = Yoso_field.Field.Fp
module Wire = Yoso_net.Wire
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators
module Envelope = Yoso_transport.Envelope
module Sockio = Yoso_transport.Sockio
module Runner = Yoso_transport.Runner
module Policy = Yoso_transport.Transport_policy
module Chaos = Yoso_transport.Chaos
module Topology = Yoso_transport.Topology
module Daemon = Yoso_transport.Daemon
module Journal = Yoso_transport.Journal
module Board = Yoso_net.Board
module Role = Yoso_runtime.Role

(* reports cross the process boundary as JSON text *)
let report_json r = Yoso_runtime.Json.to_string (Protocol.report_json r)

let failure_json (f : Yoso_runtime.Faults.failure) =
  Yoso_runtime.Json.(
    to_string
      (Obj [ ("protocol_failure", String (f.f_phase ^ "/" ^ f.f_step)) ]))

(* ------------------------------------------------------------------ *)
(* Wire frame cap                                                      *)
(* ------------------------------------------------------------------ *)

let with_cap cap f =
  let saved = !Wire.max_frame_len in
  Wire.max_frame_len := cap;
  Fun.protect ~finally:(fun () -> Wire.max_frame_len := saved) f

let test_frame_cap () =
  let msg =
    { Wire.step = "cap"; items = [ Wire.Field_elements (Array.init 8 F.of_int) ] }
  in
  let payload_len = String.length (Wire.encode_message msg) in
  let frame = Wire.to_frame msg in
  (* one byte over the cap: structured rejection, not an allocation *)
  with_cap (payload_len - 1) (fun () ->
      match Wire.of_frame frame with
      | _ -> Alcotest.fail "frame one byte over cap must be rejected"
      | exception Wire.Decode_error e ->
        Alcotest.(check bool) "mentions cap" true
          (String.length e > 0 && String.index_opt e 'm' <> None));
  (* exactly at the cap: decodes *)
  with_cap payload_len (fun () ->
      let m = Wire.of_frame frame in
      Alcotest.(check string) "step survives" "cap" m.Wire.step)

(* ------------------------------------------------------------------ *)
(* Envelope codec                                                      *)
(* ------------------------------------------------------------------ *)

let sample_msgs =
  [
    Envelope.Hello { slot = 3; nslots = 16; seed = 0xC0FFEE };
    Envelope.Start { nslots = 16 };
    Envelope.Post { seq = 0; slot = 3; frame = "frame-zero" };
    Envelope.Post { seq = 12345; slot = 0; frame = String.make 600 '\x7f' };
    Envelope.Peer_down { slot = 7 };
    Envelope.Report { slot = 1; json = "{\"digest\":42}" };
    Envelope.Shutdown;
    Envelope.Deliver_batch
      [
        Envelope.Full { seq = 9; slot = 1; frame = "full-frame-bytes" };
        Envelope.Digest
          { seq = 10; slot = 2; csum = Wire.checksum "other"; len = 5 };
        Envelope.Digest { seq = 11; slot = 3; csum = max_int; len = 0 };
      ];
  ]

let msg_eq a b =
  Format.asprintf "%a" Envelope.pp_msg a = Format.asprintf "%a" Envelope.pp_msg b

let test_envelope_roundtrip () =
  List.iter
    (fun m ->
      let st = Envelope.stream () in
      Envelope.feed st (Envelope.encode m);
      (match Envelope.next st with
      | Some m' -> Alcotest.(check bool) "roundtrip" true (msg_eq m m')
      | None -> Alcotest.fail "complete envelope did not decode");
      Alcotest.(check (option reject)) "nothing left" None
        (Option.map (fun _ -> ()) (Envelope.next st)))
    sample_msgs

(* an envelope split at every byte boundary still decodes *)
let test_envelope_split_every_boundary () =
  let wire = String.concat "" (List.map Envelope.encode sample_msgs) in
  for split = 0 to String.length wire do
    let st = Envelope.stream () in
    Envelope.feed st (String.sub wire 0 split);
    let got = ref [] in
    let drain () =
      let rec go () =
        match Envelope.next st with
        | Some m ->
          got := m :: !got;
          go ()
        | None -> ()
      in
      go ()
    in
    drain ();
    Envelope.feed st (String.sub wire split (String.length wire - split));
    drain ();
    let got = List.rev !got in
    Alcotest.(check int)
      (Printf.sprintf "split at %d: count" split)
      (List.length sample_msgs) (List.length got);
    List.iter2
      (fun a b -> Alcotest.(check bool) "msg equal" true (msg_eq a b))
      sample_msgs got
  done

let test_envelope_byte_at_a_time () =
  let wire = String.concat "" (List.map Envelope.encode sample_msgs) in
  let st = Envelope.stream () in
  let got = ref [] in
  String.iter
    (fun c ->
      Envelope.feed st (String.make 1 c);
      match Envelope.next st with Some m -> got := m :: !got | None -> ())
    wire;
  Alcotest.(check int) "all decoded" (List.length sample_msgs) (List.length !got)

(* [body] framed as an envelope of type [tag] with a valid header and
   trailer, whatever the body holds *)
let envelope_of_body ~tag body =
  let le n k = String.init n (fun i -> Char.chr ((k lsr (8 * i)) land 0xff)) in
  let env = "YT\002" ^ String.make 1 (Char.chr tag) ^ le 4 (String.length body) ^ body in
  env ^ le 8 (Wire.checksum env)

(* A digest record's checksum is 8 bytes carrying a 62-bit value, like
   the trailer.  Bits 62 and 63 set, behind a trailer that matches the
   altered body, must be rejected: a decode through a 63-bit [int]
   drops bit 63 and yields a message whose encoding is not the input. *)
let test_envelope_digest_checksum_range () =
  let m =
    Envelope.Deliver_batch
      [ Envelope.Digest { seq = 4; slot = 1; csum = 0x1234_5678_9abc; len = 77 } ]
  in
  let e = Envelope.encode m in
  let body = String.sub e Envelope.header_len
      (String.length e - Envelope.header_len - Envelope.trailer_len) in
  (* the record's checksum is the last 8 body bytes; its top byte last *)
  let top = String.length body - 1 in
  List.iter
    (fun (what, bits) ->
      let b = Bytes.of_string body in
      Bytes.set b top (Char.chr (Char.code (Bytes.get b top) lor bits));
      let st = Envelope.stream () in
      Envelope.feed st (envelope_of_body ~tag:(Char.code e.[3]) (Bytes.to_string b));
      match Envelope.next st with
      | exception Envelope.Envelope_error _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: digest checksum out of range must be rejected" what)
    [ ("bit 63", 0x80); ("bit 62", 0x40); ("bits 62 and 63", 0xc0) ]

(* The trailer is 8 bytes carrying a 62-bit checksum, so its top bit
   is always 0.  Flipping it must fail the checksum; a compare through
   a 63-bit [int] shifts bit 63 out and accepts the record. *)
let test_envelope_trailer_bit63 () =
  List.iteri
    (fun i m ->
      let e = Bytes.of_string (Envelope.encode m) in
      let last = Bytes.length e - 1 in
      Bytes.set e last (Char.chr (Char.code (Bytes.get e last) lxor 0x80));
      let st = Envelope.stream () in
      Envelope.feed st (Bytes.to_string e);
      match Envelope.next st with
      | exception Envelope.Envelope_error _ -> ()
      | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
      | _ -> Alcotest.failf "message %d: trailer with bit 63 flipped must be rejected" i)
    sample_msgs

(* [f ()], adding the words it allocates to [spent], raise or return *)
let metered spent f =
  let before = Hostile.words_allocated () in
  let charge () = spent := !spent +. (Hostile.words_allocated () -. before) in
  match f () with
  | r ->
    charge ();
    r
  | exception e ->
    charge ();
    raise e

(* Every corpus envelope is rejected with its pinned message, having
   allocated within [Hostile.allocation_bound] of its length. *)
let test_envelope_rejections () =
  (* a stream's own cap below the default fires from the header alone *)
  let st = Envelope.stream ~max_body:16 () in
  let big = Envelope.encode (Envelope.Report { slot = 0; json = String.make 64 'j' }) in
  Envelope.feed st (String.sub big 0 Envelope.header_len);
  (match Envelope.next st with
  | exception Envelope.Envelope_error _ -> ()
  | _ -> Alcotest.fail "oversized body must be rejected at the header");
  List.iter
    (fun (name, h, expected) ->
      let input = Hostile.of_hex h in
      let st = Envelope.stream () in
      let spent = ref 0. in
      Gc.minor ();
      match
        metered spent (fun () ->
            Envelope.feed st input;
            Envelope.next st)
      with
      | exception Envelope.Envelope_error e ->
        if not (Hostile.contains e expected) then
          Alcotest.failf "%s: rejected with %S, expected %S" name e expected;
        Alcotest.(check bool) (name ^ ": bounded allocation") true
          (!spent <= Hostile.allocation_bound (String.length input))
      | _ -> Alcotest.failf "%s: must be rejected" name)
    Envelope_corpus.envelopes

(* A 4 MiB [Post] reassembled from 64 KiB reads, fed the way the
   daemon feeds its socket reads, allocates at most 2 words per wire
   byte: a stream that copied its buffered prefix on every read would
   allocate quadratically in the body size. *)
let test_envelope_large_post_linear () =
  let frame = String.init (4 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let wire = Envelope.encode (Envelope.Post { seq = 1; slot = 2; frame }) in
  let len = String.length wire and scratch = Bytes.create 65536 in
  let st = Envelope.stream () and got = ref [] in
  let before = Hostile.words_allocated () in
  for i = 0 to (len - 1) / 65536 do
    let k = min 65536 (len - (i * 65536)) in
    Bytes.blit_string wire (i * 65536) scratch 0 k;
    Envelope.feed_bytes st scratch k;
    Option.iter (fun m -> got := m :: !got) (Envelope.next st)
  done;
  let spent = Hostile.words_allocated () -. before in
  Alcotest.(check bool) "the one post, intact" true
    (!got = [ Envelope.Post { seq = 1; slot = 2; frame } ] && Envelope.buffered st = 0);
  if spent > float_of_int ((2 * len) + 8192) then
    Alcotest.failf "%.2f words allocated per wire byte (bound 2)" (spent /. float_of_int len)

(* ------------------------------------------------------------------ *)
(* Envelope stream fuzzing                                             *)
(* ------------------------------------------------------------------ *)

(* Structure-aware generators for every message, then byte mutations,
   fed to one stream in random chunk sizes.  The decoder's contract on
   any bytes: each message [next] yields re-encodes to exactly the
   bytes it consumed, and the only exception is [Envelope_error]. *)

(* varints the decoder accepts: up to 56 bits *)
let gen_nat =
  QCheck.Gen.(oneof [ int_bound 300; (fun st -> Random.State.full_int st (1 lsl 56)) ])

let gen_csum =
  QCheck.Gen.(oneof [ return 0; return max_int; (fun st -> Random.State.full_int st max_int) ])

let gen_blob = QCheck.Gen.(string_size (int_bound 40))

let gen_record =
  let open QCheck.Gen in
  oneof
    [
      (let* seq = gen_nat in
       let* slot = gen_nat in
       let+ frame = gen_blob in
       Envelope.Full { seq; slot; frame });
      (let* seq = gen_nat in
       let* slot = gen_nat in
       let* len = gen_nat in
       let+ csum = gen_csum in
       Envelope.Digest { seq; slot; csum; len });
    ]

(* one generator per message type *)
let gen_msgs_by_type =
  let open QCheck.Gen in
  [
    (let* slot = gen_nat in
     let* nslots = gen_nat in
     let+ seed = gen_nat in
     Envelope.Hello { slot; nslots; seed });
    map (fun nslots -> Envelope.Start { nslots }) gen_nat;
    (let* seq = gen_nat in
     let* slot = gen_nat in
     let+ frame = gen_blob in
     Envelope.Post { seq; slot; frame });
    map (fun slot -> Envelope.Peer_down { slot }) gen_nat;
    (let* slot = gen_nat in
     let+ json = gen_blob in
     Envelope.Report { slot; json });
    return Envelope.Shutdown;
    (let* slot = gen_nat in
     let* nslots = gen_nat in
     let* seed = gen_nat in
     let+ next_seq = gen_nat in
     Envelope.Recover { slot; nslots; seed; next_seq });
    (let* next_seq = gen_nat in
     let+ started = bool in
     Envelope.Recovered { next_seq; started });
    map (fun rs -> Envelope.Deliver_batch rs) (list_size (int_bound 5) gen_record);
  ]

let gen_envelope_msg = QCheck.Gen.oneof gen_msgs_by_type

(* a batch body whose digest records carry 8 arbitrary checksum bytes,
   in the record layout [Envelope.encode] writes *)
let gen_raw_batch_body =
  let open QCheck.Gen in
  let+ records =
    list_size (int_range 1 4)
      (pair gen_record (string_size ~gen:char (return 8)))
  in
  let buf = Buffer.create 64 in
  Wire.put_varint buf (List.length records);
  List.iter
    (fun (r, csum_bytes) ->
      match r with
      | Envelope.Full { seq; slot; frame } ->
        Wire.put_u8 buf 0;
        Wire.put_varint buf seq;
        Wire.put_varint buf slot;
        Wire.put_bytes buf frame
      | Envelope.Digest { seq; slot; len; csum = _ } ->
        Wire.put_u8 buf 1;
        Wire.put_varint buf seq;
        Wire.put_varint buf slot;
        Wire.put_varint buf len;
        Buffer.add_string buf csum_bytes)
    records;
  Buffer.contents buf

(* one envelope as (tag, body): a well-formed message, or a batch with
   arbitrary digest checksum bytes *)
let gen_tagged_body =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun m ->
          let e = Envelope.encode m in
          ( Char.code e.[3],
            String.sub e Envelope.header_len
              (String.length e - Envelope.header_len - Envelope.trailer_len) ))
        gen_envelope_msg;
      map (fun body -> (11, body)) gen_raw_batch_body;
    ]

(* [s] with one edit: flip, truncate, insert or delete bytes *)
let gen_edit s =
  let open QCheck.Gen in
  let n = String.length s in
  let flip =
    if n = 0 then return s
    else
      let* i = int_bound (n - 1) in
      let+ x = int_range 1 255 in
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c) s
  in
  let truncate = map (fun k -> String.sub s 0 k) (int_bound n) in
  let insert =
    let* i = int_bound n in
    let+ junk = string_size ~gen:char (int_range 1 12) in
    String.sub s 0 i ^ junk ^ String.sub s i (n - i)
  in
  let delete =
    let* i = int_bound n in
    let+ k = int_bound (n - i) in
    String.sub s 0 i ^ String.sub s (i + k) (n - i - k)
  in
  oneof [ flip; truncate; insert; delete ]

(* chunk sizes the stream is fed in *)
let gen_chunks = QCheck.Gen.(list_size (int_range 1 8) (int_range 1 64))

(* a stream of 1-4 envelopes and one mutation: none, a body edit
   behind a re-computed trailer (the parser runs past the checksum), a
   random type byte, or a raw edit of the stream bytes *)
let gen_hostile_stream =
  let open QCheck.Gen in
  let* parts = list_size (int_range 1 4) gen_tagged_body in
  let* victim = int_bound (List.length parts - 1) in
  let* how = int_bound 3 in
  let* parts =
    match how with
    | 1 ->
      let tag, body = List.nth parts victim in
      let+ body = gen_edit body in
      List.mapi (fun i p -> if i = victim then (tag, body) else p) parts
    | 2 ->
      let+ tag = int_bound 255 in
      List.mapi (fun i (t, b) -> if i = victim then (tag, b) else (t, b)) parts
    | _ -> return parts
  in
  let bytes = String.concat "" (List.map (fun (tag, body) -> envelope_of_body ~tag body) parts) in
  let* bytes = if how = 3 then gen_edit bytes else return bytes in
  let+ chunks = gen_chunks in
  (bytes, chunks)

let arb_hostile_stream =
  QCheck.make
    ~print:(fun (s, chunks) ->
      Printf.sprintf "%S in chunks %s" s (String.concat "," (List.map string_of_int chunks)))
    gen_hostile_stream

(* [e] with one byte set to another value.  Half the edits hit the
   type byte and half write a valid type tag: a header outside the
   checksum lets exactly those through, as another message. *)
let gen_byte_change e =
  let open QCheck.Gen in
  let* i = oneof [ int_bound (String.length e - 1); return 3 ] in
  let+ v = oneof [ int_bound 255; oneofl [ 1; 2; 3; 5; 6; 7; 8; 9; 11 ] ] in
  let v = if v = Char.code e.[i] then v lxor 1 else v in
  (i, String.mapi (fun j c -> if j = i then Char.chr v else c) e)

(* an envelope of every message type, each with one byte changed *)
let arb_byte_changes =
  QCheck.make
    ~print:(fun cases ->
      String.concat "; "
        (List.map (fun (m, (i, e)) -> Format.asprintf "%a, byte %d: %S" Envelope.pp_msg m i e) cases))
    QCheck.Gen.(
      flatten_l
        (List.map
           (fun g ->
             let* m = g in
             let+ change = gen_byte_change (Envelope.encode m) in
             (m, change))
           gen_msgs_by_type))

(* feed [input] in [chunks] sizes (the rest in one piece), draining
   after every feed: the messages decoded and the bytes left buffered.
   A message that does not re-encode to exactly the bytes it consumed
   fails; [Envelope_error] propagates. *)
let decode_stream ?(spent = ref 0.) input chunks =
  Gc.minor ();
  let st = Envelope.stream () in
  let fed = ref 0 and consumed = ref 0 and got = ref [] in
  let rec drain () =
    metered spent (fun () -> ignore (Envelope.needed st));
    match metered spent (fun () -> Envelope.next st) with
    | None -> ()
    | Some m ->
      let upto = !fed - Envelope.buffered st in
      if upto <= !consumed then failwith "a message consumed no bytes";
      if not (String.equal (Envelope.encode m) (String.sub input !consumed (upto - !consumed)))
      then failwith (Format.asprintf "%a does not re-encode to its bytes" Envelope.pp_msg m);
      consumed := upto;
      got := m :: !got;
      drain ()
  in
  let feed k =
    let chunk = String.sub input !fed k in
    metered spent (fun () -> Envelope.feed st chunk);
    fed := !fed + k;
    drain ()
  in
  List.iter (fun k -> feed (min k (String.length input - !fed))) chunks;
  feed (String.length input - !fed);
  (List.rev !got, Envelope.buffered st)

(* the stream's own calls allocate within [Hostile.allocation_bound]
   of the bytes fed, whatever the headers declare *)
let envelope_fuzz_props =
  [
    (* the hostile property alone holds for a decoder that rejects
       everything: well-formed streams must decode, message for message *)
    QCheck.Test.make ~count:500 ~long_factor:50
      ~name:"well-formed streams decode message for message"
      (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 4) gen_envelope_msg) gen_chunks))
      (fun (msgs, chunks) ->
        let input = String.concat "" (List.map Envelope.encode msgs) in
        let spent = ref 0. in
        decode_stream ~spent input chunks = (msgs, 0)
        && !spent <= Hostile.allocation_bound (String.length input));
    QCheck.Test.make ~count:2000 ~long_factor:50
      ~name:"mutated streams decode to themselves or raise Envelope_error" arb_hostile_stream
      (fun (input, chunks) ->
        let spent = ref 0. in
        (match decode_stream ~spent input chunks with
        | _ -> ()
        | exception Envelope.Envelope_error _ -> ());
        !spent <= Hostile.allocation_bound (String.length input));
    (* the checksum covers the header: no single-byte change, type and
       length bytes included, decodes -- it is rejected, or the
       envelope is left incomplete *)
    QCheck.Test.make ~count:500 ~long_factor:50
      ~name:"a single-byte change never decodes" arb_byte_changes
      (List.for_all (fun (_, (_, e)) ->
           let st = Envelope.stream () in
           Envelope.feed st e;
           match Envelope.next st with
           | None | (exception Envelope.Envelope_error _) -> true
           | Some _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Sockio: chunked delivery, deadlines, closed peers                   *)
(* ------------------------------------------------------------------ *)

(* write a payload through a socketpair in randomly sized chunks and
   read it back in randomly sized chunks: every chunking reassembles
   the identical bytes.  Interleaved (write some, read some) so the
   payload can exceed the kernel socket buffer. *)
let test_sockio_random_chunks () =
  let st = Random.State.make [| 0x50C7 |] in
  for round = 1 to 25 do
    let len = 1 + Random.State.int st 65536 in
    let payload =
      String.init len (fun i -> Char.chr ((i * 131 + round) land 0xff))
    in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock a;
    let wrote = ref 0 and got = Buffer.create len in
    (* writer is nonblocking + select-driven inside write_all, reader
       drains concurrently from this same loop *)
    while !wrote < len || Buffer.length got < len do
      if !wrote < len then begin
        let chunk = min (1 + Random.State.int st 4096) (len - !wrote) in
        Sockio.write_all ~deadline:(Sockio.deadline_after 5000.) a
          (String.sub payload !wrote chunk);
        wrote := !wrote + chunk
      end;
      while Buffer.length got < !wrote do
        let want = min (1 + Random.State.int st 4096) (!wrote - Buffer.length got) in
        Buffer.add_string got
          (Sockio.read_exactly ~deadline:(Sockio.deadline_after 5000.) b want)
      done
    done;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: %d bytes intact" round len)
      true
      (String.equal payload (Buffer.contents got));
    Unix.close a;
    Unix.close b
  done

(* every envelope chunking still decodes when carried over a real
   socketpair rather than fed to the stream directly *)
let test_sockio_envelope_over_socketpair () =
  let wire = String.concat "" (List.map Envelope.encode sample_msgs) in
  let st = Random.State.make [| 0xE2E |] in
  for _ = 1 to 10 do
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let off = ref 0 in
    while !off < String.length wire do
      let chunk = min (1 + Random.State.int st 13) (String.length wire - !off) in
      Sockio.write_all a (String.sub wire !off chunk);
      off := !off + chunk
    done;
    let stream = Envelope.stream () in
    let got = ref [] in
    while List.length !got < List.length sample_msgs do
      let k = max 1 (Envelope.needed stream) in
      Envelope.feed stream
        (Sockio.read_exactly ~deadline:(Sockio.deadline_after 5000.) b k);
      let rec drain () =
        match Envelope.next stream with
        | Some m ->
          got := m :: !got;
          drain ()
        | None -> ()
      in
      drain ()
    done;
    List.iter2
      (fun x y -> Alcotest.(check bool) "socketpair msg" true (msg_eq x y))
      sample_msgs (List.rev !got);
    Unix.close a;
    Unix.close b
  done

let test_sockio_deadline_and_close () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* nothing to read: the deadline must fire, not hang *)
  (match Sockio.read_exactly ~deadline:(Sockio.deadline_after 50.) b 4 with
  | _ -> Alcotest.fail "read from silent peer must time out"
  | exception Sockio.Timeout -> ());
  (* peer closes: EOF surfaces as Closed, even mid-message *)
  Sockio.write_all a "ab";
  Unix.close a;
  (match Sockio.read_exactly ~deadline:(Sockio.deadline_after 1000.) b 4 with
  | _ -> Alcotest.fail "truncated stream must raise Closed"
  | exception Sockio.Closed -> ());
  Unix.close b

(* ------------------------------------------------------------------ *)
(* sim transport vs loopback equivalence                               *)
(* ------------------------------------------------------------------ *)

let params8 = Params.create ~n:8 ~t:2 ~k:2 ()
let circuit = Gen.dot_product ~len:4
let inputs c = Array.init 4 (fun i -> F.of_int ((c * 10) + i + 1))

let equivalence_case ~topology ?plan ~name ~adversary ~seed () =
  let sim_config = Protocol.config ~adversary ?plan ~seed () in
  let sim_r = Protocol.execute ~params:params8 ~config:sim_config ~circuit ~inputs () in
  let sim_json = report_json sim_r in
  let child ~slot:_ ~link =
    let config = Protocol.config ~adversary ?plan ~seed ~link () in
    report_json (Protocol.execute ~params:params8 ~config ~circuit ~inputs ())
  in
  let res = Runner.run ~deadline_ms:10_000. ~topology ~nslots:8 ~seed ~child () in
  Alcotest.(check int) (name ^ ": all reported") 8 (List.length res.Runner.reports);
  Alcotest.(check bool) (name ^ ": unanimous") true res.Runner.agree;
  Alcotest.(check (list int)) (name ^ ": nobody down") [] res.Runner.down;
  (* whole-report equality: same posts, same meter totals, same
     blames, same transcript digest *)
  List.iter
    (fun (slot, json) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: slot %d report byte-identical to sim" name slot)
        sim_json json)
    res.Runner.reports;
  (* daemon-side accounting saw every physically shipped frame *)
  Alcotest.(check int)
    (name ^ ": every frame crossed the wire")
    sim_r.Protocol.transcript.Yoso_net.Board.frames
    res.Runner.stats.Yoso_transport.Daemon.frames_in;
  (* every geometry suppresses traffic — at full quorum through the
     owners' digest acks — and the daemon's stitched digest chain
     equals the board transcript every member reports *)
  let st = res.Runner.stats in
  Alcotest.(check int) (name ^ ": one digest record per frame and non-quorum slot")
    (st.Daemon.frames_in * (8 - topology.Topology.quorum))
    st.Daemon.digests_out;
  Alcotest.(check int) (name ^ ": one full record per frame and quorum slot")
    (st.Daemon.frames_in * topology.Topology.quorum)
    st.Daemon.frames_out;
  Alcotest.(check bool) (name ^ ": deliveries batched") true (st.Daemon.batches_out > 0);
  Alcotest.(check bool) (name ^ ": bytes suppressed") true (st.Daemon.suppressed_bytes > 0);
  Alcotest.(check int) (name ^ ": daemon digest = sim digest")
    sim_r.Protocol.transcript.Board.digest st.Daemon.digest

(* the two geometries: full-quorum broadcast and the n/8 quorum *)
let full_quorum = Topology.make ~nslots:8 ()
let default_quorum = Topology.make ~quorum:(Topology.default_quorum ~nslots:8) ~nslots:8 ()

let test_equivalence_fault_free () =
  equivalence_case ~topology:full_quorum ~name:"fault-free" ~adversary:Params.no_adversary
    ~seed:0xE8 ()

let test_equivalence_faulty () =
  let adversary = { Params.malicious = 1; passive = 0; fail_stop = 1 } in
  equivalence_case ~topology:full_quorum ~name:"faulty"
    ~adversary
    ~plan:(Yoso_runtime.Faults.random ~seed:0xBAD)
    ~seed:0xE9 ()

let test_equivalence_routed_fault_free () =
  equivalence_case ~topology:default_quorum
    ~name:"routed fault-free" ~adversary:Params.no_adversary ~seed:0xE8 ()

let test_equivalence_routed_faulty () =
  let adversary = { Params.malicious = 1; passive = 0; fail_stop = 1 } in
  equivalence_case ~topology:default_quorum
    ~name:"routed faulty" ~adversary
    ~plan:(Yoso_runtime.Faults.random ~seed:0xBAD)
    ~seed:0xE9 ()

(* ------------------------------------------------------------------ *)
(* Crash drill: a member dies mid-round                                *)
(* ------------------------------------------------------------------ *)

let test_crash_mid_round () =
  let seed = 0xDEAD in
  let child ~slot:_ ~link =
    let config = Protocol.config ~seed ~link () in
    match Protocol.execute ~params:params8 ~config ~circuit ~inputs () with
    | r -> report_json r
    | exception Yoso_runtime.Faults.Protocol_failure f ->
      failure_json f
  in
  let res =
    Runner.run ~deadline_ms:10_000. ~crash:(3, 2) ~nslots:8 ~seed ~child ()
  in
  (* no hang: the run completed, the dead slot was noticed, everyone
     else agreed on a report that blames the silence *)
  Alcotest.(check bool) "daemon did not time out" false
    res.Runner.stats.Yoso_transport.Daemon.timed_out;
  Alcotest.(check (list int)) "slot 3 detected down" [ 3 ] res.Runner.down;
  Alcotest.(check int) "seven survivors reported" 7 (List.length res.Runner.reports);
  Alcotest.(check bool) "survivors unanimous" true res.Runner.agree;
  (match List.assoc_opt 3 res.Runner.children with
  | Some (Unix.WEXITED 13) -> ()
  | other ->
    Alcotest.failf "crash slot: expected exit 13, got %s"
      (match other with
      | Some (Unix.WEXITED c) -> Printf.sprintf "exit %d" c
      | Some (Unix.WSIGNALED s) -> Printf.sprintf "signal %d" s
      | Some (Unix.WSTOPPED s) -> Printf.sprintf "stopped %d" s
      | None -> "no status"));
  let report = match res.Runner.reports with (_, j) :: _ -> j | [] -> "{}" in
  match Runner.json_int_field report ~field:"faults_detected" with
  | Some fd -> Alcotest.(check bool) "silence blamed" true (fd > 0)
  | None -> Alcotest.failf "no faults_detected in report: %s" report

(* ------------------------------------------------------------------ *)
(* Retry policy: jitter bounds, determinism, elapsed budget            *)
(* ------------------------------------------------------------------ *)

let test_backoff_bounds () =
  let r = { Policy.default.connect with base_ms = 10.; cap_ms = 80. } in
  for attempt = 1 to 12 do
    let cap = Float.min r.Policy.cap_ms (r.Policy.base_ms *. (2. ** float_of_int (attempt - 1))) in
    for seed = 0 to 20 do
      let s = Policy.backoff_ms r ~seed ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d seed %d in [0, %g)" attempt seed cap)
        true
        (s >= 0. && s < cap)
    done;
    (* stateless: same (seed, attempt) always draws the same sleep *)
    Alcotest.(check (float 0.))
      "deterministic"
      (Policy.backoff_ms r ~seed:7 ~attempt)
      (Policy.backoff_ms r ~seed:7 ~attempt)
  done;
  (* without jitter: the capped exponential ladder itself *)
  let d = { r with Policy.jitter = false } in
  Alcotest.(check (float 0.)) "ladder 1" 10. (Policy.backoff_ms d ~seed:0 ~attempt:1);
  Alcotest.(check (float 0.)) "ladder 3" 40. (Policy.backoff_ms d ~seed:0 ~attempt:3);
  Alcotest.(check (float 0.)) "ladder capped" 80. (Policy.backoff_ms d ~seed:0 ~attempt:9);
  match Policy.backoff_ms r ~seed:0 ~attempt:0 with
  | _ -> Alcotest.fail "attempt 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* the loop must give up when the next sleep would cross the elapsed
   budget — doubling backoff cannot overshoot a round deadline *)
let test_connect_retry_elapsed_cap () =
  let dead =
    Unix.ADDR_UNIX
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "yoso-nonexistent-%d.sock" (Unix.getpid ())))
  in
  let retry =
    { Policy.attempts = 50; base_ms = 40.; cap_ms = 200.; max_elapsed_ms = 150.; jitter = false }
  in
  let t0 = Unix.gettimeofday () in
  (match Sockio.connect_with_retry ~retry dead with
  | _ -> Alcotest.fail "connect to a dead path must fail"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* 40 + 80 = 120 <= 150, but the third sleep (160) would cross the
     budget: the loop bails long before the 50-attempt count *)
  Alcotest.(check bool)
    (Printf.sprintf "gave up within budget (%.0f ms)" elapsed_ms)
    true (elapsed_ms < 1_000.)

(* ------------------------------------------------------------------ *)
(* Recovery drills: daemon kill+restart, forced client disconnects     *)
(* ------------------------------------------------------------------ *)

let chaos_child ~seed ~slot:_ ~link =
  let config = Protocol.config ~seed ~link () in
  match Protocol.execute ~params:params8 ~config ~circuit ~inputs () with
  | r -> report_json r
  | exception Yoso_runtime.Faults.Protocol_failure f ->
    failure_json f

let with_journal f =
  let path = Filename.temp_file "yoso-drill" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      f path)

(* the surviving run's transcript must be byte-identical to the
   fault-free sim run at equal seeds, and nobody may be blamed *)
let check_against_sim ~name ~seed res =
  let sim_config = Protocol.config ~seed () in
  let sim_json =
    report_json (Protocol.execute ~params:params8 ~config:sim_config ~circuit ~inputs ())
  in
  Alcotest.(check int) (name ^ ": all reported") 8 (List.length res.Runner.reports);
  Alcotest.(check bool) (name ^ ": unanimous") true res.Runner.agree;
  Alcotest.(check (list int)) (name ^ ": zero blames for reconnectors") [] res.Runner.down;
  Alcotest.(check bool) (name ^ ": daemon did not time out") false
    res.Runner.stats.Yoso_transport.Daemon.timed_out;
  List.iter
    (fun (slot, json) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: slot %d report byte-identical to fault-free sim" name slot)
        sim_json json)
    res.Runner.reports;
  let report = match res.Runner.reports with (_, j) :: _ -> j | [] -> "{}" in
  Alcotest.(check (option int)) (name ^ ": no faults detected") (Some 0)
    (Runner.json_int_field report ~field:"faults_detected")

let sim_frames ~seed =
  let sim_config = Protocol.config ~seed () in
  let r = Protocol.execute ~params:params8 ~config:sim_config ~circuit ~inputs () in
  r.Protocol.transcript.Yoso_net.Board.frames

let test_daemon_kill_restart () =
  if not Sys.unix then () (* the drill forks; skip where it cannot *)
  else begin
    let seed = 0xC4A5 in
    let frames = sim_frames ~seed in
    Alcotest.(check bool) "enough frames to kill mid-run" true (frames > 4);
    with_journal (fun journal ->
        let chaos = Chaos.create { Chaos.none with Chaos.kill_at = [ frames / 2 ] } in
        let res =
          Runner.run ~journal ~chaos ~nslots:8 ~seed ~child:(chaos_child ~seed) ()
        in
        Alcotest.(check int) "daemon died exactly once" 1 res.Runner.restarts;
        Alcotest.(check bool) "journal recovered the board" true
          (res.Runner.stats.Yoso_transport.Daemon.recovered_frames >= frames / 2);
        Alcotest.(check bool) "every client reconnected" true
          (res.Runner.stats.Yoso_transport.Daemon.reconnects >= 8);
        check_against_sim ~name:"kill+restart" ~seed res)
  end

let test_forced_disconnects () =
  if not Sys.unix then ()
  else begin
    let seed = 0x5E7E in
    let frames = sim_frames ~seed in
    (* roughly one forced disconnect per protocol phase *)
    let sever_at = [ (frames / 6, 1); ((frames / 2) + (frames / 8), 2); (5 * frames / 6, 3) ] in
    let chaos = Chaos.create { Chaos.none with Chaos.sever_at } in
    let res = Runner.run ~chaos ~nslots:8 ~seed ~child:(chaos_child ~seed) () in
    Alcotest.(check int) "daemon never died" 0 res.Runner.restarts;
    Alcotest.(check bool) "severed clients reconnected" true
      (res.Runner.stats.Yoso_transport.Daemon.reconnects >= 3);
    Alcotest.(check bool) "catch-up replay happened" true
      (res.Runner.stats.Yoso_transport.Daemon.replayed_frames > 0);
    check_against_sim ~name:"forced disconnects" ~seed res
  end

(* kill+restart under the n/8 quorum: the one journal file must
   rebuild the board, and routed members must come out with the same
   report as the fault-free sim run *)
let test_routed_kill_restart () =
  if not Sys.unix then ()
  else begin
    let seed = 0xC4A6 in
    let frames = sim_frames ~seed in
    with_journal (fun journal ->
        let chaos = Chaos.create { Chaos.none with Chaos.kill_at = [ frames / 2 ] } in
        let res =
          Runner.run ~journal ~chaos ~topology:default_quorum ~nslots:8 ~seed
            ~child:(chaos_child ~seed) ()
        in
        let st = res.Runner.stats in
        Alcotest.(check int) "daemon died exactly once" 1 res.Runner.restarts;
        Alcotest.(check bool) "journal recovered the board" true
          (st.Daemon.recovered_frames >= frames / 2);
        (* every accepted frame, across both daemon lives, is in the
           one file, and all of it is intact *)
        let data = In_channel.with_open_bin journal In_channel.input_all in
        let records, intact = Journal.scan data in
        Alcotest.(check int) "one journal file holds every frame" frames
          (List.length (List.filter (function Envelope.Post _ -> true | _ -> false) records));
        Alcotest.(check int) "journal bytes = intact file" st.Daemon.journal_bytes intact;
        Alcotest.(check int) "no torn tail" (String.length data) intact;
        Alcotest.(check bool) "every client reconnected" true (st.Daemon.reconnects >= 8);
        check_against_sim ~name:"routed kill+restart" ~seed res;
        (* the restarted daemon's digest chain covers the whole run *)
        let report = match res.Runner.reports with (_, j) :: _ -> j | [] -> "{}" in
        Alcotest.(check (option int)) "daemon digest = member digest"
          (Some res.Runner.stats.Yoso_transport.Daemon.digest)
          (Runner.json_int_field report ~field:"digest"))
  end

(* the journal's [Start] carries the run's slot count: a restart on
   another run's journal is refused before any traffic is served *)
let test_journal_slot_mismatch () =
  with_journal (fun journal ->
      let _, j = Journal.open_append ~path:journal () in
      Journal.append j (Envelope.Start { nslots = 4 });
      Journal.close j;
      let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close listen)
        (fun () ->
          match Daemon.serve ~journal ~listen ~nslots:8 () with
          | _ -> Alcotest.fail "a journal for 4 slots must not serve a run of 8"
          | exception Invalid_argument _ -> ()))

(* forced disconnects under a small quorum: reconnect catch-up replays
   the very records live delivery would have sent and must splice
   cleanly into the live stream (the records themselves are checked by
   "catch-up replays live delivery's records") *)
let test_routed_forced_disconnects () =
  if not Sys.unix then ()
  else begin
    let seed = 0x5E7F in
    let frames = sim_frames ~seed in
    let sever_at = [ (frames / 5, 2); (2 * frames / 3, 5) ] in
    let chaos = Chaos.create { Chaos.none with Chaos.sever_at } in
    let res =
      Runner.run ~chaos ~topology:default_quorum ~nslots:8 ~seed ~child:(chaos_child ~seed) ()
    in
    Alcotest.(check int) "daemon never died" 0 res.Runner.restarts;
    Alcotest.(check bool) "severed clients reconnected" true
      (res.Runner.stats.Yoso_transport.Daemon.reconnects >= 2);
    Alcotest.(check bool) "catch-up replay happened" true
      (res.Runner.stats.Yoso_transport.Daemon.replayed_frames > 0);
    Alcotest.(check bool) "digest records flowed" true
      (res.Runner.stats.Yoso_transport.Daemon.digests_out > 0);
    check_against_sim ~name:"routed forced disconnects" ~seed res
  end

(* ------------------------------------------------------------------ *)
(* Report loss: a client reports and closes with deliveries queued     *)
(* ------------------------------------------------------------------ *)

let recv_msg fd stream =
  let deadline = Sockio.deadline_after 10_000. in
  let rec go () =
    match Envelope.next stream with
    | Some m -> m
    | None ->
      Envelope.feed stream (Sockio.read_exactly ~deadline fd (max 1 (Envelope.needed stream)));
      go ()
  in
  go ()

let rec await fd stream pred = if not (pred (recv_msg fd stream)) then await fd stream pred

(* Slot 0 never reads, so the daemon's deliveries to it back up in its
   write queue.  The daemon is frozen while slot 0 sends its [Report]
   and closes; when it resumes, the connection is writable (the peer's
   receive queue was freed) and readable in the same event-loop turn,
   and the failed write must not discard the unread report. *)
let test_report_then_close () =
  if not Sys.unix then ()
  else begin
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "yoso-report-%d.sock" (Unix.getpid ()))
    in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen (Unix.ADDR_UNIX path);
    Unix.listen listen 8;
    let rd, wr = Unix.pipe ~cloexec:true () in
    let policy = { Policy.default with Policy.grace_ms = 200. } in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let status =
        match Daemon.serve ~policy ~listen ~nslots:2 () with
        | r ->
          let ints l = String.concat "," (List.map string_of_int l) in
          Sockio.write_all wr
            (Printf.sprintf "reported %s; down %s" (ints (List.map fst r.Daemon.reports))
               (ints r.Daemon.down));
          0
        | exception _ -> 3
      in
      Unix._exit status
    | pid ->
      Unix.close wr;
      let clients () =
        let connect slot =
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          Sockio.write_all fd (Envelope.encode (Envelope.Hello { slot; nslots = 2; seed = 0 }));
          (fd, Envelope.stream ())
        in
        let a, sa = connect 0 in
        let b, sb = connect 1 in
        let started = function Envelope.Start _ -> true | _ -> false in
        await a sa started;
        await b sb started;
        let frame =
          Wire.to_frame
            { Wire.step = "bulk"; items = [ Wire.Ciphertexts [| String.make 60_000 'x' |] ] }
        in
        let posts = 16 in
        for seq = 0 to posts - 1 do
          Sockio.write_all b (Envelope.encode (Envelope.Post { seq; slot = 1; frame }))
        done;
        (* slot 1's ack for its last post: the daemon has queued every
           post for slot 0 as a full record, far more than its socket
           buffer holds *)
        await b sb (function
          | Envelope.Deliver_batch records ->
            List.exists
              (function
                | Envelope.Digest { seq; slot = 1; _ } -> seq = posts - 1
                | Envelope.Full _ | Envelope.Digest _ -> false)
              records
          | _ -> false);
        Unix.kill pid Sys.sigstop;
        ignore (Unix.waitpid [ Unix.WUNTRACED ] pid);
        Sockio.write_all a (Envelope.encode (Envelope.Report { slot = 0; json = "{}" }));
        Unix.close a;
        Sockio.write_all b (Envelope.encode (Envelope.Report { slot = 1; json = "{}" }));
        Unix.kill pid Sys.sigcont;
        let out = Buffer.create 64 in
        let chunk = Bytes.create 256 in
        let rec drain () =
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes out chunk 0 n;
            drain ()
        in
        drain ();
        Unix.close b;
        Buffer.contents out
      in
      let out =
        match clients () with
        | out -> out
        | exception e ->
          (* never leave a frozen daemon behind *)
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          raise e
      in
      ignore (Unix.waitpid [] pid);
      List.iter Unix.close [ rd; listen ];
      Unix.unlink path;
      Alcotest.(check string) "report survives the failed write" "reported 0,1; down " out
  end

(* Catch-up replay sends the records live delivery would have: a
   routed slot that reconnects with [next_seq = 0] gets the whole board
   in seq order, [Full] records for its quorum sources' frames and
   [Digest] records for every other owner's, its own included.  Four
   slots at quorum 1, so slot 0's one full-frame source is slot 3. *)
let test_replay_records () =
  if not Sys.unix then ()
  else begin
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    let nslots = 4 and me = 0 in
    let topology = Topology.make ~quorum:1 ~nslots () in
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "yoso-replay-%d.sock" (Unix.getpid ()))
    in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen (Unix.ADDR_UNIX path);
    Unix.listen listen 8;
    match Unix.fork () with
    | 0 ->
      let status =
        match Daemon.serve ~topology ~listen ~nslots () with _ -> 0 | exception _ -> 3
      in
      Unix._exit status
    | pid ->
      let dial msg =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Sockio.write_all fd (Envelope.encode msg);
        (fd, Envelope.stream ())
      in
      let frames = 8 in
      let owner seq = seq mod nslots in
      let frame seq =
        Wire.to_frame
          {
            Wire.step = Printf.sprintf "step%d" seq;
            items = [ Wire.Field_elements [| F.of_int seq |] ];
          }
      in
      let replayed () =
        let conns =
          Array.init nslots (fun slot -> dial (Envelope.Hello { slot; nslots; seed = 0 }))
        in
        Array.iter
          (fun (fd, st) -> await fd st (function Envelope.Start _ -> true | _ -> false))
          conns;
        (* one post at a time, each acked before the next: the daemon
           takes posts in strictly increasing seq *)
        for seq = 0 to frames - 1 do
          let fd, st = conns.(owner seq) in
          Sockio.write_all fd
            (Envelope.encode (Envelope.Post { seq; slot = owner seq; frame = frame seq }));
          await fd st (function
            | Envelope.Deliver_batch records ->
              List.exists
                (function Envelope.Digest { seq = s; _ } -> s = seq | Envelope.Full _ -> false)
                records
            | _ -> false)
        done;
        let fd, st = dial (Envelope.Recover { slot = me; nslots; seed = 0; next_seq = 0 }) in
        (match recv_msg fd st with
        | Envelope.Recovered { next_seq; started } ->
          Alcotest.(check int) "board length" frames next_seq;
          Alcotest.(check bool) "started" true started
        | m -> Alcotest.failf "expected recovered, got %a" Envelope.pp_msg m);
        let rec collect acc =
          if List.length acc >= frames then List.rev acc
          else
            match recv_msg fd st with
            | Envelope.Deliver_batch records -> collect (List.rev_append records acc)
            | m -> Alcotest.failf "expected replay records, got %a" Envelope.pp_msg m
        in
        let got = collect [] in
        (* the daemon retired slot 0's first connection on [Recover] *)
        Unix.close (fst conns.(me));
        conns.(me) <- (fd, st);
        Array.iteri
          (fun slot (fd, _) ->
            Sockio.write_all fd (Envelope.encode (Envelope.Report { slot; json = "{}" })))
          conns;
        Array.iter (fun (fd, _) -> Unix.close fd) conns;
        got
      in
      let got =
        match replayed () with
        | got -> got
        | exception e ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          raise e
      in
      let _, status = Unix.waitpid [] pid in
      Unix.close listen;
      Unix.unlink path;
      Alcotest.(check bool) "daemon finished the run" true (status = Unix.WEXITED 0);
      let expected =
        List.init frames (fun seq ->
            let f = frame seq in
            if Topology.wants_full topology ~me ~owner:(owner seq) then
              Envelope.Full { seq; slot = owner seq; frame = f }
            else
              Envelope.Digest
                { seq; slot = owner seq; csum = Wire.checksum f; len = String.length f })
      in
      Alcotest.(check (list int)) "quorum sources" [ 3 ] (Topology.full_sources topology ~me);
      Alcotest.(check int) "every frame replayed once" frames (List.length got);
      List.iteri
        (fun seq (e, g) ->
          let kind = match e with Envelope.Full _ -> "full" | Envelope.Digest _ -> "digest" in
          Alcotest.(check bool) (Printf.sprintf "seq %d replayed as a %s record" seq kind) true
            (e = g))
        (List.combine expected got)
  end

(* ------------------------------------------------------------------ *)
(* Routing property: delivery set = verifier interest set              *)
(* ------------------------------------------------------------------ *)

(* In-process oracle for the delivery sets.  A recording run captures
   every frame the protocol commits (the frames a member's verifier
   consults, in commit order).  Then, for every slot, a replay run
   under the transport's execution rule ([Topology.local]) is fed
   exactly what the daemon would route to it — full frames from its
   quorum sources, (checksum, length) summaries from everyone else —
   and must (a) consult each non-owned frame exactly once, (b) see
   full frames for precisely [Topology.full_sources], and (c) produce
   a report byte-identical to the recording run.  Under- or
   over-delivery would break (a)/(b); insufficient routing (a summary
   where content was needed) or a full frame differing from the local
   replay would break (c).  Run at the n/8 quorum and at full
   quorum. *)
let routing_property_at ?plan ~name ~adversary ~seed topo =
  let nslots = topo.Topology.nslots in
  let recorded : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  let record_link =
    {
      Board.owns = (fun _ -> true);
      local = (fun _ -> true);
      send =
        (fun ~seq ~phase:_ ~author ~frame ->
          Hashtbl.replace recorded seq (author.Role.index mod nslots, frame));
      recv = (fun ~seq:_ ~phase:_ ~author:_ -> Alcotest.fail "record run never receives");
    }
  in
  let config link = Protocol.config ~adversary ?plan ~seed ~link () in
  let base_json =
    report_json
      (Protocol.execute ~params:params8 ~config:(config record_link) ~circuit ~inputs ())
  in
  for me = 0 to nslots - 1 do
    let consulted : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let fulls = ref 0 and summaries = ref 0 in
    let replay_link =
      {
        Board.owns = (fun (r : Role.id) -> r.Role.index mod nslots = me);
        local =
          (fun (r : Role.id) ->
            Topology.local topo ~me ~owner:(Topology.owner_slot topo ~index:r.Role.index));
        send = (fun ~seq:_ ~phase:_ ~author:_ ~frame:_ -> ());
        recv =
          (fun ~seq ~phase:_ ~author ->
            let owner = author.Role.index mod nslots in
            Hashtbl.replace consulted seq
              (1 + Option.value ~default:0 (Hashtbl.find_opt consulted seq));
            match Hashtbl.find_opt recorded seq with
            | None -> Alcotest.failf "slot %d consulted unrecorded seq %d" me seq
            | Some (rec_owner, frame) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: slot %d seq %d owner" name me seq)
                rec_owner owner;
              if Topology.wants_full topo ~me ~owner then begin
                incr fulls;
                `Frame frame
              end
              else begin
                incr summaries;
                `Summary (Wire.checksum frame, String.length frame)
              end);
      }
    in
    let json =
      report_json
        (Protocol.execute ~params:params8 ~config:(config replay_link) ~circuit ~inputs ())
    in
    Alcotest.(check string)
      (Printf.sprintf "%s: slot %d report = recording run" name me)
      base_json json;
    (* exactness: every non-owned frame consulted exactly once, full
       iff its owner is one of this slot's quorum sources *)
    let full_sources = Topology.full_sources topo ~me in
    let expected_full = ref 0 and expected_summary = ref 0 in
    Hashtbl.iter
      (fun seq (owner, _) ->
        if owner <> me then begin
          (if List.mem owner full_sources then incr expected_full
           else incr expected_summary);
          Alcotest.(check (option int))
            (Printf.sprintf "%s: slot %d consulted seq %d once" name me seq)
            (Some 1)
            (Hashtbl.find_opt consulted seq)
        end
        else
          Alcotest.(check (option int))
            (Printf.sprintf "%s: slot %d never fetches own seq %d" name me seq)
            None
            (Hashtbl.find_opt consulted seq))
      recorded;
    Alcotest.(check int)
      (Printf.sprintf "%s: slot %d full deliveries" name me)
      !expected_full !fulls;
    Alcotest.(check int)
      (Printf.sprintf "%s: slot %d summary deliveries" name me)
      !expected_summary !summaries
  done

let routing_property_case ?plan ~name ~adversary ~seed () =
  let nslots = 8 in
  List.iter
    (fun quorum ->
      let name = Printf.sprintf "%s, quorum %d" name quorum in
      routing_property_at ?plan ~name ~adversary ~seed (Topology.make ~quorum ~nslots ()))
    [ Topology.default_quorum ~nslots; nslots - 1 ]

let test_routing_property_fault_free () =
  routing_property_case ~name:"fault-free" ~adversary:Params.no_adversary ~seed:0x207 ()

let test_routing_property_faulty () =
  let adversary = { Params.malicious = 2; passive = 0; fail_stop = 1 } in
  routing_property_case ~name:"faulty" ~adversary
    ~plan:(Yoso_runtime.Faults.random ~seed:0x70B)
    ~seed:0x208 ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "transport"
    [
      ( "wire",
        [ Alcotest.test_case "frame one byte over cap" `Quick test_frame_cap ] );
      ( "envelope",
        [
          Alcotest.test_case "roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "split at every boundary" `Quick
            test_envelope_split_every_boundary;
          Alcotest.test_case "byte at a time" `Quick test_envelope_byte_at_a_time;
          Alcotest.test_case "rejections" `Quick test_envelope_rejections;
          Alcotest.test_case "trailer bit 63 flipped" `Quick test_envelope_trailer_bit63;
          Alcotest.test_case "digest checksum outside 62 bits" `Quick
            test_envelope_digest_checksum_range;
          Alcotest.test_case "large post allocates linearly" `Quick
            test_envelope_large_post_linear;
        ] );
      ( "env-fuzz",
        List.map QCheck_alcotest.to_alcotest envelope_fuzz_props );
      ( "sockio",
        [
          Alcotest.test_case "random chunking" `Quick test_sockio_random_chunks;
          Alcotest.test_case "envelopes over socketpair" `Quick
            test_sockio_envelope_over_socketpair;
          Alcotest.test_case "deadline and close" `Quick test_sockio_deadline_and_close;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "sim = loopback, fault-free" `Quick
            test_equivalence_fault_free;
          Alcotest.test_case "sim = loopback, faulty" `Quick test_equivalence_faulty;
          Alcotest.test_case "sim = routed loopback, fault-free" `Quick
            test_equivalence_routed_fault_free;
          Alcotest.test_case "sim = routed loopback, faulty" `Quick
            test_equivalence_routed_faulty;
        ] );
      ( "routing",
        [
          Alcotest.test_case "delivery set = interest set, fault-free" `Quick
            test_routing_property_fault_free;
          Alcotest.test_case "delivery set = interest set, faulty" `Quick
            test_routing_property_faulty;
        ] );
      ( "crash",
        [
          Alcotest.test_case "member dies mid-round" `Quick test_crash_mid_round;
          Alcotest.test_case "report, then close with deliveries queued" `Quick
            test_report_then_close;
        ] );
      ( "policy",
        [
          Alcotest.test_case "backoff bounds and determinism" `Quick
            test_backoff_bounds;
          Alcotest.test_case "retry gives up within elapsed budget" `Quick
            test_connect_retry_elapsed_cap;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "daemon kill+restart mid-round" `Quick
            test_daemon_kill_restart;
          Alcotest.test_case "forced client disconnects" `Quick
            test_forced_disconnects;
          Alcotest.test_case "routed daemon kill+restart" `Quick test_routed_kill_restart;
          Alcotest.test_case "journal for another slot count" `Quick test_journal_slot_mismatch;
          Alcotest.test_case "routed forced disconnects" `Quick
            test_routed_forced_disconnects;
          Alcotest.test_case "catch-up replays live delivery's records" `Quick
            test_replay_records;
        ] );
    ]
