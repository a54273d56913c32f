(* Write-ahead journal: append/scan round-trip, torn-tail recovery
   at every truncation boundary, corruption detection, the
   reopen-after-crash truncation that keeps appends reachable, and a
   scan fuzzer over mutated tails.  Records are the daemon's own
   [Start], [Post] and [Report] envelopes.  Only the round-trip and
   reopen cases touch the disk; every other case scans bytes. *)

module Journal = Yoso_transport.Journal
module Envelope = Yoso_transport.Envelope

let record : Envelope.msg Alcotest.testable = Alcotest.testable Envelope.pp_msg ( = )

let sample_records =
  [
    Envelope.Start { nslots = 8 };
    Envelope.Post { seq = 0; slot = 3; frame = "frame-zero" };
    Envelope.Post { seq = 1; slot = 0; frame = "" };
    Envelope.Post { seq = 2; slot = 7; frame = String.init 257 (fun i -> Char.chr (i land 0xff)) };
    Envelope.Post { seq = 5; slot = 1; frame = String.make 1024 '\x00' };
    Envelope.Report { slot = 4; json = "{\"digest\":42}" };
    Envelope.Post { seq = 6; slot = 2; frame = "tail" };
    Envelope.Report { slot = 0; json = "{}" };
  ]

let encoded = List.map Envelope.encode sample_records

(* byte length of the first [i] encoded sample records *)
let upto i =
  List.fold_left ( + ) 0 (List.map String.length (List.filteri (fun j _ -> j < i) encoded))

let with_temp f =
  let path = Filename.temp_file "yoso-journal" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      (* missing file: no records, not an error *)
      let records, j = Journal.open_append ~fsync_every:3 ~path () in
      Alcotest.(check (list record)) "missing file" [] records;
      List.iter (Journal.append j) sample_records;
      Alcotest.(check int) "appended counter" (List.length sample_records)
        (Journal.appended j);
      Journal.close j;
      Journal.close j (* idempotent *);
      Alcotest.(check (list record)) "scan returns every record" sample_records
        (fst (Journal.scan (read_file path)));
      Alcotest.(check int) "bytes = file size" (Unix.stat path).Unix.st_size
        (Journal.bytes j))

(* cut the journal at every byte boundary: the scan must return
   exactly the records whose encoding fits entirely in the prefix --
   never a torn frame -- and their length *)
let test_truncate_every_boundary () =
  let data = String.concat "" encoded in
  for cut = 0 to String.length data do
    let expect = List.length (List.filter (fun i -> upto i <= cut) (List.init 8 succ)) in
    let got, intact = Journal.scan (String.sub data 0 cut) in
    Alcotest.(check int) (Printf.sprintf "cut at %d: record count" cut) expect
      (List.length got);
    Alcotest.(check int) (Printf.sprintf "cut at %d: intact length" cut) (upto expect) intact;
    List.iteri
      (fun i r ->
        Alcotest.(check record)
          (Printf.sprintf "cut at %d: record %d intact" cut i)
          (List.nth sample_records i) r)
      got
  done

(* flip one byte inside a middle record: the scan stops at the last
   record before the damage, even though intact bytes follow *)
let test_corrupted_record () =
  let damaged_index = 3 in
  let data = Bytes.of_string (String.concat "" encoded) in
  let victim = upto damaged_index + (String.length (List.nth encoded damaged_index) / 2) in
  Bytes.set data victim (Char.chr (Char.code (Bytes.get data victim) lxor 0x40));
  let got, intact = Journal.scan (Bytes.to_string data) in
  Alcotest.(check int) "stops before the damaged record" damaged_index (List.length got);
  Alcotest.(check int) "intact prefix length" (upto damaged_index) intact

(* the trailer carries a 62-bit checksum, so bit 63 is always 0: a
   record with it flipped is damage, and the scan stops there *)
let test_trailer_bit63 () =
  let damaged_index = 2 in
  let data = Bytes.of_string (String.concat "" encoded) in
  let top = upto (damaged_index + 1) - 1 in
  Bytes.set data top (Char.chr (Char.code (Bytes.get data top) lxor 0x80));
  let got, intact = Journal.scan (Bytes.to_string data) in
  Alcotest.(check (list record)) "stops before the damaged record"
    (List.filteri (fun i _ -> i < damaged_index) sample_records)
    got;
  Alcotest.(check int) "intact prefix length" (upto damaged_index) intact

(* a journal with a torn tail must accept new appends *after* cutting
   the tail, or the new records would be unreachable to a scan *)
let test_reopen_truncates_torn_tail () =
  with_temp (fun path ->
      let keep = [ List.nth sample_records 0; List.nth sample_records 1 ] in
      let torn =
        let full = List.nth encoded 2 in
        String.sub full 0 (String.length full - 3)
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.concat "" (List.map Envelope.encode keep) ^ torn));
      let records, j = Journal.open_append ~path () in
      Alcotest.(check (list record)) "intact records returned" keep records;
      let extra = Envelope.Post { seq = 9; slot = 5; frame = "after-crash" } in
      Journal.append j extra;
      Journal.close j;
      Alcotest.(check (list record)) "tail cut, append reachable" (keep @ [ extra ])
        (fst (Journal.scan (read_file path))))

(* the journal holds only [Start], [Post] and [Report]: any other
   envelope ends the scan as damage does *)
let test_foreign_envelope () =
  let keep = [ List.nth sample_records 0; List.nth sample_records 1 ] in
  let prefix = String.concat "" (List.map Envelope.encode keep) in
  let got, intact =
    Journal.scan (prefix ^ Envelope.encode Envelope.Shutdown ^ List.nth encoded 2)
  in
  Alcotest.(check (list record)) "stops at the foreign envelope" keep got;
  Alcotest.(check int) "intact prefix length" (String.length prefix) intact

(* ------------------------------------------------------------------ *)
(* Replay fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

(* varints the decoder accepts: up to 56 bits *)
let gen_nat =
  QCheck.Gen.(oneof [ int_bound 300; (fun st -> Random.State.full_int st (1 lsl 56)) ])

let gen_record =
  let open QCheck.Gen in
  let blob = string_size (int_bound 40) in
  oneof
    [
      map (fun nslots -> Envelope.Start { nslots }) gen_nat;
      (let* seq = gen_nat in
       let* slot = gen_nat in
       let+ frame = blob in
       Envelope.Post { seq; slot; frame });
      (let* slot = gen_nat in
       let+ json = blob in
       Envelope.Report { slot; json });
    ]

(* one record's bytes, damaged so they can no longer parse: a flipped
   byte, a torn end, junk inserted before the last byte, or bytes cut
   out.  Each edit changes the header, the body or the trailer, which
   the header and checksum checks catch -- except junk that repeats
   the bytes it displaces, which leaves the whole record in front:
   that case is torn instead. *)
let gen_damaged r =
  let open QCheck.Gen in
  let s = Envelope.encode r in
  let n = String.length s in
  map
    (fun t -> if String.length t >= n && String.sub t 0 n = s then String.sub s 0 (n - 1) else t)
  @@ oneof
    [
      (let* i = int_bound (n - 1) in
       let+ x = int_range 1 255 in
       String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c) s);
      map (fun k -> String.sub s 0 k) (int_bound (n - 1));
      (let* i = int_bound (n - 1) in
       let+ junk = string_size ~gen:char (int_range 1 12) in
       String.sub s 0 i ^ junk ^ String.sub s i (n - i));
      (let* i = int_bound (n - 1) in
       let+ k = int_range 1 (n - i) in
       String.sub s 0 i ^ String.sub s (i + k) (n - i - k));
    ]

let arb_damaged_tail =
  QCheck.make
    ~print:(fun (rs, tail) ->
      Printf.sprintf "%d intact records, tail %S" (List.length rs) tail)
    QCheck.Gen.(pair (list_size (int_bound 5) gen_record) (gen_record >>= gen_damaged))

let journal_fuzz_props =
  [
    QCheck.Test.make ~count:300 ~long_factor:50
      ~name:"intact records + damaged tail replay exactly the intact prefix" arb_damaged_tail
      (fun (rs, tail) ->
        let intact = String.concat "" (List.map Envelope.encode rs) in
        Journal.scan (intact ^ tail) = (rs, String.length intact));
  ]

let () =
  Alcotest.run "journal"
    [
      ( "journal",
        [
          Alcotest.test_case "append/replay roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "truncate at every boundary" `Quick
            test_truncate_every_boundary;
          Alcotest.test_case "corrupted record" `Quick test_corrupted_record;
          Alcotest.test_case "trailer bit 63 flipped" `Quick test_trailer_bit63;
          Alcotest.test_case "reopen truncates torn tail" `Quick
            test_reopen_truncates_torn_tail;
          Alcotest.test_case "foreign envelope ends replay" `Quick test_foreign_envelope;
        ] );
      ("journal-fuzz", List.map QCheck_alcotest.to_alcotest journal_fuzz_props);
    ]
