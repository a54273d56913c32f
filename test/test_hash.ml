module Sha256 = Yoso_hash.Sha256
module Splitmix = Yoso_hash.Splitmix

(* ------------------------------------------------------------------ *)
(* SHA-256 NIST / well-known vectors                                   *)
(* ------------------------------------------------------------------ *)

let check_digest msg expected_hex =
  Alcotest.(check string) ("sha256 of " ^ String.escaped (String.sub msg 0 (min 12 (String.length msg))))
    expected_hex
    (Sha256.hex (Sha256.digest_string msg))

let test_nist_vectors () =
  check_digest "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_digest "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check_digest
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"

let test_million_a () =
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed_string ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize ctx))

let test_streaming_matches_oneshot () =
  let msg = String.init 500 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.digest_string msg in
  (* feed in awkward chunk sizes crossing block boundaries *)
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun sz ->
          let take = min sz (String.length msg - !pos) in
          Sha256.feed_string ctx (String.sub msg !pos take);
          pos := !pos + take)
        sizes;
      if !pos < String.length msg then
        Sha256.feed_string ctx (String.sub msg !pos (String.length msg - !pos));
      Alcotest.(check string) "chunked = oneshot" (Sha256.hex oneshot)
        (Sha256.hex (Sha256.finalize ctx)))
    [ [ 1; 63; 64; 65; 127 ]; [ 499 ]; [ 64; 64; 64 ]; List.init 500 (fun _ -> 1) ]

let test_finalize_twice () =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "x";
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

(* ------------------------------------------------------------------ *)
(* SplitMix                                                            *)
(* ------------------------------------------------------------------ *)

let test_splitmix_reference () =
  (* reference outputs for seed 0 (well-known SplitMix64 sequence) *)
  let t = Splitmix.create 0L in
  let expected = [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ] in
  List.iter
    (fun e -> Alcotest.(check int64) "splitmix64 ref" e (Splitmix.next t))
    expected

let test_splitmix_determinism () =
  let a = Splitmix.of_int 42 and b = Splitmix.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_split_independent () =
  let a = Splitmix.of_int 7 in
  let b = Splitmix.split a in
  let xs = List.init 50 (fun _ -> Splitmix.next a) in
  let ys = List.init 50 (fun _ -> Splitmix.next b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_splitmix_bounds () =
  let t = Splitmix.of_int 9 in
  for _ = 1 to 1000 do
    let v = Splitmix.int t 13 in
    Alcotest.(check bool) "int range" true (v >= 0 && v < 13);
    let f = Splitmix.float t in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int t 0))

let () =
  Alcotest.run "hash"
    [
      ( "sha256",
        [
          Alcotest.test_case "nist vectors" `Quick test_nist_vectors;
          Alcotest.test_case "million a" `Quick test_million_a;
          Alcotest.test_case "streaming" `Quick test_streaming_matches_oneshot;
          Alcotest.test_case "double finalize" `Quick test_finalize_twice;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "reference" `Quick test_splitmix_reference;
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "split" `Quick test_splitmix_split_independent;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
        ] );
    ]
