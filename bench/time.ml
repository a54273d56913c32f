(* E8: the arithmetic layer — threshold Paillier on the Montgomery
   backends against their baselines, the C modexp kernel against the
   retired 29-bit one, the binary gcd and inverse against Euclid, the
   squaring step against the multiply, one base's fixed-base table
   against repeated powmods, and the frame-checksum fold kernel *)

module P = Yoso_paillier.Paillier
module T = Yoso_paillier.Threshold
module Splitmix = Yoso_hash.Splitmix
module Wire = Yoso_net.Wire
module Oracles = Yoso_oracles
open Harness

(* MB/s of the checksum fold: [Splitmix.fold_words] over drawn weight
   (the sim's synthesized ciphertexts) and [Wire.checksum] over a
   string, each checked against the byte-at-a-time oracle first *)
let fold_rates () =
  let bytes = if !smoke then 1 lsl 16 else 1 lsl 22 in
  let seed = 0xF01D and h = 0x1505 in
  let drawn = Bytes.create bytes in
  Splitmix.fill_bytes (Splitmix.of_int seed) drawn 0 bytes;
  let drawn = Bytes.unsafe_to_string drawn in
  if Splitmix.fold_words (Splitmix.of_int seed) h (bytes / 8) <> Oracles.Checksum.fold h drawn then
    failwith "bench time: fold_words and the byte-at-a-time fold differ";
  if Wire.checksum drawn <> Oracles.Checksum.checksum drawn then
    failwith "bench time: Wire.checksum and the byte-at-a-time checksum differ";
  let rng = Splitmix.of_int seed in
  let mb_per_s f = float_of_int bytes /. per_op_ms f /. 1e3 in
  let words = mb_per_s (fun () -> Splitmix.fold_words rng h (bytes / 8)) in
  let checksum = mb_per_s (fun () -> Wire.checksum drawn) in
  Printf.printf "  checksum fold over %d KiB: fold_words %.0f MB/s, Wire.checksum %.0f MB/s\n"
    (bytes / 1024) words checksum;
  (bytes, words, checksum)

(* the binary gcd and inverse against the Euclid oracle, and the
   ladders' squaring step against the multiply, at one size: equal
   results first, then interleaved ratios (oracle or multiply over
   ours).  [sqrmod x] and [mulmod x x] each convert x to kernel limbs
   once and the result back, so the square ratio is the two kernels'
   plus the same conversions on both sides. *)
let layer_rows kbits =
  let kst = Random.State.make [| 0x6CD + kbits |] in
  let top () = B.add (B.shift_left B.one (kbits - 1)) (B.random_bits kst (kbits - 1)) in
  let m = let m = top () in if B.is_even m then B.add m B.one else m in
  let a = top () and b = top () and x = B.random_below kst m in
  let ctx = B.Mont.create m in
  if not (B.equal (B.gcd a b) (Oracles.Euclid.gcd a b)) then
    failwith "bench time: binary and Euclid gcds differ";
  if not (B.equal (B.invmod x m) (Oracles.Euclid.invmod x m)) then
    failwith "bench time: binary and Euclid inverses differ";
  if not (B.equal (B.Mont.sqrmod ctx x) (B.Mont.mulmod ctx x x)) then
    failwith "bench time: squaring step and multiply differ";
  let pair ours theirs =
    let ours_ms = per_op_ms ours and theirs_ms = per_op_ms theirs in
    (theirs_ms, ours_ms, ab_speedup ours theirs)
  in
  let gcd = pair (fun () -> B.gcd a b) (fun () -> Oracles.Euclid.gcd a b) in
  let inv = pair (fun () -> B.invmod x m) (fun () -> Oracles.Euclid.invmod x m) in
  let sqr = pair (fun () -> B.Mont.sqrmod ctx x) (fun () -> B.Mont.mulmod ctx x x) in
  let show name (theirs, ours, s) =
    Printf.printf "    %-8s %4d-bit: %10.4f ms %10.4f ms %7.2fx\n" name kbits theirs ours s
  in
  show "gcd" gcd;
  show "invmod" inv;
  show "square" sqr;
  (kbits, gcd, inv, sqr)

(* one base raised to k exponents: from one fresh column table (its
   squarings done once, the table's first use included in the time)
   against k powmods, at one modulus size.  The exponents are 3/4 of
   the modulus bits, the sigma proofs' c_a^x shape at a 512-bit N.
   Equal results first, then interleaved ratios (powmods over table). *)
let same_base_rows kbits =
  let kst = Random.State.make [| 0xFB5 + kbits |] in
  let m = B.add (B.shift_left B.one (kbits - 1)) (B.random_bits kst (kbits - 1)) in
  let m = if B.is_even m then B.add m B.one else m in
  let ctx = B.Mont.create m in
  let base = B.random_below kst m in
  let exps = Array.init 15 (fun _ -> B.random_bits kst (3 * kbits / 4)) in
  List.map
    (fun k ->
      let table () =
        let fb = B.Mont.fixed_base ctx base in
        Array.init k (fun i -> B.Mont.fixed_powmod fb exps.(i))
      in
      let powmods () = Array.init k (fun i -> B.Mont.powmod ctx base exps.(i)) in
      if not (Array.for_all2 B.equal (table ()) (powmods ())) then
        failwith "bench time: fixed-base table and powmod differ";
      let powmods_ms = per_op_ms powmods and table_ms = per_op_ms table in
      let s = ab_speedup table powmods in
      Printf.printf "    %4d-bit, k = %2d: %10.4f ms %10.4f ms %7.2fx\n" kbits k powmods_ms table_ms s;
      (k, powmods_ms, table_ms, s))
    [ 1; 3; 15 ]

let run () =
  header "E8. Arithmetic layer: Montgomery backends, multiexp combine, modexp and fold kernels";
  let bits = if !smoke then 96 else 256 in
  let st = Random.State.make [| 0x71AE |] in
  (* one committee-sized key: at 3-of-5 the Lagrange weights are a
     dozen bits and there is nothing for the multiexp to amortize;
     33-of-128 is the shape the protocol runs.  It is drawn before
     keygen is timed, whose iteration count varies from run to run. *)
  let parties = if !smoke then 16 else 128 in
  let threshold = parties / 4 in
  let tpk, shares = T.keygen ~bits ~n:parties ~t:threshold ~rng:st () in
  let keygen_ms = per_op_ms (fun () -> P.keygen ~bits ~rng:st ()) in
  let pk = tpk.T.pk in
  let tctx = T.Ctx.create tpk in
  let pctx = T.Ctx.paillier tctx in
  let m = B.random_below st pk.P.n in
  let r = P.sample_unit pk ~rng:st in
  (* equal outputs first: the naive side is the independent oracle, and
     both sides must agree bit for bit *)
  let ct = P.Ctx.encrypt_with pctx ~r m in
  if not (B.equal (Oracles.Paillier.encrypt_with pk ~r m) (P.raw ct)) then
    failwith "bench time: naive and Montgomery encryptions differ";
  let quorum = List.init (threshold + 1) (fun i -> shares.(i)) in
  let parts = List.map (fun s -> T.Ctx.partial_decrypt tctx s ct) quorum in
  if parts <> List.map (fun s -> Oracles.Threshold.partial_decrypt tpk s (P.raw ct)) quorum
  then failwith "bench time: naive and Montgomery partial decryptions differ";
  (* combine's two baselines: the oracle's naive arithmetic, and the
     oracle's combine with one Montgomery powmod per partial *)
  let mont = P.Ctx.mont_n2 pctx in
  let multiexp () = T.Ctx.combine tctx parts in
  let naive () = Oracles.Threshold.combine tpk parts in
  let powmods () =
    Oracles.Threshold.combine ~pow:(fun b e _ -> B.Mont.powmod mont b e) tpk parts
  in
  if not (List.for_all (fun f -> B.equal (f ()) m) [ multiexp; naive; powmods ]) then
    failwith "bench time: combine results differ or decrypt wrong";
  let enc_mont () = P.Ctx.encrypt_with pctx ~r m in
  let tpdec_mont () = T.Ctx.partial_decrypt tctx shares.(0) ct in
  (* one row per baseline: absolute per-op ms, and the interleaved ratio *)
  let row name ~ours ~ours_ms ~baseline =
    let base_ms = per_op_ms baseline and s = ab_speedup ours baseline in
    Printf.printf "  %-28s %10.4f ms %10.4f ms %7.2fx\n" name base_ms ours_ms s;
    (base_ms, ours_ms, s)
  in
  Printf.printf "  %-28s %13s %13s %8s\n" "op" "baseline" "ours" "speedup";
  Printf.printf "  %-28s %13s %10.4f ms\n" "keygen" "" keygen_ms;
  let enc =
    row "encrypt vs naive" ~ours:enc_mont ~ours_ms:(per_op_ms enc_mont)
      ~baseline:(fun () -> Oracles.Paillier.encrypt_with pk ~r m)
  in
  let tpdec =
    row "partial-decrypt vs naive" ~ours:tpdec_mont ~ours_ms:(per_op_ms tpdec_mont)
      ~baseline:(fun () -> Oracles.Threshold.partial_decrypt tpk shares.(0) (P.raw ct))
  in
  let comb = Printf.sprintf "combine %d-of-%d" (threshold + 1) parties in
  let multiexp_ms = per_op_ms multiexp in
  let naive_ms, _, naive_s =
    row (comb ^ " vs naive") ~ours:multiexp ~ours_ms:multiexp_ms ~baseline:naive
  in
  let powmods_ms, _, powmods_s =
    row (comb ^ " vs powmods") ~ours:multiexp ~ours_ms:multiexp_ms ~baseline:powmods
  in
  (* --- the C kernel on 64-bit limbs vs the retired 29-bit OCaml
     kernel it replaced: on the live modexp shapes behind the encrypt
     and partial-decrypt rows, and at protocol modulus sizes.  Against
     an in-process baseline: comparing against numbers recorded in an
     older BENCH_time.json would measure how much the box slowed down
     since, not the kernel. *)
  Printf.printf "  kernel 64-bit C vs 29-bit OCaml Montgomery modexp (interleaved medians):\n";
  let kernel name modulus base e =
    let ours = B.Mont.create modulus and k29 = Oracles.Kernel29.create modulus in
    if not (B.equal (B.Mont.powmod ours base e) (Oracles.Kernel29.powmod k29 base e)) then
      failwith ("bench time: C and 29-bit kernels disagree on " ^ name);
    let s =
      ab_speedup
        (fun () -> B.Mont.powmod ours base e)
        (fun () -> Oracles.Kernel29.powmod k29 base e)
    in
    Printf.printf "    %-14s %4d-bit mod, %4d-bit exp: %5.2fx\n" name (B.bit_length modulus)
      (B.bit_length e) s;
    s
  in
  let n2 = B.mul pk.P.n pk.P.n in
  let k_enc = kernel "encrypt shape" n2 (P.raw ct) pk.P.n in
  let k_tpdec =
    kernel "tpdec shape" n2 (P.raw ct)
      (B.abs (B.mul B.two (B.mul tpk.T.delta shares.(0).T.value)))
  in
  let sizes =
    List.map
      (fun kbits ->
        let kst = Random.State.make [| 0xC0DE + kbits |] in
        let modulus =
          let m = B.add (B.shift_left B.one (kbits - 1)) (B.random_bits kst (kbits - 1)) in
          if B.is_even m then B.add m B.one else m
        in
        let base = B.random_below kst modulus in
        (kbits, kernel (Printf.sprintf "%d-bit" kbits) modulus base (B.random_bits kst kbits)))
      (if !smoke then [ 512 ] else [ 512; 1024; 2048 ])
  in
  Printf.printf "  gcd and inverse: binary vs Euclid; square: squaring step vs multiply\n";
  Printf.printf "    %-8s %8s  %13s %13s %8s\n" "op" "size" "Euclid/mul" "ours" "speedup";
  let layer = List.map layer_rows (if !smoke then [ 512 ] else [ 512; 1024; 2048 ]) in
  Printf.printf "  one base, k exponents: one fixed-base table vs k powmods\n";
  Printf.printf "    %-15s  %13s %13s %8s\n" "size" "powmods" "table" "speedup";
  let same_base =
    List.map (fun kbits -> (kbits, same_base_rows kbits)) (if !smoke then [ 1024 ] else [ 1024; 2048 ])
  in
  let bar name s floor =
    if s < floor then
      failwith (Printf.sprintf "bench time: %s speedup %.2fx below %.2fx" name s floor)
  in
  let speedup (_, _, s) = s in
  if not !smoke then begin
    bar "encrypt" (speedup enc) 3.0;
    bar "partial-decrypt" (speedup tpdec) 3.0;
    bar "combine vs naive" naive_s 3.0;
    bar "combine vs per-partial powmods" powmods_s 2.0;
    (* The C kernel must beat the 29-bit kernel it replaced on both
       live shapes.  The bars are the measured medians (2.5x on a
       2-core x86-64 box, EXPERIMENTS.md E8) less box variance. *)
    bar "tpdec-shape kernel" k_tpdec 2.0;
    bar "encrypt-shape kernel" k_enc 2.0
  end;
  (* smoke epochs are short, so there the sizes only guard against the
     C kernel actually losing *)
  List.iter
    (fun (kbits, s) ->
      bar (Printf.sprintf "%d-bit kernel" kbits) s (if !smoke then 1.0 else 2.0))
    sizes;
  (* the binary algorithms must beat Euclid outright, and the squaring
     step the multiply at every size (the public entry points add the
     same conversions to both), which smoke epochs are too short to
     tell from a tie *)
  List.iter
    (fun (kbits, (_, _, g), (_, _, i), (_, _, q)) ->
      bar (Printf.sprintf "%d-bit gcd" kbits) g (if !smoke then 1.0 else 5.0);
      bar (Printf.sprintf "%d-bit inverse" kbits) i (if !smoke then 1.0 else 3.0);
      if not !smoke then bar (Printf.sprintf "%d-bit square" kbits) q 1.0)
    layer;
  (* a table's first use may cost a little more than one powmod (the
     column's window products and bucket pass on top of the same
     squarings); from three uses on it must win.  Smoke epochs only
     guard k = 15 against losing. *)
  List.iter
    (fun (kbits, rows) ->
      List.iter
        (fun (k, _, _, s) ->
          let name = Printf.sprintf "%d-bit same base k = %d" kbits k in
          if !smoke then (if k = 15 then bar name s 1.0)
          else if k = 1 then bar name s 0.85
          else if k = 15 then bar name s 2.0)
        rows)
    same_base;
  let fold_bytes, fold_words_mb_s, checksum_mb_s = fold_rates () in
  if not !smoke then begin
    let pair (naive, mont, s) =
      Json.(
        Obj
          [ ("naive_ms", Float (4, naive)); ("mont_ms", Float (4, mont));
            ("speedup", Float (2, s)) ])
    in
    write_json "BENCH_time.json"
      Json.(
        Obj
          [
            (* a timing snapshot of one run, on one domain throughout:
               [commit], [cores] and [epochs] say what it was measured on *)
            ("commit", String (git_commit ())); ("runs", Int 1);
            ( "cores",
              Obj [ ("recommended", Int (Domain.recommended_domain_count ())); ("used", Int 1) ] );
            ("epochs", Int (epochs ()));
            ("bits", Int bits); ("keygen_ms", Float (4, keygen_ms));
            ("encrypt", pair enc); ("partial_decrypt", pair tpdec);
            ( "combine",
              Obj
                [ ("parties", Int parties); ("threshold", Int threshold);
                  ("multiexp_ms", Float (4, multiexp_ms));
                  ("naive_ms", Float (4, naive_ms)); ("naive_speedup", Float (2, naive_s));
                  ("powmods_ms", Float (4, powmods_ms));
                  ("powmods_speedup", Float (2, powmods_s)) ] );
            ( "kernel",
              Obj
                [ ("modulus_bits", Int (B.bit_length n2));
                  ("encrypt_shape_speedup", Float (2, k_enc));
                  ("tpdec_shape_speedup", Float (2, k_tpdec));
                  ( "sizes",
                    List
                      (List.map
                         (fun (kbits, s) ->
                           Obj [ ("bits", Int kbits); ("c_vs_29bit_speedup", Float (2, s)) ])
                         sizes) ) ] );
            ( "layer",
              List
                (List.map
                   (fun (kbits, gcd, inv, sqr) ->
                     let cell name base (theirs, ours, s) =
                       ( name,
                         Obj
                           [ (base ^ "_ms", Float (4, theirs)); ("ours_ms", Float (4, ours));
                             ("speedup", Float (2, s)) ] )
                     in
                     Obj
                       [ ("bits", Int kbits); cell "gcd" "euclid" gcd;
                         cell "invmod" "euclid" inv; cell "square" "multiply" sqr ])
                   layer) );
            ( "same_base",
              List
                (List.concat_map
                   (fun (kbits, rows) ->
                     List.map
                       (fun (k, powmods_ms, table_ms, s) ->
                         Obj
                           [ ("bits", Int kbits); ("exponent_bits", Int (3 * kbits / 4));
                             ("k", Int k); ("powmods_ms", Float (4, powmods_ms));
                             ("table_ms", Float (4, table_ms)); ("speedup", Float (2, s)) ])
                       rows)
                   same_base) );
            ( "fold",
              Obj
                [ ("bytes", Int fold_bytes); ("fold_words_mb_per_s", Float (1, fold_words_mb_s));
                  ("checksum_mb_per_s", Float (1, checksum_mb_s)) ] );
          ])
  end
