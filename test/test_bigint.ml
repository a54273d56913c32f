module B = Yoso_bigint.Bigint
module Oracles = Yoso_oracles

let st = Random.State.make [| 0xB16 |]

let big = Alcotest.testable B.pp B.equal
let check_b = Alcotest.check big

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let test_int_roundtrip () =
  List.iter
    (fun x -> Alcotest.(check int) "roundtrip" x (B.to_int (B.of_int x)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; (1 lsl 30) - 1; (1 lsl 60) + 12345;
      -((1 lsl 59) + 7); max_int / 2 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "-98765432109876543210987654321" ]

let test_string_against_int () =
  for _ = 1 to 100 do
    let x = Random.State.int st 1_000_000_000 - 500_000_000 in
    Alcotest.(check string) "matches int printing" (string_of_int x)
      (B.to_string (B.of_int x))
  done

(* a hex string's value by Horner's rule, independent of the byte
   codec under test *)
let hex_value h =
  String.fold_left
    (fun acc c -> B.add (B.mul acc (B.of_int 16)) (B.of_int (int_of_string ("0x" ^ String.make 1 c))))
    B.zero h

let test_bytes_be () =
  let v = hex_value "0102030405" in
  Alcotest.(check string) "to_bytes" "\x01\x02\x03\x04\x05" (B.to_bytes_be v);
  check_b "roundtrip" v (B.of_bytes_be (B.to_bytes_be v));
  Alcotest.(check string) "zero bytes" "" (B.to_bytes_be B.zero)

(* decode a test-local hex string into raw bytes, independently of the
   library under test, so the vectors below really are pinned *)
let bytes_of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_golden_vectors () =
  (* decimal / hex / byte encodings pinned while the library stored
     30-bit limbs; the canonical big-endian form must survive the switch to 62-bit limbs and any future width
     change.  The values straddle both limb widths' boundaries. *)
  let vectors =
    [
      ("0", "0");
      ("1", "1");
      ("255", "ff");
      ("256", "100");
      ("1073741823", "3fffffff") (* 2^30 - 1: old limb max *);
      ("1073741824", "40000000") (* 2^30: old limb boundary *);
      ("1152921504606846975", "fffffffffffffff");
      ("4611686018427387903", "3fffffffffffffff") (* 2^62 - 1: new limb max *);
      ("4611686018427387904", "4000000000000000") (* 2^62 *);
      ("18446744073709551616", "10000000000000000") (* 2^64 *);
      ( "340282366920938463463374607431768211455" (* 2^128 - 1 *),
        String.concat "" (List.init 32 (fun _ -> "f")) );
      ( "57896044618658097711785492504343953926634992332820282019728792003956564819949",
        "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed" )
      (* 2^255 - 19 *);
    ]
  in
  List.iter
    (fun (dec, hex) ->
      let v = B.of_string dec in
      check_b ("hex " ^ hex) v (hex_value hex);
      Alcotest.(check string) ("to_string " ^ dec) dec (B.to_string v);
      if not (B.is_zero v) then begin
        Alcotest.(check string) ("to_bytes_be " ^ dec) (bytes_of_hex hex)
          (B.to_bytes_be v);
        check_b ("of_bytes_be " ^ dec) v (B.of_bytes_be (bytes_of_hex hex));
        (* leading zero bytes are absorbed on decode, never produced *)
        check_b ("padded decode " ^ dec) v
          (B.of_bytes_be ("\000\000" ^ bytes_of_hex hex))
      end)
    vectors;
  (* a multi-limb pattern whose byte image is obvious by eye *)
  let hex = "0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20" in
  Alcotest.(check string) "pattern bytes"
    "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f\x20"
    (B.to_bytes_be (hex_value hex))

let test_bad_inputs () =
  Alcotest.check_raises "empty string" (Invalid_argument "Bigint.of_string: empty")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "bad digit" (Invalid_argument "Bigint.of_string: bad digit")
    (fun () -> ignore (B.of_string "12x4"))

(* ------------------------------------------------------------------ *)
(* Arithmetic vs native ints (small values)                            *)
(* ------------------------------------------------------------------ *)

let rand_small () = Random.State.int st 2_000_001 - 1_000_000

let test_arith_matches_int () =
  for _ = 1 to 1000 do
    let a = rand_small () and b = rand_small () in
    Alcotest.(check int) "add" (a + b) (B.to_int (B.add (B.of_int a) (B.of_int b)));
    Alcotest.(check int) "sub" (a - b) (B.to_int (B.sub (B.of_int a) (B.of_int b)));
    Alcotest.(check int) "mul" (a * b) (B.to_int (B.mul (B.of_int a) (B.of_int b)));
    if b <> 0 then begin
      Alcotest.(check int) "div" (a / b) (B.to_int (B.div (B.of_int a) (B.of_int b)));
      Alcotest.(check int) "rem" (a mod b) (B.to_int (B.rem (B.of_int a) (B.of_int b)))
    end
  done

let test_compare_matches_int () =
  for _ = 1 to 500 do
    let a = rand_small () and b = rand_small () in
    Alcotest.(check int) "compare sign" (compare a b)
      (B.compare (B.of_int a) (B.of_int b))
  done

(* ------------------------------------------------------------------ *)
(* Algebraic properties on big values                                  *)
(* ------------------------------------------------------------------ *)

let rand_big bits = B.random_bits st bits

let test_divmod_invariant () =
  for _ = 1 to 300 do
    let a = rand_big (64 + Random.State.int st 400) in
    let b = B.add B.one (rand_big (1 + Random.State.int st 200)) in
    let q, r = B.divmod a b in
    check_b "a = b*q + r" a (B.add (B.mul b q) r);
    Alcotest.(check bool) "0 <= r" true (B.sign r >= 0);
    Alcotest.(check bool) "r < b" true (B.compare r b < 0)
  done

let test_divmod_signs () =
  let t a b q r =
    let q', r' = B.divmod (B.of_int a) (B.of_int b) in
    Alcotest.(check int) "q" q (B.to_int q');
    Alcotest.(check int) "r" r (B.to_int r')
  in
  t 7 2 3 1;
  t (-7) 2 (-3) (-1);
  t 7 (-2) (-3) 1;
  t (-7) (-2) 3 (-1);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_erem () =
  Alcotest.(check int) "erem of negative" 1 (B.to_int (B.erem (B.of_int (-7)) (B.of_int 2)));
  Alcotest.(check int) "erem positive" 1 (B.to_int (B.erem (B.of_int 7) (B.of_int 2)))

let test_karatsuba_consistency () =
  (* exercise the Karatsuba path (>= 16 limbs of 62 bits = 992 bits)
     and check against a distributive-split computation *)
  for _ = 1 to 10 do
    let a = rand_big 1100 and b = rand_big 1300 in
    let half = B.shift_right a 550 in
    let low = B.sub a (B.shift_left half 550) in
    let expect = B.add (B.shift_left (B.mul half b) 550) (B.mul low b) in
    check_b "karatsuba = split schoolbook" expect (B.mul a b)
  done

let test_karatsuba_threshold_boundary () =
  (* the schoolbook/Karatsuba cutover sits at 16 limbs = 992 bits;
     products whose operands straddle that line from both sides must
     agree with an exact closed form.  (2^k - 1)^2 and
     (2^k + 1)(2^k - 1) are independent oracles: no multiplication
     needed to state the expected value. *)
  List.iter
    (fun k ->
      let pk = B.shift_left B.one k in
      let x = B.sub pk B.one in
      let sq_expect =
        B.add (B.sub (B.shift_left B.one (2 * k)) (B.shift_left B.one (k + 1))) B.one
      in
      check_b (Printf.sprintf "(2^%d-1)^2" k) sq_expect (B.mul x x);
      check_b
        (Printf.sprintf "(2^%d+1)(2^%d-1)" k k)
        (B.sub (B.shift_left B.one (2 * k)) B.one)
        (B.mul (B.add pk B.one) x))
    [ 900; 930; 991; 992; 993; 1054; 1100; 1984; 1985 ];
  (* random operands at 15 / 16 / 17 limbs, crossed: split one operand
     and recombine — the split pieces take a different recursion path
     than the whole product, so a boundary bug cannot cancel out *)
  let sizes = [ 925; 930; 991; 992; 993; 1053; 1054; 1060 ] in
  List.iter
    (fun abits ->
      List.iter
        (fun bbits ->
          let a = rand_big abits and b = rand_big bbits in
          let k = abits / 2 in
          let hi = B.shift_right a k in
          let lo = B.sub a (B.shift_left hi k) in
          let expect = B.add (B.shift_left (B.mul hi b) k) (B.mul lo b) in
          check_b
            (Printf.sprintf "split product %dx%d" abits bbits)
            expect (B.mul a b))
        sizes)
    sizes

let test_shifts () =
  for _ = 1 to 100 do
    let a = rand_big 200 in
    let k = Random.State.int st 120 in
    check_b "shl = mul 2^k" (B.mul a (B.pow B.two k)) (B.shift_left a k);
    check_b "shr = div 2^k" (B.div a (B.pow B.two k)) (B.shift_right a k)
  done

let test_pow () =
  check_b "2^100" (B.of_string "1267650600228229401496703205376") (B.pow B.two 100);
  check_b "x^0" B.one (B.pow (B.of_int 12345) 0);
  Alcotest.check_raises "neg exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_bit_length () =
  Alcotest.(check int) "0" 0 (B.bit_length B.zero);
  Alcotest.(check int) "1" 1 (B.bit_length B.one);
  Alcotest.(check int) "255" 8 (B.bit_length (B.of_int 255));
  Alcotest.(check int) "256" 9 (B.bit_length (B.of_int 256));
  Alcotest.(check int) "2^100" 101 (B.bit_length (B.pow B.two 100))

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_powmod () =
  (* 2^10 mod 1000 = 24 *)
  Alcotest.(check int) "2^10 mod 1000" 24
    (B.to_int (B.powmod B.two (B.of_int 10) (B.of_int 1000)));
  (* Fermat on a known prime *)
  let p = B.of_string "1000000007" in
  for _ = 1 to 20 do
    let a = B.add B.one (B.random_below st (B.sub p B.one)) in
    check_b "fermat" B.one (B.powmod a (B.sub p B.one) p)
  done;
  check_b "mod one" B.zero (B.powmod (B.of_int 5) (B.of_int 3) B.one)

let test_gcd () =
  Alcotest.(check int) "gcd 12 18" 6 (B.to_int (B.gcd (B.of_int 12) (B.of_int 18)));
  Alcotest.(check int) "gcd 0 5" 5 (B.to_int (B.gcd B.zero (B.of_int 5)));
  for _ = 1 to 100 do
    let a = rand_big 100 and b = rand_big 100 in
    let g = B.gcd a b in
    if not (B.is_zero g) then begin
      Alcotest.(check bool) "g | a" true (B.is_zero (B.rem a g));
      Alcotest.(check bool) "g | b" true (B.is_zero (B.rem b g))
    end
  done

(* the Euclid reference the binary gcd and inverse are checked
   against: Bezout holds, and its gcd is the library's *)
let test_extended_gcd () =
  for _ = 1 to 100 do
    let a = rand_big 150 and b = rand_big 150 in
    let g, x, y = Oracles.Euclid.extended_gcd a b in
    check_b "bezout" g (B.add (B.mul a x) (B.mul b y));
    check_b "matches gcd" (B.gcd a b) g
  done

let test_invmod () =
  let m = B.of_string "1000000007" in
  for _ = 1 to 50 do
    let a = B.add B.one (B.random_below st (B.sub m B.one)) in
    let ai = B.invmod a m in
    check_b "a * a^-1 = 1 mod m" B.one (B.mulmod a ai m);
    Alcotest.(check bool) "canonical range" true (B.sign ai >= 0 && B.compare ai m < 0)
  done;
  Alcotest.check_raises "non-coprime" Division_by_zero (fun () ->
      ignore (B.invmod (B.of_int 6) (B.of_int 9)))

let test_factorial () =
  Alcotest.(check int) "0!" 1 (B.to_int (B.factorial 0));
  Alcotest.(check int) "5!" 120 (B.to_int (B.factorial 5));
  check_b "20!" (B.of_string "2432902008176640000") (B.factorial 20);
  check_b "30!" (B.of_string "265252859812191058636308480000000") (B.factorial 30)

(* ------------------------------------------------------------------ *)
(* Primality                                                           *)
(* ------------------------------------------------------------------ *)

let test_primality_known () =
  let prime s = Alcotest.(check bool) (s ^ " prime") true (B.is_probable_prime st (B.of_string s)) in
  let composite s =
    Alcotest.(check bool) (s ^ " composite") false (B.is_probable_prime st (B.of_string s))
  in
  prime "2";
  prime "3";
  prime "104729";
  prime "1000000007";
  prime "170141183460469231731687303715884105727" (* 2^127 - 1 *);
  composite "0";
  composite "1";
  composite "4";
  composite "561" (* Carmichael *);
  composite "1000000008";
  composite "170141183460469231731687303715884105725"

let test_random_prime () =
  List.iter
    (fun bits ->
      let p = B.random_prime st ~bits in
      Alcotest.(check int) "bit length" bits (B.bit_length p);
      Alcotest.(check bool) "is prime" true (B.is_probable_prime st p))
    [ 16; 32; 64; 128 ]

let test_random_below () =
  let bound = B.of_int 1000 in
  for _ = 1 to 200 do
    let v = B.random_below st bound in
    Alcotest.(check bool) "in range" true (B.sign v >= 0 && B.compare v bound < 0)
  done

(* ------------------------------------------------------------------ *)
(* Montgomery engine                                                   *)
(* ------------------------------------------------------------------ *)

let random_odd_modulus bits =
  let m = B.add (B.shift_left B.one (bits - 1)) (B.random_bits st (bits - 1)) in
  if B.is_even m then B.add m B.one else m

let test_mont_matches_naive () =
  List.iter
    (fun bits ->
      let m = random_odd_modulus bits in
      let ctx = B.Mont.create m in
      for _ = 1 to 25 do
        let b = B.random_bits st (bits + 17) in
        let e = B.random_bits st bits in
        check_b "mont = naive" (B.powmod_naive b e m) (B.Mont.powmod ctx b e)
      done)
    [ 512; 1024 ]

let test_mont_dispatch_matches_naive () =
  (* the public powmod picks a backend by modulus shape; whatever it
     picks must agree with the reference loop *)
  for _ = 1 to 50 do
    let bits = 2 + Random.State.int st 200 in
    let m = B.add (B.random_bits st bits) B.two in
    let b = B.random_bits st (bits + 9) in
    let e = B.random_bits st 80 in
    check_b "dispatch = naive" (B.powmod_naive b e m) (B.powmod b e m)
  done

let test_mont_fixed_base () =
  List.iter
    (fun bits ->
      let m = random_odd_modulus bits in
      let ctx = B.Mont.create m in
      let base = B.random_bits st (bits - 1) in
      (* a column that was never preloaded grows across calls and
         serves a short exponent again after a long one; one preloaded
         to 300 bits is only read up to there and grows beyond *)
      let column = B.Mont.fixed_base ctx base and preloaded = B.Mont.fixed_base ctx base in
      B.Mont.preload preloaded ~bits:300;
      List.iter
        (fun ebits ->
          let e = B.random_bits st ebits in
          let want = B.Mont.powmod ctx base e in
          check_b "column = generic" want (B.Mont.fixed_powmod column e);
          check_b "preloaded = generic" want (B.Mont.fixed_powmod preloaded e))
        [ 0; 4; 30; 64; 200; 700; 1; 2 * bits; 300; 301 ])
    [ 512; 1024 ]

let test_mont_edge_cases () =
  let m = random_odd_modulus 256 in
  let ctx = B.Mont.create m in
  let b = B.random_bits st 200 in
  check_b "e = 0" B.one (B.Mont.powmod ctx b B.zero);
  check_b "e = 1" (B.erem b m) (B.Mont.powmod ctx b B.one);
  check_b "base = 0 mod m" B.zero (B.Mont.powmod ctx (B.mul m B.two) (B.of_int 5));
  check_b "negative base" (B.powmod_naive (B.neg b) (B.of_int 7) m)
    (B.Mont.powmod ctx (B.neg b) (B.of_int 7));
  let x = B.random_below st m and y = B.random_below st m in
  check_b "mulmod agrees" (B.mulmod x y m)
    (Oracles.Mont_form.of_mont ctx
       (B.Mont.mulmod ctx (Oracles.Mont_form.to_mont ctx x) (Oracles.Mont_form.to_mont ctx y)));
  check_b "sqrmod agrees" (B.mulmod x x m)
    (Oracles.Mont_form.of_mont ctx (B.Mont.sqrmod ctx (Oracles.Mont_form.to_mont ctx x)));
  (* a product whose value before the final subtraction is t = m + d,
     d = 2^128 - 1: limb 0 of t is below m's and limb 1 equals m's, so
     the subtraction must carry its borrow through an equal limb.  For
     a = m - 1 and b = -t R mod m, mu = (t R - a b) / m is in [0, R)
     when a b > d R, so it is the kernel's mu and a b + mu m = t R. *)
  let r = B.shift_left B.one 256 and d = B.sub (B.shift_left B.one 128) B.one in
  let a = B.sub m B.one in
  let b = B.erem (B.neg (B.mul (B.add m d) r)) m in
  Alcotest.(check bool) "kernel's mu below R" true (B.compare (B.mul a b) (B.mul d r) > 0);
  check_b "final subtraction borrows through an equal limb" d (B.Mont.mulmod ctx a b);
  Alcotest.check_raises "even modulus"
    (Invalid_argument "Bigint.Mont.create: modulus must be odd and >= 3") (fun () ->
      ignore (B.Mont.create (B.of_int 100)));
  Alcotest.check_raises "modulus 1"
    (Invalid_argument "Bigint.Mont.create: modulus must be odd and >= 3") (fun () ->
      ignore (B.Mont.create B.one));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.Mont.powmod: negative exponent") (fun () ->
      ignore (B.Mont.powmod ctx b (B.of_int (-1))))

let test_mont_backend_equality () =
  (* the 62-bit wide kernel, the retired 30-bit kernel kept as an
     oracle (Oracles.Narrow) and the naive square-and-multiply loop must
     agree bit-for-bit; 2048 bits covers moduli well past every bench
     shape.  Full-width exponents drive the sliding-window ladder
     through long windows and zero runs. *)
  List.iter
    (fun bits ->
      let m = random_odd_modulus bits in
      let wide = B.Mont.create m in
      let narrow = Oracles.Narrow.create m in
      let iters = if bits >= 2048 then 3 else 8 in
      for _ = 1 to iters do
        let b = B.random_bits st (bits + 11) in
        let e = B.random_bits st bits in
        let expect = B.powmod_naive b e m in
        check_b "wide = naive" expect (B.Mont.powmod wide b e);
        check_b "narrow = naive" expect (Oracles.Narrow.powmod narrow b e)
      done;
      (* structured exponents stress the ladder's first-window fill and
         trailing-zero handling: all-ones spans, exact powers of two,
         single bits far apart *)
      List.iter
        (fun e ->
          let b = B.random_bits st bits in
          check_b "structured exponent"
            (Oracles.Narrow.powmod narrow b e)
            (B.Mont.powmod wide b e))
        [
          B.zero; B.one; B.two; B.of_int 31; B.of_int 32; B.of_int 33;
          B.sub (B.shift_left B.one 64) B.one;
          B.shift_left B.one 64;
          B.add (B.shift_left B.one 63) B.one;
          B.add (B.shift_left B.one 200) B.one;
        ];
      (* Montgomery-domain product parity on canonical operands *)
      for _ = 1 to 5 do
        let x = B.random_below st m and y = B.random_below st m in
        check_b "mulmod wide = reference" (B.mulmod x y m)
          (Oracles.Mont_form.of_mont wide
             (B.Mont.mulmod wide (Oracles.Mont_form.to_mont wide x)
                (Oracles.Mont_form.to_mont wide y)))
      done)
    [ 512; 1024; 2048 ]

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Multi-exponentiation                                                *)
(* ------------------------------------------------------------------ *)

(* both kernels against the naive product of independent powmods, on
   random 512/1024-bit bases and exponents, small and large batches *)
let test_multiexp_matches_naive () =
  List.iter
    (fun bits ->
      let m = random_odd_modulus bits in
      let ctx = B.Mont.create m in
      List.iter
        (fun npairs ->
          let pairs =
            Array.init npairs (fun _ ->
                (B.random_bits st (bits + 13), B.random_bits st bits))
          in
          let expect = Oracles.multiexp_naive ctx pairs in
          check_b "straus = naive" expect (B.Multiexp.straus ctx pairs);
          check_b "pippenger = naive" expect (B.Multiexp.pippenger ctx pairs);
          check_b "run = naive" expect (B.Multiexp.run ctx pairs))
        [ 1; 3; 33; 80 ])
    [ 512; 1024 ]

(* short exponents exercise the narrow-window Straus path and the
   Pippenger window-choice heuristic *)
let test_multiexp_short_exponents () =
  let m = random_odd_modulus 512 in
  let ctx = B.Mont.create m in
  List.iter
    (fun ebits ->
      let pairs =
        Array.init 24 (fun _ -> (B.random_bits st 512, B.random_bits st ebits))
      in
      let expect = Oracles.multiexp_naive ctx pairs in
      check_b "straus short" expect (B.Multiexp.straus ctx pairs);
      check_b "pippenger short" expect (B.Multiexp.pippenger ctx pairs))
    [ 5; 31; 64 ]

let test_multiexp_edge_cases () =
  let m = random_odd_modulus 512 in
  let ctx = B.Mont.create m in
  check_b "empty product" B.one (B.Multiexp.run ctx [||]);
  check_b "all zero exponents" B.one
    (B.Multiexp.run ctx [| (B.of_int 7, B.zero); (B.of_int 11, B.zero) |]);
  (* zero base annihilates the product *)
  check_b "zero base" B.zero
    (B.Multiexp.straus ctx [| (B.zero, B.of_int 3); (B.of_int 5, B.of_int 2) |]);
  (* negative exponents go through the inverse; compare against the
     explicitly inverted naive form *)
  let b1 = random_odd_modulus 300 and b2 = random_odd_modulus 200 in
  let e1 = B.random_bits st 100 and e2 = B.random_bits st 100 in
  let pairs = [| (b1, B.neg e1); (b2, e2) |] in
  let expect =
    B.mulmod (B.powmod (B.invmod b1 m) e1 m) (B.powmod b2 e2 m) m
  in
  check_b "negative exponent straus" expect (B.Multiexp.straus ctx pairs);
  check_b "negative exponent pippenger" expect (B.Multiexp.pippenger ctx pairs);
  check_b "negative exponent naive" expect (Oracles.multiexp_naive ctx pairs)

(* ------------------------------------------------------------------ *)
(* Binary gcd and inverse, and the squaring step, against references   *)
(* ------------------------------------------------------------------ *)

(* exactly [bits] bits, random below the top one *)
let top_bit st bits = B.add (B.shift_left B.one (bits - 1)) (B.random_bits st (bits - 1))
let make_odd m = if B.is_even m then B.add m B.one else m
let signed st x = if Random.State.bool st then B.neg x else x

(* The kernel digit count of a modulus is l = ceil((bits + 2) / 29),
   rounded up to even: 29 l - 2 bits is the top of an l and
   29 (l - 1) - 1 bits its bottom. *)
let moduli_of_digits st l =
  [ B.sub (B.shift_left B.one ((29 * l) - 2)) B.one (* every digit of m - 1 at its max *);
    make_odd (top_bit st ((29 * l) - 2));
    make_odd (top_bit st ((29 * l) - 30)) ]

(* the squaring step against the multiply at every even digit count up
   to 72, across both ends of the gate (20 and 60 digits), on the
   operands that stress its column sums; then the ladders that call it
   against the independent 30-bit kernel *)
let test_sqr_every_l () =
  for h = 1 to 36 do
    let l = 2 * h in
    List.iter
      (fun m ->
        let ctx = B.Mont.create m in
        List.iter
          (fun x ->
            check_b (Printf.sprintf "sqrmod = mulmod at l = %d" l) (B.Mont.mulmod ctx x x)
              (B.Mont.sqrmod ctx x))
          (B.zero :: B.one :: B.sub m B.one :: List.init 3 (fun _ -> B.random_below st m));
        let b = B.random_below st m and e = B.random_bits st (29 * l) in
        check_b (Printf.sprintf "ladder at l = %d" l)
          (Oracles.Narrow.powmod (Oracles.Narrow.create m) b e)
          (B.Mont.powmod ctx b e);
        let pairs = [| (b, e); (B.sub m b, B.random_bits st 64) |] in
        check_b (Printf.sprintf "multiexp at l = %d" l) (Oracles.multiexp_naive ctx pairs)
          (B.Multiexp.straus ctx pairs))
      (moduli_of_digits st l)
  done

let test_gcd_edges () =
  let g a b = B.to_int (B.gcd (B.of_int a) (B.of_int b)) in
  List.iter
    (fun (a, b, expect) -> Alcotest.(check int) (Printf.sprintf "gcd %d %d" a b) expect (g a b))
    [ (0, 0, 0); (0, -7, 7); (-12, 0, 12); (12, 18, 6); (-12, 18, 6); (12, -18, 6);
      (1 lsl 40, 1 lsl 20, 1 lsl 20); (96, 96, 96); (max_int, max_int - 1, 1);
      (max_int - 1, (max_int - 1) / 2, (max_int - 1) / 2) ];
  let p = B.shift_left B.one 1000 in
  check_b "powers of two" (B.shift_left B.one 300) (B.gcd p (B.shift_left B.one 300));
  check_b "shared 2^k" (B.shift_left (B.of_int 3) 500)
    (B.gcd (B.shift_left (B.of_int 9) 500) (B.shift_left (B.of_int 15) 700))

let test_invmod_edges () =
  let inv a m = B.to_int (B.invmod (B.of_int a) (B.of_int m)) in
  let raises name a m =
    Alcotest.check_raises name Division_by_zero (fun () ->
        ignore (B.invmod (B.of_int a) (B.of_int m)))
  in
  Alcotest.(check int) "mod 1" 0 (inv 5 1);
  Alcotest.(check int) "mod 1 of 0" 0 (inv 0 1);
  Alcotest.(check int) "mod 2" 1 (inv 7 2);
  Alcotest.(check int) "mod 2 of -1" 1 (inv (-1) 2);
  Alcotest.(check int) "3 mod 4" 3 (inv 3 4);
  Alcotest.(check int) "m - 1 mod even m" 99 (inv 99 100);
  Alcotest.(check int) "7 mod 1000" 143 (inv 7 1000);
  Alcotest.(check int) "negative modulus" 143 (inv 7 (-1000));
  Alcotest.(check int) "negative a" 857 (inv (-7) 1000);
  (* an odd modulus that fills its top limb: (x + m) / 2 needs the
     carry out of the sum *)
  let m = B.sub (B.shift_left B.one 124) (B.of_int 3) in
  let inv_opt f = try Some (f ()) with Division_by_zero -> None in
  for _ = 1 to 20 do
    let a = B.random_below st m in
    Alcotest.(check (option big))
      "full top limb"
      (inv_opt (fun () -> Oracles.Euclid.invmod a m))
      (inv_opt (fun () -> B.invmod a m))
  done;
  raises "m = 0" 3 0;
  raises "0 mod 2" 0 2;
  raises "a = 0 mod m" 22 11;
  raises "both even" 6 10;
  raises "shared odd factor" 6 9;
  raises "shared factor, even m" 15 12

(* operand pairs of 1 to 2,100 bits in the shapes the binary loop
   branches on: zero, equal up to sign, powers of two, a shared power
   of two times a shared odd factor, and plain random *)
let gen_gcd_pair st =
  let bits () = 1 + Random.State.int st 2100 in
  match Random.State.int st 6 with
  | 0 ->
    let x = signed st (top_bit st (bits ())) in
    if Random.State.bool st then (B.zero, x) else (x, B.zero)
  | 1 ->
    let x = top_bit st (bits ()) in
    (signed st x, signed st x)
  | 2 ->
    let pow2 () = B.shift_left B.one (Random.State.int st 2100) in
    (pow2 (), if Random.State.bool st then pow2 () else signed st (top_bit st (bits ())))
  | 3 ->
    let k = Random.State.int st 300 and g = top_bit st (1 + Random.State.int st 400) in
    let scaled () = signed st (B.shift_left (B.mul g (top_bit st (1 + Random.State.int st 1000))) k) in
    (scaled (), scaled ())
  | _ -> (signed st (top_bit st (bits ())), signed st (top_bit st (bits ())))

let print_pair (a, b) = B.to_string a ^ ", " ^ B.to_string b

(* moduli: 1, 2, small and large even ones, 1024- and 2048-bit odd
   ones, any size up to 2048 bits, now and then negative; operands:
   0 mod m, m - 1, multiples of 2 and 3, anything of either sign *)
let gen_inv_case st =
  let m =
    match Random.State.int st 7 with
    | 0 -> B.one
    | 1 -> B.two
    | 2 -> B.of_int (2 * (2 + Random.State.int st 1000))
    | 3 -> B.shift_left (top_bit st (1 + Random.State.int st 1000)) (1 + Random.State.int st 60)
    | 4 -> make_odd (top_bit st 1024)
    | 5 -> make_odd (top_bit st 2048)
    | _ -> top_bit st (2 + Random.State.int st 2047)
  in
  let m = if Random.State.int st 8 = 0 then B.neg m else m in
  let any () = signed st (B.random_bits st (B.bit_length m + 64)) in
  let a =
    match Random.State.int st 6 with
    | 0 -> B.mul m (B.of_int (Random.State.int st 5 - 2))
    | 1 -> B.sub (B.abs m) B.one
    | 2 -> B.mul B.two (any ())
    | 3 -> B.mul (B.of_int 3) (any ())
    | _ -> any ()
  in
  (a, m)

let gcd_inverse_square_props =
  [
    QCheck.Test.make ~count:300 ~long_factor:20 ~name:"gcd = Euclid, 1 to 2100 bits"
      (QCheck.make ~print:print_pair gen_gcd_pair)
      (fun (a, b) -> B.equal (B.gcd a b) (Oracles.Euclid.gcd a b) && B.sign (B.gcd a b) >= 0);
    QCheck.Test.make ~count:300 ~long_factor:20
      ~name:"invmod: a x = 1 mod m, x in [0, |m|), raises iff not coprime"
      (QCheck.make ~print:print_pair gen_inv_case)
      (fun (a, m) ->
        let coprime = B.is_one (Oracles.Euclid.gcd a m) in
        match B.invmod a m with
        | x ->
          coprime
          && B.sign x >= 0
          && B.compare x (B.abs m) < 0
          && B.equal (B.erem (B.mul a x) m) (B.erem B.one m)
          && B.equal x (Oracles.Euclid.invmod a m)
        | exception Division_by_zero -> not coprime);
    QCheck.Test.make ~count:100 ~long_factor:20
      ~name:"sqrmod = mulmod and ladder = 30-bit kernel, 8 to 2100 bits"
      QCheck.(pair (int_range 8 2100) int)
      (fun (bits, seed) ->
        let st = Random.State.make [| seed |] in
        let m = make_odd (top_bit st bits) in
        let ctx = B.Mont.create m in
        let x = B.random_below st m and e = B.random_bits st bits in
        B.equal (B.Mont.sqrmod ctx x) (B.Mont.mulmod ctx x x)
        && B.equal (B.Mont.powmod ctx x e) (Oracles.Narrow.powmod (Oracles.Narrow.create m) x e));
  ]

(* two tables, each reused across exponents of 0 to twice the modulus
   bits: one never preloaded, and one preloaded to a random length, so
   that some exponents only read it and longer ones grow it *)
let fixed_base_props =
  [
    QCheck.Test.make ~count:30 ~long_factor:20
      ~name:"fixed base = powmod, preloaded or not, 8 to 2100 bits"
      QCheck.(pair (int_range 8 2100) int)
      (fun (bits, seed) ->
        let st = Random.State.make [| seed |] in
        let m = make_odd (top_bit st bits) in
        let ctx = B.Mont.create m in
        let base = B.random_bits st (bits + 8) in
        let column = B.Mont.fixed_base ctx base and preloaded = B.Mont.fixed_base ctx base in
        B.Mont.preload preloaded ~bits:(Random.State.int st ((2 * bits) + 1));
        List.for_all
          (fun ebits ->
            let e = B.random_bits st ebits in
            let want = B.Mont.powmod ctx base e in
            B.equal (B.Mont.fixed_powmod column e) want
            && B.equal (B.Mont.fixed_powmod preloaded e) want)
          (0 :: (2 * bits) :: List.init 4 (fun _ -> Random.State.int st ((2 * bits) + 1))));
  ]

(* The C kernel on one modulus against two references: plain bigint
   arithmetic ([B.mulmod], [powmod_naive]) and the retired 29-bit
   kernel ([Oracles.Kernel29]).  [mulmod] and [sqrmod] carry the factor
   R^-1, R = 2^(64L) for the modulus's L = ceil(bits / 64) limbs; the
   exponentiations carry none.  Exponents stay short enough for
   [powmod_naive] ([short] bits), and up to [long] bits against the
   29-bit kernel.  [Multiexp.run] takes its Straus path below 64 pairs,
   checked against the 29-bit kernel's powmods, and Pippenger's from
   64, checked against the product of the [powmod]s checked here. *)
let kernel_agrees st ~long m =
  let bits = B.bit_length m in
  let ctx = B.Mont.create m and k29 = Oracles.Kernel29.create m in
  let rinv = B.invmod (B.shift_left B.one (64 * ((bits + 63) / 64))) m in
  let redc x = B.mulmod x rinv m in
  let operands = B.zero :: B.one :: B.sub m B.one :: List.init 3 (fun _ -> B.random_below st m) in
  let products =
    List.for_all
      (fun x ->
        let y = B.random_below st m in
        let sq = B.Mont.sqrmod ctx x and prod = B.Mont.mulmod ctx x y in
        B.equal sq (redc (B.mulmod x x m))
        && B.equal sq (redc (Oracles.Kernel29.sqrmod k29 x))
        && B.equal prod (redc (B.mulmod x y m))
        && B.equal prod (redc (Oracles.Kernel29.mulmod k29 x y)))
      operands
  in
  let base = B.random_bits st (bits + 9) in
  let short = B.random_bits st (1 + Random.State.int st 48)
  and long = B.random_bits st (1 + Random.State.int st long) in
  let want_short = B.powmod_naive base short m and want_long = Oracles.Kernel29.powmod k29 base long in
  let fb = B.Mont.fixed_base ctx base in
  let pairs n ebits = Array.init n (fun _ -> (B.random_below st m, B.random_bits st ebits)) in
  let straus = pairs (1 + Random.State.int st 3) 32 in
  let want =
    Array.fold_left
      (fun acc (b, e) -> B.mulmod acc (Oracles.Kernel29.powmod k29 b e) m)
      B.one straus
  in
  products
  && B.equal want_short (Oracles.Kernel29.powmod k29 base short)
  && B.equal (B.Mont.powmod ctx base short) want_short
  && B.equal (B.Mont.powmod ctx base long) want_long
  && B.equal (B.Mont.fixed_powmod fb long) want_long
  && B.equal (B.Mont.fixed_powmod fb short) want_short
  && B.equal (B.Multiexp.run ctx straus) want
  &&
  let pippenger = pairs 64 8 in
  B.equal (B.Multiexp.run ctx pippenger) (Oracles.multiexp_naive ctx pippenger)

(* for L = 1 to 66 limbs: odd moduli of 64L - 2, 64L - 1 and 64L bits,
   and 2^(64L) - 1, whose every limb is all ones; then the moduli at the
   29-bit kernel's digit boundaries, three per even digit count to 72 *)
let limb_boundary_moduli st =
  List.concat_map
    (fun l ->
      let w = 64 * l in
      [ make_odd (top_bit st (w - 2)); make_odd (top_bit st (w - 1)); make_odd (top_bit st w);
        B.sub (B.shift_left B.one w) B.one ])
    (List.init 66 (fun i -> i + 1))
  @ List.concat_map (fun h -> moduli_of_digits st (2 * h)) (List.init 36 (fun h -> h + 1))

let mont_limb_props =
  [
    QCheck.Test.make ~count:20 ~long_factor:20
      ~name:"C kernel = 29-bit kernel = naive, 2 to 4200 bits"
      QCheck.(pair (int_range 2 4200) int)
      (fun (bits, seed) ->
        let st = Random.State.make [| seed |] in
        kernel_agrees st ~long:bits (make_odd (top_bit st bits)));
    QCheck.Test.make ~count:1 ~long_factor:10
      ~name:"C kernel = 29-bit kernel = naive at limb boundaries"
      QCheck.int
      (fun seed ->
        let st = Random.State.make [| seed |] in
        List.for_all (kernel_agrees st ~long:128) (limb_boundary_moduli st));
  ]

let arb_big =
  QCheck.map
    (fun (bits, seed) ->
      let st = Random.State.make [| seed |] in
      B.random_bits st (bits mod 300))
    QCheck.(pair small_nat int)

let qcheck_props =
  [
    QCheck.Test.make ~count:300 ~name:"add commutes" (QCheck.pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.add a b) (B.add b a));
    QCheck.Test.make ~count:300 ~name:"mul commutes" (QCheck.pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.mul a b) (B.mul b a));
    QCheck.Test.make ~count:200 ~name:"mul distributes"
      (QCheck.triple arb_big arb_big arb_big) (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    QCheck.Test.make ~count:300 ~name:"sub then add roundtrips"
      (QCheck.pair arb_big arb_big) (fun (a, b) -> B.equal a (B.add (B.sub a b) b));
    QCheck.Test.make ~count:300 ~name:"string roundtrip" arb_big (fun a ->
        B.equal a (B.of_string (B.to_string a)));
    QCheck.Test.make ~count:300 ~name:"bytes roundtrip" arb_big (fun a ->
        B.equal a (B.of_bytes_be (B.to_bytes_be a)));
    (* the big-endian encoding is canonical: no leading zero byte ever,
       so equal values have equal encodings (the wire codec rejects
       padded magnitudes on this basis) *)
    QCheck.Test.make ~count:300 ~name:"bytes canonical: no leading zero" arb_big
      (fun a ->
        let s = B.to_bytes_be a in
        String.length s = 0 || s.[0] <> '\000');
    QCheck.Test.make ~count:300 ~name:"zero padding is absorbed" arb_big (fun a ->
        let m = B.abs a in
        B.equal m (B.of_bytes_be ("\000\000\000" ^ B.to_bytes_be m)));
    QCheck.Test.make ~count:300 ~name:"encoding length = ceil(bits/8)" arb_big
      (fun a ->
        String.length (B.to_bytes_be a) = (B.bit_length a + 7) / 8);
    QCheck.Test.make ~count:200 ~name:"divmod invariant" (QCheck.pair arb_big arb_big)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul b q) r) && B.compare (B.abs r) (B.abs b) < 0);
    (* random operand widths across the Karatsuba cutover (16 limbs =
       992 bits): the split identity must hold no matter which side of
       the threshold each recursive product lands on *)
    QCheck.Test.make ~count:40 ~name:"mul consistent across karatsuba boundary"
      QCheck.(triple (int_range 900 1100) (int_range 900 1100) int)
      (fun (abits, bbits, seed) ->
        let st = Random.State.make [| seed |] in
        let a = B.random_bits st abits and b = B.random_bits st bbits in
        let k = 1 + (abs seed mod 900) in
        let hi = B.shift_right a k in
        let lo = B.sub a (B.shift_left hi k) in
        B.equal (B.mul a b) (B.add (B.shift_left (B.mul hi b) k) (B.mul lo b)));
    (* both Montgomery kernels on a shared random odd modulus: the
       62-bit and 30-bit backends are independent implementations, so
       agreement is a strong correctness vote for each *)
    QCheck.Test.make ~count:60 ~name:"mont wide = narrow on random moduli"
      QCheck.(triple (int_range 8 320) int int)
      (fun (bits, mseed, vseed) ->
        let mst = Random.State.make [| mseed |] in
        let m = B.add (B.shift_left B.one (bits - 1)) (B.random_bits mst (bits - 1)) in
        let m = if B.is_even m then B.add m B.one else m in
        let vst = Random.State.make [| vseed |] in
        let b = B.random_bits vst (bits + 7) in
        let e = B.random_bits vst (bits + 1) in
        B.equal
          (B.Mont.powmod (B.Mont.create m) b e)
          (Oracles.Narrow.powmod (Oracles.Narrow.create m) b e));
  ]

let () =
  Alcotest.run "bigint"
    [
      ( "conversions",
        [
          Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "string vs int" `Quick test_string_against_int;
          Alcotest.test_case "bytes be" `Quick test_bytes_be;
          Alcotest.test_case "golden vectors" `Quick test_golden_vectors;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "matches int" `Quick test_arith_matches_int;
          Alcotest.test_case "compare" `Quick test_compare_matches_int;
          Alcotest.test_case "divmod invariant" `Quick test_divmod_invariant;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "erem" `Quick test_erem;
          Alcotest.test_case "karatsuba" `Quick test_karatsuba_consistency;
          Alcotest.test_case "karatsuba threshold boundary" `Quick
            test_karatsuba_threshold_boundary;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
        ] );
      ( "modular",
        [
          Alcotest.test_case "powmod" `Quick test_powmod;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "extended gcd" `Quick test_extended_gcd;
          Alcotest.test_case "invmod" `Quick test_invmod;
          Alcotest.test_case "gcd edge cases" `Quick test_gcd_edges;
          Alcotest.test_case "invmod edge cases" `Quick test_invmod_edges;
          Alcotest.test_case "factorial" `Quick test_factorial;
        ] );
      ( "primality",
        [
          Alcotest.test_case "known values" `Quick test_primality_known;
          Alcotest.test_case "random prime" `Quick test_random_prime;
          Alcotest.test_case "random below" `Quick test_random_below;
        ] );
      ( "montgomery",
        [
          Alcotest.test_case "matches naive 512/1024" `Quick test_mont_matches_naive;
          Alcotest.test_case "dispatch matches naive" `Quick test_mont_dispatch_matches_naive;
          Alcotest.test_case "fixed base" `Quick test_mont_fixed_base;
          Alcotest.test_case "edge cases" `Quick test_mont_edge_cases;
          Alcotest.test_case "backend equality 512/1024/2048" `Quick
            test_mont_backend_equality;
          Alcotest.test_case "squaring step at every even l to 72" `Quick test_sqr_every_l;
        ] );
      ( "multiexp",
        [
          Alcotest.test_case "matches naive 512/1024" `Quick test_multiexp_matches_naive;
          Alcotest.test_case "short exponents" `Quick test_multiexp_short_exponents;
          Alcotest.test_case "edge cases" `Quick test_multiexp_edge_cases;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props);
      (* QCHECK_LONG=1 runs these at [long_factor] times their count *)
      ("gcd-inv-sqr", List.map QCheck_alcotest.to_alcotest gcd_inverse_square_props);
      ("fixed-base", List.map QCheck_alcotest.to_alcotest fixed_base_props);
      ("mont-limbs", List.map QCheck_alcotest.to_alcotest mont_limb_props);
    ]
