(* The 64-bit state, held unboxed in 8 bytes: a mutable [int64] field
   would box a fresh value at every draw. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] state t = get64u t 0
let[@inline] set_state t s = set64u t 0 s

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t seed;
  t

let of_int i = create (Int64.of_int i)

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix64 s

(* the state lives in a local and [mix64] is inlined, so the loop
   allocates no Int64 *)
let fill_bytes t b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Splitmix.fill_bytes";
  let s = ref (state t) in
  let pos = ref off and stop = off + len in
  while !pos < stop do
    s := Int64.add !s golden_gamma;
    let z = mix64 !s in
    if stop - !pos >= 8 then Bytes.set_int64_le b !pos z
    else
      (* a short tail keeps the low bytes of one more word *)
      for k = 0 to stop - !pos - 1 do
        Bytes.set b (!pos + k)
          (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical z (8 * k)) land 0xff))
      done;
    pos := !pos + 8
  done;
  set_state t !s

(* The polynomial fold behind [Wire.checksum]: Horner's rule in base
   31, mod 2^63.  It lives here, beside the generator, so that
   [fold_words] can run [mix64] and the fold in one loop over unboxed
   [int64] locals: the libraries are compiled [-opaque], so a call
   across modules is never inlined and an [int64] passed through one is
   boxed.

   The fold runs in [int64] registers, not tagged [int]s: a tagged
   multiply untags and retags around every product.  The accumulator
   enters by [Int64.of_int] and leaves by [Int64.to_int].  Sums and
   products mod 2^64 agree with the tagged ones mod 2^63 (the low 63
   bits of a sum or product depend only on the low 63 bits of its
   operands), and the two conversions keep those bits, so every
   checksum is the one the 63-bit recurrence gives. *)

let p4 = 923521L (* 31^4 *)
let p8 = Int64.mul p4 p4
let even_bytes = 0x00ff00ff00ff00ffL
let odd_bytes = 0xff00ff00ff00ff00L
let even_pairs = 0x0000ffff0000ffffL
let odd_pairs = 0xffff0000ffff0000L

(* [h * 31^8] plus the eight bytes of [w], least significant first,
   folded by SWAR: the even and odd bytes are masked into 16-bit
   lanes, so one multiply folds every pair (each at most 255 * 32 <
   2^16), one more every pair of pairs in 32-bit lanes (at most
   8160 * 962 < 2^32), and one the two halves.  Each lane is masked
   before it is shifted down, and the shifts are logical: the last
   byte of [w] may have its top bit set.  No lane carries into the
   next, so the sum is exact. *)
let[@inline] fold_word h w =
  let open Int64 in
  let pairs = add (mul (logand w even_bytes) 31L) (shift_right_logical (logand w odd_bytes) 8) in
  let quads =
    add (mul (logand pairs even_pairs) 961L) (shift_right_logical (logand pairs odd_pairs) 16)
  in
  add (mul h p8) (add (mul (logand quads 0xffffffffL) p4) (shift_right_logical quads 32))

external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let fold_string h s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Splitmix.fold_string";
  let h = ref (Int64.of_int h) and i = ref off in
  let stop = off + len in
  while !i <= stop - 8 do
    let w = string_get64u s !i in
    h := fold_word !h (if Sys.big_endian then swap64 w else w);
    i := !i + 8
  done;
  while !i < stop do
    h := Int64.add (Int64.mul !h 31L) (Int64.of_int (Char.code (String.unsafe_get s !i)));
    incr i
  done;
  Int64.to_int !h

let fold_words t h n =
  let s = ref (state t) and h = ref (Int64.of_int h) in
  for _ = 1 to n do
    s := Int64.add !s golden_gamma;
    h := fold_word !h (mix64 !s)
  done;
  set_state t !s;
  Int64.to_int !h

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* 62 bits so the value fits OCaml's 63-bit native int; modulo bias
     is negligible for the bounds we use (far below 2^32) *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let split t =
  let seed = next t in
  create (mix64 seed)

let mix a b =
  let z = Int64.add (Int64.mul (Int64.of_int a) golden_gamma) (Int64.of_int b) in
  let z = mix64 (Int64.add z golden_gamma) in
  Int64.to_int (Int64.shift_right_logical z 2)
