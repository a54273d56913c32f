type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }
let of_int i = create (Int64.of_int i)

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* the state lives in a local and [mix64] is inlined, so the loop
   allocates no Int64 per word *)
let fill_bytes t b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Splitmix.fill_bytes";
  let s = ref t.state in
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
  t.state <- !s

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
