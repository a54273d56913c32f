module Sha256 = Yoso_hash.Sha256
module B = Yoso_bigint.Bigint

type t = { mutable state : string; mutable counter : int }

let frame label data =
  (* injective framing: len(label) || label || len(data) || data *)
  let len s =
    let n = String.length s in
    String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xFF))
  in
  len label ^ label ^ len data ^ data

let create ~label = { state = Sha256.digest_string (frame "ts-init" label); counter = 0 }

let absorb t ~label data =
  t.state <- Sha256.digest_string (t.state ^ frame label data)

let absorb_bigint t ~label v = absorb t ~label (B.to_bytes_be v ^ if B.sign v < 0 then "-" else "+")

let challenge_bytes t ~label n =
  let out = Buffer.create n in
  while Buffer.length out < n do
    let block =
      Sha256.digest_string (t.state ^ frame "ts-squeeze" (label ^ string_of_int t.counter))
    in
    t.counter <- t.counter + 1;
    Buffer.add_string out block
  done;
  (* ratchet the state so challenges are bound into later absorptions *)
  t.state <- Sha256.digest_string (t.state ^ frame "ts-ratchet" label);
  String.sub (Buffer.contents out) 0 n

let challenge_bigint t ~label ~bits =
  let nbytes = (bits + 7) / 8 in
  let raw = challenge_bytes t ~label nbytes in
  let v = B.of_bytes_be raw in
  let excess = (nbytes * 8) - bits in
  B.shift_right v excess

let clone t = { state = t.state; counter = t.counter }
