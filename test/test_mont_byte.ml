(* The Montgomery kernel through its bytecode entry points
   (yoso_mont_mul_byte, yoso_mont_sqr_byte), which only a bytecode
   build calls: every Mont operation against naive arithmetic at
   limb-boundary moduli.  Exits 1 on a mismatch. *)

module B = Yoso_bigint.Bigint

let () =
  let st = Random.State.make [| 7 |] in
  let failures = ref 0 in
  let check what bits ok =
    if not ok then begin
      Printf.printf "FAIL %s at %d bits\n" what bits;
      incr failures
    end
  in
  List.iter
    (fun bits ->
      let m = B.add (B.shift_left B.one (bits - 1)) (B.random_bits st (bits - 1)) in
      let m = if B.is_even m then B.add m B.one else m in
      let ctx = B.Mont.create m in
      let rinv = B.invmod (B.shift_left B.one (64 * ((bits + 63) / 64))) m in
      let x = B.random_below st m and y = B.random_below st m in
      let e = B.random_bits st bits in
      let want = B.powmod_naive x e m in
      check "mulmod" bits (B.equal (B.Mont.mulmod ctx x y) (B.mulmod (B.mulmod x y m) rinv m));
      check "sqrmod" bits (B.equal (B.Mont.sqrmod ctx x) (B.mulmod (B.mulmod x x m) rinv m));
      check "powmod" bits (B.equal (B.Mont.powmod ctx x e) want);
      check "fixed_powmod" bits (B.equal (B.Mont.fixed_powmod (B.Mont.fixed_base ctx x) e) want);
      check "Multiexp.run" bits
        (B.equal (B.Multiexp.run ctx [| (x, e); (y, B.one) |]) (B.mulmod want y m)))
    [ 2; 63; 64; 65; 127; 128; 129; 512; 1024; 2048 ];
  if !failures > 0 then exit 1;
  print_endline "bytecode kernel ok"
