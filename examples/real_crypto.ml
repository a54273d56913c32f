(* Real-cryptography path: the same CDN-style evaluation the paper
   builds on, executed over genuine threshold Paillier (from-scratch
   bignum arithmetic) with real Fiat-Shamir sigma proofs.  Two of the
   five committee members submit malformed Beaver contributions; their
   proofs fail verification and they are excluded, yet the output is
   still correct (guaranteed output delivery through proof
   filtering).

   Run with:  dune exec examples/real_crypto.exe *)

module B = Yoso_bigint.Bigint
module CP = Yoso_mpc.Cdn_paillier
module Gen = Yoso_circuit.Generators

let () =
  let circuit = Gen.dot_product ~len:4 in
  let xs = [| 17; 23; 5; 11 |] and ys = [| 3; 7; 13; 2 |] in
  let inputs c = Array.map B.of_int (if c = 0 then xs else ys) in

  Format.printf "Threshold-Paillier CDN evaluation (n = 5, t = 2, 96-bit modulus)@.";
  let honest = CP.execute ~n:5 ~t:2 ~circuit ~inputs () in
  (match honest.CP.outputs with
  | (_, _, v) :: _ -> Format.printf "  honest run: <x, y> = %s@." (B.to_string v)
  | [] -> ());
  let honest_ok = CP.check honest circuit ~inputs in
  Format.printf "  correct: %b, rejected contributions: %d@." honest_ok
    honest.CP.rejected_contributions;

  let attacked = CP.execute ~n:5 ~t:2 ~malicious:[ 1; 3 ] ~circuit ~inputs () in
  Format.printf "  attacked run (members 1 and 3 cheat in Beaver generation):@.";
  Format.printf "    sigma proofs rejected: %d@." attacked.CP.rejected_contributions;
  let attacked_ok = CP.check attacked circuit ~inputs in
  Format.printf "    output still correct: %b@." attacked_ok;
  if not (honest_ok && attacked_ok) then exit 1
