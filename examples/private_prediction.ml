(* Private prediction: a model owner (client 0) holds the weight matrix
   of a small linear scorer; a user (client 1) holds a feature vector.
   The user learns the score vector W * x; the model owner learns
   nothing about x and reveals nothing about W beyond the output.

   Run with:  dune exec examples/private_prediction.exe *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators

let rows = 3 (* score classes *)
let cols = 6 (* features *)

let weights =
  (* row-major fixed-point weights (scaled by 100) *)
  [| 12; -3; 45; 7; 0; 22; 5; 31; -8; 14; 9; 2; -6; 11; 3; 40; -2; 17 |]

let features = [| 2; 0; 1; 3; 5; 1 |]

let () =
  let circuit = Gen.matrix_vector ~rows ~cols in
  let params = Params.create ~n:20 ~t:6 ~k:4 () in
  let adversary = { Params.malicious = 4; passive = 2; fail_stop = 1 } in
  let inputs client =
    if client = 0 then Array.map F.of_int weights else Array.map F.of_int features
  in
  let config = Protocol.config ~adversary () in
  let report = Protocol.execute ~params ~config ~circuit ~inputs () in

  Format.printf "Private linear prediction (W: %dx%d, user features hidden)@." rows cols;
  List.iteri
    (fun r o ->
      (* map back from F_p to signed integers for display *)
      let v = F.to_int o.Yoso_mpc.Online.value in
      let signed = if v > F.p / 2 then v - F.p else v in
      Format.printf "  score[%d] = %.2f@." r (float_of_int signed /. 100.0))
    report.Protocol.outputs;
  let ok = Protocol.check report circuit ~inputs in
  Format.printf "  verified against cleartext model: %b@." ok;
  Format.printf "  committees consumed: %d, total posts: %d@." report.Protocol.committees
    report.Protocol.posts;
  if not ok then exit 1
