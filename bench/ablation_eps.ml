(* A1: gap eps vs packing factor and communication *)

open Harness

let run () =
  header "A1. Ablation: gap eps vs packing factor and communication (n = 64)";
  Printf.printf "%6s %4s %4s | %12s %12s %14s\n" "eps" "t" "k" "online/gate" "offline/gate"
    "recon thresh";
  List.iter
    (fun eps ->
      let params = Params.of_gap ~n:64 ~eps () in
      let width = 64 * params.Params.k / 4 in
      let circuit = Gen.wide_mul_reduced ~width ~depth:2 ~clients:2 in
      let inputs = fixture (2 * width) in
      let r = Protocol.execute ~params ~circuit ~inputs () in
      assert (Protocol.check r circuit ~inputs);
      Printf.printf "%6.2f %4d %4d | %12.1f %12.1f %14d\n" eps params.Params.t
        params.Params.k (Protocol.online_per_gate r) (Protocol.offline_per_gate r)
        (Params.reconstruction_threshold params))
    [ 0.05; 0.10; 0.15; 0.20; 0.25 ];
  Printf.printf "(larger gap -> larger k -> cheaper online, at lower corruption tolerance)\n"
