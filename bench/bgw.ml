(* E2b: the information-theoretic baseline, semi-honest BGW *)

module Cdn = Yoso_mpc.Cdn_baseline
module Bgw = Yoso_mpc.Bgw_baseline
open Harness

let run () =
  header "E2b. Information-theoretic baseline: semi-honest BGW (Section 1.2)";
  Printf.printf "(fixed 8x2 wide circuit; online elements per mult gate)\n";
  Printf.printf "%5s | %10s %10s %10s\n" "n" "ours" "CDN [29]" "BGW [5]";
  List.iter
    (fun n ->
      let t = (n - 1) / 2 in
      let params = Params.create ~n ~t:(max 0 (n / 3)) ~k:2 () in
      let circuit = Gen.wide_mul_reduced ~width:8 ~depth:2 ~clients:2 in
      let inputs = fixture 16 in
      let ours = Protocol.execute ~params ~circuit ~inputs () in
      let cdn = Cdn.execute ~params ~circuit ~inputs () in
      let bgw = Bgw.execute ~n ~t ~circuit ~inputs () in
      assert (Protocol.check ours circuit ~inputs);
      assert (Cdn.check cdn circuit ~inputs);
      assert (Bgw.check bgw circuit ~inputs);
      Printf.printf "%5d | %10.1f %10.1f %10.1f\n" n (Protocol.online_per_gate ours)
        (Cdn.online_per_gate cdn) (Bgw.online_per_gate bgw))
    [ 9; 18; 36 ];
  Printf.printf
    "(BGW re-shares every live wire each round: the 'prohibitively high' IT cost)\n"
