(* A2: gates handled per committee (tsk re-share amortisation) *)

open Harness

let run () =
  header "A2. Ablation: gates handled per committee (tsk re-share amortisation, n = 32)";
  Printf.printf "%14s | %12s %14s %12s\n" "gates/cmte" "online/gate" "offline/gate"
    "committees";
  List.iter
    (fun gpc ->
      let params = Params.create ~gates_per_committee:gpc ~n:32 ~t:10 ~k:4 () in
      let circuit = Gen.wide_mul_reduced ~width:64 ~depth:2 ~clients:2 in
      let inputs = fixture 128 in
      let r = Protocol.execute ~params ~circuit ~inputs () in
      assert (Protocol.check r circuit ~inputs);
      Printf.printf "%14d | %12.1f %14.1f %12d\n" gpc (Protocol.online_per_gate r)
        (Protocol.offline_per_gate r) r.Protocol.committees)
    [ 8; 16; 32; 64; 128; 256 ];
  Printf.printf
    "(a committee handling fewer values means more tsk hand-offs, each O(n^2): the\n paper's amortisation assumes committees process O(n) gates or more)\n"
