(* E2/E3: measured communication, ours vs CDN baseline *)

module Cdn = Yoso_mpc.Cdn_baseline
open Harness

let comm_sweep = [ 16; 24; 32; 48; 64; 96 ]

let comm_row n =
  let params = Params.of_gap ~n ~eps:0.125 () in
  let k = params.Params.k in
  let width = n * k / 4 in
  let circuit = Gen.wide_mul_reduced ~width ~depth:2 ~clients:2 in
  let inputs = fixture (2 * width) in
  let ours = Protocol.execute ~params ~circuit ~inputs () in
  let cdn = Cdn.execute ~params ~circuit ~inputs () in
  assert (Protocol.check ours circuit ~inputs);
  assert (Cdn.check cdn circuit ~inputs);
  (n, k, ours.Protocol.num_mult, ours, cdn)

(* one sweep of protocol runs feeds both tables *)
let run () =
  let rows = List.map comm_row comm_sweep in
  header "E2. Online communication per gate: packed YOSO (ours) vs CDN [29]";
  Printf.printf "(wide circuits, width = n*k/4, depth 2; elements broadcast / mult gate)\n";
  Printf.printf "%5s %4s %7s | %12s %12s %8s\n" "n" "k" "gates" "ours" "CDN [29]" "CDN/ours";
  List.iter
    (fun (n, k, gates, ours, cdn) ->
      let o = Protocol.online_per_gate ours and c = Cdn.online_per_gate cdn in
      Printf.printf "%5d %4d %7d | %12.1f %12.1f %8.2f\n" n k gates o c (c /. o))
    rows;
  Printf.printf
    "(expected shape: ours ~constant in n, CDN ~linear in n; crossover at small n)\n";
  header "E3. Offline communication per gate (O(n), Theorem 1)";
  Printf.printf "%5s %4s %7s | %14s %14s\n" "n" "k" "gates" "offline/gate" "offline/(n*gate)";
  List.iter
    (fun (n, k, gates, ours, _) ->
      let o = Protocol.offline_per_gate ours in
      Printf.printf "%5d %4d %7d | %14.1f %14.2f\n" n k gates o (o /. float_of_int n))
    rows;
  Printf.printf "(offline/(n*gate) ~constant confirms the O(n)-per-gate bound)\n"
