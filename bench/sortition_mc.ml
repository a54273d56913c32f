(* E5: Monte-Carlo validation of the sortition bounds *)

module Analysis = Yoso_sortition.Analysis
module Sampler = Yoso_sortition.Sampler
module Splitmix = Yoso_hash.Splitmix
open Harness

let run () =
  header "E5. Monte-Carlo sortition: do sampled committees satisfy the bounds?";
  let rng = Splitmix.of_int 0x50F7 in
  let violations = ref 0 in
  List.iter
    (fun (c_param, f) ->
      match Analysis.solve ~f c_param with
      | None -> Printf.printf "  C=%d f=%.2f: infeasible cell, skipped\n" c_param f
      | Some row ->
        let pool = max (20 * c_param) 100_000 in
        let stats = Sampler.run ~pool ~f ~row ~trials:2000 rng in
        Printf.printf
          "  C=%5d f=%.2f pool=%7d | size mean %.0f, corrupt max %d (t=%d), viol phi>=t: %d, viol gap: %d\n"
          c_param f pool stats.Sampler.mean_size stats.Sampler.max_corrupt row.Analysis.t
          stats.Sampler.corruption_bound_violations stats.Sampler.gap_violations;
        violations :=
          !violations + stats.Sampler.corruption_bound_violations + stats.Sampler.gap_violations)
    [ (1000, 0.05); (5000, 0.10); (5000, 0.15); (10000, 0.20) ];
  Printf.printf "(with k2 = k3 = 128 the failure probability is ~2^-128: zero violations)\n";
  if !violations > 0 then
    failwith (Printf.sprintf "sortition-mc: %d sampled committees violate the bounds" !violations)
