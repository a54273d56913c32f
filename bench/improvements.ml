(* E1: headline improvement claims *)

module Analysis = Yoso_sortition.Analysis
open Harness

let run () =
  header "E1. Claimed online-communication improvement factors (Section 1.1.2)";
  List.iter
    (fun (label, r) ->
      Printf.printf
        "  %s\n    committee %d (vs %d without gap, +%.1f%%), eps = %.3f -> improvement k = %d\n"
        label r.Analysis.c r.Analysis.c'
        (100.0 *. (float_of_int r.Analysis.c /. float_of_int r.Analysis.c' -. 1.0))
        r.Analysis.eps r.Analysis.k)
    (Analysis.improvement_claims ());
  Printf.printf "  (paper claims: 28x at f=5%%, >1000x at f=20%%)\n"
