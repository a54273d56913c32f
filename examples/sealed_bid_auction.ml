(* Sealed-bid auction: four bidders submit private 8-bit bids; the
   protocol announces the winning bid and the winner's index, and
   nothing else.  Losing bids stay secret.

   The interesting part is the comparisons: an arithmetic circuit has
   no order relation, so the DSL compiles [gt]/[ge] through bit
   decomposition — each bid enters the circuit as 8 bit-shares, and a
   prefix-equality circuit computes the comparison.  Writing this by
   hand against the Builder API takes hundreds of gates per pair of
   bidders; the compiler also merges the duplicated pairwise
   comparison circuits by CSE, roughly halving the multiplications.

   Run with:  dune exec examples/sealed_bid_auction.exe *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Ir = Yoso_lang.Ir
module Compiler = Yoso_lang.Compiler
module Programs = Yoso_lang.Programs

let bids = [| 37; 142; 96; 121 |]

let () =
  let bidders = Array.length bids in
  let program = Programs.auction ~bidders ~width:8 () in
  let compiled = Compiler.compile program in
  let naive = Compiler.compile ~passes:[] program in

  Format.printf "Sealed-bid auction, %d bidders, 8-bit bids@." bidders;
  let ns = naive.Compiler.naive_stats and os = Compiler.final_stats compiled in
  Format.printf
    "  compiler: %d -> %d multiplications (CSE merges the pairwise comparisons), \
     depth %d -> %d@."
    ns.Ir.muls os.Ir.muls ns.Ir.depth os.Ir.depth;

  let params = Params.create ~n:16 ~t:5 ~k:3 () in
  let inputs =
    Compiler.protocol_inputs compiled ~inputs:(fun client -> [| bids.(client) |])
  in
  let circuit = compiled.Compiler.circuit in
  let report = Protocol.execute ~params ~circuit ~inputs () in

  (match report.Protocol.outputs with
  | max_o :: win_o :: _ ->
    Format.printf "  winning bid: %a, winner: bidder %a@." F.pp
      max_o.Yoso_mpc.Online.value F.pp win_o.Yoso_mpc.Online.value
  | _ -> Format.printf "  unexpected outputs?!@.");
  let ok = Protocol.check report circuit ~inputs in
  Format.printf "  protocol output matches plain evaluation: %b@." ok;
  Format.printf "  online elements/gate: %.1f over %d committees@."
    (Protocol.online_per_gate report) report.Protocol.committees;
  if not ok then exit 1
