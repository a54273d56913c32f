(* Federated statistics: six hospitals jointly compute the variance of
   their (private) patient counts without revealing individual values —
   the large-scale-distributed-setting workload the paper's
   introduction motivates.

   The functionality is written in the yoso_lang DSL
       V = parties * sum(x_i^2) - (sum x_i)^2
   (so that variance = V / parties^2 over the rationals) and compiled
   to a circuit by the optimizing front-end; constants and input
   encoding are handled by the compiler, not by hand.

   Run with:  dune exec examples/federated_statistics.exe *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Ast = Yoso_lang.Ast
module Compiler = Yoso_lang.Compiler

let hospitals = [| 412; 387; 455; 401; 398; 429 |]

let () =
  let parties = Array.length hospitals in

  (* the functionality, as an expression over per-hospital inputs *)
  let program =
    let b = Ast.B.create ~name:"federated-variance" () in
    let xs =
      List.init parties (fun i ->
          Ast.B.input b ~client:i (Printf.sprintf "patients%d" i))
    in
    let s = Ast.sum xs in
    let sumsq = Ast.sum (List.map (fun x -> Ast.mul x x) xs) in
    let v = Ast.sub (Ast.mul (Ast.const parties) sumsq) (Ast.mul s s) in
    for i = 0 to parties - 1 do
      Ast.B.output b ~client:i v
    done;
    Ast.B.build b
  in
  let compiled = Compiler.compile program in

  (* gap parameters derived directly from eps, as in Section 6:
     committees of 24, eps = 0.15 -> t = 7, k = 4 *)
  let params = Params.of_gap ~n:24 ~eps:0.15 () in
  let adversary = { Params.malicious = params.Params.t; passive = 0; fail_stop = 0 } in

  (* one integer per hospital; the compiler expands them (and the
     constants client's vector) into the circuit's input layout *)
  let inputs =
    Compiler.protocol_inputs compiled ~inputs:(fun client -> [| hospitals.(client) |])
  in
  let circuit = compiled.Compiler.circuit in
  let config = Protocol.config ~adversary () in
  let report = Protocol.execute ~params ~config ~circuit ~inputs () in

  let sum = Array.fold_left ( + ) 0 hospitals in
  let mean = float_of_int sum /. float_of_int parties in
  Format.printf "Federated variance across %d hospitals@." parties;
  Format.printf "  committee params: %a (every committee contains t malicious roles)@."
    Params.pp params;
  (match report.Protocol.outputs with
  | o :: _ ->
    let v = F.to_int o.Yoso_mpc.Online.value in
    Format.printf "  variance numerator V = %d@." v;
    Format.printf "  variance = V / parties^2 = %.2f  (mean %.1f)@."
      (float_of_int v /. float_of_int (parties * parties))
      mean
  | [] -> Format.printf "  no outputs?!@.");
  let ok = Protocol.check report circuit ~inputs in
  Format.printf "  every hospital receives the same output: %b@." ok;
  Format.printf "  online elements/gate: %.1f@." (Protocol.online_per_gate report);
  if not ok then exit 1
