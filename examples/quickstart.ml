(* Quickstart: two clients compute a private dot product through the
   full YOSO MPC pipeline (setup -> offline -> online) and read the
   result, with a malicious minority in every committee.

   Run with:  dune exec examples/quickstart.exe *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators

let () =
  (* 1. The functionality: <x, y> over F_p, described as a circuit. *)
  let circuit = Gen.dot_product ~len:8 in

  (* 2. Committee parameters.  n = 16 roles per committee, at most
     t = 5 of them malicious, packing factor k = 3 — i.e. a corruption
     gap: t < n (1/2 - eps) with eps ~ 0.15. *)
  let params = Params.create ~n:16 ~t:5 ~k:3 () in

  (* 3. Each committee is sampled with 5 actively malicious roles (the
     maximum the parameters tolerate) and one silent crash. *)
  let adversary = { Params.malicious = 5; passive = 0; fail_stop = 1 } in

  (* 4. Client inputs: client 0 holds x, client 1 holds y. *)
  let x = [| 3; 1; 4; 1; 5; 9; 2; 6 |] and y = [| 2; 7; 1; 8; 2; 8; 1; 8 |] in
  let inputs client = Array.map F.of_int (if client = 0 then x else y) in

  (* 5. Execute. *)
  let config = Protocol.config ~adversary () in
  let report = Protocol.execute ~params ~config ~circuit ~inputs () in

  Format.printf "YOSO MPC quickstart: private dot product@.";
  Format.printf "  committee params: %a@." Params.pp params;
  List.iter
    (fun o ->
      Format.printf "  client %d learns <x, y> = %a@." o.Yoso_mpc.Online.client F.pp
        o.Yoso_mpc.Online.value)
    report.Protocol.outputs;
  let ok = Protocol.check report circuit ~inputs in
  Format.printf "  matches plain evaluation: %b@." ok;
  Format.printf "  broadcast posts: %d over %d committees@." report.Protocol.posts
    report.Protocol.committees;
  Format.printf "  offline elements/gate: %.1f   online elements/gate: %.1f@."
    (Protocol.offline_per_gate report) (Protocol.online_per_gate report);
  if not ok then exit 1
