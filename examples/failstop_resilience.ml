(* Fail-stop and active resilience (Sections 5.4 and 4 of the paper).

   By halving the packing gap (k ~ n*eps/2 instead of n*eps) the
   protocol keeps working even when n*eps honest roles crash or time
   out in every committee — on top of t malicious roles.  This example
   sweeps the number of silent roles in standard mode and in fail-stop
   mode and shows where each configuration stops being viable.

   The malicious roles here are not merely absent: each one posts
   genuinely tampered content (corrupted shares, forged proofs,
   wrong-degree sharings, garbage blobs) drawn from a seeded fault
   plan.  Honest verifiers detect and exclude every such post, so the
   sweep also reports how many faults were caught per run; and when a
   configuration is pushed beyond its bound the protocol aborts with a
   structured failure rather than delivering a wrong output.

   Run with:  dune exec examples/failstop_resilience.exe *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators
module Faults = Yoso_runtime.Faults

let n = 40
let eps = 0.2

let circuit = Gen.dot_product ~len:6
let inputs c = Array.init 6 (fun i -> F.of_int ((c + 2) * (i + 1)))

(* set by a wrong output anywhere, or by a run within the bound that
   does not deliver; the example then exits 1 *)
let failed = ref false

let attempt ?(validate = true) params ~malicious ~dropped =
  let adversary = { Params.malicious; passive = 0; fail_stop = dropped } in
  let run () =
    let report =
      Protocol.execute ~params
        ~config:
          (Protocol.config ~adversary ~plan:(Faults.random ~seed:1234) ~validate ())
        ~circuit ~inputs ()
    in
    if Protocol.check report circuit ~inputs then `Delivered report.Protocol.faults_detected
    else `Wrong
  in
  match if validate then Params.validate_adversary params adversary with
  | exception Invalid_argument _ -> `Infeasible
  | () ->
    let r = match run () with r -> r | exception Faults.Protocol_failure f -> `Aborted f in
    (match r with
    | `Wrong -> failed := true
    | `Aborted _ when validate -> failed := true
    | _ -> ());
    r

let describe = function
  | `Delivered faults ->
    if faults = 0 then "output delivered"
    else Printf.sprintf "delivered (%d faults caught)" faults
  | `Wrong -> "WRONG OUTPUT (bug!)"
  | `Infeasible -> "not enough speaking roles"
  | `Aborted f ->
    Printf.sprintf "clean abort (%d/%d at %s)" f.Faults.surviving f.Faults.required
      f.Faults.f_step

let () =
  let standard = Params.of_gap ~n ~eps () in
  let failstop = Params.of_gap ~n ~eps ~fail_stop_mode:true () in
  let t = standard.Params.t in
  Format.printf "Fail-stop tolerance, n = %d, eps = %.2f, t = %d tampering everywhere@." n
    eps t;
  Format.printf "  standard mode: k = %d  (headroom %d silent roles)@." standard.Params.k
    (Params.max_fail_stop standard { Params.malicious = t; passive = 0; fail_stop = 0 });
  Format.printf "  fail-stop mode: k = %d  (headroom %d silent roles)@." failstop.Params.k
    (Params.max_fail_stop failstop { Params.malicious = t; passive = 0; fail_stop = 0 });
  Format.printf "@.  %-8s %-32s %-32s@." "crashes" "standard (k~n*eps)" "fail-stop (k~n*eps/2)";
  List.iter
    (fun dropped ->
      Format.printf "  %-8d %-32s %-32s@." dropped
        (describe (attempt standard ~malicious:t ~dropped))
        (describe (attempt failstop ~malicious:t ~dropped)))
    [ 0; 2; 4; 6; 8; 10 ];

  (* sweep the active side too: tampering roles from none up to t,
     with the fail-stop budget held at half the fail-stop-mode headroom *)
  let dropped = 4 in
  Format.printf "@.Active corruption sweep, fail-stop mode, %d crashes everywhere@." dropped;
  Format.printf "  %-10s %s@." "tampering" "result";
  List.iter
    (fun malicious ->
      Format.printf "  %-10d %s@." malicious
        (describe (attempt failstop ~malicious ~dropped)))
    [ 0; 2; 4; 6; t ];

  (* one step beyond the bound: more silent roles than the speaking-honest
     threshold allows.  Validation would reject this configuration up
     front; forcing execution shows the run aborts cleanly instead of
     delivering a wrong output. *)
  let beyond =
    Params.max_fail_stop failstop { Params.malicious = t; passive = 0; fail_stop = 0 } + 1
  in
  Format.printf "@.Beyond the bound (forced execution, %d crashes):@." beyond;
  Format.printf "  %s@."
    (describe (attempt ~validate:false failstop ~malicious:t ~dropped:beyond));
  if !failed then exit 1
