(* Chaos-style fault-injection suite: adversarial roles genuinely post
   tampered messages, and honest roles must detect, exclude, and still
   deliver — or abort with the structured failure, never a wrong
   output and never an uncaught exception from deep inside
   reconstruction. *)

module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators
module Faults = Yoso_runtime.Faults
module Role = Yoso_runtime.Role

let params16 = Params.create ~n:16 ~t:5 ~k:3 ()

let circuit = Gen.dot_product ~len:5
let inputs c = Array.init 5 (fun i -> F.of_int ((c + 3) * (i + 1)))

let adv ~malicious ~fail_stop = { Params.malicious; passive = 0; fail_stop }

type outcome =
  | Delivered of Protocol.report
  | Wrong of Protocol.report
  | Aborted of Faults.failure
  | Crashed of exn

let run ?plan ?(validate = true) ?(seed = 0xFA_17) ~params adversary =
  let config = Protocol.config ~adversary ?plan ~validate ~seed () in
  match Protocol.execute ~params ~config ~circuit ~inputs () with
  | r -> if Protocol.check r circuit ~inputs then Delivered r else Wrong r
  | exception Faults.Protocol_failure f -> Aborted f
  | exception e -> Crashed e

let check_delivered name = function
  | Delivered r -> r
  | Wrong _ -> Alcotest.failf "%s: WRONG OUTPUT delivered" name
  | Aborted f -> Alcotest.failf "%s: aborted: %s" name (Faults.failure_to_string f)
  | Crashed e -> Alcotest.failf "%s: crashed: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* every fault kind, injected on its own                               *)
(* ------------------------------------------------------------------ *)

let test_each_active_kind_detected () =
  List.iter
    (fun kind ->
      let name = Faults.kind_to_string kind in
      let r =
        check_delivered name
          (run ~plan:(Faults.always kind) ~params:params16 (adv ~malicious:5 ~fail_stop:0))
      in
      Alcotest.(check bool) (name ^ ": tampering detected") true (r.Protocol.faults_detected > 0);
      Alcotest.(check bool) (name ^ ": posts rejected") true (r.Protocol.posts_rejected > 0);
      List.iter
        (fun b ->
          Alcotest.(check string) (name ^ ": blame kind") name
            (Faults.kind_to_string b.Faults.kind))
        r.Protocol.blames)
    Faults.active_kinds;
  (* each plan's transcript, pinned: what a rejected post puts on the
     wire differs by kind (a corrupted frame for garbage-ciphertext,
     junk shares in the multiplication step, a late frame, nothing),
     and a random mix of kinds cannot tell which kind changed *)
  let params = Params.create ~n:16 ~t:4 ~k:4 () in
  List.iter
    (fun (name, plan, frames, digest) ->
      let r =
        check_delivered name (run ~plan ~seed:7 ~params (adv ~malicious:4 ~fail_stop:1))
      in
      let tr = r.Protocol.transcript in
      Alcotest.(check (pair int int))
        (name ^ ": frames, digest") (frames, digest)
        (tr.Yoso_net.Board.frames, tr.Yoso_net.Board.digest))
    [
      ("tamper-share", Faults.always Faults.Tamper_share, 243, 2602716956113897523);
      ("bad-proof", Faults.always Faults.Bad_proof, 243, 4226075644656688131);
      ("wrong-degree", Faults.always Faults.Wrong_degree, 243, 2340563648543515231);
      ("garbage-ciphertext", Faults.always Faults.Garbage_ciphertext, 243, 3712688547883112517);
      ("delayed", Faults.always Faults.Delayed, 259, 3642702736986583908);
      ("silent", Faults.silent, 179, 4113177038625028983);
    ]

let test_silent_and_delayed_malicious () =
  (* a malicious role may also just crash (or post too late); nothing
     is on the board to reject, but the omission is still observed *)
  let silent =
    check_delivered "silent"
      (run ~plan:Faults.silent ~params:params16 (adv ~malicious:5 ~fail_stop:0))
  in
  Alcotest.(check int) "silent: nothing to reject" 0 silent.Protocol.posts_rejected;
  Alcotest.(check bool) "silent: omissions observed" true (silent.Protocol.faults_detected > 0);
  let delayed =
    check_delivered "delayed"
      (run ~plan:(Faults.always Faults.Delayed) ~params:params16 (adv ~malicious:5 ~fail_stop:0))
  in
  Alcotest.(check bool) "delayed posts are rejected" true (delayed.Protocol.posts_rejected > 0);
  (* delayed roles do post (past the deadline): the board carries more
     speak-once events than when the same roles stay silent *)
  Alcotest.(check bool) "late posts hit the board" true
    (delayed.Protocol.posts > silent.Protocol.posts)

(* ------------------------------------------------------------------ *)
(* chaos sweep inside the bound                                        *)
(* ------------------------------------------------------------------ *)

let sweep_params =
  [ ("n16", params16); ("n20-failstop-mode", Params.of_gap ~n:20 ~eps:0.2 ~fail_stop_mode:true ()) ]

let test_chaos_within_bounds () =
  List.iter
    (fun (pname, params) ->
      let t = params.Params.t in
      for seed = 1 to 15 do
        let malicious = seed mod (t + 1) in
        let headroom = Params.max_fail_stop params (adv ~malicious ~fail_stop:0) in
        let fail_stop = 3 * seed mod (headroom + 1) in
        let name = Printf.sprintf "%s seed=%d mal=%d fs=%d" pname seed malicious fail_stop in
        let r =
          check_delivered name
            (run
               ~plan:(Faults.random ~seed:(seed * 131))
               ~seed:(seed * 7) ~params (adv ~malicious ~fail_stop))
        in
        if malicious + fail_stop > 0 then
          Alcotest.(check bool) (name ^ ": faults detected") true
            (r.Protocol.faults_detected > 0);
        if malicious > 0 then
          (* the random plan always assigns malicious roles an active
             (tampering) kind, so something real was posted and thrown out *)
          Alcotest.(check bool) (name ^ ": tampered posts rejected") true
            (r.Protocol.posts_rejected > 0)
      done)
    sweep_params

(* ------------------------------------------------------------------ *)
(* chaos sweep just beyond the bound                                   *)
(* ------------------------------------------------------------------ *)

let expect_structured_abort name outcome =
  match outcome with
  | Aborted f ->
    Alcotest.(check bool) (name ^ ": shortfall reported") true (f.Faults.surviving < f.Faults.required)
  | Delivered _ -> Alcotest.failf "%s: delivered beyond the bound" name
  | Wrong _ -> Alcotest.failf "%s: WRONG OUTPUT beyond the bound" name
  | Crashed e ->
    Alcotest.failf "%s: uncaught %s instead of Protocol_failure" name (Printexc.to_string e)

let test_chaos_beyond_bounds () =
  List.iter
    (fun (pname, params) ->
      let n = params.Params.n and t = params.Params.t in
      let recon = Params.reconstruction_threshold params in
      let cases =
        [
          (* one silent role too many: online reconstruction starves *)
          (t, n - t - recon + 1);
          (* not even a decryption quorum of honest speakers *)
          (t, n - t - t);
          (* a committee beyond the malicious bound, plus crashes *)
          (t + 1, n - (t + 1) - recon + 1);
          (* everyone is corrupt *)
          (n, 0);
          (0, n);
        ]
      in
      List.iteri
        (fun i (malicious, fail_stop) ->
          if malicious + fail_stop <= n && fail_stop >= 0 then
            for seed = 1 to 3 do
              let name = Printf.sprintf "%s case=%d mal=%d fs=%d seed=%d" pname i malicious fail_stop seed in
              expect_structured_abort name
                (run ~validate:false
                   ~plan:(Faults.random ~seed:(seed * 977))
                   ~seed ~params (adv ~malicious ~fail_stop))
            done)
        cases)
    sweep_params

(* ------------------------------------------------------------------ *)
(* blame-list hygiene                                                  *)
(* ------------------------------------------------------------------ *)

let test_blame_list_bounded_per_committee () =
  let malicious = 4 and fail_stop = 2 in
  let r =
    check_delivered "blame"
      (run ~params:params16 { Params.malicious; passive = 1; fail_stop })
  in
  let per_committee = Hashtbl.create 32 in
  List.iter
    (fun b ->
      let c = b.Faults.role.Role.committee in
      let seen = Option.value ~default:[] (Hashtbl.find_opt per_committee c) in
      Alcotest.(check bool)
        (Printf.sprintf "role %s blamed once per committee" (Role.to_string b.Faults.role))
        false
        (List.mem b.Faults.role.Role.index seen);
      Hashtbl.replace per_committee c (b.Faults.role.Role.index :: seen))
    r.Protocol.blames;
  Hashtbl.iter
    (fun c indices ->
      Alcotest.(check bool)
        (Printf.sprintf "committee %s: %d blamed <= %d corrupted" c (List.length indices)
           (malicious + fail_stop))
        true
        (List.length indices <= malicious + fail_stop))
    per_committee;
  Alcotest.(check bool) "some committee blamed" true (Hashtbl.length per_committee > 0)

let test_report_counters_consistent () =
  let r =
    check_delivered "counters" (run ~params:params16 (adv ~malicious:3 ~fail_stop:2))
  in
  Alcotest.(check int) "faults_detected = |blames|" (List.length r.Protocol.blames)
    r.Protocol.faults_detected;
  let active_or_late =
    List.length
      (List.filter
         (fun b -> Faults.is_active b.Faults.kind || b.Faults.kind = Faults.Delayed)
         r.Protocol.blames)
  in
  Alcotest.(check int) "posts_rejected counts board posts" active_or_late
    r.Protocol.posts_rejected

(* ------------------------------------------------------------------ *)
(* deterministic replay                                                *)
(* ------------------------------------------------------------------ *)

let test_fault_plan_replay () =
  let go () =
    check_delivered "replay"
      (run ~plan:(Faults.random ~seed:42) ~seed:9 ~params:params16 (adv ~malicious:5 ~fail_stop:1))
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "same posts" r1.Protocol.posts r2.Protocol.posts;
  Alcotest.(check int) "same faults" r1.Protocol.faults_detected r2.Protocol.faults_detected;
  Alcotest.(check bool) "same blames" true
    (List.for_all2
       (fun a b -> a.Faults.role = b.Faults.role && a.Faults.kind = b.Faults.kind)
       r1.Protocol.blames r2.Protocol.blames)

let test_failure_printer () =
  match run ~validate:false ~params:params16 (adv ~malicious:16 ~fail_stop:0) with
  | Aborted f ->
    let s = Faults.failure_to_string f in
    Alcotest.(check bool) "names the step" true
      (f.Faults.f_step <> "" && String.length s > 0);
    let via_printexc = Printexc.to_string (Faults.Protocol_failure f) in
    Alcotest.(check string) "registered printer" s via_printexc
  | _ -> Alcotest.fail "all-malicious run must abort"

(* ------------------------------------------------------------------ *)
(* qcheck: random within-bound plans always deliver correctly          *)
(* ------------------------------------------------------------------ *)

let qcheck_chaos =
  QCheck.Test.make ~count:25 ~name:"within-bound fault plans deliver correct outputs"
    QCheck.(triple small_nat small_nat int)
    (fun (m, fs, seed) ->
      let t = params16.Params.t in
      let malicious = m mod (t + 1) in
      let headroom = Params.max_fail_stop params16 (adv ~malicious ~fail_stop:0) in
      let fail_stop = fs mod (headroom + 1) in
      match
        run ~plan:(Faults.random ~seed) ~seed:(abs seed + 1) ~params:params16
          (adv ~malicious ~fail_stop)
      with
      | Delivered r ->
        malicious = 0 || r.Protocol.posts_rejected > 0
      | Wrong _ | Aborted _ | Crashed _ -> false)

let () =
  Alcotest.run "faults"
    [
      ( "kinds",
        [
          Alcotest.test_case "each active kind" `Quick test_each_active_kind_detected;
          Alcotest.test_case "silent and delayed" `Quick test_silent_and_delayed_malicious;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "within bounds" `Quick test_chaos_within_bounds;
          Alcotest.test_case "beyond bounds" `Quick test_chaos_beyond_bounds;
        ] );
      ( "blame",
        [
          Alcotest.test_case "bounded per committee" `Quick test_blame_list_bounded_per_committee;
          Alcotest.test_case "counters consistent" `Quick test_report_counters_consistent;
          Alcotest.test_case "replay" `Quick test_fault_plan_replay;
          Alcotest.test_case "failure printer" `Quick test_failure_printer;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest ~long:false qcheck_chaos ]);
    ]
