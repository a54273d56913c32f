(* What every experiment shares: the run flags, report output, timing
   on the monotonic clock, the input fixture, and the socket-member
   child that the transport and chaos experiments fork. *)

module F = Yoso_field.Field.Fp
module B = Yoso_bigint.Bigint
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators
module Json = Yoso_runtime.Json
module Board = Yoso_net.Board
module Runner = Yoso_transport.Runner

(* [--smoke]: toy sizes, no speedup bars and no JSON, in [net] and
   every experiment from [time] on.  [--profile]: per-domain chunk
   times in [par]. *)
let smoke = ref false
let profile = ref false

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* every machine-readable artifact goes through here *)
let write_json path v =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string v);
      output_char oc '\n');
  Printf.printf "  wrote %s\n" path

(* The checked-out commit a timing snapshot was taken at, the first 12
   hex digits, read from .git without running git; "nogit" outside a
   checkout.  A run on an edited tree still records the commit it
   started from. *)
let git_commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  let resolve r =
    match read (Filename.concat ".git" r) with
    | Some sha -> Some sha
    | None ->
      Option.bind (read ".git/packed-refs") (fun packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None))
  in
  let sha =
    match read ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head ->
      resolve (String.sub head 5 (String.length head - 5))
    | head -> head
  in
  match sha with Some s when String.length s >= 12 -> String.sub s 0 12 | _ -> "nogit"

(* ------------------------------------------------------------------ *)
(* timing                                                              *)
(* ------------------------------------------------------------------ *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [f]'s result and its wall-clock ms *)
let wall f =
  let t0 = now_s () in
  let x = f () in
  (x, (now_s () -. t0) *. 1000.)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let m = Array.length a in
  if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

let epochs () = if !smoke then 3 else 7

(* Interleaved A/B timing for every ratio the bars gate.  The
   wall-clock speed of a shared box drifts by large factors between
   runs, so timing [fa] to completion and then [fb] measures the drift,
   not the code.  Instead the two measurands alternate in small batches
   within each epoch — drift hits both sides of an epoch equally — and
   the reported speedup of [fa] over [fb] is the median of the
   per-epoch ratios. *)
let ab_speedup fa fb =
  let batch_s = if !smoke then 0.004 else 0.03 in
  let epoch reps =
    let ta = ref 0.0 and tb = ref 0.0 in
    for _ = 1 to 8 do
      let t0 = now_s () in
      for _ = 1 to reps do
        ignore (fa ())
      done;
      let t1 = now_s () in
      for _ = 1 to reps do
        ignore (fb ())
      done;
      let t2 = now_s () in
      ta := !ta +. (t1 -. t0);
      tb := !tb +. (t2 -. t1)
    done;
    !tb /. !ta
  in
  let t0 = now_s () in
  ignore (fa ());
  ignore (fb ());
  let per = Float.max 1e-7 (now_s () -. t0) in
  let reps = max 1 (int_of_float (batch_s /. per)) in
  ignore (epoch reps) (* warm *);
  median (List.init (epochs ()) (fun _ -> epoch reps))

(* per-operation wall-clock ms: grow the iteration count until the
   measured window is long enough to trust, then average *)
let per_op_ms f =
  let min_total_ms = if !smoke then 20. else 250. in
  ignore (f ());
  let rec go iters =
    let (), ms = wall (fun () -> for _ = 1 to iters do ignore (f ()) done) in
    if ms >= min_total_ms then ms /. float_of_int iters else go (iters * 4)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* protocol fixtures                                                   *)
(* ------------------------------------------------------------------ *)

(* client [c]'s [len] inputs *)
let fixture len c = Array.init len (fun i -> F.of_int ((c + 2) * (i + 3)))

(* The seeded protocol run in-process, its report JSON, its wall ms,
   and the child each forked socket member runs: the same seeded
   protocol over its link, reported as JSON. *)
let sim_and_member ~params ~seed ~circuit ~inputs =
  let sim, ms =
    wall (fun () ->
        Protocol.execute ~params ~config:(Protocol.config ~seed ()) ~circuit ~inputs ())
  in
  assert (Protocol.check sim circuit ~inputs);
  let report r = Json.to_string (Protocol.report_json r) in
  let child ~slot:_ ~link =
    let config = Protocol.config ~seed ~link () in
    report (Protocol.execute ~params ~config ~circuit ~inputs ())
  in
  (sim, report sim, ms, child)

(* every member reported, and every report is the sim run's, byte
   for byte *)
let matches_sim sim_json (res : Runner.result) =
  res.Runner.reports <> []
  && List.length res.Runner.reports = List.length res.Runner.children
  && List.for_all (fun (_, report) -> String.equal report sim_json) res.Runner.reports
