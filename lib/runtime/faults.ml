module Sha256 = Yoso_hash.Sha256

type kind =
  | Tamper_share
  | Bad_proof
  | Wrong_degree
  | Garbage_ciphertext
  | Silent
  | Delayed

let kind_to_string = function
  | Tamper_share -> "tamper-share"
  | Bad_proof -> "bad-proof"
  | Wrong_degree -> "wrong-degree"
  | Garbage_ciphertext -> "garbage-ciphertext"
  | Silent -> "silent"
  | Delayed -> "delayed"

let active_kinds = [ Tamper_share; Bad_proof; Wrong_degree; Garbage_ciphertext ]
let is_active = function Silent | Delayed -> false | _ -> true

type plan =
  | Random of int
  | Always of kind

(* pure function of (seed, committee, index): first byte of a SHA-256
   digest, so replaying a seed replays every role's behaviour *)
let draw seed ~committee ~index ~salt bound =
  let digest =
    Sha256.digest_string (Printf.sprintf "fault/%d/%s/%d/%s" seed committee index salt)
  in
  Char.code digest.[0] mod bound

let random ~seed = Random seed
let always k = Always k
let silent = Always Silent

let malicious_kind plan ~committee ~index =
  match plan with
  | Always k -> k
  | Random seed ->
    List.nth active_kinds
      (draw seed ~committee ~index ~salt:"mal" (List.length active_kinds))

let fail_stop_kind plan ~committee ~index =
  match plan with
  | Always Delayed -> Delayed
  | Always _ -> Silent
  | Random seed -> if draw seed ~committee ~index ~salt:"fs" 3 = 0 then Delayed else Silent

type blame = { role : Role.id; kind : kind; phase : string; step : string }

type log = { mutable entries : blame list (* reversed *); mutable rejected : int }

let create_log () = { entries = []; rejected = 0 }

let record log b =
  log.entries <- b :: log.entries;
  if is_active b.kind || b.kind = Delayed then log.rejected <- log.rejected + 1

let blames log = List.rev log.entries
let faults_detected log = List.length log.entries
let posts_rejected log = log.rejected

let blame_summary entries =
  let count k = List.length (List.filter (fun b -> b.kind = k) entries) in
  List.filter_map
    (fun k ->
      let c = count k in
      if c = 0 then None else Some (k, c))
    [ Tamper_share; Bad_proof; Wrong_degree; Garbage_ciphertext; Silent; Delayed ]

let summary log = blame_summary log.entries

type failure = {
  f_phase : string;
  f_step : string;
  f_committee : string;
  surviving : int;
  required : int;
}

exception Protocol_failure of failure

let failure_to_string f =
  Printf.sprintf
    "Protocol_failure(%s/%s in %s: %d verified contributions, need %d)" f.f_phase f.f_step
    f.f_committee f.surviving f.required

let () =
  Printexc.register_printer (function
    | Protocol_failure f -> Some (failure_to_string f)
    | _ -> None)
