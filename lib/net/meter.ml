module Cost = Yoso_runtime.Cost

type side =
  | Conn_sent
  | Conn_received
  | Route_full
  | Route_digest
  | Route_suppressed
  | Refill

type t = {
  by_kind : (string * Cost.kind, int) Hashtbl.t; (* payload bytes *)
  by_step : (string * string, int) Hashtbl.t; (* frame bytes per (phase, step) *)
  by_role : (string, int) Hashtbl.t; (* frame bytes per role family *)
  framing : (string, int) Hashtbl.t; (* non-payload bytes per phase *)
  sides : (side * string, int) Hashtbl.t; (* side-counter bytes per (counter, label) *)
}

let create () =
  {
    by_kind = Hashtbl.create 16;
    by_step = Hashtbl.create 16;
    by_role = Hashtbl.create 16;
    framing = Hashtbl.create 8;
    sides = Hashtbl.create 16;
  }

let add tbl key n = Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* committee names carry a uniqueness counter ("exec#3"); the family
   prefix groups all epochs of the same role *)
let role_family role =
  match String.index_opt role '#' with
  | Some i -> String.sub role 0 i
  | None -> role

let record t ~phase ~step ~role ~frame_bytes ~payload =
  let data = List.fold_left (fun acc (_, b) -> acc + b) 0 payload in
  if data > frame_bytes then invalid_arg "Meter.record: payload exceeds frame";
  List.iter (fun (kind, b) -> add t.by_kind (phase, kind) b) payload;
  add t.by_step (phase, step) frame_bytes;
  add t.by_role (role_family role) frame_bytes;
  add t.framing phase (frame_bytes - data)

let kind_bytes t ~phase kind = Option.value ~default:0 (Hashtbl.find_opt t.by_kind (phase, kind))

let data_bytes t ~phase =
  List.fold_left (fun acc k -> acc + kind_bytes t ~phase k) 0 Cost.all_kinds

let framing_bytes t ~phase = Option.value ~default:0 (Hashtbl.find_opt t.framing phase)
let phase_total t ~phase = data_bytes t ~phase + framing_bytes t ~phase

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let steps t ~phase =
  sorted_bindings t.by_step
  |> List.filter_map (fun ((p, s), b) -> if p = phase then Some (s, b) else None)

let roles t = sorted_bindings t.by_role

let phases t =
  let collect tbl key_phase acc =
    Hashtbl.fold
      (fun k _ acc ->
        let p = key_phase k in
        if List.mem p acc then acc else p :: acc)
      tbl acc
  in
  collect t.by_kind fst (collect t.framing Fun.id []) |> List.sort compare

let grand_total t = Hashtbl.fold (fun _ v acc -> acc + v) t.by_step 0

(* side counters attribute bytes that the phase tables already count,
   or that never enter them (socket envelopes), to a label: a
   connection, a subscription or a factory refill batch.  They never
   feed the phase/kind/role totals, so those stay equal to an
   unsocketed one-shot run of the same seeds *)
let side_name = function
  | Conn_sent -> "conn.sent"
  | Conn_received -> "conn.received"
  | Route_full -> "route.full"
  | Route_digest -> "route.digest"
  | Route_suppressed -> "route.suppressed"
  | Refill -> "refill"

let record_side t side ~label n =
  if n < 0 then invalid_arg "Meter.record_side: negative count";
  add t.sides (side, label) n

let side_counts t side =
  sorted_bindings t.sides
  |> List.filter_map (fun ((s, label), n) -> if s = side then Some (label, n) else None)

let side_total t side =
  Hashtbl.fold (fun (s, _) n acc -> if s = side then acc + n else acc) t.sides 0

let refills t = side_counts t Refill

(* fraction of the broadcast-equivalent full-frame volume that was
   actually shipped in full; 1.0 when nothing was suppressed (legacy
   broadcast, or no routed deliveries recorded at all) *)
let routing_ratio t =
  let full = side_total t Route_full and suppressed = side_total t Route_suppressed in
  if full + suppressed = 0 then 1.0
  else float_of_int full /. float_of_int (full + suppressed)

(* aggregate a per-circuit meter into a stream-level one: every table
   merges additively, side counters keyed as given (the factory maps
   refill phases via its own Cost accounting) *)
let merge_into ~dst src =
  Hashtbl.iter (fun (p, k) b -> add dst.by_kind (p, k) b) src.by_kind;
  Hashtbl.iter (fun (p, s) b -> add dst.by_step (p, s) b) src.by_step;
  Hashtbl.iter (fun r b -> add dst.by_role r b) src.by_role;
  Hashtbl.iter (fun p b -> add dst.framing p b) src.framing;
  Hashtbl.iter (fun k n -> add dst.sides k n) src.sides

let pp ppf t =
  List.iter
    (fun phase ->
      Format.fprintf ppf "@[<h>%-10s" phase;
      List.iter
        (fun k ->
          let b = kind_bytes t ~phase k in
          if b > 0 then Format.fprintf ppf " %s=%dB" (Cost.kind_to_string k) b)
        Cost.all_kinds;
      Format.fprintf ppf " framing=%dB total=%dB@]@." (framing_bytes t ~phase)
        (phase_total t ~phase))
    (phases t);
  List.iter
    (fun ((side, label), n) ->
      Format.fprintf ppf "@[<h>%-16s %-12s %dB@]@." (side_name side) label n)
    (sorted_bindings t.sides)
