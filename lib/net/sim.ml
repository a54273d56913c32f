module Splitmix = Yoso_hash.Splitmix

type model = {
  latency_ms : float;
  jitter_ms : float;
  bandwidth_mbps : float;
  drop : float;
}

let ideal = { latency_ms = 0.; jitter_ms = 0.; bandwidth_mbps = 0.; drop = 0. }
let lan = { latency_ms = 0.5; jitter_ms = 0.2; bandwidth_mbps = 1000.; drop = 0. }
let wan = { latency_ms = 50.; jitter_ms = 10.; bandwidth_mbps = 100.; drop = 0.001 }

type verdict = Delivered | Late | Dropped

(* binary min-heap of in-flight messages keyed on arrival time *)
module Heap = struct
  type t = { mutable a : (float * int) array; mutable len : int }

  let create () = { a = Array.make 64 (0., 0); len = 0 }
  let size h = h.len

  let push h x =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) (0., 0) in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.a.(!i) <- x;
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let min h = if h.len = 0 then None else Some h.a.(0)

  let pop h =
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.len && fst h.a.(l) < fst h.a.(!s) then s := l;
      if r < h.len && fst h.a.(r) < fst h.a.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !s
      end
    done
end

type stats = {
  rounds : int;
  sent : int;
  delivered : int;
  late : int;
  dropped : int;
  bytes_sent : int;
  bytes_delivered : int;
  elapsed_ms : float;
  max_in_flight : int;
}

type t = {
  model : model;
  round_ms : float;
  rng : Splitmix.t;
  queue : Heap.t;
  mutable now : float; (* start of the current round *)
  mutable rounds : int;
  mutable sent : int;
  mutable delivered : int;
  mutable late : int;
  mutable dropped : int;
  mutable bytes_sent : int;
  mutable bytes_delivered : int;
  mutable max_in_flight : int;
}

let create ?(model = ideal) ?(round_ms = 100.) ~seed () =
  if round_ms <= 0. then invalid_arg "Sim.create: round_ms must be positive";
  {
    model;
    round_ms;
    rng = Splitmix.of_int seed;
    queue = Heap.create ();
    now = 0.;
    rounds = 0;
    sent = 0;
    delivered = 0;
    late = 0;
    dropped = 0;
    bytes_sent = 0;
    bytes_delivered = 0;
    max_in_flight = 0;
  }

let deadline_ms t = t.now +. t.round_ms

(* draws are gated on the parameter being active, so the ideal model
   consumes no randomness and a seed replays identically across
   configurations that share the active parameters *)
let transmit t ?(extra_delay_ms = 0.) ~bytes () =
  if bytes < 0 then invalid_arg "Sim.transmit: negative size";
  t.sent <- t.sent + 1;
  t.bytes_sent <- t.bytes_sent + bytes;
  let m = t.model in
  if m.drop > 0. && Splitmix.float t.rng < m.drop then begin
    t.dropped <- t.dropped + 1;
    (Dropped, infinity)
  end
  else begin
    let jitter = if m.jitter_ms > 0. then m.jitter_ms *. Splitmix.float t.rng else 0. in
    let serialization =
      if m.bandwidth_mbps > 0. then float_of_int bytes *. 8. /. (m.bandwidth_mbps *. 1000.)
      else 0.
    in
    let arrival = t.now +. m.latency_ms +. jitter +. serialization +. extra_delay_ms in
    Heap.push t.queue (arrival, bytes);
    if Heap.size t.queue > t.max_in_flight then t.max_in_flight <- Heap.size t.queue;
    let verdict =
      if arrival <= deadline_ms t then begin
        t.delivered <- t.delivered + 1;
        Delivered
      end
      else begin
        t.late <- t.late + 1;
        Late
      end
    in
    (verdict, arrival)
  end

let rec drain t =
  match Heap.min t.queue with
  | Some (arrival, bytes) when arrival <= t.now ->
    Heap.pop t.queue;
    t.bytes_delivered <- t.bytes_delivered + bytes;
    drain t
  | _ -> ()

let next_round t =
  t.rounds <- t.rounds + 1;
  t.now <- t.now +. t.round_ms;
  drain t

let in_flight t = Heap.size t.queue

let stats t =
  {
    rounds = t.rounds;
    sent = t.sent;
    delivered = t.delivered;
    late = t.late;
    dropped = t.dropped;
    bytes_sent = t.bytes_sent;
    bytes_delivered = t.bytes_delivered;
    elapsed_ms = t.now;
    max_in_flight = t.max_in_flight;
  }
