module Splitmix = Yoso_hash.Splitmix

type model = { latency_ms : float; drop : float }

let ideal = { latency_ms = 0.; drop = 0. }

type verdict = Delivered | Late | Dropped

type stats = {
  rounds : int;
  sent : int;
  delivered : int;
  late : int;
  dropped : int;
  bytes_sent : int;
  elapsed_ms : float;
}

type t = {
  model : model;
  round_ms : float;
  rng : Splitmix.t;
  mutable now : float; (* start of the current round *)
  mutable rounds : int;
  mutable sent : int;
  mutable delivered : int;
  mutable late : int;
  mutable dropped : int;
  mutable bytes_sent : int;
}

let create ?(model = ideal) ?(round_ms = 100.) ~seed () =
  if round_ms <= 0. then invalid_arg "Sim.create: round_ms must be positive";
  {
    model;
    round_ms;
    rng = Splitmix.of_int seed;
    now = 0.;
    rounds = 0;
    sent = 0;
    delivered = 0;
    late = 0;
    dropped = 0;
    bytes_sent = 0;
  }

(* the drop coin is drawn only when loss is on, so the ideal model
   consumes no randomness and a seed replays identically across
   configurations that share the loss rate *)
let transmit t ?(extra_delay_ms = 0.) ~bytes () =
  if bytes < 0 then invalid_arg "Sim.transmit: negative size";
  t.sent <- t.sent + 1;
  t.bytes_sent <- t.bytes_sent + bytes;
  let m = t.model in
  if m.drop > 0. && Splitmix.float t.rng < m.drop then begin
    t.dropped <- t.dropped + 1;
    Dropped
  end
  (* arrival time against the round's deadline, both absolute:
     cancelling [t.now] first would round differently and could flip a
     verdict at the boundary, and with it a transcript digest *)
  else if t.now +. m.latency_ms +. extra_delay_ms <= t.now +. t.round_ms then begin
    t.delivered <- t.delivered + 1;
    Delivered
  end
  else begin
    t.late <- t.late + 1;
    Late
  end

let next_round t =
  t.rounds <- t.rounds + 1;
  t.now <- t.now +. t.round_ms

let stats t =
  {
    rounds = t.rounds;
    sent = t.sent;
    delivered = t.delivered;
    late = t.late;
    dropped = t.dropped;
    bytes_sent = t.bytes_sent;
    elapsed_ms = t.now;
  }
