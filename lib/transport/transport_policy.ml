module Splitmix = Yoso_hash.Splitmix

type retry = {
  attempts : int;
  base_ms : float;
  cap_ms : float;
  max_elapsed_ms : float;
  jitter : bool;
}

type t = {
  connect : retry;
  reconnect : retry;
  round_deadline_ms : float;
  grace_ms : float;
  watchdog_s : float;
  fsync_every : int;
}

let default =
  {
    connect =
      { attempts = 10; base_ms = 20.; cap_ms = 500.; max_elapsed_ms = 5_000.; jitter = true };
    reconnect =
      { attempts = 10; base_ms = 25.; cap_ms = 400.; max_elapsed_ms = 3_000.; jitter = true };
    round_deadline_ms = 10_000.;
    grace_ms = 1_500.;
    watchdog_s = 120.;
    fsync_every = 64;
  }

(* full jitter (AWS-style): uniform in [0, min(cap, base * 2^(attempt-1))).
   The draw is stateless in (seed, attempt) so a replayed run backs off
   identically, yet two peers with different seeds never synchronize
   their retries into a thundering herd. *)
let backoff_ms r ~seed ~attempt =
  if attempt < 1 then invalid_arg "Transport_policy.backoff_ms: attempt must be >= 1";
  let expo = r.base_ms *. (2. ** float_of_int (min 30 (attempt - 1))) in
  let capped = Float.min r.cap_ms expo in
  if not r.jitter then capped
  else
    let rng = Splitmix.of_int (Splitmix.mix (Splitmix.mix seed 0xB0FF) attempt) in
    Splitmix.float rng *. capped
