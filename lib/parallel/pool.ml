module Splitmix = Yoso_hash.Splitmix

(* One batch of work: [chunks] are closures over disjoint index
   ranges, claimed one at a time under the pool lock.  Results land in
   arrays pre-sized by the caller, so nothing here depends on which
   domain runs which chunk. *)
type job = {
  chunks : (unit -> unit) array;
  mutable next : int;  (* next unclaimed chunk *)
  mutable completed : int;  (* chunks finished (or failed) *)
  mutable failed : exn option;  (* first exception, in claim order *)
}

type t = {
  domains : int;
  lock : Mutex.t;
  has_work : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

(* ------------------------------------------------------------------ *)
(* Per-chunk timing hook, off by default                                *)
(* ------------------------------------------------------------------ *)

(* When enabled, every drained chunk appends a sample to a global,
   mutex-guarded list.  A global sink (rather than per-pool state) is
   deliberate: the pools that matter are held inside [Protocol],
   where no caller can reach them, so the bench's [--profile] flag
   needs a collection point outside any pool.  Cost when disabled is one bool load per
   claimed chunk. *)
type sample = { s_domain : int; s_chunk : int; s_ms : float }

let profiling = Atomic.make false
let profile_lock = Mutex.create ()
let profile_samples : sample list ref = ref []

let set_profiling b = Atomic.set profiling b

let drain_profile () =
  Mutex.lock profile_lock;
  let s = List.rev !profile_samples in
  profile_samples := [];
  Mutex.unlock profile_lock;
  List.map (fun s -> (s.s_domain, s.s_chunk, s.s_ms)) s

let record_sample sample =
  Mutex.lock profile_lock;
  profile_samples := sample :: !profile_samples;
  Mutex.unlock profile_lock

let ms_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6

(* Claim and run chunks of [j], one at a time, until none remain.
   Called (and returns) with [t.lock] held; the lock is released
   around each chunk body. *)
let drain t wid j =
  let len = Array.length j.chunks in
  while j.next < len do
    let c = j.next in
    j.next <- c + 1;
    Mutex.unlock t.lock;
    let prof = Atomic.get profiling in
    let t0 = if prof then Monotonic_clock.now () else 0L in
    let error = match j.chunks.(c) () with () -> None | exception e -> Some e in
    if prof then record_sample { s_domain = wid; s_chunk = c; s_ms = ms_since t0 };
    Mutex.lock t.lock;
    (match error with
    | Some e when j.failed = None -> j.failed <- Some e
    | _ -> ());
    j.completed <- j.completed + 1;
    if j.completed = len then Condition.broadcast t.work_done
  done

let worker t wid =
  Mutex.lock t.lock;
  let rec loop () =
    if t.stopping then Mutex.unlock t.lock
    else
      match t.job with
      | Some j when j.next < Array.length j.chunks ->
        drain t wid j;
        loop ()
      | _ ->
        Condition.wait t.has_work t.lock;
        loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 || domains > 128 then
    invalid_arg "Pool.create: domains must be in [1, 128]";
  let t =
    {
      domains;
      lock = Mutex.create ();
      has_work = Condition.create ();
      work_done = Condition.create ();
      job = None;
      stopping = false;
      workers = [||];
    }
  in
  if domains > 1 then
    t.workers <-
      Array.init (domains - 1) (fun k -> Domain.spawn (fun () -> worker t (k + 1)));
  t

let domains t = t.domains
let sequential = create ~domains:1

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Submit [chunks], participate in draining them, wait for
   stragglers, then re-raise the first failure if any.  The pool
   advertises one job at a time: a second submitting domain (the
   factory's producer beside its consumer) replaces the advertised
   job, and each submitter still drains its own job to the end, so
   both run at once and workers help whichever job is current.  A
   submitter clears the slot only while it still holds its own job.
   Wake-ups are targeted: with fewer chunks than domains only
   [len - 1] workers are signalled (the caller takes a chunk itself),
   so surplus workers sleep through the whole job instead of waking
   to find nothing. *)
let run_job t chunks =
  let len = Array.length chunks in
  if len > 0 then begin
    let j = { chunks; next = 0; completed = 0; failed = None } in
    Mutex.lock t.lock;
    t.job <- Some j;
    let wake = Stdlib.min (len - 1) (t.domains - 1) in
    for _ = 1 to wake do
      Condition.signal t.has_work
    done;
    drain t 0 j;
    while j.completed < len do
      Condition.wait t.work_done t.lock
    done;
    (match t.job with Some j' when j' == j -> t.job <- None | _ -> ());
    Mutex.unlock t.lock;
    match j.failed with Some e -> raise e | None -> ()
  end

(* Chunking: [min n (4 * domains)] contiguous ranges of near-equal
   count, whose boundaries depend only on [n] and the pool size —
   never on scheduling.  Four chunks per domain let a domain that
   drew cheap indices claim more, so a skewed job does not serialize
   behind one overloaded domain. *)
let iter t n f =
  if n < 0 then invalid_arg "Pool.iter: negative size";
  if n > 0 then
    if t.domains = 1 || n = 1 then
      for i = 0 to n - 1 do
        f i
      done
    else
      let nchunks = Stdlib.min n (4 * t.domains) in
      run_job t
        (Array.init nchunks (fun c () ->
             for i = c * n / nchunks to ((c + 1) * n / nchunks) - 1 do
               f i
             done))

let map t n f =
  if n < 0 then invalid_arg "Pool.map: negative size";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 then begin
    let r0 = f 0 in
    let out = Array.make n r0 in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end
  else begin
    let out = Array.make n None in
    iter t n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let derive_rng ~seed i = Random.State.make [| Splitmix.mix seed i |]
