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
  has_work : Condition.t;  (* idle workers and {!await}ing domains sleep here *)
  work_done : Condition.t;
  mutable open_jobs : job list;  (* jobs with unclaimed chunks, oldest first *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

(* ------------------------------------------------------------------ *)
(* Per-chunk timing hook, off by default                                *)
(* ------------------------------------------------------------------ *)

(* When enabled, every drained chunk pushes a sample onto a global
   lock-free list (the producer and consumer of a factory stream
   record at once, and a mutex here would be contended on every
   chunk).  A global sink (rather than per-pool state) is
   deliberate: the pools that matter are held inside [Protocol],
   where no caller can reach them, so the bench's [--profile] flag
   needs a collection point outside any pool.  Cost when disabled is one bool load per
   claimed chunk. *)
type sample = { s_domain : int; s_chunk : int; s_ms : float }

let profiling = Atomic.make false
let profile_samples : sample list Atomic.t = Atomic.make []

let set_profiling b = Atomic.set profiling b

let drain_profile () =
  List.rev_map
    (fun s -> (s.s_domain, s.s_chunk, s.s_ms))
    (Atomic.exchange profile_samples [])

let rec record_sample sample =
  let old = Atomic.get profile_samples in
  if not (Atomic.compare_and_set profile_samples old (sample :: old)) then
    record_sample sample

let ms_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6

(* Claim chunk [j.next] and run it.  Called (and returns) with
   [t.lock] held; the lock is released around the chunk body.  A job
   leaves [open_jobs] as its last chunk is claimed. *)
let run_chunk t wid j =
  let c = j.next in
  j.next <- c + 1;
  if j.next = Array.length j.chunks then
    t.open_jobs <- List.filter (fun j' -> j' != j) t.open_jobs;
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
  if j.completed = Array.length j.chunks then Condition.broadcast t.work_done

let worker t wid =
  Mutex.lock t.lock;
  let rec loop () =
    if t.stopping then Mutex.unlock t.lock
    else begin
      (match t.open_jobs with
      | j :: _ -> run_chunk t wid j
      | [] -> Condition.wait t.has_work t.lock);
      loop ()
    end
  in
  loop ()

let shared ~domains ~submitters =
  if domains < 1 || domains > 128 then
    invalid_arg "Pool.create: domains must be in [1, 128]";
  if submitters < 1 || submitters > domains then
    invalid_arg "Pool.shared: submitters must be in [1, domains]";
  let t =
    {
      domains;
      lock = Mutex.create ();
      has_work = Condition.create ();
      work_done = Condition.create ();
      open_jobs = [];
      stopping = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (domains - submitters) (fun k -> Domain.spawn (fun () -> worker t (k + 1)));
  t

let create ~domains = shared ~domains ~submitters:1
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
   stragglers, then re-raise the first failure if any.  Several
   domains may submit at once (the factory's producer beside its
   consumer): each job joins [open_jobs], each submitter drains its
   own job to the end, and a helper takes a chunk of the oldest open
   job.  Wake-ups are targeted: with fewer chunks than domains only
   [len - 1] sleepers are signalled (the caller takes a chunk itself),
   so surplus workers sleep through the whole job instead of waking
   to find nothing. *)
let run_job t chunks =
  let len = Array.length chunks in
  if len > 0 then begin
    let j = { chunks; next = 0; completed = 0; failed = None } in
    Mutex.lock t.lock;
    t.open_jobs <- t.open_jobs @ [ j ];
    let wake = Stdlib.min (len - 1) (t.domains - 1) in
    for _ = 1 to wake do
      Condition.signal t.has_work
    done;
    while j.next < len do
      run_chunk t 0 j
    done;
    while j.completed < len do
      Condition.wait t.work_done t.lock
    done;
    Mutex.unlock t.lock;
    match j.failed with Some e -> raise e | None -> ()
  end

(* [ready] is read under [t.lock], and whoever makes it true calls
   [wake] (which takes [t.lock]) afterwards, so the change lands
   either before the read or while this domain sleeps: no wake-up is
   lost.  The condition is rechecked after every chunk, so a domain
   whose handoff completed returns as soon as its current chunk
   ends. *)
let await t ready =
  Mutex.protect t.lock @@ fun () ->
  while not (ready ()) do
    match t.open_jobs with
    | j :: _ -> run_chunk t 0 j
    | [] -> Condition.wait t.has_work t.lock
  done

let wake t = Mutex.protect t.lock (fun () -> Condition.broadcast t.has_work)

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
