(* Determinism matrix for the worker pool and everything wired through
   it: the parallel primitives must be extensionally equal to their
   sequential specification, and a full protocol run — faults, blames,
   transcript digest, byte totals — must be byte-identical at every
   domain count. *)

module F = Yoso_field.Field.Fp
module Pool = Yoso_parallel.Pool
module B = Yoso_bigint.Bigint
module Params = Yoso_mpc.Params
module Protocol = Yoso_mpc.Protocol
module Gen = Yoso_circuit.Generators
module Faults = Yoso_runtime.Faults
module Paillier = Yoso_paillier.Paillier
module Threshold = Yoso_paillier.Threshold
module Oracles = Yoso_oracles

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  let f i = (i * i) + (i mod 7) in
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let expected = Array.init n f in
          let got = with_pool ~domains (fun pool -> Pool.map pool n f) in
          Alcotest.(check (array int))
            (Printf.sprintf "map domains=%d n=%d" domains n)
            expected got)
        [ 0; 1; 2; 3; 7; 64; 1000 ])
    [ 1; 2; 4; 8 ]

let test_map_calls_each_index_once () =
  List.iter
    (fun domains ->
      let n = 257 in
      let counts = Array.make n 0 in
      let mutex = Mutex.create () in
      ignore
        (with_pool ~domains (fun pool ->
             Pool.map pool n (fun i ->
                 Mutex.protect mutex (fun () -> counts.(i) <- counts.(i) + 1))));
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "domains=%d index %d" domains i) 1 c)
        counts)
    [ 1; 3; 8 ]

let test_iter_fills_slots () =
  let n = 500 in
  List.iter
    (fun domains ->
      let slots = Array.make n (-1) in
      with_pool ~domains (fun pool -> Pool.iter pool n (fun i -> slots.(i) <- 3 * i));
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        (Array.init n (fun i -> 3 * i))
        slots)
    [ 1; 4 ]

let test_empty_job_is_inert () =
  (* size 0 must not build a job, wake a worker, or call f; the pool
     stays fully usable afterwards *)
  with_pool ~domains:4 (fun pool ->
      let called = Atomic.make 0 in
      let r = Pool.map pool 0 (fun _ -> Atomic.incr called) in
      Alcotest.(check int) "empty result" 0 (Array.length r);
      Alcotest.(check int) "f never called" 0 (Atomic.get called);
      (* with profiling on, an empty job leaves no trace: no chunk was
         created so no sample can be recorded *)
      Pool.set_profiling true;
      Fun.protect
        ~finally:(fun () -> Pool.set_profiling false)
        (fun () ->
          ignore (Pool.drain_profile ());
          ignore (Pool.map pool 0 (fun i -> i));
          Pool.iter pool 0 (fun _ -> ());
          Alcotest.(check int) "no profile samples" 0
            (List.length (Pool.drain_profile ())));
      Alcotest.(check (array int)) "pool usable after empty jobs"
        (Array.init 8 Fun.id) (Pool.map pool 8 Fun.id))

(* The chunk layout the pool actually ran, recovered through its
   documented failure rule: when [f r] raises, the indices after [r] in
   [r]'s chunk never run, and every other index does.  So one job per
   [r] gives the last index of [r]'s chunk, whatever the schedule. *)
let observed_chunks pool n =
  let chunk_end r =
    let ran = Array.make n false in
    (try
       Pool.iter pool n (fun i ->
           ran.(i) <- true;
           if i = r then raise Exit)
     with Exit -> ());
    r + Array.fold_left (fun acc x -> if x then acc else acc + 1) 0 ran
  in
  let bounds = ref [] and lo = ref 0 in
  for r = 0 to n - 1 do
    if chunk_end r = r then begin
      bounds := (!lo, r) :: !bounds;
      lo := r + 1
    end
  done;
  Array.of_list (List.rev !bounds)

let test_fewer_items_than_domains () =
  (* surplus workers must sleep through the job, not spin or deadlock:
     every index still runs exactly once and the call returns *)
  List.iter
    (fun (n, domains) ->
      let got = with_pool ~domains (fun pool -> Pool.map pool n (fun i -> 10 * i)) in
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d domains=%d" n domains)
        (Array.init n (fun i -> 10 * i))
        got)
    [ (1, 8); (2, 8); (3, 4); (5, 8); (7, 8) ];
  (* chunk layout never exceeds the item count *)
  with_pool ~domains:8 (fun pool ->
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "chunks for n=%d" n)
            n
            (Array.length (observed_chunks pool n)))
        [ 1; 2; 5; 7 ])

let test_skewed_work_identical_results () =
  (* the first half of the indices does ~100x the work of the second:
     the value of every index is pinned by the pre-sized result array,
     so whichever domain claims which chunk, the output is the
     sequential one *)
  let n = 257 in
  let f i =
    let rounds = if i < n / 2 then 2000 else 20 in
    let acc = ref i in
    for r = 1 to rounds do
      acc := ((!acc * 31) + r) mod 1_000_003
    done;
    !acc
  in
  let expected = Array.init n f in
  List.iter
    (fun domains ->
      let got = with_pool ~domains (fun pool -> Pool.map pool n f) in
      Alcotest.(check (array int)) (Printf.sprintf "domains=%d" domains) expected got)
    [ 1; 2; 4 ]

let test_chunk_bounds_properties () =
  (* for every (n, domains): [min n (4 * domains)] chunks (one inline
     chunk on a 1-domain pool), non-empty, contiguous, covering
     [0, n-1] exactly, of near-equal count, and the same on every run *)
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter
            (fun n ->
              let bounds = observed_chunks pool n in
              let label fmt = Printf.sprintf "n=%d domains=%d %s" n domains fmt in
              let expected = if n = 0 then 0 else if domains = 1 then 1 else min n (4 * domains) in
              Alcotest.(check int) (label "count") expected (Array.length bounds);
              if n > 0 then begin
                Alcotest.(check int) (label "starts at 0") 0 (fst bounds.(0));
                Alcotest.(check int) (label "ends at n-1") (n - 1)
                  (snd bounds.(Array.length bounds - 1))
              end;
              Array.iteri
                (fun k (lo, hi) ->
                  Alcotest.(check bool) (label "non-empty") true (lo <= hi);
                  if k > 0 then
                    Alcotest.(check int) (label "contiguous") (snd bounds.(k - 1) + 1) lo)
                bounds;
              let sizes = Array.map (fun (lo, hi) -> hi - lo + 1) bounds in
              if n > 0 then
                Alcotest.(check bool) (label "near-equal count") true
                  (Array.fold_left max 0 sizes - Array.fold_left min n sizes <= 1);
              Alcotest.(check bool) (label "deterministic") true
                (bounds = observed_chunks pool n))
            [ 0; 1; 2; 3; 7; 64; 129 ]))
    [ 1; 2; 4; 8 ]

let test_profiling_hook () =
  Pool.set_profiling false;
  ignore (Pool.drain_profile ());
  with_pool ~domains:4 (fun pool ->
      (* off by default: a parallel job records nothing *)
      ignore (Pool.map pool 64 Fun.id);
      Alcotest.(check int) "off: no samples" 0 (List.length (Pool.drain_profile ()));
      Pool.set_profiling true;
      Fun.protect
        ~finally:(fun () -> Pool.set_profiling false)
        (fun () ->
          ignore (Pool.map pool 64 (fun i -> 2 * i));
          let samples = Pool.drain_profile () in
          let nchunks = 16 (* min 64 (4 * 4) *) in
          Alcotest.(check int) "one sample per chunk" nchunks (List.length samples);
          let seen = Array.make nchunks false in
          List.iter
            (fun (d, c, ms) ->
              Alcotest.(check bool) "domain in range" true (d >= 0 && d < 4);
              Alcotest.(check bool) "chunk in range" true (c >= 0 && c < nchunks);
              Alcotest.(check bool) "duration non-negative" true (ms >= 0.0);
              seen.(c) <- true)
            samples;
          Alcotest.(check bool) "every chunk sampled" true
            (Array.for_all Fun.id seen);
          Alcotest.(check int) "drain clears" 0 (List.length (Pool.drain_profile ()))))

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun domains ->
      match
        with_pool ~domains (fun pool ->
            Pool.map pool 64 (fun i -> if i = 41 then raise (Boom i) else i))
      with
      | _ -> Alcotest.failf "domains=%d: exception swallowed" domains
      | exception Boom 41 -> ()
      | exception e ->
        Alcotest.failf "domains=%d: wrong exception %s" domains (Printexc.to_string e))
    [ 1; 2; 8 ];
  (* the pool survives a failed map *)
  with_pool ~domains:4 (fun pool ->
      (try ignore (Pool.map pool 16 (fun i -> if i = 3 then raise (Boom i) else i))
       with Boom _ -> ());
      Alcotest.(check (array int)) "usable after failure" (Array.init 16 Fun.id)
        (Pool.map pool 16 Fun.id))

let test_create_validation () =
  Alcotest.check_raises "domains = 0" (Invalid_argument "Pool.create: domains must be in [1, 128]")
    (fun () -> ignore (Pool.create ~domains:0));
  Alcotest.check_raises "domains = 129" (Invalid_argument "Pool.create: domains must be in [1, 128]")
    (fun () -> ignore (Pool.create ~domains:129));
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_derive_rng_deterministic () =
  let a = Pool.derive_rng ~seed:42 7 in
  let b = Pool.derive_rng ~seed:42 7 in
  let draws st = Array.init 16 (fun _ -> Random.State.bits st) in
  Alcotest.(check (array int)) "same (seed, i), same stream" (draws a) (draws b);
  let c = Pool.derive_rng ~seed:42 8 in
  let d = Pool.derive_rng ~seed:43 7 in
  Alcotest.(check bool) "distinct index, distinct stream" false (draws a = draws c);
  Alcotest.(check bool) "distinct seed, distinct stream" false (draws b = draws d)

(* two domains submit to one pool at once, as the factory's producer
   and consumer do: each job must run whole, never replaced by the
   other's *)
let test_shared_pool_two_submitters () =
  with_pool ~domains:2 (fun pool ->
      let submit salt () =
        let wrong = ref 0 in
        for round = 1 to 1000 do
          let n = 8 + (round mod 25) in
          let f i = (salt * 1_000_000) + (round * 100) + i in
          if Pool.map pool n f <> Array.init n f then incr wrong
        done;
        !wrong
      in
      let other = Domain.spawn (submit 2) in
      let mine = submit 1 () in
      let theirs = Domain.join other in
      Alcotest.(check int) "calling domain: wrong results" 0 mine;
      Alcotest.(check int) "second domain: wrong results" 0 theirs)

(* ------------------------------------------------------------------ *)
(* protocol determinism across domain counts                           *)
(* ------------------------------------------------------------------ *)

let protocol_report ~domains =
  let params = Params.create ~n:32 ~t:10 ~k:6 () in
  let circuit = Gen.dot_product ~len:6 in
  let inputs c = Array.init 6 (fun i -> F.of_int ((c + 2) * (i + 5))) in
  let adversary = { Params.malicious = 6; passive = 0; fail_stop = 2 } in
  let config = Protocol.config ~adversary ~seed:0x9A7 ~domains () in
  let r = Protocol.execute ~params ~config ~circuit ~inputs () in
  Alcotest.(check bool)
    (Printf.sprintf "domains=%d delivers correct output" domains)
    true
    (Protocol.check r circuit ~inputs);
  r

let test_protocol_identical_across_domains () =
  let base = protocol_report ~domains:1 in
  Alcotest.(check bool) "faults are actually exercised" true (base.Protocol.faults_detected > 0);
  List.iter
    (fun domains ->
      let r = protocol_report ~domains in
      Alcotest.(check string)
        (Printf.sprintf "report domains=%d == domains=1" domains)
        (Yoso_runtime.Json.to_string (Protocol.report_json base))
        (Yoso_runtime.Json.to_string (Protocol.report_json r));
      Alcotest.(check int)
        (Printf.sprintf "offline bytes domains=%d" domains)
        base.Protocol.offline_bytes r.Protocol.offline_bytes;
      Alcotest.(check int)
        (Printf.sprintf "online bytes domains=%d" domains)
        base.Protocol.online_bytes r.Protocol.online_bytes;
      Alcotest.(check int)
        (Printf.sprintf "transcript digest domains=%d" domains)
        base.Protocol.transcript.Yoso_net.Board.digest
        r.Protocol.transcript.Yoso_net.Board.digest)
    [ 2; 4 ]

(* sessions share the process's 2-domain pool: run after run, with no
   spawn or join between them, each transcript is the pinned one *)
let pinned_repeat_digest = 693405735685865913

let test_repeated_sessions_share_pool () =
  let params = Params.create ~n:8 ~t:2 ~k:2 () in
  let circuit = Gen.dot_product ~len:4 in
  let inputs c = Array.init 4 (fun i -> F.of_int ((c + 1) * (i + 2))) in
  let adversary = { Params.malicious = 1; passive = 0; fail_stop = 1 } in
  let digest ~domains =
    let config = Protocol.config ~adversary ~seed:0x5E55 ~domains () in
    let r = Protocol.execute ~params ~config ~circuit ~inputs () in
    if not (Protocol.check r circuit ~inputs) then Alcotest.fail "wrong output";
    r.Protocol.transcript.Yoso_net.Board.digest
  in
  Alcotest.(check int) "domains=1" pinned_repeat_digest (digest ~domains:1);
  for run = 1 to 200 do
    Alcotest.(check int) (Printf.sprintf "domains=2 run %d" run) pinned_repeat_digest
      (digest ~domains:2)
  done

(* the process keeps one live pool: a session at a new count replaces
   an idle pool, and a session at another count than a held pool runs
   on a pool of its own.  Every order of counts gives the pinned
   transcript, and closing a session twice is harmless. *)
let test_sessions_switch_pool_counts () =
  let params = Params.create ~n:8 ~t:2 ~k:2 () in
  let circuit = Gen.dot_product ~len:4 in
  let inputs c = Array.init 4 (fun i -> F.of_int ((c + 1) * (i + 2))) in
  let adversary = { Params.malicious = 1; passive = 0; fail_stop = 1 } in
  let config domains = Protocol.config ~adversary ~seed:0x5E55 ~domains () in
  let finish s =
    let r = Protocol.consume s (Yoso_mpc.Offline.source_of (Protocol.produce s)) ~inputs in
    if not (Protocol.check r circuit ~inputs) then Alcotest.fail "wrong output";
    r.Protocol.transcript.Yoso_net.Board.digest
  in
  let check what d = Alcotest.(check int) what pinned_repeat_digest d in
  let held = Protocol.open_session ~params ~config:(config 2) ~circuit () in
  let other = Protocol.open_session ~params ~config:(config 3) ~circuit () in
  check "d=3 beside a held d=2 pool" (finish other);
  check "held d=2 pool" (finish held);
  Protocol.close_session other;
  Protocol.close_session held;
  Protocol.close_session held;
  List.iter
    (fun domains ->
      let s = Protocol.open_session ~params ~config:(config domains) ~circuit () in
      let d = Fun.protect ~finally:(fun () -> Protocol.close_session s) (fun () -> finish s) in
      check (Printf.sprintf "domains=%d" domains) d)
    [ 3; 2; 1; 2; 4; 2 ]

(* ------------------------------------------------------------------ *)
(* multiexp-backed combine and batch verification                      *)
(* ------------------------------------------------------------------ *)

(* every party re-shares; recipients combine the same sender list *)
let next_epoch tpk shares ~epoch ~rng =
  let n = Array.length shares in
  let resharings = Array.map (fun s -> Threshold.reshare tpk s ~rng) shares in
  Array.init n (fun j ->
      Threshold.recombine_share tpk ~index:(j + 1) ~epoch
        (List.init n (fun i -> (i + 1, resharings.(i).(j)))))

(* the multiexp combine against the oracle's per-partial Montgomery and
   naive combines, on the partials of a random (t+1)-subset (random
   order, one duplicate) at one of [epochs] *)
let combine_agrees tpk by_epoch ~epochs seed =
  let rng = Random.State.make [| seed |] in
  let ctx = Threshold.Ctx.create tpk in
  let mont = Paillier.Ctx.mont_n2 (Threshold.Ctx.paillier ctx) in
  let epoch = List.nth epochs (Random.State.int rng (List.length epochs)) in
  let shares = by_epoch.(epoch) in
  let m = B.random_below rng tpk.Threshold.pk.Paillier.n in
  let ct = Threshold.Ctx.encrypt ctx ~rng m in
  let order =
    List.map snd
      (List.sort compare
         (List.init (Array.length shares) (fun i -> (Random.State.bits rng, i))))
  in
  let chosen = List.filteri (fun i _ -> i <= tpk.Threshold.threshold) order in
  let partials =
    List.map (fun i -> Threshold.Ctx.partial_decrypt ctx shares.(i) ct) (List.hd chosen :: chosen)
  in
  let multi = Threshold.Ctx.combine ctx partials in
  B.equal multi m
  && B.equal multi (Oracles.Threshold.combine ~pow:(fun b e _ -> B.Mont.powmod mont b e) tpk partials)
  && B.equal multi (Oracles.Threshold.combine tpk partials)

let prop_combine_backends_agree =
  let rng = Random.State.make [| 0x7E57C0 |] in
  let tpk, shares = Threshold.keygen ~bits:96 ~n:9 ~t:3 ~rng () in
  QCheck.Test.make ~count:10 ~name:"combine backends agree" QCheck.(make Gen.nat)
    (combine_agrees tpk [| shares |] ~epochs:[ 0 ])

(* epoch-1 and -2 partials exercise negative and Delta-grown weights
   through the multiexp path *)
let prop_combine_after_reshare =
  let rng = Random.State.make [| 0xE70C |] in
  let tpk, shares = Threshold.keygen ~bits:96 ~n:5 ~t:2 ~rng () in
  let s1 = next_epoch tpk shares ~epoch:1 ~rng in
  let s2 = next_epoch tpk s1 ~epoch:2 ~rng in
  QCheck.Test.make ~count:10 ~name:"combine after reshare" QCheck.(make Gen.nat)
    (combine_agrees tpk [| shares; s1; s2 |] ~epochs:[ 1; 2 ])

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "each index once" `Quick test_map_calls_each_index_once;
          Alcotest.test_case "iter fills slots" `Quick test_iter_fills_slots;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "derive_rng deterministic" `Quick test_derive_rng_deterministic;
          Alcotest.test_case "empty job is inert" `Quick test_empty_job_is_inert;
          Alcotest.test_case "fewer items than domains" `Quick
            test_fewer_items_than_domains;
          Alcotest.test_case "skewed work identical results" `Quick
            test_skewed_work_identical_results;
          Alcotest.test_case "chunk bounds properties" `Quick
            test_chunk_bounds_properties;
          Alcotest.test_case "profiling hook" `Quick test_profiling_hook;
          Alcotest.test_case "two submitters share a pool" `Quick
            test_shared_pool_two_submitters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "protocol identical across domains" `Slow
            test_protocol_identical_across_domains;
          Alcotest.test_case "200 sessions on the process pool" `Slow
            test_repeated_sessions_share_pool;
          Alcotest.test_case "sessions switch pool counts" `Slow
            test_sessions_switch_pool_counts;
        ] );
      ( "multiexp paths",
        [
          QCheck_alcotest.to_alcotest prop_combine_backends_agree;
          QCheck_alcotest.to_alcotest prop_combine_after_reshare;
        ] );
    ]
