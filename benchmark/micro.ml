(* Kernel microbenchmarks a traced run adds to its layer metrics: the
   shapes the workloads spend their time in, timed in isolation so a
   change to one kernel reads directly off its own number. *)

module B = Yoso_bigint.Bigint
module F = Yoso_field.Field.Fp
module Paillier = Yoso_paillier.Paillier
module Threshold = Yoso_paillier.Threshold
module Feldman = Yoso_shamir.Feldman
module Wire = Yoso_net.Wire
module Board = Yoso_net.Board
module Cost = Yoso_runtime.Cost
module Role = Yoso_runtime.Role
module Splitmix = Yoso_hash.Splitmix

let now = Workloads.now

(* median over [batches] of the per-call seconds of [iters] calls *)
let per_call ?(batches = 5) ~iters f =
  Stats.median
    (List.init batches (fun _ ->
         let t0 = now () in
         for _ = 1 to iters do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t0) /. float_of_int iters))

let fresh_role =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Role.id ~committee:"bench-post" ~index:!counter

(* [toy] keeps the same calls at test-size operands *)
let run ~toy =
  let bits = if toy then 128 else 512 in
  let n = 5 and t = 2 in
  let keygen seed = Threshold.keygen ~bits ~n ~t ~rng:(Random.State.make [| seed |]) () in
  let keygen_ms =
    Stats.median
      (List.map
         (fun seed ->
           let t0 = now () in
           ignore (keygen seed);
           (now () -. t0) *. 1000.)
         [ 1; 2; 3 ])
  in
  let tpk, shares = keygen 1 in
  let tctx = Threshold.Ctx.create tpk in
  Threshold.Ctx.preload tctx;
  let pctx = Threshold.Ctx.paillier tctx in
  let rng = Random.State.make [| 0xB3C4 |] in
  let n2 = tpk.Threshold.pk.Paillier.n2 in
  let base = B.random_below rng n2 and e = B.random_bits rng (B.bit_length n2) in
  let mont = Paillier.Ctx.mont_n2 pctx in
  let m = B.random_below rng tpk.Threshold.pk.Paillier.n in
  let ct = Paillier.Ctx.encrypt pctx ~rng m in
  let partials = List.init (t + 1) (fun i -> Threshold.Ctx.partial_decrypt tctx shares.(i) ct) in
  if not (B.equal (Threshold.Ctx.combine tctx partials) m) then
    failwith "micro: threshold decryption returned the wrong plaintext";
  let iters = if toy then 4 else 10 in
  let us f = 1e6 *. per_call ~iters f in
  let powmod_us = us (fun () -> B.Mont.powmod mont base e) in
  let encrypt_us = us (fun () -> Paillier.Ctx.encrypt pctx ~rng m) in
  let partial_us = us (fun () -> Threshold.Ctx.partial_decrypt tctx shares.(0) ct) in
  let combine_us = us (fun () -> Threshold.Ctx.combine tctx partials) in

  (* RLC audit of a batch of Beaver-triple product proofs *)
  Feldman.prepare ();
  let triples = if toy then 8 else 64 in
  let batch =
    Array.init triples (fun _ ->
        let x = F.random rng and y = F.random rng in
        Feldman.Product.prove ~rng ~x ~y ~z:(F.mul x y))
  in
  if not (Feldman.Product.verify_batch batch) then failwith "micro: honest audit batch rejected";
  let verify_us =
    1e6 *. per_call ~iters:(if toy then 1 else 4) (fun () -> Feldman.Product.verify_batch batch)
    /. float_of_int triples
  in

  (* the dominant offline frame at n = 64: one holder's re-encryption
     of a 64-share vector, 64 re-sharing ciphertexts and a proof *)
  let shares_n = if toy then 8 else 64 in
  let cost = [ (Cost.Proof, 1); (Cost.Ciphertext, 2 * shares_n) ] in
  let msg =
    {
      Wire.step = "re-encrypt packed shares to KFF";
      items = Wire.items_of_cost Wire.default_sizing (Splitmix.of_int 7) cost;
    }
  in
  let frame_bytes = String.length (Wire.to_frame msg) in
  let frame_s =
    per_call ~iters:(if toy then 4 else 40) (fun () -> Wire.of_frame (Wire.to_frame msg))
  in
  let posts = if toy then 4 else 40 in
  let post_s =
    per_call ~iters:1 (fun () ->
        let board = Board.create () in
        for _ = 1 to posts do
          ignore
            (Board.post board ~author:(fresh_role ()) ~phase:"offline"
               ~step:"re-encrypt packed shares to KFF" ~cost ())
        done)
    /. float_of_int posts
  in
  [
    ("bigint.powmod_us", powmod_us);
    ("paillier.encrypt_us", encrypt_us);
    ("threshold.partial_decrypt_us", partial_us);
    ("threshold.combine_us", combine_us);
    ("threshold.keygen_ms", keygen_ms);
    ("feldman.verify_batch_us_per_triple", verify_us);
    ("wire.frame_mb_per_s", float_of_int frame_bytes /. frame_s /. 1e6);
    ("board.post_us", post_s *. 1e6);
  ]
