(* The machine's speed during a run, measured by a fixed amount of
   work that no library under test can change.

   The benchmark runs on shared machines whose speed drifts by up to
   2x over minutes as neighbours contend for cores and memory.  Reps
   inside one run drift together, so a run also times this kernel
   between its reps and reports its timings scaled by
   [reference_s / median kernel time]: the timings the run would have
   shown at the reference speed.  The kernel uses the stdlib only and
   allocates nothing, so neither a library change nor a GC setting
   moves it.  It mixes the two shapes the workloads spend their time
   in: a multiply-accumulate over 16 limbs (the bigint kernel) and a
   dependent random walk over 8 MB (the frame and ciphertext traffic
   of the packed protocol).  The walk's buffer lives outside the OCaml
   heap, so it does not change the GC's pacing of the workloads; it
   adds a constant 8 MB to the process's resident peak. *)

let limbs = 16
let a = Array.make limbs 0
let b = Array.make limbs 0
let acc = Array.make (2 * limbs) 0
let walk = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20)
let () = Bigarray.Array1.fill walk 0

let kernel () =
  for i = 0 to limbs - 1 do
    a.(i) <- (i * 2654435761) land 0x3FFFFFFF;
    b.(i) <- ((i * 40503) + 7) land 0x3FFFFFFF
  done;
  Array.fill acc 0 (Array.length acc) 0;
  for _ = 1 to 100_000 do
    for i = 0 to limbs - 1 do
      let ai = a.(i) in
      for j = 0 to limbs - 1 do
        let k = i + j in
        acc.(k) <- (acc.(k) + (ai * b.(j))) land 0x3FFFFFFFFFFF
      done
    done;
    a.(0) <- acc.(limbs) land 0x3FFFFFFF
  done;
  let mask = Bigarray.Array1.dim walk - 1 in
  let x = ref acc.(0) in
  for i = 0 to 300_000 do
    let j = (!x + (i * 7919)) land mask in
    let v = Bigarray.Array1.unsafe_get walk j + i in
    Bigarray.Array1.unsafe_set walk j v;
    x := v land mask
  done;
  !x

(* kernel seconds on the reference machine when it was quiet *)
let reference_s = 0.065

let sample () =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
