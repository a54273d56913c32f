module F = Yoso_field.Field.Fp
module Splitmix = Yoso_hash.Splitmix

type tpk = { id : int; n : int; t : int }
type share = { key : int; index : int; epoch : int }
type 'a ct = { ct_key : int; value : 'a }
type 'a partial = { p_key : int; p_index : int; p_epoch : int; p_value : 'a }

(* atomic for the same reason as {!Ideal_pke.counter}: key generation
   happens concurrently across factory domains; ids need uniqueness
   only *)
let counter = Atomic.make 0

let keygen ~n ~t ~rng =
  if t < 0 || t >= n then invalid_arg "Ideal_te.keygen: need 0 <= t < n";
  ignore (Splitmix.next rng);
  let tpk = { id = Atomic.fetch_and_add counter 1 + 1; n; t } in
  (tpk, Array.init n (fun i -> { key = tpk.id; index = i + 1; epoch = 0 }))

let n_parties tpk = tpk.n
let threshold tpk = tpk.t
let share_index s = s.index
let share_epoch s = s.epoch

let encrypt tpk v = { ct_key = tpk.id; value = v }

let check_ct tpk c =
  if c.ct_key <> tpk.id then invalid_arg "Ideal_te: foreign ciphertext"

let eval tpk cts coeffs =
  if Array.length cts <> Array.length coeffs then
    invalid_arg "Ideal_te.eval: length mismatch";
  Array.iter (check_ct tpk) cts;
  let acc = ref F.zero in
  Array.iteri (fun i c -> acc := F.add !acc (F.mul coeffs.(i) c.value)) cts;
  { ct_key = tpk.id; value = !acc }

let add tpk a b =
  check_ct tpk a;
  check_ct tpk b;
  { ct_key = tpk.id; value = F.add a.value b.value }

let sub tpk a b =
  check_ct tpk a;
  check_ct tpk b;
  { ct_key = tpk.id; value = F.sub a.value b.value }

let scale tpk c a =
  check_ct tpk a;
  { ct_key = tpk.id; value = F.mul c a.value }

let add_plain tpk a v =
  check_ct tpk a;
  { ct_key = tpk.id; value = F.add a.value v }

let partial_decrypt tpk s c =
  check_ct tpk c;
  if s.key <> tpk.id then invalid_arg "Ideal_te.partial_decrypt: share of another key";
  { p_key = tpk.id; p_index = s.index; p_epoch = s.epoch; p_value = c.value }

let combine tpk parts =
  let seen = Hashtbl.create 8 in
  let parts =
    List.filter
      (fun p ->
        if p.p_key <> tpk.id then invalid_arg "Ideal_te.combine: foreign partial";
        if Hashtbl.mem seen p.p_index then false
        else begin
          Hashtbl.add seen p.p_index ();
          true
        end)
      parts
  in
  let need = tpk.t + 1 in
  if List.length parts < need then
    invalid_arg
      (Printf.sprintf "Ideal_te.combine: %d partials, need %d" (List.length parts) need);
  let chosen = List.filteri (fun i _ -> i < need) parts in
  match chosen with
  | [] -> invalid_arg "Ideal_te.combine: empty"
  | p0 :: rest ->
    if List.exists (fun p -> p.p_epoch <> p0.p_epoch) rest then
      invalid_arg "Ideal_te.combine: partials from different epochs";
    if List.exists (fun p -> p.p_value <> p0.p_value) rest then
      invalid_arg "Ideal_te.combine: inconsistent partials";
    p0.p_value

type subshare = { s_key : int; sender : int; dest : int; s_epoch : int }

let reshare tpk s =
  if s.key <> tpk.id then invalid_arg "Ideal_te.reshare: share of another key";
  Array.init tpk.n (fun j ->
      { s_key = tpk.id; sender = s.index; dest = j + 1; s_epoch = s.epoch })

let recombine tpk ~index subs =
  let seen = Hashtbl.create 8 in
  let subs =
    List.filter
      (fun ss ->
        if ss.s_key <> tpk.id then invalid_arg "Ideal_te.recombine: foreign subshare";
        if ss.dest <> index then invalid_arg "Ideal_te.recombine: misaddressed subshare";
        if Hashtbl.mem seen ss.sender then false
        else begin
          Hashtbl.add seen ss.sender ();
          true
        end)
      subs
  in
  let need = tpk.t + 1 in
  if List.length subs < need then
    invalid_arg
      (Printf.sprintf "Ideal_te.recombine: %d subshares, need %d" (List.length subs) need);
  match subs with
  | [] -> assert false
  | s0 :: rest ->
    if List.exists (fun s -> s.s_epoch <> s0.s_epoch) rest then
      invalid_arg "Ideal_te.recombine: subshares from different epochs";
    { key = tpk.id; index; epoch = s0.s_epoch + 1 }

let reveal tpk c =
  check_ct tpk c;
  c.value

let junk_partial tpk ~index ~epoch v =
  { p_key = tpk.id; p_index = index; p_epoch = epoch; p_value = v }

let corrupt_partial p = { p with p_epoch = p.p_epoch + 1 }
