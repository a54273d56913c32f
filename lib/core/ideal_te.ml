module F = Yoso_field.Field.Fp
module Splitmix = Yoso_hash.Splitmix

type tpk = { id : int; n : int; t : int }
type share = { key : int; index : int; epoch : int }
type 'a ct = { ct_key : int; value : 'a }

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

let scale tpk c a =
  check_ct tpk a;
  { ct_key = tpk.id; value = F.mul c a.value }

(* ------------------------------------------------------------------ *)
(* Decryption: one row per member, one quorum per step                 *)
(* ------------------------------------------------------------------ *)

type 'a partial = { p_key : int; p_index : int; p_epoch : int; p_values : 'a array }

let partial_decrypt tpk s cts =
  if s.key <> tpk.id then invalid_arg "Ideal_te.partial_decrypt: share of another key";
  let values =
    Array.map
      (fun c ->
        check_ct tpk c;
        c.value)
      cts
  in
  { p_key = tpk.id; p_index = s.index; p_epoch = s.epoch; p_values = values }

(* the value rows of the first t+1 distinct senders, and the count of
   distinct senders the step offered *)
type 'a quorum = { rows : 'a array array; senders : int }

(* Walks a step's items once, raising [foreign] on any item of another
   key; [f d x] sees each sender's first item [x], the [d]-th distinct
   sender, in order.  Returns the count of distinct senders.  Sender
   indices are in [1, n] by construction (shares carry them), so a
   flag array replaces a hash set. *)
let first_per_sender tpk ~foreign ~key_ok ~sender items f =
  let seen = Array.make (tpk.n + 1) false in
  let distinct = ref 0 in
  List.iter
    (fun x ->
      if not (key_ok x) then invalid_arg foreign;
      let s = sender x in
      if not seen.(s) then begin
        seen.(s) <- true;
        f !distinct x;
        incr distinct
      end)
    items;
  !distinct

let quorum tpk rows =
  let need = tpk.t + 1 in
  let chosen = ref [] in
  let distinct =
    first_per_sender tpk ~foreign:"Ideal_te.quorum: foreign partial"
      ~key_ok:(fun r -> r.p_key = tpk.id)
      ~sender:(fun r -> r.p_index)
      rows
      (fun d r -> if d < need then chosen := r :: !chosen)
  in
  if distinct < need then
    invalid_arg (Printf.sprintf "Ideal_te.quorum: %d partials, need %d" distinct need);
  let chosen = Array.of_list (List.rev !chosen) in
  let e0 = chosen.(0).p_epoch in
  if Array.exists (fun r -> r.p_epoch <> e0) chosen then
    invalid_arg "Ideal_te.quorum: partials from different epochs";
  { rows = Array.map (fun r -> r.p_values) chosen; senders = distinct }

let senders q = q.senders

let combine_col { rows; _ } c =
  let v0 = rows.(0).(c) in
  for r = 1 to Array.length rows - 1 do
    let v = rows.(r).(c) in
    (* physical equality first: honest rows share each ciphertext's
       payload, so polymorphic equality runs only on a mismatch *)
    if v != v0 && v <> v0 then invalid_arg "Ideal_te.combine_col: inconsistent partials"
  done;
  v0

(* ------------------------------------------------------------------ *)
(* Re-sharing                                                           *)
(* ------------------------------------------------------------------ *)

type token = { s_key : int; sender : int; s_epoch : int }

let reshare tpk s =
  if s.key <> tpk.id then invalid_arg "Ideal_te.reshare: share of another key";
  { s_key = tpk.id; sender = s.index; s_epoch = s.epoch }

let recombine_all tpk tokens =
  let need = tpk.t + 1 in
  let epoch = ref 0 and mixed = ref false in
  let distinct =
    first_per_sender tpk ~foreign:"Ideal_te.recombine_all: foreign token"
      ~key_ok:(fun tk -> tk.s_key = tpk.id)
      ~sender:(fun tk -> tk.sender)
      tokens
      (fun d tk ->
        if d = 0 then epoch := tk.s_epoch else if tk.s_epoch <> !epoch then mixed := true)
  in
  if distinct < need then
    invalid_arg (Printf.sprintf "Ideal_te.recombine_all: %d tokens, need %d" distinct need);
  if !mixed then invalid_arg "Ideal_te.recombine_all: tokens from different epochs";
  Array.init tpk.n (fun j -> { key = tpk.id; index = j + 1; epoch = !epoch + 1 })

let reveal tpk c =
  check_ct tpk c;
  c.value
