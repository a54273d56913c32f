module Splitmix = Yoso_hash.Splitmix

type status = Honest | Passive | Malicious | Fail_stop

type t = { name : string; size : int; statuses : status array }

let create ~name ~statuses =
  if Array.length statuses = 0 then invalid_arg "Committee.create: empty";
  { name; size = Array.length statuses; statuses }

let honest_all ~name ~n = create ~name ~statuses:(Array.make n Honest)

let sample ~name ~n ~malicious ?(passive = 0) ?(fail_stop = 0) rng =
  if malicious + passive + fail_stop > n then
    invalid_arg "Committee.sample: more corruptions than members";
  let statuses = Array.make n Honest in
  (* Fisher-Yates over indices, then assign statuses to a random prefix *)
  let idx = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  let pos = ref 0 in
  let assign count status =
    for _ = 1 to count do
      statuses.(idx.(!pos)) <- status;
      incr pos
    done
  in
  assign malicious Malicious;
  assign passive Passive;
  assign fail_stop Fail_stop;
  create ~name ~statuses

let status t i = t.statuses.(i)
let role t i = Role.id ~committee:t.name ~index:i
let participates t i = t.statuses.(i) <> Fail_stop

let indices_where pred t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    if pred t.statuses.(i) then acc := i :: !acc
  done;
  !acc

let speaking_indices = indices_where (fun s -> s <> Fail_stop)
let malicious_indices = indices_where (fun s -> s = Malicious)
let honest_indices = indices_where (fun s -> s = Honest || s = Passive)

let count_malicious t = List.length (malicious_indices t)
let count_fail_stop t = t.size - List.length (speaking_indices t)
