module Splitmix = Yoso_hash.Splitmix

type pk = int
type sk = { id : int }

(* atomic: the factory's background producer generates keys for the
   next circuit while the consumer's online phase generates role keys
   for the current one; ids only need process-uniqueness, never
   determinism, so contention order is irrelevant *)
let counter = Atomic.make 0

let gen rng =
  (* the rng parameter keeps the signature honest (a real scheme
     samples keys); ids are process-unique *)
  ignore (Splitmix.next rng);
  let id = Atomic.fetch_and_add counter 1 + 1 in
  (id, { id })


type 'a enc = { key : int; payload : 'a }

let enc pk payload = { key = pk; payload }

let dec sk c =
  if c.key <> sk.id then invalid_arg "Ideal_pke.dec: wrong key";
  c.payload
