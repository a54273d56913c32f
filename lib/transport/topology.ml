(* Quorum geometry of the socket transport.  Pure data + pure
   functions: the same value is consumed by the Runner (to decide
   which frames each member materialises), the Daemon (to route
   deliveries) and the bench/CLI (to label rows). *)

type t = {
  nslots : int;
  quorum : int;
}

(* n/8 full copies per frame, floored at 2 (so every frame always has
   at least two independent full-frame holders besides its owner's
   journal record), capped by the committee size *)
let default_quorum ~nslots = min (max 1 (nslots - 1)) (max 2 (nslots / 8))

let make ?quorum ~nslots () =
  if nslots < 1 then invalid_arg "Topology: nslots must be >= 1";
  let quorum = match quorum with Some q -> q | None -> max 1 (nslots - 1) in
  if quorum < 1 || quorum > max 1 (nslots - 1) then
    invalid_arg "Topology: quorum must be in [1, nslots-1]";
  { nslots; quorum }

let owner_slot t ~index = index mod t.nslots

(* the quorum of slot [owner]'s frames: the next [quorum] slots in ring
   order.  Deterministic and rotation-balanced: every slot serves in
   exactly [quorum] other slots' quorums *)
let wants_full t ~me ~owner =
  let d = (me - owner + t.nslots) mod t.nslots in
  d >= 1 && d <= t.quorum

let local t ~me ~owner = owner = me || wants_full t ~me ~owner

let full_sources t ~me =
  List.filter (fun owner -> wants_full t ~me ~owner) (List.init t.nslots Fun.id)

let pp ppf t = Format.fprintf ppf "{nslots=%d;quorum=%d}" t.nslots t.quorum
