(** Quorum geometry of the socket transport.

    One {!t} value describes how a run's board is delivered:

    - [nslots] member processes, role index [mod nslots] mapping roles
      onto slots;
    - [quorum] full-frame fan-out: each posted frame is delivered in
      full to the [quorum] slots following its owner in ring order,
      and as a compact [(seq, slot, checksum, length)] digest record
      to everyone else (including the owner, as its ack).  Broadcast
      is [quorum = nslots - 1]: every other slot gets the frame in
      full.

    The same value is consumed by {!Runner} (which frames a member
    materialises), {!Daemon} (routes deliveries) and the CLI/bench. *)

type t = private {
  nslots : int;
  quorum : int;
}

val make : ?quorum:int -> nslots:int -> unit -> t
(** [quorum] defaults to [nslots - 1] (broadcast).
    @raise Invalid_argument on [nslots < 1] or [quorum] outside
    [1, nslots-1]. *)

val default_quorum : nslots:int -> int
(** The n/8 fan-out policy: [max 2 (nslots / 8)], capped at
    [nslots - 1]. *)

val owner_slot : t -> index:int -> int
(** The slot owning a role with the given committee index. *)

val wants_full : t -> me:int -> owner:int -> bool
(** Whether slot [me] receives [owner]'s frames in full: [me] is one
    of the [quorum] slots after [owner] in ring order. *)

val local : t -> me:int -> owner:int -> bool
(** The execution rule: slot [me] materialises [owner]'s frames iff it
    owns them or receives them in full ([owner = me || wants_full]).
    It byte-compares every full frame it receives against its own
    replay; every other frame is a skeleton checked against the
    daemon's digest record. *)

val full_sources : t -> me:int -> int list
(** Every owner slot whose frames [me] receives in full, ascending.
    [List.length] is [quorum] (for [nslots > 1]). *)

val pp : Format.formatter -> t -> unit
