(** Append-only bulletin board with speak-once enforcement and cost
    accounting.

    All YOSO communication — point-to-point included — goes over the
    broadcast channel (Section 3.3: "broadcast has effectively the
    same cost as P2P"), so a single board carries the whole protocol.
    Posting charges the given element costs to the {!Cost} tally,
    marks the author as having spoken in the {!Role.Registry} and
    takes the next slot.  The board keeps no archive of post contents:
    a post's bytes are measured by the network layer ([Yoso_net]),
    and what a post says reaches its readers directly. *)

type t

val create : unit -> t

val registry : t -> Role.Registry.t
val cost : t -> Cost.t

val round : t -> int
val next_round : t -> unit

val post : t -> author:Role.id -> phase:string -> cost:(Cost.kind * int) list -> unit
(** @raise Role.Already_spoke if the author already posted. *)

val length : t -> int
(** Posts on the board so far. *)
