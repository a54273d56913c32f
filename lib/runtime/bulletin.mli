(** Append-only bulletin board with speak-once enforcement and cost
    accounting.

    All YOSO communication — point-to-point included — goes over the
    broadcast channel (Section 3.3: "broadcast has effectively the
    same cost as P2P"), so a single board carries the whole protocol.
    Posting charges the given element costs to the {!Cost} tally and
    marks the author as having spoken in the {!Role.Registry}. *)

type 'msg post = private {
  seq : int;
  round : int;
  author : Role.id;
  phase : string;
  msg : 'msg;
}

type 'msg t

val create : unit -> 'msg t

val registry : 'msg t -> Role.Registry.t
val cost : 'msg t -> Cost.t

val round : 'msg t -> int
val next_round : 'msg t -> unit

val post :
  'msg t -> author:Role.id -> phase:string -> cost:(Cost.kind * int) list -> 'msg -> unit
(** @raise Role.Already_spoke if the author already posted. *)

val posts : 'msg t -> 'msg post list
(** All posts, oldest first. *)

val posts_in_round : 'msg t -> int -> 'msg post list
val posts_by : 'msg t -> Role.id -> 'msg post list
val length : 'msg t -> int
