(** Committees and per-role corruption status.

    A committee is [n] roles sampled by the role-assignment layer.
    Each role is [Honest], [Passive] (honest-but-curious / "Leaky"),
    [Malicious] (arbitrary behaviour), or [Fail_stop] (honest but
    silent — the class the paper adds explicit support for in
    Section 5.4). *)

type status = Honest | Passive | Malicious | Fail_stop

type t = private { name : string; size : int; statuses : status array }

val create : name:string -> statuses:status array -> t

val honest_all : name:string -> n:int -> t

val sample :
  name:string ->
  n:int ->
  malicious:int ->
  ?passive:int ->
  ?fail_stop:int ->
  Yoso_hash.Splitmix.t ->
  t
(** Uniformly random corruption placement.
    @raise Invalid_argument if counts exceed [n]. *)

val status : t -> int -> status
val role : t -> int -> Role.id

val participates : t -> int -> bool
(** Everyone but fail-stop roles (malicious roles do participate —
    incorrectly). *)

val speaking_indices : t -> int list
val malicious_indices : t -> int list
val honest_indices : t -> int list
(** Honest + passive (they follow the protocol). *)

val count_malicious : t -> int
val count_fail_stop : t -> int
