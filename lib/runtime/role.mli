(** YOSO roles and the speak-once discipline.

    A role is an ephemeral identity [(committee, index)].  The
    {!Registry} is the runtime's enforcement of the YOSO wrapper
    [YoS(R)]: once a role has spoken (posted to the bulletin board) it
    receives [Spoke], and any further attempt to speak raises
    {!Already_spoke}.  The registry holds no private state: a role's
    secrets live with the protocol code that uses them (e.g. a tsk
    holder's shares become unreachable once the key is handed to the
    next committee). *)

type id = { committee : string; index : int }

val id : committee:string -> index:int -> id
val to_string : id -> string
val compare : id -> id -> int

exception Already_spoke of id

module Registry : sig
  type t

  val create : unit -> t

  val speak : t -> id -> unit
  (** Marks the role as having spoken.
      @raise Already_spoke on a second call for the same id. *)

  val has_spoken : t -> id -> bool
end
