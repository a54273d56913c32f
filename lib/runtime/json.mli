(** The one JSON emitter: every report and bench artifact is built as a
    {!t} and serialized here, so comma placement, string escaping and
    float formatting live in exactly one place.

    Output is compact (no whitespace) and object fields keep the order
    they were given in, so equal values serialize to equal bytes — the
    report byte-equality oracles rely on that. *)

type t =
  | Int of int
  | Bool of bool
  | String of string
      (** escaped on output: double quote, backslash and newline by a
          backslash, other control bytes as [\u00XX]; bytes >= 0x80 pass
          through *)
  | Float of int * float
      (** [Float (decimals, x)] prints [x] with exactly [decimals]
          digits after the point ([%.*f]); a non-finite [x] prints
          [null] *)
  | List of t list
  | Obj of (string * t) list  (** fields in the order given *)
  | Raw of string
      (** spliced verbatim: a value that is already JSON text, such as a
          child process's report collected over a socket *)

val to_string : t -> string
