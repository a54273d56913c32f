(** Communication-cost accounting.

    The paper measures complexity in broadcast *elements* (field or
    ring elements; in YOSO one-to-one costs the same as one-to-all, so
    everything is a broadcast post).  Costs are tallied per phase
    ("setup" / "offline" / "online") and per element kind, so the
    benchmark harness can report exactly the quantities of Theorem 1:
    offline elements per gate and online elements per gate.  Measured
    wire bytes are not counted here but in [Yoso_net.Meter]. *)

type kind =
  | Field_element     (** one plaintext ring element *)
  | Ciphertext        (** one TE or PKE ciphertext *)
  | Proof             (** one NIZK proof *)
  | Partial_decryption
  | Key               (** one public key *)

val kind_to_string : kind -> string
val all_kinds : kind list

type t

val create : unit -> t
val charge : t -> phase:string -> kind -> int -> unit

val count : t -> phase:string -> kind -> int

val elements : t -> phase:string -> int
(** Total elements charged in a phase, all kinds summed — the paper's
    headline metric. *)

val grand_total : t -> int
val phases : t -> string list

val merge_into : ?map_phase:(string -> string) -> dst:t -> t -> unit
(** Adds every count of [src] into [dst].  [map_phase] (default
    identity) renames phases on the way in — the offline factory uses
    it to aggregate the per-circuit ["offline"] charges of background
    refill runs under the ["factory"] phase, keeping refill traffic
    separable from one-shot offline traffic in merged reports. *)

val pp : Format.formatter -> t -> unit
