(** Committee-size analysis with a corruption "gap" (Section 6).

    Generalises the tail-bound analysis of Benhamouda et al. [6] from
    corruption ratio [1/2] to [1/2 - eps]: given the sortition
    parameter [C] (expected committee size; each of the [N] parties is
    selected with probability [C/N]) and the global corruption ratio
    [f], computes

    - [eps1, eps2] — the smallest slacks satisfying Eq. (2), in the
      closed forms of Eqs. (4)-(5);
    - [t = B1 + B2 + 1] with [B1 = f C (1 + eps1)],
      [B2 = f (1-f) C (1 + eps2)] — the w.h.p. corruption bound;
    - [eps3] and the largest feasible
      [delta = (1/2 + eps) / (1/2 - eps)] satisfying Eq. (6), hence
      the gap [eps];
    - [c = t / (1/2 - eps)] — the w.h.p. committee-size lower bound;
    - [c' = 2 t + 1] — the committee size the [eps = 0] analysis of
      [6, 29] would use;
    - [k ~ c * eps] — the packing factor, i.e. the online
      communication improvement of the paper's protocol.

    Security parameters default to the paper's [k1 = 64],
    [k2 = k3 = 128]. *)

type security = { k1 : int; k2 : int; k3 : int }

type row = {
  c_param : int;   (** sortition parameter [C] *)
  f : float;       (** global corruption ratio *)
  t : int;         (** corruption bound (w.h.p.), as displayed in Table 1 *)
  t_real : float;  (** unrounded [B1 + B2 + 1] *)
  c : int;         (** committee-size lower bound with gap *)
  c' : int;        (** committee size without gap ([2t + 1]) *)
  eps : float;     (** the gap *)
  k : int;         (** packing / improvement factor *)
  eps1 : float;
  eps2 : float;
  eps3 : float;
  delta : float;
}

val solve : ?security:security -> f:float -> int -> row option
(** [solve ~f c] for sortition parameter [C = c]; [None] when the
    corruption ratio [f] is infeasible for this [C] (the ⊥ cells of
    Table 1). *)

val table1 : ?security:security -> unit -> (int * float * row option) list
(** Every cell of Table 1's [(C, f)] grid. *)

val improvement_claims :
  ?security:security -> unit -> (string * row) list
(** The two headline claims of Section 1.1.2: [f = 0.05] at [C = 1000]
    (28x, committees ~900 -> ~1000) and [f = 0.2] at [C = 20000]
    (>1000x, ~18k -> ~20k). *)
