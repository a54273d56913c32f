(** SplitMix64 — fast, splittable, non-cryptographic PRNG.

    Used for workload generation and Monte-Carlo sampling where speed
    matters and cryptographic strength does not.  Deterministic given a
    seed, so every experiment in the benchmark harness is
    reproducible. *)

type t

val create : int64 -> t
val of_int : int -> t

val next : t -> int64
(** Next raw 64-bit output. *)

val fill_bytes : t -> Bytes.t -> int -> int -> unit
(** [fill_bytes t b off len] writes [len] bytes of the stream into [b]
    at [off]: the outputs of successive {!next} calls, each stored
    little-endian, the last one cut to its low bytes when [len] is not
    a multiple of 8.  Advances [t] exactly as that many {!next} calls
    would, without allocating per word. *)

val fold_string : int -> string -> int -> int -> int
(** [fold_string h s off len] folds the [len] bytes of [s] from [off]
    into [h] by Horner's rule in base 31, mod 2^63:
    [h * 31^len + sum_i s.[off + i] * 31^(len - 1 - i)].  Folds
    compose, [fold_string (fold_string h a 0 |a|) b 0 |b|] being the
    fold of [a ^ b].  The polynomial behind [Wire.checksum]; it takes
    eight bytes per step, in [int64] registers: the accumulator enters
    by [Int64.of_int] and leaves by [Int64.to_int], and arithmetic mod
    2^64 keeps the low 63 bits of the [int] recurrence, so the result
    is exact for every [h] in the full [int] range. *)

val fold_words : t -> int -> int -> int
(** [fold_words t h n] is [fold_string h s 0 (8 * n)] for the [s] that
    [fill_bytes t b 0 (8 * n)] would write, and advances [t] as that
    call would — without writing a byte or allocating per word. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val split : t -> t
(** An independent stream (gamma-derived), leaving [t] usable. *)

val mix : int -> int -> int
(** [mix a b] is a stateless avalanche combine of two ints into a
    62-bit non-negative value.  Used to derive independent child seeds
    from a (seed, index) pair: unlike drawing from a shared stream,
    the result depends only on its inputs, so derived seeds are stable
    under any evaluation order. *)
