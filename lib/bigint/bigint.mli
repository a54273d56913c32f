(** Arbitrary-precision signed integers, from scratch.

    The sealed build environment has no [zarith], and threshold
    Paillier (the paper's linearly homomorphic threshold encryption
    instantiation, Section 4.1) needs multi-hundred-bit modular
    arithmetic: this module provides it.

    Representation: sign-magnitude with little-endian 62-bit limbs.
    A limb product spans 124 bits, so inner products are computed from
    split 31-bit half-limb partial products, keeping every
    intermediate inside OCaml's 63-bit native [int] (treated as
    unsigned, exact up to [2^63 - 1]).  Halving the limb count
    relative to the earlier 30-bit representation halves the length of
    every Montgomery CIOS pass over the 1024/2048-bit Paillier moduli.
    Values are immutable and always normalised (no leading zero limbs;
    zero has positive sign and empty magnitude). *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t
val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Decimal, with optional leading ['-']. @raise Invalid_argument on
    malformed input. *)

val to_string : t -> string

val of_bytes_be : string -> t
(** Big-endian unsigned bytes. *)

val to_bytes_be : t -> string
(** Minimal big-endian encoding of the absolute value; [""] for zero. *)

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val bit_length : t -> int
(** Bits in the absolute value; [bit_length zero = 0]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Schoolbook below 16 limbs (~992 bits), Karatsuba above. *)

val divmod : t -> t -> t * t
(** Truncated division: [fst] rounds toward zero, [snd (divmod a b)]
    has the sign of [a].  @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder, always in [\[0, |b|)]. *)

val pow : t -> int -> t
(** @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t
(** @raise Invalid_argument on negative shift count. *)

val shift_right : t -> int -> t
(** @raise Invalid_argument on negative shift count. *)

(** {1 Modular and number-theoretic operations} *)

val addmod : t -> t -> t -> t
val mulmod : t -> t -> t -> t

val powmod : t -> t -> t -> t
(** [powmod b e m] with [e >= 0], [m > 0].  Dispatches to Montgomery
    exponentiation ({!Mont.powmod}) for odd multi-limb moduli and
    non-trivial exponents, and to {!powmod_naive} otherwise; the two
    always agree.
    @raise Invalid_argument if [m <= 0] or [e < 0]. *)

val powmod_naive : t -> t -> t -> t
(** Reference square-and-multiply implementation of {!powmod}, kept as
    a baseline for benchmarks and equivalence tests.
    @raise Invalid_argument if [m <= 0] or [e < 0]. *)

(** Montgomery arithmetic for a fixed odd modulus.

    The kernel works on a radix-29 repacking of the 62-bit storage
    limbs: 29-bit digits leave 34 headroom bits per word, so partial
    products accumulate column-wise with {e delayed carries} — the
    inner loops are pure multiply-accumulate over native [int]s, with
    a carry flush only every few digit pairs and one final carry pass.
    Digits are consumed two at a time (2-way blocked passes), and
    reduction is {e almost-Montgomery}: intermediate values live in
    [\[0, 2m)] and are canonicalized once at API boundaries, never per
    product.  A context precomputes [-m^-1 mod 2^29], the repacked
    modulus and [R^2 mod m].  {!Mont.powmod} adds a sliding 5-bit
    odd-window ladder on top (a 16-entry table of odd powers
    [b^(2k+1)], zero runs cost squarings only; each squaring goes
    through {!Mont.sqrmod}'s step), and {!Mont.fixed_base} keeps a
    table for a base raised to several exponents (a generator, a
    public ciphertext), so that its squarings are done once. *)
module Mont : sig
  type ctx
  (** Precomputed reduction context for one odd modulus. *)

  val create : t -> ctx
  (** @raise Invalid_argument if the modulus is even or [< 3]. *)

  val modulus : ctx -> t

  (** {2 The kernel's two steps}

      The Montgomery product and squaring the ladders are built from,
      one call each: the entry points through which the equivalence
      tests and [bench time] drive the kernel. *)

  val mulmod : ctx -> t -> t -> t
  (** The Montgomery product [a * b * R^-1 mod m] of two values in
      [\[0, m)], canonical.  (Values in Montgomery form [x * R mod m]
      stay in that form.)
      @raise Invalid_argument if an operand is not in [\[0, m)]. *)

  val sqrmod : ctx -> t -> t
  (** [a * a * R^-1 mod m] through the ladders' squaring step: a
      dedicated squaring kernel (the off-diagonal products once, one
      pass that doubles them and adds the diagonal, then the
      reduction) for moduli of 14 to 60 kernel digits (347 to 1738
      bits), the multiply elsewhere.  Always equal to [mulmod ctx a a].
      @raise Invalid_argument if the operand is not in [\[0, m)]. *)

  val powmod : ctx -> t -> t -> t
  (** [powmod ctx b e]: ordinary-domain base and result ([b] is
      reduced mod [m] internally); sliding 5-bit odd-window ladder.
      @raise Invalid_argument if [e < 0]. *)

  type fixed_base
  (** A table for one base [b] raised to many exponents: a column,
      [b^(16^j)] for each 4-bit window position [j], each entry four
      squarings from the one before.  It grows inside {!fixed_powmod}
      to the longest exponent seen, or up front by {!preload}.  An
      exponent is read from it by Yao's bucket method: one product per
      nonzero window into the bucket of its digit, then at most 28
      products to raise the 15 buckets to their digits; no squarings.
      The first use pays the squarings of a {!powmod} plus those
      products: 4-10% more than one {!powmod} at 1024 and 2048 bits.
      Each later use within the grown length is ~4x cheaper there
      ([bench time], EXPERIMENTS.md E8).  Every exponent gives
      {!powmod}'s result, bit for bit.

      {b Sharing across domains.}  {!fixed_powmod} writes to the table
      whenever an exponent is longer than every one before it (the
      column grows).  A table may be read from several domains only
      after {!preload} has covered the longest exponent any of them
      will use; until then it belongs to one domain. *)

  val fixed_base : ctx -> t -> fixed_base
  (** A table holding the column's first entry only: one conversion
      into Montgomery form.  [b] is reduced mod [m]. *)

  val fixed_powmod : fixed_base -> t -> t
  (** Same result as [powmod ctx base e], read from the column, grown
      to [e]'s length first.
      @raise Invalid_argument if [e < 0]. *)

  val preload : fixed_base -> bits:int -> unit
  (** Grow the column for [bits]-bit exponents now.  After it,
      {!fixed_powmod} on exponents of at most [bits] bits only reads
      the table, so it may be shared across domains.
      @raise Invalid_argument on negative [bits]. *)
end

val gcd : t -> t -> t
(** [gcd a b >= 0]; [gcd a 0 = |a|].  Binary (Stein) algorithm on
    working copies of the magnitudes: shift out trailing zeros,
    subtract the smaller odd value from the larger, never divide. *)

val invmod : t -> t -> t
(** [invmod a m] is the unique [x] in [\[0, |m|)] with
    [a * x = 1 (mod m)]; [invmod a 1 = 0].  Binary extended GCD: an
    odd modulus halves the two coefficients mod [m] as it shifts; an
    even one takes [x = (1 + m (a - y)) / a] for odd [a], with
    [y = m^-1 mod a] from the odd-modulus routine.
    @raise Division_by_zero if [m = 0] or [gcd a m <> 1] (so whenever
    [a] and [m] are both even). *)

val factorial : int -> t
(** @raise Invalid_argument on negative argument. *)

(** Simultaneous multi-exponentiation: [prod_i b_i^(e_i) mod m] much
    faster than independent {!powmod}s, by sharing one squaring chain
    across all bases (Straus) or bucketing digits (Pippenger); the
    chain's squarings go through {!Mont.sqrmod}'s step.  Negative
    exponents go through {!invmod} (one binary extended GCD per such
    base), so every base with a negative exponent must be coprime to
    the modulus. *)
module Multiexp : sig
  val run : Mont.ctx -> (t * t) array -> t
  (** [run ctx pairs] is [prod (b, e) in pairs. b^e mod m].  Picks
      {!straus} for small batches and {!pippenger} for large ones.
      The empty product is [1].
      @raise Division_by_zero if some [e < 0] with [gcd b m <> 1]. *)

  val straus : Mont.ctx -> (t * t) array -> t
  (** Interleaved windows: per-base tables, shared squarings.  Best
      for few bases with long exponents (Lagrange combination). *)

  val pippenger : Mont.ctx -> (t * t) array -> t
  (** Digit bucketing with suffix-product aggregation; window width
      chosen from batch size and exponent length.  Best for many
      bases (batched verification). *)
end

(** {1 Randomness and primality} *)

val random_bits : Random.State.t -> int -> t
(** Uniform in [\[0, 2^bits)].
    @raise Invalid_argument on negative bit count. *)

val random_below : Random.State.t -> t -> t
(** Uniform in [\[0, bound)]; [bound > 0]. *)

val is_probable_prime : ?rounds:int -> Random.State.t -> t -> bool
(** Miller-Rabin with [rounds] random bases (default 20), preceded by
    trial division by small primes. *)

val random_prime : Random.State.t -> bits:int -> t
(** Random prime with exactly [bits] bits (top bit set). [bits >= 2]. *)

val pp : Format.formatter -> t -> unit
