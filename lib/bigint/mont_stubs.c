/* The Montgomery kernel of Bigint.Mont: a multiply and a squaring on
   little-endian arrays of native 64-bit limbs held in OCaml [bytes],
   with 128-bit products from [unsigned __int128].

   A modulus operand [km] holds L limbs of the odd modulus m followed
   by one more limb, m' = -m^-1 mod 2^64; L is read off its length.
   Every other operand is L limbs starting at a limb offset into its
   [bytes], so a table of several values can live in one buffer.  The
   caller supplies [scratch], at least 2L + 2 limbs, and keeps every
   operand in [0, m); the result is fully reduced, in [0, m), and is
   written only after the last read of the operands, so [dst] may
   alias [a] or [b].  Nothing here allocates, raises or touches the
   OCaml runtime, which is what [@@noalloc] promises the compiler. */

#include <stdint.h>
#include <caml/mlvalues.h>

typedef uint64_t limb;
typedef unsigned __int128 dlimb;

#define LIMBS(v, off) ((limb *)Bytes_val(v) + (off))

/* dst <- t - m if (hi, t) >= m, else t; (hi, t) < 2m */
static void reduce_once(limb *dst, const limb *t, limb hi, const limb *m, intnat l)
{
  int ge = hi != 0;
  if (!ge) {
    intnat j = l - 1;
    while (j >= 0 && t[j] == m[j]) j--;
    ge = j < 0 || t[j] > m[j];
  }
  if (ge) {
    limb borrow = 0;
    for (intnat j = 0; j < l; j++) {
      limb x = t[j], y = m[j];
      limb d = x - y - borrow;
      borrow = (x < y) | ((x == y) & borrow);
      dst[j] = d;
    }
  } else {
    for (intnat j = 0; j < l; j++) dst[j] = t[j];
  }
}

/* CIOS (coarsely integrated operand scanning): each outer step adds
   a * b_i to the running value t (L + 2 limbs), then mu * m, which
   clears its low limb, and shifts t down one limb.  Every partial sum
   x*y + s + c is at most (2^64 - 1)^2 + 2 (2^64 - 1) = 2^128 - 1, so
   it fits a dlimb; t stays below 2m < 2^(64L + 1), so limb L is 0 or
   1 at the end of a step.  (Fusing the two inner loops into one, with
   two carry chains, measured ~10% slower with gcc at L = 16 and 32.) */
value yoso_mont_mul(value vdst, intnat doff, value va, intnat aoff, value vb, intnat boff,
                    value vkm, value vscratch)
{
  const intnat l = (intnat)(caml_string_length(vkm) / 8) - 1;
  const limb *a = LIMBS(va, aoff), *b = LIMBS(vb, boff), *m = LIMBS(vkm, 0);
  const limb minv = m[l];
  limb *t = LIMBS(vscratch, 0);
  for (intnat j = 0; j < l + 2; j++) t[j] = 0;
  for (intnat i = 0; i < l; i++) {
    const limb bi = b[i];
    limb c = 0;
    for (intnat j = 0; j < l; j++) {
      dlimb p = (dlimb)a[j] * bi + t[j] + c;
      t[j] = (limb)p;
      c = (limb)(p >> 64);
    }
    dlimb s = (dlimb)t[l] + c;
    t[l] = (limb)s;
    t[l + 1] = (limb)(s >> 64);
    const limb mu = t[0] * minv;
    dlimb q = (dlimb)mu * m[0] + t[0]; /* low limb is 0 by the choice of mu */
    c = (limb)(q >> 64);
    for (intnat j = 1; j < l; j++) {
      q = (dlimb)mu * m[j] + t[j] + c;
      t[j - 1] = (limb)q;
      c = (limb)(q >> 64);
    }
    s = (dlimb)t[l] + c;
    t[l - 1] = (limb)s;
    t[l] = t[l + 1] + (limb)(s >> 64);
  }
  reduce_once(LIMBS(vdst, doff), t, t[l], m, l);
  return Val_unit;
}

value yoso_mont_mul_byte(value *argv, int argn)
{
  (void)argn;
  return yoso_mont_mul(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]), argv[4],
                       Long_val(argv[5]), argv[6], argv[7]);
}

/* a^2 R^-1 mod m in three passes over t (2L limbs): the off-diagonal
   products a_i a_j (i < j), each once; one pass that doubles them and
   adds the diagonal a_i^2; then REDC, one mu per low limb, whose carry
   out of limb i + L waits in [top] for the next step's add at that
   limb.  That is L(L - 1)/2 + L products for a^2 and L^2 for the
   reduction, against the multiply's 2 L^2.  Sums are bounded as in the
   multiply, and a^2 < 2^(128L) leaves no carry out of the doubling. */
value yoso_mont_sqr(value vdst, intnat doff, value va, intnat aoff, value vkm, value vscratch)
{
  const intnat l = (intnat)(caml_string_length(vkm) / 8) - 1;
  const limb *a = LIMBS(va, aoff), *m = LIMBS(vkm, 0);
  const limb minv = m[l];
  limb *t = LIMBS(vscratch, 0);
  for (intnat j = 0; j < 2 * l; j++) t[j] = 0;
  for (intnat i = 0; i < l - 1; i++) {
    const limb ai = a[i];
    limb c = 0;
    for (intnat j = i + 1; j < l; j++) {
      dlimb p = (dlimb)ai * a[j] + t[i + j] + c;
      t[i + j] = (limb)p;
      c = (limb)(p >> 64);
    }
    t[i + l] = c;
  }
  limb shifted = 0, c = 0;
  for (intnat i = 0; i < l; i++) {
    const limb lo = t[2 * i], hi = t[2 * i + 1];
    const dlimb sq = (dlimb)a[i] * a[i];
    dlimb s = (dlimb)((lo << 1) | shifted) + (limb)sq + c;
    t[2 * i] = (limb)s;
    s = (dlimb)((hi << 1) | (lo >> 63)) + (limb)(sq >> 64) + (limb)(s >> 64);
    t[2 * i + 1] = (limb)s;
    c = (limb)(s >> 64);
    shifted = hi >> 63;
  }
  limb top = 0;
  for (intnat i = 0; i < l; i++) {
    const limb mu = t[i] * minv;
    limb cr = 0;
    for (intnat j = 0; j < l; j++) {
      dlimb p = (dlimb)mu * m[j] + t[i + j] + cr;
      t[i + j] = (limb)p;
      cr = (limb)(p >> 64);
    }
    dlimb s = (dlimb)t[i + l] + cr + top;
    t[i + l] = (limb)s;
    top = (limb)(s >> 64);
  }
  reduce_once(LIMBS(vdst, doff), t + l, top, m, l);
  return Val_unit;
}

value yoso_mont_sqr_byte(value *argv, int argn)
{
  (void)argn;
  return yoso_mont_sqr(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]), argv[4],
                       argv[5]);
}
