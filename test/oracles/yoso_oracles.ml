(* Independent oracles for the code in the libraries, kept out of
   them: nothing shipped links this library.
   - [Poly]: random polynomials under Horner's rule, the reference for
     Barycentric interpolation.
   - [Checksum]: the frame checksum's polynomial a byte at a time, the
     reference for [Splitmix.fold_string], [Splitmix.fold_words] and
     [Wire.checksum].
   - [Euclid]: gcd, extended gcd and inverse by repeated division,
     the reference for the binary [Bigint.gcd] and [Bigint.invmod].
   - [Mont_form]: Montgomery form in and out through the public
     Montgomery product alone.
   - [Kernel29], [Narrow] and [multiexp_naive]: the two retired
     Montgomery kernels (29-bit digits with delayed carries, and 30-bit
     limbs with a carry per step) and the product of independent
     powmods, the baselines and oracles for [Bigint.Mont] and
     [Bigint.Multiexp].
   - [Paillier], [Threshold], [Sigma]: each function is
     written from the scheme's defining formula on
     [Bigint.powmod_naive] and recomputes every derived constant
     (Delta, the Lagrange weights, theta_e) itself: it shares the key
     records and the bigint primitives with the code it checks, and
     nothing else.  Values are raw residues, not library
     ciphertexts. *)

module B = Yoso_bigint.Bigint
module P = Yoso_paillier.Paillier
module T = Yoso_paillier.Threshold

(* A random polynomial as its coefficient array (constant term first),
   evaluated by Horner's rule: the reference Barycentric
   interpolation must agree with. *)
module Poly (F : Yoso_field.Field.S) = struct
  let random ~degree st = Array.init (degree + 1) (fun _ -> F.random st)
  let eval p x = Array.fold_right (fun c acc -> F.add (F.mul acc x) c) p F.zero
end

(* The polynomial behind the frame checksum, byte at a time by
   Horner's rule in base 31: no words, no lanes, no [int64]. *)
module Checksum = struct
  (* [h * 31^|s| + sum_i s.[i] * 31^(|s| - 1 - i)], unreduced: mod
     2^63 by the [int] wraparound, for any [h] *)
  let fold h s = String.fold_left (fun h c -> (h * 31) + Char.code c) h s

  (* [Wire.checksum]'s definition, reduced mod 2^62 after every byte *)
  let checksum s = String.fold_left (fun h c -> ((h * 31) + Char.code c) land max_int) 0x1505 s
end

(* Euclid's algorithm, one [divmod] per step: the library's gcd and
   inverse before they became binary, kept as their reference *)
module Euclid = struct
  let rec gcd a b = if B.is_zero b then B.abs a else gcd b (B.rem a b)

  (* (g, x, y) with a x + b y = g = gcd a b >= 0 *)
  let extended_gcd a b =
    (* invariant: r = a*x + b*y at each step *)
    let rec go r0 x0 y0 r1 x1 y1 =
      if B.is_zero r1 then (r0, x0, y0)
      else begin
        let q, r2 = B.divmod r0 r1 in
        go r1 x1 y1 r2 (B.sub x0 (B.mul q x1)) (B.sub y0 (B.mul q y1))
      end
    in
    let g, x, y = go a B.one B.zero b B.zero B.one in
    if B.sign g < 0 then (B.neg g, B.neg x, B.neg y) else (g, x, y)

  let invmod a m =
    let g, x, _ = extended_gcd (B.erem a m) m in
    if not (B.is_one g) then raise Division_by_zero;
    B.erem x m
end

(* x R mod m and back, where R^-1 = mulmod 1 1: only the public
   Montgomery product and the Euclid inverse, no kernel constants *)
module Mont_form = struct
  let to_mont ctx x =
    let m = B.Mont.modulus ctx in
    B.mulmod x (Euclid.invmod (B.Mont.mulmod ctx B.one B.one) m) m

  let of_mont ctx x = B.Mont.mulmod ctx x B.one
end

(* b^e mod m for either sign of e *)
let pow_signed pow b e m =
  if B.sign e >= 0 then pow b e m else pow (B.invmod b m) (B.neg e) m

(* little-endian [bits]-bit digits of [0 <= x < 2^(bits l)], a
   bit-stream copy of its big-endian bytes, and back: how the retired
   kernels below cut their operands from the public [Bigint] API, once
   per operation, outside their ladders *)
let digits ~bits ~l x =
  let s = B.to_bytes_be x in
  let n = String.length s in
  let mask = (1 lsl bits) - 1 in
  let a = Array.make l 0 in
  for k = 0 to n - 1 do
    let byte = Char.code s.[n - 1 - k] in
    let i = 8 * k / bits and off = 8 * k mod bits in
    a.(i) <- a.(i) lor ((byte lsl off) land mask);
    if off + 8 > bits && i + 1 < l then a.(i + 1) <- a.(i + 1) lor (byte lsr (bits - off))
  done;
  a

let of_digits ~bits a =
  let l = Array.length a in
  let nbytes = ((bits * l) + 7) / 8 in
  B.of_bytes_be
    (String.init nbytes (fun j ->
         let k = nbytes - 1 - j in
         let i = 8 * k / bits and off = 8 * k mod bits in
         let v = a.(i) lsr off in
         let v = if off + 8 > bits && i + 1 < l then v lor (a.(i + 1) lsl (bits - off)) else v in
         Char.chr (v land 0xff)))

(* The library's Montgomery kernel before it moved to C on 64-bit
   limbs, kept as the reference the C kernel is checked against and the
   baseline [bench time] measures it against.  29-bit digits leave 5
   headroom bits in a 63-bit int, so columns take raw (uncarried)
   product sums, with a carry flush every few passes; the multiply
   consumes two digits of b per pass, and the squaring step (off-diagonal
   products once, a doubling pass, then a four-column lazy REDC) runs
   for 14 to 60 digits, the bound its column sums allow.  Results are
   almost-Montgomery, below 2m, and canonicalized once at the end;
   R = 2^(29 l) with l even and R >= 4m. *)
module Kernel29 = struct
  let kbits = 29
  let kbase = 1 lsl kbits
  let kmask = kbase - 1

  type ctx = {
    modulus : B.t;
    km : int array;     (* modulus digits, length l *)
    l : int;            (* digit count, even *)
    m' : int;           (* -m^-1 mod 2^29 *)
    r2 : int array;     (* R^2 mod m *)
    unit : int array;   (* the plain integer 1 *)
  }

  let create m =
    if B.sign m <= 0 || B.is_even m || B.compare m (B.of_int 3) < 0 then
      invalid_arg "Kernel29.create: modulus must be odd and >= 3";
    (* R = 2^(29 l) >= 4m, and l even for the 2-digit passes *)
    let l = (B.bit_length m + 2 + kbits - 1) / kbits in
    let l = if l land 1 = 1 then l + 1 else l in
    let km = digits ~bits:kbits ~l m in
    (* Newton iteration for m0^-1 mod 2^29: 2, 4, 8, 16, 32 bits *)
    let x = ref 1 in
    for _ = 1 to 5 do
      x := (!x * (2 - (km.(0) * !x))) land kmask
    done;
    let r = B.shift_left B.one (l * kbits) in
    let unit = Array.make l 0 in
    unit.(0) <- 1;
    { modulus = m; km; l; m' = (kbase - !x) land kmask;
      r2 = digits ~bits:kbits ~l (B.erem (B.mul r r) m); unit }

  (* dst <- a b R^-1, below 2m for operands below 2m.  Each pass takes
     digits i and i+1 of b: mu0 from the low digit of raw column i,
     column i+1 gets all its other terms before mu1 is read off it, and
     the inner loop adds four products to a column in one load/store.
     Between flushes (every 6 passes) a column holds at most 24
     products < 2^58 plus small carries: inside 63 bits. *)
  let mont_mul_into ctx tbuf dst a b =
    let l = ctx.l and km = ctx.km and m' = ctx.m' in
    Array.fill tbuf 0 ((2 * l) + 1) 0;
    let npairs = l / 2 in
    let a0 = Array.unsafe_get a 0 and m0 = Array.unsafe_get km 0 in
    for p = 0 to npairs - 1 do
      let i = 2 * p in
      let bi0 = Array.unsafe_get b i and bi1 = Array.unsafe_get b (i + 1) in
      let t0 = Array.unsafe_get tbuf i + (a0 * bi0) in
      let mu0 = (t0 * m') land kmask in
      let f0 = (t0 + (mu0 * m0)) lsr kbits in
      let t1 =
        Array.unsafe_get tbuf (i + 1) + f0
        + (Array.unsafe_get a 1 * bi0)
        + (mu0 * Array.unsafe_get km 1)
        + (a0 * bi1)
      in
      let mu1 = (t1 * m') land kmask in
      let f1 = (t1 + (mu1 * m0)) lsr kbits in
      Array.unsafe_set tbuf (i + 2) (Array.unsafe_get tbuf (i + 2) + f1);
      for j = 2 to l - 1 do
        let idx = i + j in
        Array.unsafe_set tbuf idx
          (Array.unsafe_get tbuf idx
          + (Array.unsafe_get a j * bi0)
          + (mu0 * Array.unsafe_get km j)
          + (Array.unsafe_get a (j - 1) * bi1)
          + (mu1 * Array.unsafe_get km (j - 1)))
      done;
      let idx = i + l in
      Array.unsafe_set tbuf idx
        (Array.unsafe_get tbuf idx
        + (Array.unsafe_get a (l - 1) * bi1)
        + (mu1 * Array.unsafe_get km (l - 1)));
      if (p + 1) mod 6 = 0 && p < npairs - 1 then begin
        let c = ref 0 in
        for k = i + 2 to i + l + 1 do
          let v = Array.unsafe_get tbuf k + !c in
          Array.unsafe_set tbuf k (v land kmask);
          c := v lsr kbits
        done;
        Array.unsafe_set tbuf (i + l + 2) (Array.unsafe_get tbuf (i + l + 2) + !c)
      end
    done;
    let c = ref 0 in
    for j = 0 to l - 1 do
      let v = Array.unsafe_get tbuf (l + j) + !c in
      Array.unsafe_set dst j (v land kmask);
      c := v lsr kbits
    done

  (* dst <- a^2 R^-1, as [mont_mul_into a a], for 4 <= l <= 60: the
     off-diagonal products two rows per pass (a column takes at most
     l/2 of them, 30 * 2^58 < 2^63 at l = 60), one pass that doubles
     them and adds the diagonal without a carry chain, then the REDC
     four columns per pass (one 2-column pass first when l = 2 mod 4)
     with a flush every 7 passes *)
  let sqr_flush = 7

  let mont_sqr_kernel ctx tbuf dst a =
    let l = ctx.l and km = ctx.km and m' = ctx.m' in
    Array.fill tbuf 0 ((2 * l) + 1) 0;
    let i = ref 0 in
    while !i < l - 2 do
      let i0 = !i in
      let ai0 = Array.unsafe_get a i0 and ai1 = Array.unsafe_get a (i0 + 1) in
      let c = (2 * i0) + 1 in
      Array.unsafe_set tbuf c (Array.unsafe_get tbuf c + (ai0 * ai1));
      Array.unsafe_set tbuf (c + 1)
        (Array.unsafe_get tbuf (c + 1) + (ai0 * Array.unsafe_get a (i0 + 2)));
      for j = i0 + 3 to l - 1 do
        let idx = i0 + j in
        Array.unsafe_set tbuf idx
          (Array.unsafe_get tbuf idx
          + (ai0 * Array.unsafe_get a j)
          + (ai1 * Array.unsafe_get a (j - 1)))
      done;
      let idx = i0 + l in
      Array.unsafe_set tbuf idx (Array.unsafe_get tbuf idx + (ai1 * Array.unsafe_get a (l - 1)));
      i := i0 + 2
    done;
    let c = (2 * l) - 3 in
    Array.unsafe_set tbuf c
      (Array.unsafe_get tbuf c + (Array.unsafe_get a (l - 2) * Array.unsafe_get a (l - 1)));
    let hi_prev = ref 0 in
    for h = 0 to l - 1 do
      let ah = Array.unsafe_get a h in
      let k = 2 * h in
      let v = Array.unsafe_get tbuf k and v' = Array.unsafe_get tbuf (k + 1) in
      Array.unsafe_set tbuf k ((2 * (v land kmask)) + (ah * ah) + !hi_prev);
      Array.unsafe_set tbuf (k + 1) ((2 * (v' land kmask)) + (2 * (v lsr kbits)));
      hi_prev := 2 * (v' lsr kbits)
    done;
    let m0 = Array.unsafe_get km 0 and m1 = Array.unsafe_get km 1 in
    let start =
      if l land 3 = 0 then 0
      else begin
        let t0 = Array.unsafe_get tbuf 0 in
        let mu0 = (t0 * m') land kmask in
        let f0 = (t0 + (mu0 * m0)) lsr kbits in
        let t1 = Array.unsafe_get tbuf 1 + f0 + (mu0 * m1) in
        let mu1 = (t1 * m') land kmask in
        let f1 = (t1 + (mu1 * m0)) lsr kbits in
        Array.unsafe_set tbuf 2 (Array.unsafe_get tbuf 2 + f1);
        for j = 2 to l - 1 do
          Array.unsafe_set tbuf j
            (Array.unsafe_get tbuf j
            + (mu0 * Array.unsafe_get km j)
            + (mu1 * Array.unsafe_get km (j - 1)))
        done;
        Array.unsafe_set tbuf l (Array.unsafe_get tbuf l + (mu1 * Array.unsafe_get km (l - 1)));
        2
      end
    in
    let m2 = Array.unsafe_get km 2 and m3 = Array.unsafe_get km 3 in
    let nq = (l - start) / 4 in
    for q = 0 to nq - 1 do
      let i = start + (4 * q) in
      let t0 = Array.unsafe_get tbuf i in
      let mu0 = (t0 * m') land kmask in
      let f0 = (t0 + (mu0 * m0)) lsr kbits in
      let t1 = Array.unsafe_get tbuf (i + 1) + f0 + (mu0 * m1) in
      let mu1 = (t1 * m') land kmask in
      let f1 = (t1 + (mu1 * m0)) lsr kbits in
      let t2 = Array.unsafe_get tbuf (i + 2) + f1 + (mu0 * m2) + (mu1 * m1) in
      let mu2 = (t2 * m') land kmask in
      let f2 = (t2 + (mu2 * m0)) lsr kbits in
      let t3 = Array.unsafe_get tbuf (i + 3) + f2 + (mu0 * m3) + (mu1 * m2) + (mu2 * m1) in
      let mu3 = (t3 * m') land kmask in
      let f3 = (t3 + (mu3 * m0)) lsr kbits in
      Array.unsafe_set tbuf (i + 4) (Array.unsafe_get tbuf (i + 4) + f3);
      for j = 4 to l - 1 do
        let idx = i + j in
        Array.unsafe_set tbuf idx
          (Array.unsafe_get tbuf idx
          + (mu0 * Array.unsafe_get km j)
          + (mu1 * Array.unsafe_get km (j - 1))
          + (mu2 * Array.unsafe_get km (j - 2))
          + (mu3 * Array.unsafe_get km (j - 3)))
      done;
      let idx = i + l in
      Array.unsafe_set tbuf idx
        (Array.unsafe_get tbuf idx
        + (mu1 * Array.unsafe_get km (l - 1))
        + (mu2 * Array.unsafe_get km (l - 2))
        + (mu3 * Array.unsafe_get km (l - 3)));
      Array.unsafe_set tbuf (idx + 1)
        (Array.unsafe_get tbuf (idx + 1)
        + (mu2 * Array.unsafe_get km (l - 1))
        + (mu3 * Array.unsafe_get km (l - 2)));
      Array.unsafe_set tbuf (idx + 2)
        (Array.unsafe_get tbuf (idx + 2) + (mu3 * Array.unsafe_get km (l - 1)));
      if (q + 1) mod sqr_flush = 0 && q < nq - 1 then begin
        let c = ref 0 in
        for k = i + 4 to i + l + 3 do
          let v = Array.unsafe_get tbuf k + !c in
          Array.unsafe_set tbuf k (v land kmask);
          c := v lsr kbits
        done;
        Array.unsafe_set tbuf (i + l + 4) (Array.unsafe_get tbuf (i + l + 4) + !c)
      end
    done;
    let c = ref 0 in
    for j = 0 to l - 1 do
      let v = Array.unsafe_get tbuf (l + j) + !c in
      Array.unsafe_set dst j (v land kmask);
      c := v lsr kbits
    done

  (* the squaring step's gate: the top is its column bound, the bottom
     where it measured ahead of the multiply *)
  let sqr_min_limbs = 14
  let sqr_max_limbs = 60

  let sqr_into ctx tbuf dst a =
    if ctx.l >= sqr_min_limbs && ctx.l <= sqr_max_limbs then mont_sqr_kernel ctx tbuf dst a
    else mont_mul_into ctx tbuf dst a a

  (* reduce a value below 2m into [0, m), in place *)
  let canon ctx dst =
    let l = ctx.l and km = ctx.km in
    let ge =
      let rec go j =
        if j < 0 then true else if dst.(j) <> km.(j) then dst.(j) > km.(j) else go (j - 1)
      in
      go (l - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for j = 0 to l - 1 do
        let d = Array.unsafe_get dst j - Array.unsafe_get km j - !borrow in
        Array.unsafe_set dst j (d land kmask);
        borrow := d lsr 62
      done
    end

  let scratch ctx = Array.make ((2 * ctx.l) + 1) 0

  (* x mod m into Montgomery form, and a Montgomery-form value out *)
  let to_mont ctx tbuf x =
    let d = Array.make ctx.l 0 in
    mont_mul_into ctx tbuf d (digits ~bits:kbits ~l:ctx.l (B.erem x ctx.modulus)) ctx.r2;
    d

  let of_mont ctx tbuf x =
    let d = Array.make ctx.l 0 in
    mont_mul_into ctx tbuf d x ctx.unit;
    canon ctx d;
    of_digits ~bits:kbits d

  (* a b mod m and a^2 mod m, through the multiply and the squaring step *)
  let mulmod ctx a b =
    let tbuf = scratch ctx in
    let d = to_mont ctx tbuf a in
    mont_mul_into ctx tbuf d d (to_mont ctx tbuf b);
    of_mont ctx tbuf d

  let sqrmod ctx a =
    let tbuf = scratch ctx in
    let d = to_mont ctx tbuf a in
    sqr_into ctx tbuf d d;
    of_mont ctx tbuf d

  (* b^e mod m for e >= 0: the library's sliding 5-bit odd-window ladder
     as it ran on this kernel *)
  let powmod ctx b e =
    if B.sign e < 0 then invalid_arg "Kernel29.powmod: negative exponent";
    let ebits = B.bit_length e in
    if ebits = 0 then B.one
    else begin
      let l = ctx.l in
      let tbuf = scratch ctx in
      let ed = digits ~bits:kbits ~l:((ebits + kbits - 1) / kbits) e in
      (* [len] bits of e from bit [pos], len <= 5 *)
      let bitfield pos len =
        let i = pos / kbits and off = pos mod kbits in
        let v = ed.(i) lsr off in
        let v = if off + len > kbits && i + 1 < Array.length ed then v lor (ed.(i + 1) lsl (kbits - off)) else v in
        v land ((1 lsl len) - 1)
      in
      let bm = to_mont ctx tbuf b in
      let tsize = if ebits >= 5 then 16 else 1 lsl (ebits - 1) in
      let tbl = Array.make tsize bm in
      if tsize > 1 then begin
        let b2 = Array.make l 0 in
        sqr_into ctx tbuf b2 bm;
        for k = 1 to tsize - 1 do
          let d = Array.make l 0 in
          mont_mul_into ctx tbuf d tbl.(k - 1) b2;
          tbl.(k) <- d
        done
      end;
      let wstart i =
        let s = ref (if i >= 4 then i - 4 else 0) in
        while bitfield !s 1 = 0 do incr s done;
        !s
      in
      let acc = Array.make l 0 in
      let i = ref (ebits - 1) in
      let s = wstart !i in
      Array.blit tbl.(bitfield s (!i - s + 1) lsr 1) 0 acc 0 l;
      i := s - 1;
      while !i >= 0 do
        if bitfield !i 1 = 0 then begin
          sqr_into ctx tbuf acc acc;
          decr i
        end
        else begin
          let s = wstart !i in
          for _ = 1 to !i - s + 1 do
            sqr_into ctx tbuf acc acc
          done;
          mont_mul_into ctx tbuf acc acc tbl.(bitfield s (!i - s + 1) lsr 1);
          i := s - 1
        end
      done;
      of_mont ctx tbuf acc
    end
end

(* The retired 30-bit-limb CIOS Montgomery kernel, one carry per step:
   an independent powmod oracle for the backend-equality tests, sharing
   nothing with the library's kernel but the public [Bigint] API. *)
module Narrow = struct
  let nbits = 30
  let nbase = 1 lsl nbits
  let nmask = nbase - 1

  type ctx = {
    modulus : B.t;
    mm : int array;     (* modulus in 30-bit limbs, length l *)
    l : int;
    m' : int;           (* -m^-1 mod 2^30 *)
    r2 : int array;     (* R^2 mod m, R = 2^(30 l) *)
    one_m : int array;  (* R mod m *)
    unit : int array;   (* the plain integer 1 *)
  }

  let limbs ~l x = digits ~bits:nbits ~l x
  let of_limbs a = of_digits ~bits:nbits a

  let create m =
    if B.sign m <= 0 || B.is_even m || B.compare m (B.of_int 3) < 0 then
      invalid_arg "Narrow.create: modulus must be odd and >= 3";
    let l = (B.bit_length m + nbits - 1) / nbits in
    let mm = limbs ~l m in
    let x = ref 1 in
    for _ = 1 to 5 do
      x := (!x * (2 - (mm.(0) * !x))) land nmask
    done;
    let r = B.shift_left B.one (l * nbits) in
    let unit = Array.make l 0 in
    unit.(0) <- 1;
    {
      modulus = m;
      mm;
      l;
      m' = (nbase - !x) land nmask;
      r2 = limbs ~l (B.erem (B.mul r r) m);
      one_m = limbs ~l (B.erem r m);
      unit;
    }

  (* dst := a * b * R^-1 mod m, one carry per step *)
  let mont_mul_into ctx tbuf dst a b =
    let l = ctx.l and mm = ctx.mm and m' = ctx.m' in
    Array.fill tbuf 0 (l + 2) 0;
    for i = 0 to l - 1 do
      let bi = Array.unsafe_get b i in
      let t0 = Array.unsafe_get tbuf 0 + (Array.unsafe_get a 0 * bi) in
      let mu = (t0 * m') land nmask in
      let c = ref ((t0 + (mu * Array.unsafe_get mm 0)) lsr nbits) in
      for j = 1 to l - 1 do
        let p =
          Array.unsafe_get tbuf j + (Array.unsafe_get a j * bi) + (mu * Array.unsafe_get mm j)
        in
        let p = p + !c in
        Array.unsafe_set tbuf (j - 1) (p land nmask);
        c := p lsr nbits
      done;
      let p = Array.unsafe_get tbuf l + !c in
      Array.unsafe_set tbuf (l - 1) (p land nmask);
      Array.unsafe_set tbuf l (Array.unsafe_get tbuf (l + 1) + (p lsr nbits));
      Array.unsafe_set tbuf (l + 1) 0
    done;
    let ge =
      tbuf.(l) > 0
      ||
      let rec go i =
        if i < 0 then true else if tbuf.(i) <> mm.(i) then tbuf.(i) > mm.(i) else go (i - 1)
      in
      go (l - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for j = 0 to l - 1 do
        let d = Array.unsafe_get tbuf j - Array.unsafe_get mm j - !borrow in
        if d < 0 then begin
          Array.unsafe_set dst j (d + nbase);
          borrow := 1
        end
        else begin
          Array.unsafe_set dst j d;
          borrow := 0
        end
      done
    end
    else Array.blit tbuf 0 dst 0 l

  (* 4-bit window of a 30-bit limb magnitude starting at bit 4j *)
  let window30 mag j =
    let pos = 4 * j in
    let limb = pos / nbits and off = pos mod nbits in
    let len = Array.length mag in
    let v = if limb < len then mag.(limb) lsr off else 0 in
    let v = if off + 4 > nbits && limb + 1 < len then v lor (mag.(limb + 1) lsl (nbits - off)) else v in
    v land 15

  (* b^e mod m, ordinary-domain base and result: 4-bit windowed ladder *)
  let powmod ctx b e =
    if B.sign e < 0 then invalid_arg "Narrow.powmod: negative exponent";
    let ebits = B.bit_length e in
    if ebits = 0 then B.one
    else begin
      let l = ctx.l in
      let e30 = limbs ~l:((ebits + nbits - 1) / nbits) e in
      let tbuf = Array.make (l + 2) 0 in
      let bm = Array.make l 0 in
      mont_mul_into ctx tbuf bm (limbs ~l (B.erem b ctx.modulus)) ctx.r2;
      let tbl = Array.make 16 ctx.one_m in
      tbl.(1) <- bm;
      for w = 2 to 15 do
        let d = Array.make l 0 in
        mont_mul_into ctx tbuf d tbl.(w - 1) bm;
        tbl.(w) <- d
      done;
      let nw = (ebits + 3) / 4 in
      let acc = Array.copy tbl.(window30 e30 (nw - 1)) in
      for j = nw - 2 downto 0 do
        for _ = 1 to 4 do
          mont_mul_into ctx tbuf acc acc acc
        done;
        let w = window30 e30 j in
        if w <> 0 then mont_mul_into ctx tbuf acc acc tbl.(w)
      done;
      let dst = Array.make l 0 in
      mont_mul_into ctx tbuf dst acc ctx.unit;
      of_limbs dst
    end
end

(* prod_i b_i^(e_i) mod m as independent exponentiations folded into
   one product: the baseline the library's Straus and Pippenger
   multi-exponentiations must agree with *)
let multiexp_naive ctx pairs =
  let m = B.Mont.modulus ctx in
  Array.fold_left
    (fun acc (b, e) ->
      let b, e = if B.sign e < 0 then (B.invmod b m, B.neg e) else (b, e) in
      B.mulmod acc (B.Mont.powmod ctx b e) m)
    B.one pairs

module Paillier = struct
  (* g^m for g = 1 + N: by the binomial theorem every term past m*N
     vanishes mod N^2 (the tests pin this against powmod_naive) *)
  let g_pow (pk : P.public_key) m = B.erem (B.add B.one (B.mul (B.erem m pk.n) pk.n)) pk.n2

  (* Enc(m; r) = g^m r^N mod N^2 *)
  let encrypt_with (pk : P.public_key) ~r m =
    B.mulmod (g_pow pk m) (B.powmod_naive r pk.n pk.n2) pk.n2

  (* Dec(c) = L(c^lambda mod N^2) mu mod N, L(x) = (x - 1) / N *)
  let decrypt (sk : P.secret_key) c =
    let pk = sk.pk in
    let x = B.powmod_naive c sk.lambda pk.n2 in
    B.erem (B.mul (B.div (B.sub x B.one) pk.n) sk.mu) pk.n

  (* c^s encrypts s*m *)
  let scalar_mul (pk : P.public_key) s c = B.powmod_naive c (B.erem s pk.n) pk.n2

  (* prod_i c_i^k_i encrypts sum_i k_i m_i *)
  let linear_combination (pk : P.public_key) cs ks =
    List.fold_left2 (fun acc c k -> B.mulmod acc (scalar_mul pk k c) pk.n2) B.one cs ks
end

module Threshold = struct
  (* Delta = n! *)
  let delta n =
    let rec go acc i = if i > n then acc else go (B.mul acc (B.of_int i)) (i + 1) in
    go B.one 1

  (* Delta * l_i(0) = Delta * prod_{j <> i} j / (j - i), exact over
     the integers because every denominator divides Delta *)
  let lagrange_weight ~delta subset i =
    let num, den =
      List.fold_left
        (fun (num, den) j ->
          if j = i then (num, den) else (B.mul num (B.of_int j), B.mul den (B.of_int (j - i))))
        (delta, B.one) subset
    in
    let q, r = B.divmod num den in
    if not (B.is_zero r) then failwith "oracle: non-integral Lagrange weight";
    q

  (* theta_e = 4 Delta^2 (2 Delta^2)^e mod N *)
  let theta (tpk : T.tpk) epoch =
    let n = tpk.pk.n in
    let d2 = B.mul (delta tpk.n_parties) (delta tpk.n_parties) in
    B.erem (B.mul (B.mul (B.of_int 4) d2) (B.powmod_naive (B.mul B.two d2) (B.of_int epoch) n)) n

  (* TPDec: d_i = c^(2 Delta s_i) mod N^2 *)
  let partial_decrypt (tpk : T.tpk) (share : T.key_share) c =
    let e = B.mul B.two (B.mul (delta tpk.n_parties) share.value) in
    T.unsafe_partial ~index:share.index ~epoch:share.epoch
      ~d:(pow_signed B.powmod_naive c e tpk.pk.n2)

  (* TDec over the first t+1 distinct indices: prod d_i^(2 Delta l_i(0))
     = 1 + (m theta_e mod N) N, one exponentiation per partial.  [pow]
     defaults to powmod_naive; the per-partial Montgomery baseline
     passes the library's context powmod instead. *)
  let combine ?(pow = B.powmod_naive) (tpk : T.tpk) (parts : T.partial list) =
    let distinct =
      List.fold_left
        (fun acc (p : T.partial) ->
          if List.exists (fun (q : T.partial) -> q.p_index = p.p_index) acc then acc
          else acc @ [ p ])
        [] parts
    in
    let chosen = List.filteri (fun i _ -> i <= tpk.threshold) distinct in
    if List.length chosen <= tpk.threshold then failwith "oracle: too few partials";
    let epoch = (List.hd chosen).p_epoch in
    if List.exists (fun (p : T.partial) -> p.p_epoch <> epoch) chosen then
      failwith "oracle: partials from different epochs";
    let delta = delta tpk.n_parties in
    let subset = List.map (fun (p : T.partial) -> p.p_index) chosen in
    let n = tpk.pk.n and n2 = tpk.pk.n2 in
    let acc =
      List.fold_left
        (fun acc (p : T.partial) ->
          let w = B.mul B.two (lagrange_weight ~delta subset p.p_index) in
          B.mulmod acc (pow_signed pow p.d w n2) n2)
        B.one chosen
    in
    B.erem (B.mul (B.div (B.sub acc B.one) n) (B.invmod (theta tpk epoch) n)) n
end

module Sigma = struct
  module S = Yoso_nizk.Sigma
  module Transcript = Yoso_nizk.Transcript

  (* the Fiat-Shamir challenge, replayed from the proof's absorptions *)
  let challenge label absorbed =
    let ts = Transcript.create ~label in
    List.iter (fun (l, v) -> Transcript.absorb_bigint ts ~label:l v) absorbed;
    Transcript.challenge_bigint ts ~label:"e" ~bits:S.chal_bits

  let unit_mod (pk : P.public_key) z = B.sign z > 0 && B.is_one (B.gcd z pk.n)

  (* g^z_m z_r^N = a c^e mod N^2 *)
  let verify_plaintext_knowledge (pk : P.public_key) ~c (pf : S.Plaintext_knowledge.proof) =
    let e = challenge "paillier-ptk" [ ("N", pk.n); ("c", c); ("a", pf.a) ] in
    unit_mod pk pf.z_r
    && B.equal
         (B.mulmod (Paillier.g_pow pk pf.z_m) (B.powmod_naive pf.z_r pk.n pk.n2) pk.n2)
         (B.mulmod pf.a (B.powmod_naive c e pk.n2) pk.n2)

  (* g^z z_r^N = a1 c_b^e and c_a^z = a2 c_c^e mod N^2 *)
  let verify_multiplication (pk : P.public_key) ~c_a ~c_b ~c_c (pf : S.Multiplication.proof) =
    let e =
      challenge "paillier-mult"
        [ ("N", pk.n); ("c_a", c_a); ("c_b", c_b); ("c_c", c_c); ("a1", pf.a1); ("a2", pf.a2) ]
    in
    let pow b x = B.powmod_naive b x pk.n2 in
    B.sign pf.z >= 0
    && unit_mod pk pf.z_r
    && B.equal
         (B.mulmod (Paillier.g_pow pk pf.z) (pow pf.z_r pk.n) pk.n2)
         (B.mulmod pf.a1 (pow c_b e) pk.n2)
    && B.equal (pow c_a pf.z) (B.mulmod pf.a2 (pow c_c e) pk.n2)
end
