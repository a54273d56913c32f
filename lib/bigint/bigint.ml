(* Sign-magnitude bignums over little-endian 62-bit limbs.  A limb
   product spans 124 bits, so schoolbook inner products are computed
   from split 31-bit half-limb partial products — every intermediate
   stays inside native unboxed 63-bit int arithmetic, treated as
   unsigned (values up to 2^63-1 are exact even when they print
   negative).  Division is Knuth's Algorithm D on a 30-bit repacked
   view (it needs two-limb numerators, which 62-bit limbs don't leave
   headroom for); multiplication is schoolbook with a Karatsuba layer
   above [kara_threshold] limbs.  Montgomery arithmetic runs in C on
   64-bit limbs (module [Mont], mont_stubs.c). *)

let limb_bits = 62
let mask = (1 lsl limb_bits) - 1 (* = max_int *)
let half = 31
let hmask = (1 lsl half) - 1

type t = { sign : int; mag : int array }
(* invariants: mag has no leading (high-index) zero limbs;
   sign = 0 iff mag = [||]; each limb in [0, 2^62). *)

(* ------------------------------------------------------------------ *)
(* Magnitude (unsigned) primitives                                     *)
(* ------------------------------------------------------------------ *)

let mag_norm a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

(* Repack a little-endian limb array between limb widths (bit-stream
   copy).  Used for the 62 <-> 30 division/baseline views and for byte
   conversions; each step moves at most [dst_bits] <= 62 bits, so all
   shifts stay in range. *)
let repack ~src_bits ~dst_bits a =
  let total = Array.length a * src_bits in
  let nout = (total + dst_bits - 1) / dst_bits in
  let out = Array.make (Stdlib.max nout 1) 0 in
  let oi = ref 0 and acc = ref 0 and nacc = ref 0 in
  Array.iter
    (fun limb ->
      let v = ref limb and rem_bits = ref src_bits in
      while !rem_bits > 0 do
        let take = Stdlib.min !rem_bits (dst_bits - !nacc) in
        acc := !acc lor ((!v land ((1 lsl take) - 1)) lsl !nacc);
        nacc := !nacc + take;
        v := !v lsr take;
        rem_bits := !rem_bits - take;
        if !nacc = dst_bits then begin
          out.(!oi) <- !acc;
          incr oi;
          acc := 0;
          nacc := 0
        end
      done)
    a;
  if !nacc > 0 then out.(!oi) <- !acc;
  mag_norm out

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    (* s <= 2*(2^62-1) + 1 = 2^63 - 1: exact as unsigned 63-bit *)
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  mag_norm out

(* requires a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      (* two's-complement wrap of d + 2^62, i.e. the borrowed limb *)
      out.(i) <- d land mask;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_norm out

(* x * y for limbs x, y < 2^62 via 31-bit halves: returns the pair
   (lo, hi) with x*y = hi*2^62 + lo.  cross <= 2*(2^31-1)^2 < 2^63 and
   lo' < 2^63, so everything is exact unsigned-63 arithmetic. *)
let[@inline] mul_split x y =
  let xl = x land hmask and xh = x lsr half in
  let yl = y land hmask and yh = y lsr half in
  let ll = xl * yl and hh = xh * yh in
  let cross = (xl * yh) + (xh * yl) in
  let lo' = ll + ((cross land hmask) lsl half) in
  (lo' land mask, hh + (cross lsr half) + (lo' lsr limb_bits))

let mag_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        (* carry invariant: c <= 2^63 - 1 (true value, exact) *)
        let c = ref 0 in
        for j = 0 to lb - 1 do
          let plo, phi = mul_split ai (Array.unsafe_get b j) in
          let cc = !c in
          let s1 = Array.unsafe_get out (i + j) + plo in
          let s2 = (s1 land mask) + (cc land mask) in
          Array.unsafe_set out (i + j) (s2 land mask);
          c := phi + (s1 lsr limb_bits) + (s2 lsr limb_bits) + (cc lsr limb_bits)
        done;
        let k = ref (i + lb) in
        while !c <> 0 do
          let cc = !c in
          let s = out.(!k) + (cc land mask) in
          out.(!k) <- s land mask;
          c := (cc lsr limb_bits) + (s lsr limb_bits);
          incr k
        done
      end
    done;
    mag_norm out
  end

(* ~992 bits: the same crossover point the 30-bit kernel had at 32
   limbs, re-expressed in 62-bit limbs and re-validated by bench *)
let kara_threshold = 16

let mag_shift_limbs a k =
  if Array.length a = 0 then [||]
  else Array.append (Array.make k 0) a

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la < kara_threshold || lb < kara_threshold then mag_mul_school a b
  else begin
    (* Karatsuba split at half of the larger operand *)
    let m = (max la lb + 1) / 2 in
    let lo x = mag_norm (Array.sub x 0 (min m (Array.length x))) in
    let hi x =
      if Array.length x <= m then [||]
      else Array.sub x m (Array.length x - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    let z1 =
      (* (a0+a1)(b0+b1) - z0 - z2 *)
      let s = mag_mul (mag_add a0 a1) (mag_add b0 b1) in
      mag_sub (mag_sub s z0) z2
    in
    mag_add (mag_add z0 (mag_shift_limbs z1 m)) (mag_shift_limbs z2 (2 * m))
  end

(* shift left by s bits, 0 <= s < limb_bits.  [a.(i) lsl s] wraps mod
   2^63, so the outgoing top bits must be read with [lsr] before the
   shift, not recovered after it. *)
let mag_shl_small a s =
  if s = 0 || Array.length a = 0 then Array.copy a
  else begin
    let n = Array.length a in
    let out = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      out.(i) <- ((a.(i) lsl s) land mask) lor !carry;
      carry := a.(i) lsr (limb_bits - s)
    done;
    out.(n) <- !carry;
    mag_norm out
  end

let mag_shr_small a s =
  if s = 0 || Array.length a = 0 then Array.copy a
  else begin
    let n = Array.length a in
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      let v = a.(i) lsr s in
      let hi = if i + 1 < n then (a.(i + 1) lsl (limb_bits - s)) land mask else 0 in
      out.(i) <- v lor hi
    done;
    mag_norm out
  end

(* single-limb division by d < 2^31, two half-limb steps per limb:
   returns (quotient mag, remainder int) *)
let mag_divmod_1 a d =
  assert (d > 0 && d <= hmask);
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let ai = a.(i) in
    let hi = (!r lsl half) lor (ai lsr half) in
    let qh = hi / d in
    let r1 = hi mod d in
    let lo = (r1 lsl half) lor (ai land hmask) in
    let ql = lo / d in
    r := lo mod d;
    q.(i) <- (qh lsl half) lor ql
  done;
  (mag_norm q, !r)

(* 30-bit division kernel.  Knuth's Algorithm D needs two-limb
   numerators (2*limb_bits + 1 bits of headroom), which 62-bit limbs
   do not leave in a native int, so quotients are computed on a 30-bit
   repacked view and repacked back.  Division is far off the hot path
   (Montgomery replaced it everywhere that matters). *)
module D30 = struct
  let bits = 30
  let base = 1 lsl bits
  let msk = base - 1

  let shl_small a s =
    if s = 0 || Array.length a = 0 then Array.copy a
    else begin
      let n = Array.length a in
      let out = Array.make (n + 1) 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let v = (a.(i) lsl s) lor !carry in
        out.(i) <- v land msk;
        carry := v lsr bits
      done;
      out.(n) <- !carry;
      mag_norm out
    end

  let shr_small a s =
    if s = 0 || Array.length a = 0 then Array.copy a
    else begin
      let n = Array.length a in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let v = a.(i) lsr s in
        let hi = if i + 1 < n then (a.(i + 1) lsl (bits - s)) land msk else 0 in
        out.(i) <- v lor hi
      done;
      mag_norm out
    end

  let divmod_1 a d =
    assert (d > 0 && d < base);
    let n = Array.length a in
    let q = Array.make n 0 in
    let r = ref 0 in
    for i = n - 1 downto 0 do
      let cur = (!r lsl bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (mag_norm q, !r)

  (* Knuth Algorithm D on 30-bit limbs.  Returns (quotient, remainder). *)
  let divmod u v =
    let n = Array.length v in
    if n = 0 then raise Division_by_zero;
    if mag_cmp u v < 0 then ([||], Array.copy u)
    else if n = 1 then begin
      let q, r = divmod_1 u v.(0) in
      (q, if r = 0 then [||] else [| r |])
    end
    else begin
      (* normalise so that the top limb of v is >= base/2 *)
      let s =
        let rec go s top = if top land (base lsr 1) <> 0 then s else go (s + 1) (top lsl 1) in
        go 0 v.(n - 1)
      in
      let vn = shl_small v s in
      let vn = if Array.length vn < n then Array.append vn (Array.make (n - Array.length vn) 0) else vn in
      let un0 = shl_small u s in
      let m = Array.length u - n in
      (* u buffer with one extra high limb *)
      let un = Array.make (Array.length u + 1) 0 in
      Array.blit un0 0 un 0 (Array.length un0);
      let q = Array.make (m + 1) 0 in
      let vtop = vn.(n - 1) and vsec = vn.(n - 2) in
      for j = m downto 0 do
        let num = (un.(j + n) lsl bits) lor un.(j + n - 1) in
        let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
        let continue = ref true in
        while
          !continue
          && (!qhat >= base || !qhat * vsec > (!rhat lsl bits) lor un.(j + n - 2))
        do
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then continue := false
        done;
        (* multiply and subtract *)
        let k = ref 0 in
        for i = 0 to n - 1 do
          let p = !qhat * vn.(i) in
          let t = un.(i + j) - !k - (p land msk) in
          un.(i + j) <- t land msk;
          k := (p lsr bits) - (t asr bits)
        done;
        let t = un.(j + n) - !k in
        un.(j + n) <- t land msk;
        if t < 0 then begin
          (* overestimated by one: add v back *)
          decr qhat;
          let carry = ref 0 in
          for i = 0 to n - 1 do
            let s2 = un.(i + j) + vn.(i) + !carry in
            un.(i + j) <- s2 land msk;
            carry := s2 lsr bits
          done;
          un.(j + n) <- (un.(j + n) + !carry) land msk
        end;
        q.(j) <- !qhat
      done;
      let r = shr_small (mag_norm (Array.sub un 0 n)) s in
      (mag_norm q, r)
    end

  let of62 a = repack ~src_bits:limb_bits ~dst_bits:bits a
  let to62 a = repack ~src_bits:bits ~dst_bits:limb_bits a
end

(* Returns (quotient, remainder) magnitudes. *)
let mag_divmod u v =
  let n = Array.length v in
  if n = 0 then raise Division_by_zero;
  if mag_cmp u v < 0 then ([||], Array.copy u)
  else if n = 1 && v.(0) <= hmask then begin
    let q, r = mag_divmod_1 u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let q, r = D30.divmod (D30.of62 u) (D30.of62 v) in
    (D30.to62 q, D30.to62 r)
  end

(* ------------------------------------------------------------------ *)
(* Signed layer                                                         *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = mag_norm mag in
  if Array.length mag = 0 then { sign = 0; mag = [||] } else { sign; mag }

let zero = { sign = 0; mag = [||] }

let of_int x =
  if x = 0 then zero
  else begin
    let sign = if x < 0 then -1 else 1 in
    (* abs min_int = min_int, but limb extraction via land/lsr reads
       its bit pattern as the unsigned 2^62, which is exactly |x| *)
    let x = abs x in
    let rec limbs x = if x = 0 then [] else (x land mask) :: limbs (x lsr limb_bits) in
    { sign; mag = Array.of_list (limbs x) }
  end

let one = of_int 1
let two = of_int 2

let fits_int t =
  (* native int holds magnitudes up to 2^62 - 1 = one full limb *)
  Array.length t.mag <= 1

let to_int t =
  if not (fits_int t) then failwith "Bigint.to_int: overflow";
  if Array.length t.mag = 0 then 0 else t.sign * t.mag.(0)

let sign t = t.sign
let is_zero t = t.sign = 0
let is_one t = t.sign = 1 && Array.length t.mag = 1 && t.mag.(0) = 1
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0
let neg t = if t.sign = 0 then zero else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_cmp a.mag b.mag
  else mag_cmp b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let bit_length t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + bits top 0
  end

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_cmp a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = mag_divmod a.mag b.mag in
  let q = make (a.sign * b.sign) qm in
  let r = make a.sign rm in
  (q, r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if t.sign = 0 then zero
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    make t.sign (mag_shl_small (mag_shift_limbs t.mag limbs) bits)
  end

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if t.sign = 0 then zero
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t.mag in
    if limbs >= n then zero
    else make t.sign (mag_shr_small (Array.sub t.mag limbs (n - limbs)) bits)
  end

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one b e

let addmod a b m = erem (add a b) m
let mulmod a b m = erem (mul a b) m

(* ------------------------------------------------------------------ *)
(* Montgomery arithmetic                                               *)
(* ------------------------------------------------------------------ *)

(* The kernel is C (mont_stubs.c): a CIOS multiply and a dedicated
   squaring on L native 64-bit limbs with 128-bit products, R =
   2^(64L), L = ceil(bits m / 64), every result fully reduced into
   [0, m).  A Montgomery-form value is a [bytes] of L limbs, opaque to
   the GC; the one table that outlives an exponentiation, a fixed-base
   column, keeps several entries per buffer at limb offsets, which is
   what the kernel's offset arguments are for.  Values cross between [t]'s
   62-bit limbs and the kernel's 64-bit ones once per exponentiation,
   at [store] and [load]. *)
module Mont = struct
  external mul_at :
    bytes ->
    (int[@untagged]) ->
    bytes ->
    (int[@untagged]) ->
    bytes ->
    (int[@untagged]) ->
    bytes ->
    bytes ->
    unit = "yoso_mont_mul_byte" "yoso_mont_mul"
  [@@noalloc]
  (* [mul_at dst d a i b j km scratch]: dst at d <- a at i * b at j * R^-1 *)

  external sqr_at :
    bytes -> (int[@untagged]) -> bytes -> (int[@untagged]) -> bytes -> bytes -> unit
    = "yoso_mont_sqr_byte" "yoso_mont_sqr"
  [@@noalloc]
  (* [sqr_at dst d a i km scratch]: dst at d <- (a at i)^2 * R^-1 *)

  type ctx = {
    m_big : t;          (* the modulus, as a bigint *)
    l : int;            (* limb count *)
    km : bytes;         (* the l limbs of m, then m' = -m^-1 mod 2^64 *)
    r2 : bytes;         (* R^2 mod m *)
    one_m : bytes;      (* R mod m: Montgomery form of 1 *)
    unit_l : bytes;     (* plain 1, for conversion out of Montgomery form *)
  }

  (* [len]-bit field of a magnitude starting at bit [pos], len <= 32,
     so it spans at most two 62-bit limbs *)
  let bitfield mag pos len =
    let limb = pos / limb_bits and off = pos mod limb_bits in
    let n = Array.length mag in
    let v = if limb < n then Array.unsafe_get mag limb lsr off else 0 in
    let v =
      if off + len > limb_bits && limb + 1 < n then
        v lor (Array.unsafe_get mag (limb + 1) lsl (limb_bits - off))
      else v
    in
    v land ((1 lsl len) - 1)

  (* the magnitude [mag] < 2^(64 l) as the l limbs of [dst] *)
  let store dst l mag =
    for i = 0 to l - 1 do
      let lo = bitfield mag (64 * i) 32 and hi = bitfield mag ((64 * i) + 32) 32 in
      Bytes.set_int64_ne dst (8 * i)
        (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))
    done

  (* the l limbs of [src], as a [t] *)
  let load src l =
    let half j =
      let x = Bytes.get_int64_ne src (8 * (j / 2)) in
      (if j land 1 = 0 then Int64.to_int x else Int64.to_int (Int64.shift_right_logical x 32))
      land 0xFFFF_FFFF
    in
    make 1 (repack ~src_bits:32 ~dst_bits:limb_bits (Array.init (2 * l) half))

  let create m =
    if m.sign <= 0 || is_even m || (Array.length m.mag = 1 && m.mag.(0) < 3) then
      invalid_arg "Bigint.Mont.create: modulus must be odd and >= 3";
    let l = (bit_length m + 63) / 64 in
    let km = Bytes.create (8 * (l + 1)) in
    store km l m.mag;
    (* Newton iteration for m0^-1 mod 2^64 (m0 odd): the correct low
       bits double per step, 1, 2, .., 64 *)
    let m0 = Bytes.get_int64_ne km 0 in
    let x = ref 1L in
    for _ = 1 to 6 do
      x := Int64.mul !x (Int64.sub 2L (Int64.mul m0 !x))
    done;
    Bytes.set_int64_ne km (8 * l) (Int64.neg !x);
    let limbs x =
      let b = Bytes.create (8 * l) in
      store b l x.mag;
      b
    in
    let r = shift_left one (64 * l) in
    { m_big = m; l; km; r2 = limbs (erem (mul r r) m); one_m = limbs (erem r m); unit_l = limbs one }

  let modulus ctx = ctx.m_big

  (* the kernel's scratch: 2l + 2 limbs, one per call chain, so that a
     context can be shared across domains *)
  let scratch ctx = Bytes.create (8 * ((2 * ctx.l) + 2))

  let limbs ctx = Bytes.create (8 * ctx.l)

  (* dst <- a b R^-1 and dst <- a^2 R^-1, on one-value buffers *)
  let mul ctx tbuf dst a b = mul_at dst 0 a 0 b 0 ctx.km tbuf
  let sqr ctx tbuf dst a = sqr_at dst 0 a 0 ctx.km tbuf

  (* a value in [0, m), as kernel limbs *)
  let operand ctx a =
    let b = limbs ctx in
    store b ctx.l a.mag;
    b

  (* b mod m in Montgomery form *)
  let to_mont ctx tbuf b =
    let d = operand ctx (erem b ctx.m_big) in
    mul ctx tbuf d d ctx.r2;
    d

  (* a Montgomery-form value out of that form, as a [t]; [x] is spent *)
  let finish ctx tbuf x =
    mul ctx tbuf x x ctx.unit_l;
    load x ctx.l

  let in_range ctx a = a.sign >= 0 && compare a ctx.m_big < 0

  let mulmod ctx a b =
    if not (in_range ctx a && in_range ctx b) then
      invalid_arg "Bigint.Mont.mulmod: operands out of range";
    let pa = operand ctx a in
    let pb = if b == a then pa else operand ctx b in
    mul ctx (scratch ctx) pa pa pb;
    load pa ctx.l

  let sqrmod ctx a =
    if not (in_range ctx a) then invalid_arg "Bigint.Mont.sqrmod: operand out of range";
    let pa = operand ctx a in
    sqr ctx (scratch ctx) pa pa;
    load pa ctx.l

  (* Sliding 5-bit odd windows rather than fixed 4-bit windows: the
     precomputed table holds only the 16 odd powers b^1, b^3, ..,
     b^31, and runs of zero bits between windows cost squarings only.
     For a 512-bit exponent this is ~17 table + ~87 window products
     against 14 + ~120 for the fixed ladder. *)
  let powmod ctx b e =
    if sign e < 0 then invalid_arg "Bigint.Mont.powmod: negative exponent";
    let ebits = bit_length e in
    if ebits = 0 then one
    else begin
      let tbuf = scratch ctx in
      let mag = e.mag in
      (* tbl.(k) = b^(2k+1) in Montgomery form *)
      let tsize = if ebits >= 5 then 16 else 1 lsl (ebits - 1) in
      let tbl = Array.make tsize (to_mont ctx tbuf b) in
      if tsize > 1 then begin
        let b2 = limbs ctx in
        sqr ctx tbuf b2 tbl.(0);
        for k = 1 to tsize - 1 do
          let d = limbs ctx in
          mul ctx tbuf d tbl.(k - 1) b2;
          tbl.(k) <- d
        done
      end;
      (* widest odd window [s..i] (width <= 5) below set bit i *)
      let wstart i =
        let s = ref (if i >= 4 then i - 4 else 0) in
        while bitfield mag !s 1 = 0 do incr s done;
        !s
      in
      let entry s i = tbl.(bitfield mag s (i - s + 1) lsr 1) in
      let i = ref (ebits - 1) in
      let s = wstart !i in
      let acc = Bytes.copy (entry s !i) in
      i := s - 1;
      while !i >= 0 do
        if bitfield mag !i 1 = 0 then begin
          sqr ctx tbuf acc acc;
          decr i
        end
        else begin
          let s = wstart !i in
          for _ = 1 to !i - s + 1 do
            sqr ctx tbuf acc acc
          done;
          mul ctx tbuf acc acc (entry s !i);
          i := s - 1
        end
      done;
      finish ctx tbuf acc
    end

  (* Fixed-base exponentiation: for a base raised to many exponents.
     A table is a column, base^(16^j) in Montgomery form for each 4-bit
     window position j, each entry four squarings from the one before,
     grown to the longest exponent seen.  An exponent is read from the
     column by Yao's bucket method: bucket w gathers the product of the
     entries whose window is w (one product per nonzero window), and
     prod_w bucket_w^w = prod_{k=15..1} prod_{w>=k} bucket_w costs at
     most 28 more products; no squarings.

     The column's limbs are flat, in chunks of [fb_per] entries: entry j
     at limb offset (j mod fb_per) l of chunk j / fb_per.  A chunk is at
     most 255 limbs, so that it is allocated young like any small block
     and a table that lives for one protocol step can die there; a
     single buffer for the whole column would be allocated straight
     into the major heap once past 256 words, and measured a higher
     heap peak on [real_crypto] (EXPERIMENTS.md E8).  Growing adds
     chunks and never copies limbs. *)
  type fixed_base = {
    fb_ctx : ctx;
    fb_per : int;                     (* entries per chunk *)
    mutable fb_chunks : bytes array;
    mutable fb_len : int;             (* entries computed *)
  }

  let fixed_base ctx b =
    let per = Stdlib.max 1 (255 / ctx.l) in
    let c0 = Bytes.create (8 * ctx.l * per) in
    Bytes.blit (to_mont ctx (scratch ctx) b) 0 c0 0 (8 * ctx.l);
    { fb_ctx = ctx; fb_per = per; fb_chunks = [| c0 |]; fb_len = 1 }

  let fb_column fb nw =
    if fb.fb_len < nw then begin
      let ctx = fb.fb_ctx in
      let l = ctx.l and per = fb.fb_per in
      let have = Array.length fb.fb_chunks in
      let need = (nw + per - 1) / per in
      if have < need then
        fb.fb_chunks <-
          Array.init need (fun k ->
              if k < have then fb.fb_chunks.(k) else Bytes.create (8 * l * per));
      let chunks = fb.fb_chunks and tbuf = scratch ctx in
      for j = fb.fb_len to nw - 1 do
        let c = chunks.(j / per) and off = (j mod per) * l in
        sqr_at c off chunks.((j - 1) / per) (((j - 1) mod per) * l) ctx.km tbuf;
        for _ = 2 to 4 do
          sqr_at c off c off ctx.km tbuf
        done
      done;
      fb.fb_len <- nw
    end

  (* The column grows in place: racy if a fixed base is shared across
     domains.  Growing it up front for the longest exponent that will
     be seen makes later [fixed_powmod] calls read-only. *)
  let preload fb ~bits =
    if bits < 0 then invalid_arg "Bigint.Mont.preload: negative bits";
    fb_column fb ((bits + 3) / 4)

  let fixed_powmod fb e =
    if sign e < 0 then invalid_arg "Bigint.Mont.fixed_powmod: negative exponent";
    let ctx = fb.fb_ctx in
    let ebits = bit_length e in
    if ebits = 0 then one
    else begin
      let nw = (ebits + 3) / 4 in
      fb_column fb nw;
      let l = ctx.l and per = fb.fb_per and chunks = fb.fb_chunks in
      let tbuf = scratch ctx in
      (* [acc] times the value at limb [off] of [src], in place, or a
         copy of that value while [acc] is empty *)
      let times acc src off =
        if Bytes.length acc = 0 then Bytes.sub src (8 * off) (8 * l)
        else begin
          mul_at acc 0 acc 0 src off ctx.km tbuf;
          acc
        end
      in
      let bucket = Array.make 16 Bytes.empty in
      for j = 0 to nw - 1 do
        let w = bitfield e.mag (4 * j) 4 in
        if w <> 0 then bucket.(w) <- times bucket.(w) chunks.(j / per) ((j mod per) * l)
      done;
      (* run = prod_{w>=k} bucket_w, and acc gathers every run *)
      let run = ref Bytes.empty and acc = ref Bytes.empty in
      for k = 15 downto 1 do
        if Bytes.length bucket.(k) > 0 then run := times !run bucket.(k) 0;
        if Bytes.length !run > 0 then acc := times !acc !run 0
      done;
      finish ctx tbuf !acc
    end
end

let powmod_naive b e m =
  if m.sign <= 0 then invalid_arg "Bigint.powmod: modulus must be positive";
  if sign e < 0 then invalid_arg "Bigint.powmod: negative exponent";
  if is_one m then zero
  else begin
    let b = ref (erem b m) and acc = ref one and e = ref e in
    while not (is_zero !e) do
      if not (is_even !e) then acc := mulmod !acc !b m;
      b := mulmod !b !b m;
      e := shift_right !e 1
    done;
    !acc
  end

(* Montgomery pays for its context setup (two divisions) as soon as the
   exponent has more than a few windows; below that, for tiny moduli,
   or for even moduli where Montgomery does not apply, fall back to
   square-and-multiply.  The 30-bit cutoff matches the old two-limb
   rule from the 30-bit-limb era. *)
let powmod b e m =
  if m.sign <= 0 then invalid_arg "Bigint.powmod: modulus must be positive";
  if sign e < 0 then invalid_arg "Bigint.powmod: negative exponent";
  if is_one m then zero
  else if (not (is_even m)) && bit_length m > 30 && bit_length e > 8 then
    Mont.powmod (Mont.create m) b e
  else powmod_naive b e m

(* ------------------------------------------------------------------ *)
(* Binary GCD and modular inverse                                       *)
(* ------------------------------------------------------------------ *)

(* Stein's algorithm on working copies of the 62-bit magnitudes: shift
   out trailing zeros, subtract the smaller odd value from the larger,
   never divide.  A working value is a limb array and a live length
   [n] (limbs at index >= n are dead); every helper keeps [n]
   normalised, so comparing lengths first is a valid comparison. *)

(* trailing zero bits of a nonzero limb *)
let limb_ctz x =
  let x = ref x and n = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

(* trailing zero bits of a nonzero working value *)
let w_ctz u =
  let i = ref 0 in
  while Array.unsafe_get u !i = 0 do incr i done;
  (!i * limb_bits) + limb_ctz (Array.unsafe_get u !i)

let w_norm u n =
  let n = ref n in
  while !n > 0 && Array.unsafe_get u (!n - 1) = 0 do decr n done;
  !n

(* u <- u >> s in place; returns the new live length *)
let w_shr u n s =
  let q = s / limb_bits and r = s mod limb_bits in
  let n' = n - q in
  if r = 0 then Array.blit u q u 0 n'
  else begin
    for i = 0 to n' - 2 do
      Array.unsafe_set u i
        ((Array.unsafe_get u (i + q) lsr r)
        lor ((Array.unsafe_get u (i + q + 1) lsl (limb_bits - r)) land mask))
    done;
    Array.unsafe_set u (n' - 1) (Array.unsafe_get u (n - 1) lsr r)
  end;
  w_norm u n'

(* u <- u - v in place, for u >= v; returns the new live length *)
let w_sub u nu v nv =
  let borrow = ref 0 in
  for i = 0 to nv - 1 do
    let d = Array.unsafe_get u i - Array.unsafe_get v i - !borrow in
    Array.unsafe_set u i (d land mask);
    borrow := d lsr 62 (* 1 iff the subtraction went negative *)
  done;
  let i = ref nv in
  while !borrow <> 0 do
    let d = Array.unsafe_get u !i - 1 in
    Array.unsafe_set u !i (d land mask);
    borrow := d lsr 62;
    incr i
  done;
  w_norm u nu

let w_cmp u nu v nv =
  if nu <> nv then Int.compare nu nv
  else begin
    let rec go i =
      if i < 0 then 0
      else begin
        let x = Array.unsafe_get u i and y = Array.unsafe_get v i in
        if x <> y then Int.compare x y else go (i - 1)
      end
    in
    go (nu - 1)
  end

(* gcd of two odd native ints below 2^62 *)
let rec int_gcd_odd u v =
  if u = v then u
  else if u > v then int_gcd_odd v u
  else begin
    let d = v - u in
    int_gcd_odd u (d lsr limb_ctz d)
  end

let gcd a b =
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else begin
    let u = Array.copy a.mag and v = Array.copy b.mag in
    let zu = w_ctz u and zv = w_ctz v in
    let nu = w_shr u (Array.length u) zu and nv = w_shr v (Array.length v) zv in
    (* both odd from here on; the subtraction leaves the larger one
       even, and its zeros go at once *)
    let rec go u nu v nv =
      if nu <= 1 && nv <= 1 then of_int (int_gcd_odd u.(0) v.(0))
      else begin
        let c = w_cmp u nu v nv in
        if c = 0 then make 1 (Array.sub u 0 nu)
        else if c > 0 then go v nv u nu
        else begin
          let nv = w_sub v nv u nu in
          go u nu v (w_shr v nv (w_ctz v))
        end
      end
    in
    shift_left (go u nu v nv) (Stdlib.min zu zv)
  end

(* x <- x / 2 mod m in place: x and m are [n]-limb arrays (zero
   padded), m odd, x < m.  An odd x takes (x + m) / 2, whose bit 62n
   lives in the carry out of the sum. *)
let halve_mod x m n =
  if Array.unsafe_get x 0 land 1 = 0 then begin
    for i = 0 to n - 2 do
      Array.unsafe_set x i
        ((Array.unsafe_get x i lsr 1) lor ((Array.unsafe_get x (i + 1) land 1) lsl 61))
    done;
    Array.unsafe_set x (n - 1) (Array.unsafe_get x (n - 1) lsr 1)
  end
  else begin
    let s = Array.unsafe_get x 0 + Array.unsafe_get m 0 in
    let prev = ref (s land mask) and c = ref (s lsr limb_bits) in
    for i = 1 to n - 1 do
      let s = Array.unsafe_get x i + Array.unsafe_get m i + !c in
      let lo = s land mask in
      Array.unsafe_set x (i - 1) ((!prev lsr 1) lor ((lo land 1) lsl 61));
      prev := lo;
      c := s lsr limb_bits
    done;
    Array.unsafe_set x (n - 1) ((!prev lsr 1) lor (!c lsl 61))
  end

(* x <- x - y mod m in place, all three [n]-limb arrays, x, y < m *)
let sub_mod x y m n =
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = Array.unsafe_get x i - Array.unsafe_get y i - !borrow in
    Array.unsafe_set x i (d land mask);
    borrow := d lsr 62
  done;
  if !borrow <> 0 then begin
    let c = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get x i + Array.unsafe_get m i + !c in
      Array.unsafe_set x i (s land mask);
      c := s lsr limb_bits
    done
  end

(* a^-1 mod m for odd m > 0 and 0 <= a < m: the binary extended GCD.
   Invariants x1*a = u and x2*a = v (mod m), v odd; each subtraction
   leaves an even u, and every bit shifted out of u halves x1 mod m.
   It ends at u = 0 with v = gcd(a, m). *)
let invmod_odd a m =
  let n = Array.length m in
  let u = Array.make n 0 and v = Array.copy m in
  Array.blit a 0 u 0 (Array.length a);
  let x1 = Array.make n 0 and x2 = Array.make n 0 in
  x1.(0) <- 1;
  let rec go u nu x1 v nv x2 =
    if nu = 0 then begin
      if nv <> 1 || v.(0) <> 1 then raise Division_by_zero;
      make 1 x2
    end
    else begin
      let s = w_ctz u in
      let nu = w_shr u nu s in
      for _ = 1 to s do halve_mod x1 m n done;
      if w_cmp u nu v nv >= 0 then begin
        let nu = w_sub u nu v nv in
        sub_mod x1 x2 m n;
        go u nu x1 v nv x2
      end
      else begin
        (* swap roles: v - u becomes the even side, u the odd one *)
        let nv = w_sub v nv u nu in
        sub_mod x2 x1 m n;
        go v nv x2 u nu x1
      end
    end
  in
  go u (Array.length a) x1 v n x2

(* One algorithm for every modulus.  An odd modulus runs the binary
   extended GCD directly.  An even one needs an odd [a] (else both are
   even and share the factor 2); then with y = m^-1 mod a, from the same
   odd-modulus routine, a^-1 mod m = (1 + m (a - y)) / a: the
   numerator is 1 mod m and 1 - m y = 0 mod a, and it lies in [1, m)
   for a > 1. *)
let invmod a m =
  if m.sign = 0 then raise Division_by_zero;
  let m = abs m in
  let a = erem a m in
  if not (is_even m) then invmod_odd a.mag m.mag
  else if is_even a then raise Division_by_zero
  else if is_one a then one
  else begin
    let y = invmod_odd (erem m a).mag a.mag in
    div (add one (mul m (sub a y))) a
  end

let factorial n =
  if n < 0 then invalid_arg "Bigint.factorial: negative argument";
  let acc = ref one in
  for i = 2 to n do
    acc := mul !acc (of_int i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Multi-exponentiation                                                 *)
(* ------------------------------------------------------------------ *)

(* prod_i b_i^{e_i} mod m, sharing the squaring chain across all bases.
   A product of k independent window exponentiations costs about
   k*(bits + bits/4) Montgomery products; interleaving (Straus) pays
   the bits squarings once, and bucketing (Pippenger) additionally
   drops the per-base window tables — the classic trade-off from
   multi-scalar multiplication, applied here to the Lagrange
   combination of threshold Paillier partials (few bases, huge
   Delta-scaled exponents => Straus) and batched commitment checks
   (many bases, short exponents => Pippenger). *)
module Multiexp = struct
  (* drop zero exponents, flip negative ones through the inverse, and
     convert the bases to Montgomery form *)
  let normalize ctx tbuf pairs =
    let m = ctx.Mont.m_big in
    Array.of_list
      (List.filter_map
         (fun (b, e) ->
           if is_zero e then None
           else begin
             let b, e = if sign e < 0 then (invmod b m, neg e) else (b, e) in
             Some (Mont.to_mont ctx tbuf b, e)
           end)
         (Array.to_list pairs))

  let max_bits ps = Array.fold_left (fun acc (_, e) -> Stdlib.max acc (bit_length e)) 0 ps

  (* Straus interleaving: per-base window tables, one shared squaring
     chain.  Window width adapts to the exponent size — short
     exponents cannot amortize a large table. *)
  let straus ctx pairs =
    let tbuf = Mont.scratch ctx in
    let ps = normalize ctx tbuf pairs in
    if Array.length ps = 0 then one
    else begin
      let bits = max_bits ps in
      let c = if bits <= 16 then 2 else if bits <= 64 then 3 else 4 in
      let tsize = (1 lsl c) - 1 in
      let tables =
        Array.map
          (fun (bm, _) ->
            let row = Array.make tsize bm in
            for w = 2 to tsize do
              let d = Mont.limbs ctx in
              Mont.mul ctx tbuf d row.(w - 2) bm;
              row.(w - 1) <- d
            done;
            row)
          ps
      in
      let nw = (bits + c - 1) / c in
      let acc = Bytes.copy ctx.Mont.one_m in
      for j = nw - 1 downto 0 do
        if j < nw - 1 then
          for _ = 1 to c do
            Mont.sqr ctx tbuf acc acc
          done;
        Array.iteri
          (fun i (_, e) ->
            let w = Mont.bitfield e.mag (j * c) c in
            if w <> 0 then Mont.mul ctx tbuf acc acc tables.(i).(w - 1))
          ps
      done;
      Mont.finish ctx tbuf acc
    end

  (* Pippenger bucketing: no per-base tables; each digit position
     sorts bases into 2^c - 1 buckets and aggregates them with the
     suffix-product trick (sum_d d*B_d as a running product). *)
  let pippenger ctx pairs =
    let tbuf = Mont.scratch ctx in
    let ps = normalize ctx tbuf pairs in
    if Array.length ps = 0 then one
    else begin
      let l = ctx.Mont.l in
      let bits = max_bits ps in
      let npairs = Array.length ps in
      (* pick c minimizing (bits/c) * (npairs + 2^(c+1)) *)
      let cost c =
        ((bits + c - 1) / c) * (npairs + (1 lsl (c + 1)))
      in
      let c = ref 2 in
      for cand = 3 to 12 do
        if cost cand < cost !c then c := cand
      done;
      let c = !c in
      let nbuckets = (1 lsl c) - 1 in
      let buckets = Array.init nbuckets (fun _ -> Mont.limbs ctx) in
      let occupied = Array.make nbuckets false in
      let run = Mont.limbs ctx and sum = Mont.limbs ctx in
      let acc = Bytes.copy ctx.Mont.one_m in
      let nw = (bits + c - 1) / c in
      for j = nw - 1 downto 0 do
        if j < nw - 1 then
          for _ = 1 to c do
            Mont.sqr ctx tbuf acc acc
          done;
        Array.fill occupied 0 nbuckets false;
        Array.iter
          (fun (bm, e) ->
            let d = Mont.bitfield e.mag (j * c) c in
            if d > 0 then
              if occupied.(d - 1) then Mont.mul ctx tbuf buckets.(d - 1) buckets.(d - 1) bm
              else begin
                Bytes.blit bm 0 buckets.(d - 1) 0 (8 * l);
                occupied.(d - 1) <- true
              end)
          ps;
        Bytes.blit ctx.Mont.one_m 0 run 0 (8 * l);
        Bytes.blit ctx.Mont.one_m 0 sum 0 (8 * l);
        for b = nbuckets - 1 downto 0 do
          if occupied.(b) then Mont.mul ctx tbuf run run buckets.(b);
          if b < nbuckets - 1 || occupied.(b) then Mont.mul ctx tbuf sum sum run
        done;
        Mont.mul ctx tbuf acc acc sum
      done;
      Mont.finish ctx tbuf acc
    end

  let run ctx pairs = if Array.length pairs >= 64 then pippenger ctx pairs else straus ctx pairs
end

(* ------------------------------------------------------------------ *)
(* Conversions                                                          *)
(* ------------------------------------------------------------------ *)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let negv = s.[0] = '-' in
  let start = if negv || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negv then neg !acc else !acc

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    (* extract 9 decimal digits at a time via single-limb division;
       the chunk 10^9 < 2^31 is a valid half-limb divisor *)
    let chunk = 1_000_000_000 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = mag_divmod_1 mag chunk in
        go q (r :: acc)
      end
    in
    let parts = go t.mag [] in
    (match parts with
    | [] -> assert false
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%09d" p)) rest);
    (if t.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

(* big-endian bytes of |t|, minimal length (no leading zero byte) —
   byte-for-byte identical to the 30-bit-era encoding, pinned by the
   golden-vector tests *)
let to_bytes_be t =
  if t.sign = 0 then ""
  else begin
    let nbytes = (bit_length t + 7) / 8 in
    let out = Bytes.create nbytes in
    let mag = t.mag in
    let len = Array.length mag in
    for k = 0 to nbytes - 1 do
      let pos = 8 * k in
      let limb = pos / limb_bits and off = pos mod limb_bits in
      let v = mag.(limb) lsr off in
      let v =
        if off + 8 > limb_bits && limb + 1 < len then
          v lor (mag.(limb + 1) lsl (limb_bits - off))
        else v
      in
      Bytes.unsafe_set out (nbytes - 1 - k) (Char.unsafe_chr (v land 0xff))
    done;
    Bytes.unsafe_to_string out
  end

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then zero
  else begin
    let bytes_le = Array.init n (fun i -> Char.code s.[n - 1 - i]) in
    make 1 (repack ~src_bits:8 ~dst_bits:limb_bits bytes_le)
  end

(* ------------------------------------------------------------------ *)
(* Randomness and primality                                             *)
(* ------------------------------------------------------------------ *)

let random_bits st bits =
  if bits < 0 then invalid_arg "Bigint.random_bits: negative bit count";
  if bits = 0 then zero
  else begin
    (* draw 30-bit chunks exactly as the 30-bit-limb representation
       did, then pack: the stream of [Random.State] calls — and hence
       every seeded transcript in the system — is unchanged by the
       limb widening *)
    let nchunks = (bits + 29) / 30 in
    let top_bits = bits - ((nchunks - 1) * 30) in
    let chunks =
      Array.init nchunks (fun i ->
          let v = Random.State.full_int st (1 lsl 30) in
          if i = nchunks - 1 then v land ((1 lsl top_bits) - 1) else v)
    in
    make 1 (repack ~src_bits:30 ~dst_bits:limb_bits chunks)
  end

let random_below st bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound must be positive";
  let bits = bit_length bound in
  let rec go () =
    let v = random_bits st bits in
    if compare v bound < 0 then v else go ()
  in
  go ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

let is_probable_prime ?(rounds = 20) st n =
  let n = abs n in
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else begin
    let divisible_by_small =
      List.exists
        (fun p ->
          let bp = of_int p in
          if compare n bp <= 0 then false else is_zero (rem n bp))
        small_primes
    in
    let is_small_prime = List.exists (fun p -> equal n (of_int p)) small_primes in
    if is_small_prime then true
    else if divisible_by_small then false
    else begin
      let n1 = sub n one in
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n1 0 in
      let witness_passes a =
        let x = powmod a d n in
        if is_one x || equal x n1 then true
        else begin
          let rec square x i =
            if i >= s - 1 then false
            else begin
              let x = mulmod x x n in
              if equal x n1 then true else square x (i + 1)
            end
          in
          square x 0
        end
      in
      let rec loop i =
        if i = rounds then true
        else begin
          let a = add two (random_below st (sub n (of_int 4))) in
          if witness_passes a then loop (i + 1) else false
        end
      in
      loop 0
    end
  end

let random_prime st ~bits =
  if bits < 2 then invalid_arg "Bigint.random_prime: need bits >= 2";
  let rec go () =
    let candidate =
      let v = random_bits st bits in
      (* force top and bottom bits *)
      let top = shift_left one (bits - 1) in
      let v = add v top in
      let v = if compare v (shift_left one bits) >= 0 then sub v top else v in
      let v = if is_even v then add v one else v in
      if compare v (shift_left one bits) >= 0 then sub v two else v
    in
    if bit_length candidate = bits && is_probable_prime st candidate then candidate
    else go ()
  in
  go ()

let pp ppf t = Format.pp_print_string ppf (to_string t)
