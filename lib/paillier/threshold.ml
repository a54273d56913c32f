module B = Yoso_bigint.Bigint

type tpk = {
  pk : Paillier.public_key;
  n_parties : int;
  threshold : int;
  delta : B.t;
}

type key_share = { index : int; epoch : int; value : B.t }
type partial = { p_index : int; p_epoch : int; d : B.t }

let share_index s = s.index
let share_epoch s = s.epoch
let unsafe_partial ~index ~epoch ~d = { p_index = index; p_epoch = epoch; d }

(* integral Lagrange-at-zero weight: mu_i = Delta * prod_{j in s, j<>i} j / (j - i).
   Exact division is guaranteed because prod (j - i) divides Delta. *)
let mu_weight delta subset i =
  let num = ref delta and den = ref B.one in
  List.iter
    (fun j ->
      if j <> i then begin
        num := B.mul !num (B.of_int j);
        den := B.mul !den (B.of_int (j - i))
      end)
    subset;
  let q, r = B.divmod !num !den in
  if not (B.is_zero r) then failwith "Threshold.mu_weight: non-integral weight";
  q

let keygen ?(bits = 128) ~n ~t ~rng () =
  if t < 0 || t >= n then invalid_arg "Threshold.keygen: need 0 <= t < n";
  let pk, sk = Paillier.keygen ~bits ~rng () in
  let bigm = B.mul pk.Paillier.n sk.Paillier.lambda in
  (* d = 0 mod lambda, d = 1 mod N (CRT; gcd(lambda, N) = 1) *)
  let d =
    let lambda = sk.Paillier.lambda and nn = pk.Paillier.n in
    let inv = B.invmod lambda nn in
    B.erem (B.mul lambda inv) bigm
  in
  (* integer polynomial f(x) = d + sum a_l x^l, a_l in [0, M) *)
  let coeffs = Array.init t (fun _ -> B.random_below rng bigm) in
  let eval_f x =
    let xb = B.of_int x in
    let acc = ref B.zero in
    for l = t - 1 downto 0 do
      acc := B.mul (B.add !acc coeffs.(l)) xb
    done;
    B.add !acc d
  in
  let tpk = { pk; n_parties = n; threshold = t; delta = B.factorial n } in
  let shares = Array.init n (fun i -> { index = i + 1; epoch = 0; value = eval_f (i + 1) }) in
  (tpk, shares)

(* theta_e = 4 Delta^2 (2 Delta^2)^e mod N: the scalar the plaintext is
   multiplied by after epoch-e reconstruction *)
let theta tpk epoch =
  let n = tpk.pk.Paillier.n in
  let d2 = B.erem (B.mul tpk.delta tpk.delta) n in
  let base = B.erem (B.mul (B.of_int 4) d2) n in
  let per_epoch = B.erem (B.mul B.two d2) n in
  B.erem (B.mul base (B.powmod per_epoch (B.of_int epoch) n)) n

let dedup_partials parts =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p.p_index then false
      else begin
        Hashtbl.add seen p.p_index ();
        true
      end)
    parts

module Ctx = struct
  type t = {
    tpk : tpk;
    pctx : Paillier.Ctx.t;
    weight_cache : (int list, (int * B.t) list) Hashtbl.t;
    theta_inv_cache : (int, B.t) Hashtbl.t;
  }

  let create tpk =
    {
      tpk;
      pctx = Paillier.Ctx.create tpk.pk;
      weight_cache = Hashtbl.create 4;
      theta_inv_cache = Hashtbl.create 4;
    }

  let tpk ctx = ctx.tpk
  let paillier ctx = ctx.pctx

  let weights ctx subset =
    match Hashtbl.find_opt ctx.weight_cache subset with
    | Some ws -> ws
    | None ->
      let ws = List.map (fun i -> (i, B.mul B.two (mu_weight ctx.tpk.delta subset i))) subset in
      Hashtbl.replace ctx.weight_cache subset ws;
      ws

  let theta_inv ctx epoch =
    match Hashtbl.find_opt ctx.theta_inv_cache epoch with
    | Some v -> v
    | None ->
      let v = B.invmod (theta ctx.tpk epoch) ctx.tpk.pk.Paillier.n in
      Hashtbl.replace ctx.theta_inv_cache epoch v;
      v

  let encrypt ctx ~rng m = Paillier.Ctx.encrypt ctx.pctx ~rng m

  let eval ctx cts coeffs = Paillier.Ctx.linear_combination ctx.pctx cts coeffs

  (* d_i = c^(2 Delta s_i) mod N^2; epoch >= 1 shares can be negative,
     handled through the inverse *)
  let exponent ctx share = B.mul B.two (B.mul ctx.tpk.delta share.value)

  let partial_decrypt ctx share ct =
    let e = exponent ctx share in
    let c = Paillier.raw ct in
    let d =
      if B.sign e >= 0 then Paillier.Ctx.pow_n2 ctx.pctx c e
      else Paillier.Ctx.pow_n2 ctx.pctx (B.invmod c ctx.tpk.pk.Paillier.n2) (B.neg e)
    in
    { p_index = share.index; p_epoch = share.epoch; d }

  (* a quorum raises one public ciphertext: one table for all of it *)
  let partial_decrypt_quorum ctx shares ct =
    let tb = Paillier.Ctx.table ctx.pctx ct in
    List.map
      (fun share ->
        let d = Paillier.Ctx.pow_ct tb (exponent ctx share) in
        { p_index = share.index; p_epoch = share.epoch; d })
      shares

  (* prod d_i^(2 mu_i) runs as one Straus/Pippenger multi-exponentiation
     over the Montgomery context for N^2: one shared-window pass over
     all t+1 partials instead of t+1 independent powmods *)
  let combine ctx parts =
    let tpk = ctx.tpk in
    let parts = dedup_partials parts in
    let need = tpk.threshold + 1 in
    if List.length parts < need then
      invalid_arg
        (Printf.sprintf "Threshold.combine: %d partials, need %d" (List.length parts) need);
    let chosen = List.filteri (fun i _ -> i < need) parts in
    let epoch = (List.hd chosen).p_epoch in
    if List.exists (fun p -> p.p_epoch <> epoch) chosen then
      invalid_arg "Threshold.combine: partials from different epochs";
    let ws = weights ctx (List.map (fun p -> p.p_index) chosen) in
    let pairs =
      Array.of_list (List.map (fun p -> (p.d, List.assoc p.p_index ws)) chosen)
    in
    let acc = B.Multiexp.run (Paillier.Ctx.mont_n2 ctx.pctx) pairs in
    (* acc = 1 + (m * theta_e mod N) * N *)
    let l = B.div (B.sub acc B.one) tpk.pk.Paillier.n in
    B.erem (B.mul l (theta_inv ctx epoch)) tpk.pk.Paillier.n

  (* Force the lazy state a pooled fan-out would otherwise first-touch
     mid-chunk: the combining weights for [subsets] and the theta
     inverses for [epochs].  The two Hashtbl caches are not safe for
     concurrent writes, so shared contexts must be preloaded before
     the job. *)
  let preload ?(epochs = []) ?(subsets = []) ctx =
    List.iter (fun e -> ignore (theta_inv ctx e)) epochs;
    List.iter (fun s -> ignore (weights ctx s)) subsets

  let sim_partial_decrypt ctx ct ~m ~honest =
    if List.length honest < ctx.tpk.threshold + 1 then
      invalid_arg "Threshold.sim_partial_decrypt: not enough honest shares";
    let partials ct = partial_decrypt_quorum ctx honest ct in
    (* decrypt beta using the honest shares themselves *)
    let m0 = combine ctx (partials ct) in
    (* beta' = beta * (1+N)^(m - m0): same randomness component, target
       plaintext *)
    let adjust = Paillier.Ctx.g_pow ctx.pctx (B.sub m m0) in
    let n2 = ctx.tpk.pk.Paillier.n2 in
    let ct' = Paillier.Ctx.of_raw ctx.pctx (B.mulmod (Paillier.raw ct) adjust n2) in
    partials ct'
end

let reshare tpk share ~rng =
  let t = tpk.threshold in
  (* g(x) = Delta * s_i + sum_{l=1..t} a_l x^l with statistically
     blinding coefficients *)
  let bound =
    B.shift_left (B.add (B.abs share.value) (B.mul tpk.pk.Paillier.n tpk.pk.Paillier.n)) 64
  in
  let coeffs = Array.init t (fun _ -> B.random_below rng bound) in
  let base = B.mul tpk.delta share.value in
  Array.init tpk.n_parties (fun j ->
      let xb = B.of_int (j + 1) in
      let acc = ref B.zero in
      for l = t - 1 downto 0 do
        acc := B.mul (B.add !acc coeffs.(l)) xb
      done;
      B.add !acc base)

let recombine_share tpk ~index ~epoch subshares =
  let seen = Hashtbl.create 8 in
  let subshares =
    List.filter
      (fun (i, _) ->
        if Hashtbl.mem seen i then false
        else begin
          Hashtbl.add seen i ();
          true
        end)
      subshares
  in
  let need = tpk.threshold + 1 in
  if List.length subshares < need then
    invalid_arg
      (Printf.sprintf "Threshold.recombine_share: %d subshares, need %d"
         (List.length subshares) need);
  let chosen = List.filteri (fun i _ -> i < need) subshares in
  let subset = List.map fst chosen in
  let value =
    List.fold_left
      (fun acc (i, m) ->
        let w = B.mul B.two (mu_weight tpk.delta subset i) in
        B.add acc (B.mul w m))
      B.zero chosen
  in
  { index; epoch; value }
