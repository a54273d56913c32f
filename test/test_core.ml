module F = Yoso_field.Field.Fp
module Params = Yoso_mpc.Params
module Pke = Yoso_mpc.Ideal_pke
module Te = Yoso_mpc.Ideal_te
module Ops = Yoso_mpc.Committee_ops
module Setup = Yoso_mpc.Setup
module Protocol = Yoso_mpc.Protocol
module Online = Yoso_mpc.Online
module Cdn = Yoso_mpc.Cdn_baseline
module Gen = Yoso_circuit.Generators
module Circuit = Yoso_circuit.Circuit
module Splitmix = Yoso_hash.Splitmix

let rng () = Splitmix.of_int 0x1DEA
let felt = Alcotest.testable F.pp F.equal

(* ------------------------------------------------------------------ *)
(* Ideal PKE                                                           *)
(* ------------------------------------------------------------------ *)

let test_pke_roundtrip () =
  let pk, sk = Pke.gen (rng ()) in
  Alcotest.(check int) "roundtrip" 42 (Pke.dec sk (Pke.enc pk 42))

let test_pke_wrong_key () =
  let r = rng () in
  let pk, _ = Pke.gen r in
  let _, sk2 = Pke.gen r in
  Alcotest.check_raises "wrong key" (Invalid_argument "Ideal_pke.dec: wrong key")
    (fun () -> ignore (Pke.dec sk2 (Pke.enc pk 1)))

let test_pke_nested_payload () =
  (* the KFF pattern: a secret key travelling inside a ciphertext *)
  let r = rng () in
  let pk1, sk1 = Pke.gen r in
  let pk2, sk2 = Pke.gen r in
  let nested = Pke.enc pk1 sk2 in
  let recovered = Pke.dec sk1 nested in
  Alcotest.(check int) "nested key works" 7 (Pke.dec recovered (Pke.enc pk2 7))

(* ------------------------------------------------------------------ *)
(* Ideal TE                                                            *)
(* ------------------------------------------------------------------ *)

let te_fixture () = Te.keygen ~n:7 ~t:2 ~rng:(rng ())

(* the partial decryption rows of members [who] over one batch *)
let rows te shares cts who = List.map (fun i -> Te.partial_decrypt te shares.(i) cts) who

(* a step's decryption of a one-ciphertext batch *)
let decrypt te shares ct who = Te.combine_col (Te.quorum te (rows te shares [| ct |] who)) 0

let test_te_roundtrip () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te (F.of_int 99) in
  Alcotest.check felt "t+1 partials" (F.of_int 99) (decrypt te shares ct [ 0; 3; 6 ]);
  (* one quorum serves every ciphertext of the batch *)
  let cts = Array.map (fun v -> Te.encrypt te (F.of_int v)) [| 4; 5; 6 |] in
  let q = Te.quorum te (rows te shares cts [ 6; 2; 4; 1 ]) in
  Alcotest.(check (list int)) "every column" [ 4; 5; 6 ]
    (List.init 3 (fun c -> F.to_int (Te.combine_col q c)))

let test_te_too_few () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te F.one in
  Alcotest.check_raises "2 partials" (Invalid_argument "Ideal_te.quorum: 2 partials, need 3")
    (fun () -> ignore (decrypt te shares ct [ 0; 1 ]));
  (* duplicates do not count twice *)
  Alcotest.check_raises "duplicated index" (Invalid_argument "Ideal_te.quorum: 2 partials, need 3")
    (fun () -> ignore (decrypt te shares ct [ 0; 0; 1 ]))

let test_te_eval () =
  let te, shares = te_fixture () in
  let cts = Array.map (fun v -> Te.encrypt te (F.of_int v)) [| 2; 3; 5 |] in
  let combo = Te.eval te cts (Array.map F.of_int [| 10; 100; 1000 |]) in
  Alcotest.check felt "linear combination" (F.of_int 5320) (decrypt te shares combo [ 1; 2; 3 ])

let test_te_junk_partial_detected () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te (F.of_int 5) in
  (* a current-epoch row of sender 6 over a ciphertext of a wrong value *)
  let junk = Te.partial_decrypt te shares.(5) [| Te.encrypt te (F.of_int 1234) |] in
  Alcotest.check_raises "inconsistent"
    (Invalid_argument "Ideal_te.combine_col: inconsistent partials") (fun () ->
      ignore (Te.combine_col (Te.quorum te (junk :: rows te shares [| ct |] [ 0; 1 ])) 0))

let test_te_reshare_epochs () =
  let te, shares = te_fixture () in
  let ct = Te.encrypt te (F.of_int 11) in
  (* everyone reshares; one recombination serves the next committee *)
  let tokens = Array.map (Te.reshare te) shares in
  let new_shares = Te.recombine_all te (Array.to_list tokens) in
  Alcotest.(check int) "epoch bumped" 1 (Te.share_epoch new_shares.(0));
  Alcotest.(check (list int)) "one share per member" [ 1; 2; 3; 4; 5; 6; 7 ]
    (Array.to_list (Array.map Te.share_index new_shares));
  Alcotest.check felt "new shares decrypt" (F.of_int 11) (decrypt te new_shares ct [ 2; 4; 5 ]);
  (* mixing epochs is rejected *)
  let mixed = Te.partial_decrypt te shares.(0) [| ct |] :: rows te new_shares [| ct |] [ 1; 2 ] in
  Alcotest.check_raises "mixed epochs"
    (Invalid_argument "Ideal_te.quorum: partials from different epochs") (fun () ->
      ignore (Te.quorum te mixed));
  let mixed_tokens = tokens.(0) :: List.map (Te.reshare te) [ new_shares.(1); new_shares.(2) ] in
  Alcotest.check_raises "mixed token epochs"
    (Invalid_argument "Ideal_te.recombine_all: tokens from different epochs") (fun () ->
      ignore (Te.recombine_all te mixed_tokens))

let test_te_recombine_needs_quorum () =
  let te, shares = te_fixture () in
  let tokens = Array.map (Te.reshare te) shares in
  Alcotest.check_raises "2 senders" (Invalid_argument "Ideal_te.recombine_all: 2 tokens, need 3")
    (fun () -> ignore (Te.recombine_all te [ tokens.(0); tokens.(1) ]));
  Alcotest.check_raises "duplicated sender"
    (Invalid_argument "Ideal_te.recombine_all: 2 tokens, need 3") (fun () ->
      ignore (Te.recombine_all te [ tokens.(0); tokens.(1); tokens.(0) ]))

let test_te_foreign_ciphertext () =
  let te, shares = te_fixture () in
  let te2, shares2 = Te.keygen ~n:5 ~t:1 ~rng:(rng ()) in
  let ct = Te.encrypt te2 F.one in
  Alcotest.check_raises "foreign" (Invalid_argument "Ideal_te: foreign ciphertext")
    (fun () -> ignore (Te.add te ct ct));
  Alcotest.check_raises "foreign in a batch" (Invalid_argument "Ideal_te: foreign ciphertext")
    (fun () -> ignore (Te.partial_decrypt te shares.(0) [| Te.encrypt te F.one; ct |]));
  Alcotest.check_raises "share of other key"
    (Invalid_argument "Ideal_te.partial_decrypt: share of another key") (fun () ->
      ignore (Te.partial_decrypt te shares2.(0) [| Te.encrypt te F.one |]));
  Alcotest.check_raises "reshare with a share of other key"
    (Invalid_argument "Ideal_te.reshare: share of another key") (fun () ->
      ignore (Te.reshare te shares2.(0)))

let test_te_foreign_partial_and_token () =
  let te, shares = te_fixture () in
  let te2, shares2 = Te.keygen ~n:7 ~t:2 ~rng:(rng ()) in
  let ct = Te.encrypt te F.one in
  (* a foreign row is rejected wherever it sits, even past the quorum *)
  Alcotest.check_raises "foreign partial" (Invalid_argument "Ideal_te.quorum: foreign partial")
    (fun () ->
      let foreign = rows te2 shares2 [| Te.encrypt te2 F.one |] [ 3 ] in
      ignore (Te.quorum te (rows te shares [| ct |] [ 0; 1; 2 ] @ foreign)));
  Alcotest.check_raises "foreign token" (Invalid_argument "Ideal_te.recombine_all: foreign token")
    (fun () ->
      ignore
        (Te.recombine_all te
           (Te.reshare te2 shares2.(3) :: List.map (Te.reshare te) (Array.to_list shares))))

(* Committee-level operations against a plain per-recipient model:
   the list semantics the simulator used before the step-level API —
   per ciphertext, dedupe the partials by sender, take the first t+1,
   check their epoch and values; per next-committee member, dedupe the
   sub-shares by sender and check their count and epoch.  Every case
   must give the same value, or raise the same message. *)
type row_kind = Honest | Junk of int | Shifted | Foreign

type model_row = { m_index : int; m_epoch : int; m_values : F.t array; m_foreign : bool }

let model_decrypt ~t mrows c =
  if List.exists (fun r -> r.m_foreign) mrows then Error "Ideal_te.quorum: foreign partial"
  else begin
    let seen = Hashtbl.create 8 in
    let distinct =
      List.filter
        (fun r ->
          if Hashtbl.mem seen r.m_index then false
          else begin
            Hashtbl.add seen r.m_index ();
            true
          end)
        mrows
    in
    let need = t + 1 in
    if List.length distinct < need then
      Error (Printf.sprintf "Ideal_te.quorum: %d partials, need %d" (List.length distinct) need)
    else
      match List.filteri (fun i _ -> i < need) distinct with
      | [] -> assert false
      | r0 :: rest ->
        if List.exists (fun r -> r.m_epoch <> r0.m_epoch) rest then
          Error "Ideal_te.quorum: partials from different epochs"
        else if List.exists (fun r -> not (F.equal r.m_values.(c) r0.m_values.(c))) rest then
          Error "Ideal_te.combine_col: inconsistent partials"
        else Ok r0.m_values.(c)
  end

let model_recombine ~n ~t mtokens =
  let recipient _j =
    if List.exists (fun (_, _, foreign) -> foreign) mtokens then
      Error "Ideal_te.recombine_all: foreign token"
    else begin
      let seen = Hashtbl.create 8 in
      let distinct =
        List.filter
          (fun (i, _, _) ->
            if Hashtbl.mem seen i then false
            else begin
              Hashtbl.add seen i ();
              true
            end)
          mtokens
      in
      let need = t + 1 in
      if List.length distinct < need then
        Error
          (Printf.sprintf "Ideal_te.recombine_all: %d tokens, need %d" (List.length distinct) need)
      else
        match distinct with
        | [] -> assert false
        | (_, e0, _) :: rest ->
          if List.exists (fun (_, e, _) -> e <> e0) rest then
            Error "Ideal_te.recombine_all: tokens from different epochs"
          else Ok (e0 + 1)
    end
  in
  let per = List.init n recipient in
  match List.find_opt Result.is_error per with
  | Some (Error m) -> Error m
  | _ -> Ok (List.mapi (fun j r -> (j + 1, Result.get_ok r)) per)

let result_of f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let prop_te_matches_model =
  let gen =
    QCheck.Gen.(
      int_range 1 32 >>= fun n ->
      int_range 0 (n - 1) >>= fun t ->
      int_range 1 3 >>= fun width ->
      let kind =
        frequency
          [ (8, return Honest); (1, map (fun v -> Junk v) (int_bound 1000)); (1, return Shifted);
            (1, return Foreign) ]
      in
      let sender = pair (int_range 1 n) kind in
      pair (list_size (int_bound (2 * n)) sender) (list_size (int_bound (2 * n)) sender)
      >>= fun (prows, ptokens) -> return (n, t, width, prows, ptokens))
  in
  let print (n, t, width, prows, ptokens) =
    let k = function
      | Honest -> "h" | Junk v -> Printf.sprintf "j%d" v | Shifted -> "s" | Foreign -> "f"
    in
    let l xs = String.concat " " (List.map (fun (i, x) -> Printf.sprintf "%d%s" i (k x)) xs) in
    Printf.sprintf "n=%d t=%d width=%d rows=[%s] tokens=[%s]" n t width (l prows) (l ptokens)
  in
  QCheck.Test.make ~count:300 ~name:"committee-level = per-recipient model"
    (QCheck.make ~print gen) (fun (n, t, width, prows, ptokens) ->
      let te, shares = Te.keygen ~n ~t ~rng:(rng ()) in
      let te2, shares2 = Te.keygen ~n ~t ~rng:(rng ()) in
      let plain = Array.init width (fun c -> F.of_int (100 + c)) in
      let cts = Array.map (Te.encrypt te) plain in
      let cts2 = Array.map (Te.encrypt te2) plain in
      let next = Te.recombine_all te (Array.to_list (Array.map (Te.reshare te) shares)) in
      let row (i, kind) =
        let m = { m_index = i; m_epoch = 0; m_values = plain; m_foreign = false } in
        match kind with
        | Honest -> (Te.partial_decrypt te shares.(i - 1) cts, m)
        | Junk v ->
          let vs = Array.make width (F.of_int v) in
          let junk = Array.map (Te.encrypt te) vs in
          (Te.partial_decrypt te shares.(i - 1) junk, { m with m_values = vs })
        | Shifted -> (Te.partial_decrypt te next.(i - 1) cts, { m with m_epoch = 1 })
        | Foreign -> (Te.partial_decrypt te2 shares2.(i - 1) cts2, { m with m_foreign = true })
      in
      let rs, mrows = List.split (List.map row prows) in
      let got =
        List.init width (fun c -> result_of (fun () -> Te.combine_col (Te.quorum te rs) c))
      in
      let want = List.init width (model_decrypt ~t mrows) in
      let token (i, kind) =
        match kind with
        | Honest | Junk _ -> (Te.reshare te shares.(i - 1), (i, 0, false))
        | Shifted -> (Te.reshare te next.(i - 1), (i, 1, false))
        | Foreign -> (Te.reshare te2 shares2.(i - 1), (i, 0, true))
      in
      let tks, mtokens = List.split (List.map token ptokens) in
      let got_shares =
        result_of (fun () ->
            Array.to_list
              (Array.map (fun s -> (Te.share_index s, Te.share_epoch s)) (Te.recombine_all te tks)))
      in
      got = want && got_shares = model_recombine ~n ~t mtokens)

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_validation () =
  Alcotest.check_raises "packing degree"
    (Invalid_argument "Params.create: packing degree t+k-1 = 8 exceeds n-1 = 7") (fun () ->
      ignore (Params.create ~n:8 ~t:5 ~k:4 ()));
  Alcotest.check_raises "reconstruction"
    (Invalid_argument
       "Params.create: reconstruction threshold t+2(k-1)+1 = 10 exceeds n = 9") (fun () ->
      ignore (Params.create ~n:9 ~t:3 ~k:4 ()));
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  Alcotest.(check int) "recon" 10 (Params.reconstruction_threshold p);
  Alcotest.(check int) "pack degree" 7 (Params.packing_degree p)

let test_params_of_gap () =
  let p = Params.of_gap ~n:100 ~eps:0.1 () in
  Alcotest.(check int) "t" 39 p.Params.t;
  Alcotest.(check int) "k" 11 p.Params.k;
  let pf = Params.of_gap ~n:100 ~eps:0.1 ~fail_stop_mode:true () in
  Alcotest.(check int) "fail-stop k" 6 pf.Params.k;
  Alcotest.(check bool) "fail-stop headroom" true
    (Params.max_fail_stop pf { Params.malicious = pf.Params.t; passive = 0; fail_stop = 0 } >= 9)

let test_params_adversary_validation () =
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  Params.validate_adversary p { Params.malicious = 5; passive = 2; fail_stop = 1 };
  Alcotest.check_raises "too many malicious"
    (Invalid_argument "Params.validate_adversary: 6 malicious exceeds t = 5") (fun () ->
      Params.validate_adversary p { Params.malicious = 6; passive = 0; fail_stop = 0 });
  Alcotest.check_raises "too silent"
    (Invalid_argument
       "Params.validate_adversary: 9 speaking honest roles < reconstruction threshold 10")
    (fun () ->
      Params.validate_adversary p { Params.malicious = 5; passive = 0; fail_stop = 2 })

let test_params_adversary_edge_cases () =
  (* t = 0: any malicious role at all is beyond the bound *)
  let p0 = Params.create ~n:4 ~t:0 ~k:1 () in
  Params.validate_adversary p0 Params.no_adversary;
  Alcotest.check_raises "t = 0 admits no malicious"
    (Invalid_argument "Params.validate_adversary: 1 malicious exceeds t = 0") (fun () ->
      Params.validate_adversary p0 { Params.malicious = 1; passive = 0; fail_stop = 0 });
  (* k = 1 (no packing): reconstruction threshold collapses to t + 1 *)
  let p1 = Params.create ~n:7 ~t:3 ~k:1 () in
  Alcotest.(check int) "k = 1 recon" 4 (Params.reconstruction_threshold p1);
  Params.validate_adversary p1 { Params.malicious = 3; passive = 0; fail_stop = 0 };
  (* exactly at the speaking-honest threshold passes; one more fails *)
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  let at = { Params.malicious = 5; passive = 0; fail_stop = 1 } in
  Params.validate_adversary p at;
  Alcotest.(check int) "no headroom left at the bound" 0
    (Params.max_fail_stop p at - at.Params.fail_stop);
  (* negative counts are rejected outright, one field at a time *)
  List.iter
    (fun adv ->
      Alcotest.check_raises "negative counts"
        (Invalid_argument "Params.validate_adversary: negative counts") (fun () ->
          Params.validate_adversary p adv))
    [
      { Params.malicious = -1; passive = 0; fail_stop = 0 };
      { Params.malicious = 0; passive = -2; fail_stop = 0 };
      { Params.malicious = 0; passive = 0; fail_stop = -1 };
    ];
  (* corruption counts must fit in the committee *)
  Alcotest.check_raises "exceeds committee"
    (Invalid_argument "Params.validate_adversary: corruptions exceed committee size")
    (fun () -> Params.validate_adversary p { Params.malicious = 5; passive = 11; fail_stop = 1 })

let test_params_max_fail_stop_clamped () =
  let p = Params.create ~n:16 ~t:5 ~k:3 () in
  (* n - malicious - recon = 16 - 5 - 10 = 1 *)
  Alcotest.(check int) "headroom at t malicious" 1
    (Params.max_fail_stop p { Params.malicious = 5; passive = 0; fail_stop = 0 });
  Alcotest.(check int) "headroom with no malicious" 6
    (Params.max_fail_stop p Params.no_adversary);
  (* clamped at zero even for nonsense adversaries beyond the bound *)
  Alcotest.(check int) "never negative" 0
    (Params.max_fail_stop p { Params.malicious = 16; passive = 0; fail_stop = 0 });
  (* tight params: n = recon means zero tolerance from the start *)
  let tight = Params.create ~n:10 ~t:5 ~k:3 () in
  Alcotest.(check int) "n = recon, zero headroom" 0
    (Params.max_fail_stop tight Params.no_adversary)

(* ------------------------------------------------------------------ *)
(* End-to-end protocol                                                 *)
(* ------------------------------------------------------------------ *)

let params16 = Params.create ~n:16 ~t:5 ~k:3 ()

let run_and_check ?adversary circuit inputs =
  let config =
    match adversary with
    | None -> Protocol.default_config
    | Some adversary -> Protocol.config ~adversary ()
  in
  let r = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  Alcotest.(check bool) "outputs match plain evaluation" true
    (Protocol.check r circuit ~inputs)

let test_e2e_dot_product () =
  let circuit = Gen.dot_product ~len:7 in
  run_and_check circuit (fun c -> Array.init 7 (fun i -> F.of_int ((c + 1) * (i + 2))))

let test_e2e_wide () =
  let circuit = Gen.wide_mul ~width:6 ~depth:3 ~clients:3 in
  run_and_check circuit (fun c -> Array.init 12 (fun i -> F.of_int ((c + 2) * (i + 1))))

let test_e2e_deep () =
  let circuit = Gen.poly_eval ~degree:9 in
  run_and_check circuit (fun c ->
      if c = 0 then Array.init 10 (fun i -> F.of_int (i + 1)) else [| F.of_int 5 |])

let test_e2e_variance () =
  let circuit = Gen.variance_numerator ~parties:4 in
  run_and_check circuit (fun c ->
      if c = 0 then [| F.of_int 9; F.of_int 4; F.of_int (-1) |] else [| F.of_int (c * 3) |])

let test_e2e_random_dags () =
  for seed = 1 to 5 do
    let circuit = Gen.random_dag ~gates:60 ~clients:3 ~mul_fraction:0.5 ~seed in
    run_and_check circuit (fun c -> [| F.of_int (c + 7); F.of_int ((2 * c) + 3) |])
  done

let test_e2e_random_field_inputs () =
  let st = Random.State.make [| 77 |] in
  let circuit = Gen.matrix_vector ~rows:3 ~cols:5 in
  let m = Array.init 15 (fun _ -> F.random st) in
  let v = Array.init 5 (fun _ -> F.random st) in
  run_and_check circuit (fun c -> if c = 0 then m else v)

let test_e2e_with_malicious () =
  let circuit = Gen.dot_product ~len:5 in
  let inputs c = Array.init 5 (fun i -> F.of_int ((c + 3) * (i + 1))) in
  List.iter
    (fun malicious ->
      run_and_check
        ~adversary:{ Params.malicious; passive = 0; fail_stop = 0 }
        circuit inputs)
    [ 1; 3; 5 ]

let test_e2e_with_fail_stop () =
  let circuit = Gen.dot_product ~len:5 in
  let inputs c = Array.init 5 (fun i -> F.of_int ((c + 3) * (i + 1))) in
  List.iter
    (fun fail_stop ->
      run_and_check ~adversary:{ Params.malicious = 0; passive = 0; fail_stop } circuit inputs)
    [ 1; 3; 6 ]

let test_e2e_mixed_adversary () =
  let circuit = Gen.wide_mul_reduced ~width:5 ~depth:2 ~clients:2 in
  let inputs c = Array.init 10 (fun i -> F.of_int ((c + 2) * (i + 5))) in
  run_and_check ~adversary:{ Params.malicious = 3; passive = 2; fail_stop = 2 } circuit inputs

let test_e2e_failstop_mode_params () =
  (* Section 5.4: halve the packing gap, tolerate n*eps fail-stops *)
  let params = Params.of_gap ~n:20 ~eps:0.2 ~fail_stop_mode:true () in
  let headroom =
    Params.max_fail_stop params { Params.malicious = params.Params.t; passive = 0; fail_stop = 0 }
  in
  Alcotest.(check bool) "tolerates ~n*eps silent roles" true (headroom >= 4);
  let circuit = Gen.dot_product ~len:6 in
  let inputs c = Array.init 6 (fun i -> F.of_int ((c + 1) * (i + 1))) in
  let adversary = { Params.malicious = params.Params.t; passive = 0; fail_stop = headroom } in
  let r =
    Protocol.execute ~params
      ~config:(Protocol.config ~adversary ())
      ~circuit ~inputs ()
  in
  Alcotest.(check bool) "GOD under t malicious + max fail-stop" true
    (Protocol.check r circuit ~inputs)

let test_e2e_rejects_invalid_adversary () =
  let circuit = Gen.dot_product ~len:2 in
  Alcotest.check_raises "adversary checked"
    (Invalid_argument "Params.validate_adversary: 6 malicious exceeds t = 5") (fun () ->
      ignore
        (Protocol.execute ~params:params16
           ~config:
             (Protocol.config
                ~adversary:{ Params.malicious = 6; passive = 0; fail_stop = 0 }
                ())
           ~circuit
           ~inputs:(fun _ -> [| F.one; F.one |])
           ()))

let test_e2e_deterministic_given_seed () =
  let circuit = Gen.dot_product ~len:3 in
  let inputs c = Array.init 3 (fun i -> F.of_int (c + i + 1)) in
  let config = Protocol.config ~seed:9 () in
  let r1 = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  let r2 = Protocol.execute ~params:params16 ~config ~circuit ~inputs () in
  Alcotest.(check int) "same posts" r1.Protocol.posts r2.Protocol.posts;
  Alcotest.(check int) "same offline cost" r1.Protocol.offline_elements r2.Protocol.offline_elements

let test_e2e_k1_no_packing () =
  (* k = 1 degenerates to unpacked sharings; protocol must still work *)
  let params = Params.create ~n:8 ~t:2 ~k:1 () in
  let circuit = Gen.dot_product ~len:4 in
  let inputs c = Array.init 4 (fun i -> F.of_int ((c + 1) * (i + 1))) in
  let r = Protocol.execute ~params ~circuit ~inputs () in
  Alcotest.(check bool) "k=1 works" true (Protocol.check r circuit ~inputs)

(* ------------------------------------------------------------------ *)
(* Communication-complexity shape (Theorem 1)                          *)
(* ------------------------------------------------------------------ *)

let comm_run n =
  let params = Params.of_gap ~n ~eps:0.125 () in
  let k = params.Params.k in
  let width = n * k / 4 in
  let circuit = Gen.wide_mul_reduced ~width ~depth:2 ~clients:2 in
  let inputs c = Array.init (2 * width) (fun i -> F.of_int ((c + 2) * (i + 3))) in
  let ours = Protocol.execute ~params ~circuit ~inputs () in
  let cdn = Cdn.execute ~params ~circuit ~inputs () in
  Alcotest.(check bool) "ours correct" true (Protocol.check ours circuit ~inputs);
  Alcotest.(check bool) "cdn correct" true (Cdn.check cdn circuit ~inputs);
  (Protocol.online_per_gate ours, Cdn.online_per_gate cdn, Protocol.offline_per_gate ours)

let test_online_flat_vs_cdn_linear () =
  let ours16, cdn16, _ = comm_run 16 in
  let ours64, cdn64, _ = comm_run 64 in
  (* quadrupling n: CDN online/gate should grow ~4x (allow >2x);
     ours should stay within a small constant factor (allow < 1.6x) *)
  Alcotest.(check bool)
    (Printf.sprintf "cdn grows (%.1f -> %.1f)" cdn16 cdn64)
    true
    (cdn64 > 2.0 *. cdn16);
  Alcotest.(check bool)
    (Printf.sprintf "ours ~flat (%.1f -> %.1f)" ours16 ours64)
    true
    (ours64 < 1.6 *. ours16);
  Alcotest.(check bool) "ours beats cdn at n=64" true (ours64 < cdn64)

let test_offline_linear () =
  let _, _, off16 = comm_run 16 in
  let _, _, off64 = comm_run 64 in
  (* offline per gate is O(n): quadrupling n should stay within ~[2x, 8x] *)
  let ratio = off64 /. off16 in
  Alcotest.(check bool) (Printf.sprintf "offline ratio %.1f in [2, 8]" ratio) true
    (ratio > 2.0 && ratio < 8.0)

let test_speak_once_audit () =
  (* a full run completes: [Role.Registry.speak] raises on any second
     post by a role, so finishing is the audit.  Every committed frame
     took a board slot (ideal network, no adversary). *)
  let circuit = Gen.dot_product ~len:4 in
  let inputs c = Array.init 4 (fun i -> F.of_int (c + i + 1)) in
  let params = params16 in
  (* re-run manually to keep the board *)
  let board = Yoso_net.Board.create () in
  let ctx = Ops.create_ctx ~board ~params ~adversary:Params.no_adversary ~seed:3 () in
  let layout = Yoso_circuit.Layout.make circuit ~k:params.Params.k in
  let setup =
    Setup.run ~board ~params
      ~layers:(Array.length layout.Yoso_circuit.Layout.mult_layers)
      ~clients:(Circuit.clients circuit)
      ~rng:(Splitmix.of_int 4)
  in
  let prep = Yoso_mpc.Offline.run ctx setup layout in
  let _ = Online.run ctx setup prep ~inputs in
  let posts = Yoso_net.Board.length board in
  Alcotest.(check bool) "posts made" true (posts > 0);
  Alcotest.(check int) "one slot per frame" (Yoso_net.Board.transcript board).Yoso_net.Board.frames
    posts

let () =
  Alcotest.run "core"
    [
      ( "ideal-pke",
        [
          Alcotest.test_case "roundtrip" `Quick test_pke_roundtrip;
          Alcotest.test_case "wrong key" `Quick test_pke_wrong_key;
          Alcotest.test_case "nested payload" `Quick test_pke_nested_payload;
        ] );
      ( "ideal-te",
        [
          Alcotest.test_case "roundtrip" `Quick test_te_roundtrip;
          Alcotest.test_case "too few" `Quick test_te_too_few;
          Alcotest.test_case "eval" `Quick test_te_eval;
          Alcotest.test_case "junk partial" `Quick test_te_junk_partial_detected;
          Alcotest.test_case "reshare epochs" `Quick test_te_reshare_epochs;
          Alcotest.test_case "recombine quorum" `Quick test_te_recombine_needs_quorum;
          Alcotest.test_case "foreign ciphertext" `Quick test_te_foreign_ciphertext;
          Alcotest.test_case "foreign partial and token" `Quick test_te_foreign_partial_and_token;
          QCheck_alcotest.to_alcotest prop_te_matches_model;
        ] );
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "of_gap" `Quick test_params_of_gap;
          Alcotest.test_case "adversary validation" `Quick test_params_adversary_validation;
          Alcotest.test_case "adversary edge cases" `Quick test_params_adversary_edge_cases;
          Alcotest.test_case "max_fail_stop clamped" `Quick test_params_max_fail_stop_clamped;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "dot product" `Quick test_e2e_dot_product;
          Alcotest.test_case "wide" `Quick test_e2e_wide;
          Alcotest.test_case "deep" `Quick test_e2e_deep;
          Alcotest.test_case "variance" `Quick test_e2e_variance;
          Alcotest.test_case "random dags" `Quick test_e2e_random_dags;
          Alcotest.test_case "random field inputs" `Quick test_e2e_random_field_inputs;
          Alcotest.test_case "malicious" `Quick test_e2e_with_malicious;
          Alcotest.test_case "fail-stop" `Quick test_e2e_with_fail_stop;
          Alcotest.test_case "mixed adversary" `Quick test_e2e_mixed_adversary;
          Alcotest.test_case "fail-stop mode (5.4)" `Quick test_e2e_failstop_mode_params;
          Alcotest.test_case "invalid adversary" `Quick test_e2e_rejects_invalid_adversary;
          Alcotest.test_case "deterministic" `Quick test_e2e_deterministic_given_seed;
          Alcotest.test_case "k = 1" `Quick test_e2e_k1_no_packing;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "online flat vs cdn linear" `Slow test_online_flat_vs_cdn_linear;
          Alcotest.test_case "offline linear" `Slow test_offline_linear;
          Alcotest.test_case "speak-once audit" `Quick test_speak_once_audit;
        ] );
    ]
