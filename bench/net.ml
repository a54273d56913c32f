(* E7: measured wire bytes over the simulated network *)

open Harness

(* Fixed circuit (256 mult gates), growing committees with a constant
   corruption ratio t = k = n/4, so n/k is constant and the online
   *data* bytes per gate — the paper's O(1) claim, now measured on the
   wire rather than counted — must come out flat across n.  Totals
   are reported alongside and do grow: offline by its O(n) material,
   online by future key distribution's O(layers·n²) re-encryption
   partials (the per-step split below). *)
let net_sweep = [ 16; 32; 64; 128 ]

(* online bytes by step family, with the step prefixes of the
   benchmark's byte ledger; the families cover every online step *)
let online_split r =
  let steps = Yoso_net.Meter.steps r.Protocol.meter ~phase:"online" in
  let split =
    List.map
      (fun (family, prefix) ->
        let claimed (label, _) = String.starts_with ~prefix label in
        (family, List.fold_left ( + ) 0 (List.map snd (List.filter claimed steps))))
      [ ("fkd", "future key distribution"); ("mult", "multiplication:");
        ("input", "input:"); ("output", "output:") ]
  in
  if List.fold_left (fun acc (_, b) -> acc + b) 0 split <> r.Protocol.online_bytes then
    failwith "net sweep: online step families do not sum to online_bytes";
  split

let run () =
  header "E7. Measured communication (bytes on the simulated wire), fixed circuit";
  let width = 128 and depth = 2 in
  let circuit = Gen.wide_mul_reduced ~width ~depth ~clients:2 in
  let inputs = fixture (2 * width) in
  let row n =
    let params = Params.create ~n ~t:(n / 4) ~k:(n / 4) () in
    let config = Protocol.config ~seed:0xBE7 () in
    let r = Protocol.execute ~params ~config ~circuit ~inputs () in
    assert (Protocol.check r circuit ~inputs);
    (n, params, r)
  in
  let rows = List.map row net_sweep in
  (* byte-identical replay of the first configuration *)
  let replay_ok =
    let _, _, again = row (List.hd net_sweep) in
    let _, _, first = List.hd rows in
    again.Protocol.transcript = first.Protocol.transcript
  in
  Printf.printf "%5s %4s %7s | %14s %12s %14s %16s\n" "n" "k" "gates" "online data B/g"
    "online B/g" "offline B/g" "frames (bytes)";
  List.iter
    (fun (n, params, r) ->
      Printf.printf "%5d %4d %7d | %14.1f %12.1f %14.1f %7d (%d)\n" n params.Params.k
        r.Protocol.num_mult
        (Protocol.online_field_bytes_per_gate r)
        (Protocol.online_bytes_per_gate r)
        (Protocol.offline_bytes_per_gate r)
        r.Protocol.transcript.Board.frames
        r.Protocol.transcript.Board.frame_bytes)
    rows;
  List.iter
    (fun (n, _, r) ->
      Printf.printf "%5d | online bytes by step: %s\n" n
        (String.concat ", "
           (List.map (fun (family, b) -> Printf.sprintf "%s %d" family b) (online_split r))))
    rows;
  let data_per_gate = List.map (fun (_, _, r) -> Protocol.online_field_bytes_per_gate r) rows in
  let dmin = List.fold_left min (List.hd data_per_gate) data_per_gate in
  let dmax = List.fold_left max (List.hd data_per_gate) data_per_gate in
  let spread = (dmax -. dmin) /. dmin in
  Printf.printf
    "online data bytes/gate spread across n: %.2f%% (claim: < 5%%); replay byte-identical: %b\n"
    (100. *. spread) replay_ok;
  write_json "BENCH_net.json"
    Json.(
      Obj
        [
          ("experiment", String "net");
          ( "circuit",
            Obj [ ("kind", String "wide_mul_reduced"); ("width", Int width); ("depth", Int depth) ] );
          ( "sizing",
            Obj
              [ ("ciphertext_bytes", Int 512); ("proof_bytes", Int 32);
                ("partial_bytes", Int 512); ("key_bytes", Int 256) ] );
          ( "rows",
            List
              (List.map
                 (fun (n, params, r) ->
                   let t = r.Protocol.transcript and per_gate f = Float (2, f r) in
                   Obj
                     ([ ("n", Int n); ("t", Int params.Params.t); ("k", Int params.Params.k);
                       ("mult_gates", Int r.Protocol.num_mult);
                       ("online_field_bytes", Int r.Protocol.online_field_bytes);
                       ("online_field_bytes_per_gate", per_gate Protocol.online_field_bytes_per_gate);
                       ("online_bytes", Int r.Protocol.online_bytes);
                       ("online_bytes_per_gate", per_gate Protocol.online_bytes_per_gate) ]
                     @ List.map
                         (fun (family, b) -> ("online_" ^ family ^ "_bytes", Int b))
                         (online_split r)
                     @ [
                       ("offline_bytes", Int r.Protocol.offline_bytes);
                       ("offline_bytes_per_gate", per_gate Protocol.offline_bytes_per_gate);
                       ("setup_bytes", Int r.Protocol.setup_bytes); ("posts", Int r.Protocol.posts);
                       ("frames", Int t.Board.frames);
                       ("frame_bytes", Int t.Board.frame_bytes);
                       ("transcript_digest", Int t.Board.digest) ]))
                 rows) );
          ("online_data_bytes_per_gate_spread", Float (6, spread));
          ("flat_within_5pct", Bool (spread < 0.05));
          ("replay_byte_identical", Bool replay_ok);
        ]);
  if spread >= 0.05 then failwith "net sweep: online data bytes/gate not flat within 5%"
