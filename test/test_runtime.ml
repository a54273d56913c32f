module Role = Yoso_runtime.Role
module Committee = Yoso_runtime.Committee
module Bulletin = Yoso_runtime.Bulletin
module Cost = Yoso_runtime.Cost
module Json = Yoso_runtime.Json
module Splitmix = Yoso_hash.Splitmix

(* ------------------------------------------------------------------ *)
(* Roles: speak-once                                                   *)
(* ------------------------------------------------------------------ *)

let test_speak_once () =
  let reg = Role.Registry.create () in
  let r = Role.id ~committee:"C1" ~index:3 in
  Alcotest.(check bool) "not spoken yet" false (Role.Registry.has_spoken reg r);
  Role.Registry.speak reg r;
  Alcotest.(check bool) "spoken" true (Role.Registry.has_spoken reg r);
  Alcotest.check_raises "second speak raises" (Role.Already_spoke r) (fun () ->
      Role.Registry.speak reg r)

let test_distinct_roles_independent () =
  let reg = Role.Registry.create () in
  Role.Registry.speak reg (Role.id ~committee:"C1" ~index:0);
  Role.Registry.speak reg (Role.id ~committee:"C1" ~index:1);
  Role.Registry.speak reg (Role.id ~committee:"C2" ~index:0);
  Alcotest.(check int) "three spoke" 3 (Role.Registry.spoken_count reg)

let test_erase_hooks () =
  let reg = Role.Registry.create () in
  let r = Role.id ~committee:"C1" ~index:0 in
  let erased = ref [] in
  Role.Registry.on_erase reg r (fun () -> erased := "key1" :: !erased);
  Role.Registry.on_erase reg r (fun () -> erased := "key2" :: !erased);
  Alcotest.(check (list string)) "nothing erased yet" [] !erased;
  Role.Registry.speak reg r;
  Alcotest.(check (list string)) "erased in order" [ "key2"; "key1" ] !erased;
  (* hooks registered after speaking run immediately *)
  Role.Registry.on_erase reg r (fun () -> erased := "late" :: !erased);
  Alcotest.(check (list string)) "late hook immediate" [ "late"; "key2"; "key1" ] !erased

(* ------------------------------------------------------------------ *)
(* Committees                                                          *)
(* ------------------------------------------------------------------ *)

let test_committee_sample_counts () =
  let rng = Splitmix.of_int 42 in
  let c = Committee.sample ~name:"C" ~n:100 ~malicious:30 ~passive:10 ~fail_stop:5 rng in
  Alcotest.(check int) "malicious" 30 (Committee.count_malicious c);
  Alcotest.(check int) "fail stop" 5 (Committee.count_fail_stop c);
  Alcotest.(check int) "speaking" 95 (List.length (Committee.speaking_indices c));
  Alcotest.(check int) "honest+passive" 65 (List.length (Committee.honest_indices c))

let test_committee_sample_random_positions () =
  (* two different rngs should corrupt different index sets (w.h.p.) *)
  let c1 = Committee.sample ~name:"C" ~n:50 ~malicious:10 (Splitmix.of_int 1) in
  let c2 = Committee.sample ~name:"C" ~n:50 ~malicious:10 (Splitmix.of_int 2) in
  Alcotest.(check bool) "different placements" true
    (Committee.malicious_indices c1 <> Committee.malicious_indices c2)

let test_committee_overflow () =
  Alcotest.check_raises "too many corruptions"
    (Invalid_argument "Committee.sample: more corruptions than members") (fun () ->
      ignore (Committee.sample ~name:"C" ~n:5 ~malicious:4 ~fail_stop:2 (Splitmix.of_int 1)))

let test_committee_participation () =
  let statuses =
    [| Committee.Honest; Committee.Malicious; Committee.Fail_stop; Committee.Passive |]
  in
  let c = Committee.create ~name:"C" ~statuses in
  Alcotest.(check bool) "honest participates" true (Committee.participates c 0);
  Alcotest.(check bool) "malicious participates" true (Committee.participates c 1);
  Alcotest.(check bool) "fail-stop silent" false (Committee.participates c 2);
  Alcotest.(check (list int)) "speaking" [ 0; 1; 3 ] (Committee.speaking_indices c);
  Alcotest.(check (list int)) "honest-ish" [ 0; 3 ] (Committee.honest_indices c)

(* ------------------------------------------------------------------ *)
(* Bulletin + cost                                                     *)
(* ------------------------------------------------------------------ *)

let test_bulletin_post_and_read () =
  let b : string Bulletin.t = Bulletin.create () in
  let r0 = Role.id ~committee:"C1" ~index:0 in
  let r1 = Role.id ~committee:"C1" ~index:1 in
  Bulletin.post b ~author:r0 ~phase:"offline" ~cost:[ (Cost.Ciphertext, 2) ] "hello";
  Bulletin.next_round b;
  Bulletin.post b ~author:r1 ~phase:"online" ~cost:[ (Cost.Field_element, 1) ] "world";
  Alcotest.(check int) "two posts" 2 (Bulletin.length b);
  (match Bulletin.posts b with
  | [ p0; p1 ] ->
    Alcotest.(check string) "order" "hello" p0.Bulletin.msg;
    Alcotest.(check int) "round 0" 0 p0.Bulletin.round;
    Alcotest.(check int) "round 1" 1 p1.Bulletin.round
  | _ -> Alcotest.fail "expected 2 posts");
  Alcotest.(check int) "round filter" 1 (List.length (Bulletin.posts_in_round b 1));
  Alcotest.(check int) "by author" 1 (List.length (Bulletin.posts_by b r0))

let test_bulletin_enforces_speak_once () =
  let b : int Bulletin.t = Bulletin.create () in
  let r = Role.id ~committee:"C1" ~index:0 in
  Bulletin.post b ~author:r ~phase:"p" ~cost:[] 1;
  Alcotest.check_raises "double post" (Role.Already_spoke r) (fun () ->
      Bulletin.post b ~author:r ~phase:"p" ~cost:[] 2)

let test_cost_accounting () =
  let c = Cost.create () in
  Cost.charge c ~phase:"offline" Cost.Ciphertext 10;
  Cost.charge c ~phase:"offline" Cost.Proof 3;
  Cost.charge c ~phase:"offline" Cost.Ciphertext 5;
  Cost.charge c ~phase:"online" Cost.Field_element 7;
  Alcotest.(check int) "ciphertexts" 15 (Cost.count c ~phase:"offline" Cost.Ciphertext);
  Alcotest.(check int) "offline elements" 18 (Cost.elements c ~phase:"offline");
  Alcotest.(check int) "online elements" 7 (Cost.elements c ~phase:"online");
  Alcotest.(check int) "grand total" 25 (Cost.grand_total c);
  Alcotest.(check (list string)) "phases" [ "offline"; "online" ] (Cost.phases c);
  Alcotest.check_raises "negative" (Invalid_argument "Cost.charge: negative amount")
    (fun () -> Cost.charge c ~phase:"x" Cost.Key (-1))

let test_cost_merge () =
  let a = Cost.create () and b = Cost.create () in
  Cost.charge a ~phase:"online" Cost.Field_element 3;
  Cost.charge b ~phase:"online" Cost.Field_element 4;
  Cost.charge b ~phase:"offline" Cost.Proof 1;
  Cost.merge_into ~dst:a b;
  Alcotest.(check int) "merged" 7 (Cost.count a ~phase:"online" Cost.Field_element);
  Alcotest.(check int) "new phase" 1 (Cost.count a ~phase:"offline" Cost.Proof)

let test_cost_merge_map_phase () =
  let a = Cost.create () and b = Cost.create () in
  Cost.charge a ~phase:"factory" Cost.Ciphertext 1;
  Cost.charge b ~phase:"offline" Cost.Ciphertext 3;
  Cost.charge b ~phase:"online" Cost.Field_element 2;
  Cost.merge_into
    ~map_phase:(fun p -> if String.equal p "offline" then "factory" else p)
    ~dst:a b;
  Alcotest.(check int) "offline lands in factory" 4
    (Cost.count a ~phase:"factory" Cost.Ciphertext);
  Alcotest.(check int) "other phases keep their name" 2
    (Cost.count a ~phase:"online" Cost.Field_element);
  Alcotest.(check int) "nothing left under the source name" 0
    (Cost.elements a ~phase:"offline");
  Alcotest.(check int) "source untouched" 3 (Cost.count b ~phase:"offline" Cost.Ciphertext)

let test_cost_bytes_dimension () =
  let c = Cost.create () in
  Cost.charge c ~phase:"online" Cost.Field_element 2;
  Cost.charge_bytes c ~phase:"online" Cost.Field_element 8;
  Cost.charge_bytes c ~phase:"online" Cost.Proof 32;
  Cost.charge_bytes c ~phase:"online" Cost.Field_element 4;
  Alcotest.(check int) "bytes accumulate" 12 (Cost.bytes c ~phase:"online" Cost.Field_element);
  Alcotest.(check int) "phase bytes" 44 (Cost.phase_bytes c ~phase:"online");
  Alcotest.(check int) "total bytes" 44 (Cost.total_bytes c);
  (* the two dimensions are independent: bytes never inflate counts *)
  Alcotest.(check int) "elements unchanged" 2 (Cost.elements c ~phase:"online");
  (* a phase only bytes touched still shows up in the phase list *)
  Cost.charge_bytes c ~phase:"setup" Cost.Key 256;
  Alcotest.(check (list string)) "phases" [ "online"; "setup" ] (Cost.phases c);
  Alcotest.check_raises "negative" (Invalid_argument "Cost.charge_bytes: negative amount")
    (fun () -> Cost.charge_bytes c ~phase:"x" Cost.Key (-1))

let test_cost_merge_bytes () =
  let a = Cost.create () and b = Cost.create () in
  Cost.charge_bytes a ~phase:"online" Cost.Ciphertext 100;
  Cost.charge b ~phase:"online" Cost.Ciphertext 1;
  Cost.charge_bytes b ~phase:"online" Cost.Ciphertext 24;
  Cost.merge_into ~dst:a b;
  Alcotest.(check int) "bytes merged" 124 (Cost.bytes a ~phase:"online" Cost.Ciphertext);
  Alcotest.(check int) "counts merged" 1 (Cost.count a ~phase:"online" Cost.Ciphertext)

let contains haystack needle =
  let nl = String.length needle in
  let rec scan i =
    i + nl <= String.length haystack && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let test_cost_pp () =
  let c = Cost.create () in
  Cost.charge c ~phase:"online" Cost.Field_element 7;
  Cost.charge c ~phase:"online" Cost.Proof 2;
  let plain = Format.asprintf "%a" Cost.pp c in
  Alcotest.(check bool) "counts shown" true (contains plain "field=7");
  Alcotest.(check bool) "proofs shown" true (contains plain "proof=2");
  Alcotest.(check bool) "total shown" true (contains plain "total=9");
  Alcotest.(check bool) "no bytes column without bytes" false (contains plain "bytes=");
  Cost.charge_bytes c ~phase:"online" Cost.Field_element 28;
  let with_bytes = Format.asprintf "%a" Cost.pp c in
  Alcotest.(check bool) "bytes shown once charged" true (contains with_bytes "bytes=28")

let test_bulletin_seq_monotonic () =
  (* posts must come back in strictly increasing seq order, and the
     forward-order cache must stay coherent across interleaved reads
     and writes *)
  let b : int Bulletin.t = Bulletin.create () in
  for i = 0 to 63 do
    Bulletin.post b ~author:(Role.id ~committee:"Seq" ~index:i) ~phase:"p" ~cost:[] i;
    (* read between writes to exercise cache invalidation *)
    let ps = Bulletin.posts b in
    Alcotest.(check int) "length tracks" (i + 1) (List.length ps);
    ignore (Bulletin.posts b)
  done;
  let seqs = List.map (fun p -> p.Bulletin.seq) (Bulletin.posts b) in
  let rec monotonic = function
    | a :: (c :: _ as rest) -> a < c && monotonic rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (monotonic seqs);
  Alcotest.(check (list int)) "seq = arrival order" (List.init 64 Fun.id) seqs;
  (* repeated reads return the identical cached list *)
  Alcotest.(check bool) "cache stable" true (Bulletin.posts b == Bulletin.posts b)

let test_bulletin_charges_cost () =
  let b : unit Bulletin.t = Bulletin.create () in
  Bulletin.post b ~author:(Role.id ~committee:"C" ~index:0) ~phase:"online"
    ~cost:[ (Cost.Field_element, 4); (Cost.Proof, 1) ]
    ();
  Alcotest.(check int) "charged" 5 (Cost.elements (Bulletin.cost b) ~phase:"online")

(* ------------------------------------------------------------------ *)
(* Json: the one emitter                                               *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.(check string)

let test_json_escaping () =
  json "quote, backslash, newline" {|"a\"b\\c\nd"|} (Json.to_string (Json.String "a\"b\\c\nd"));
  json "control byte" {|"\u0001\u001f"|} (Json.to_string (Json.String "\001\031"));
  json "tab and return" {|"\u0009\u000d"|} (Json.to_string (Json.String "\t\r"));
  json "utf-8 passes through" "\"\xc3\xa9\"" (Json.to_string (Json.String "\xc3\xa9"));
  json "keys escaped too" {|{"k\"":1}|} (Json.to_string (Json.Obj [ ("k\"", Json.Int 1) ]))

let test_json_scalars () =
  json "int" "-42" (Json.to_string (Json.Int (-42)));
  json "bool" "true" (Json.to_string (Json.Bool true));
  json "fixed decimals" "1.5000" (Json.to_string (Json.Float (4, 1.5)));
  json "rounding" "2.68" (Json.to_string (Json.Float (2, 2.675000001)));
  json "zero decimals" "3" (Json.to_string (Json.Float (0, 3.2)));
  json "six decimals" "0.000123" (Json.to_string (Json.Float (6, 0.000123)));
  json "non-finite is null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float (1, Float.nan); Json.Float (1, Float.infinity) ]))

let test_json_structure () =
  json "empty list" "[]" (Json.to_string (Json.List []));
  json "empty object" "{}" (Json.to_string (Json.Obj []));
  json "nesting keeps field order" {|{"z":[1,{"a":[]}],"a":{"b":false}}|}
    (Json.to_string
       Json.(
         Obj
           [
             ("z", List [ Int 1; Obj [ ("a", List []) ] ]);
             ("a", Obj [ ("b", Bool false) ]);
           ]));
  json "raw splice verbatim" {|{"report":{"x": 1},"n":2}|}
    (Json.to_string Json.(Obj [ ("report", Raw {|{"x": 1}|}); ("n", Int 2) ]))

let () =
  Alcotest.run "runtime"
    [
      ( "roles",
        [
          Alcotest.test_case "speak once" `Quick test_speak_once;
          Alcotest.test_case "independent roles" `Quick test_distinct_roles_independent;
          Alcotest.test_case "erase hooks" `Quick test_erase_hooks;
        ] );
      ( "committees",
        [
          Alcotest.test_case "sample counts" `Quick test_committee_sample_counts;
          Alcotest.test_case "random placement" `Quick test_committee_sample_random_positions;
          Alcotest.test_case "overflow" `Quick test_committee_overflow;
          Alcotest.test_case "participation" `Quick test_committee_participation;
        ] );
      ( "bulletin",
        [
          Alcotest.test_case "post/read" `Quick test_bulletin_post_and_read;
          Alcotest.test_case "speak once" `Quick test_bulletin_enforces_speak_once;
          Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
          Alcotest.test_case "cost merge" `Quick test_cost_merge;
          Alcotest.test_case "cost merge map phase" `Quick test_cost_merge_map_phase;
          Alcotest.test_case "cost bytes" `Quick test_cost_bytes_dimension;
          Alcotest.test_case "cost merge bytes" `Quick test_cost_merge_bytes;
          Alcotest.test_case "cost pp" `Quick test_cost_pp;
          Alcotest.test_case "seq monotonic" `Quick test_bulletin_seq_monotonic;
          Alcotest.test_case "bulletin charges" `Quick test_bulletin_charges_cost;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
          Alcotest.test_case "scalars and decimals" `Quick test_json_scalars;
          Alcotest.test_case "lists, objects, raw" `Quick test_json_structure;
        ] );
    ]
