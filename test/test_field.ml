module F = Yoso_field.Field.Fp
module Poly = Yoso_oracles.Poly (F)
module Lagrange = Yoso_field.Lagrange.Make (F)

let st = Random.State.make [| 0xF1E1D |]

let felt = Alcotest.testable F.pp F.equal

let check_f = Alcotest.check felt

(* ------------------------------------------------------------------ *)
(* Field axioms and basic ops                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  check_f "zero" F.zero (F.of_int 0);
  check_f "one" F.one (F.of_int 1);
  check_f "p wraps to zero" F.zero (F.of_int F.p);
  check_f "negative wraps" (F.of_int (F.p - 1)) (F.of_int (-1))

let test_add_sub () =
  for _ = 1 to 200 do
    let a = F.random st and b = F.random st in
    check_f "a+b-b = a" a (F.sub (F.add a b) b);
    check_f "a-a = 0" F.zero (F.sub a a);
    check_f "a + (-a) = 0" F.zero (F.add a (F.neg a))
  done

let test_mul_inv () =
  for _ = 1 to 200 do
    let a = F.random_nonzero st in
    check_f "a * a^-1 = 1" F.one (F.mul a (F.inv a));
    check_f "div roundtrip" a (F.mul (F.div a (F.of_int 7)) (F.of_int 7))
  done

let test_inv_zero () =
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (F.inv F.zero))

let test_pow () =
  check_f "x^0 = 1" F.one (F.pow (F.of_int 12345) 0);
  check_f "x^1 = x" (F.of_int 12345) (F.pow (F.of_int 12345) 1);
  check_f "2^10" (F.of_int 1024) (F.pow F.two 10);
  (* Fermat: x^(p-1) = 1 *)
  for _ = 1 to 20 do
    let a = F.random_nonzero st in
    check_f "fermat" F.one (F.pow a (F.p - 1))
  done

let test_overflow_boundary () =
  (* largest products must reduce correctly *)
  let m = F.of_int (F.p - 1) in
  check_f "(p-1)^2 = 1" F.one (F.mul m m);
  check_f "(p-1)+(p-1) = p-2" (F.of_int (F.p - 2)) (F.add m m)

let test_dot () =
  let xs = Array.map F.of_int [| 1; 2; 3 |] in
  let ys = Array.map F.of_int [| 4; 5; 6 |] in
  check_f "dot" (F.of_int 32) (F.dot xs ys);
  Alcotest.check_raises "dot length mismatch"
    (Invalid_argument "Field.dot: length mismatch") (fun () ->
      ignore (F.dot xs [| F.one |]))

let test_small_prime_field () =
  let module F7 = Yoso_field.Field.Make (struct
    let p = 7
  end) in
  Alcotest.(check int) "3*5 mod 7" 1 (F7.to_int (F7.mul (F7.of_int 3) (F7.of_int 5)));
  Alcotest.(check int) "inv 3 mod 7" 5 (F7.to_int (F7.inv (F7.of_int 3)))

let test_is_probable_prime () =
  Alcotest.(check bool) "p is prime" true (Yoso_field.Field.is_probable_prime F.p);
  Alcotest.(check bool) "2^31-2 not prime" false
    (Yoso_field.Field.is_probable_prime (F.p - 1));
  Alcotest.(check bool) "1 not prime" false (Yoso_field.Field.is_probable_prime 1);
  Alcotest.(check bool) "carmichael 561" false
    (Yoso_field.Field.is_probable_prime 561);
  Alcotest.(check bool) "104729 prime" true
    (Yoso_field.Field.is_probable_prime 104729)

(* ------------------------------------------------------------------ *)
(* Lagrange                                                            *)
(* ------------------------------------------------------------------ *)

let test_lagrange_coeffs () =
  for _ = 1 to 30 do
    let d = 1 + Random.State.int st 7 in
    let p = Poly.random ~degree:d st in
    let points = Array.init (d + 1) (fun i -> F.of_int (i + 1)) in
    let values = Array.map (Poly.eval p) points in
    let target = F.of_int (Random.State.int st 1000 + 500) in
    let w = Lagrange.coeffs_at ~points ~target in
    check_f "weighted sum = eval" (Poly.eval p target) (F.dot w values)
  done

let test_lagrange_matrix () =
  let sources = Array.map F.of_int [| 1; 2; 3 |] in
  let targets = Array.map F.of_int [| 5; 6 |] in
  let m = Lagrange.basis_matrix ~sources ~targets in
  Alcotest.(check int) "rows" 2 (Array.length m);
  let p = Poly.random ~degree:2 st in
  let values = Array.map (Poly.eval p) sources in
  Array.iteri
    (fun i target -> check_f "matrix row correct" (Poly.eval p target) (F.dot m.(i) values))
    targets

let test_lagrange_duplicate () =
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Lagrange: duplicate interpolation points") (fun () ->
      ignore (Lagrange.coeffs_at ~points:[| F.one; F.one |] ~target:F.zero))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_felt = QCheck.map ~rev:F.to_int F.of_int (QCheck.int_bound (F.p - 1))

let qcheck_props =
  [
    QCheck.Test.make ~count:500 ~name:"field add commutes"
      (QCheck.pair arb_felt arb_felt) (fun (a, b) -> F.equal (F.add a b) (F.add b a));
    QCheck.Test.make ~count:500 ~name:"field mul commutes"
      (QCheck.pair arb_felt arb_felt) (fun (a, b) -> F.equal (F.mul a b) (F.mul b a));
    QCheck.Test.make ~count:500 ~name:"field distributivity"
      (QCheck.triple arb_felt arb_felt arb_felt) (fun (a, b, c) ->
        F.equal (F.mul a (F.add b c)) (F.add (F.mul a b) (F.mul a c)));
    QCheck.Test.make ~count:500 ~name:"field mul associativity"
      (QCheck.triple arb_felt arb_felt arb_felt) (fun (a, b, c) ->
        F.equal (F.mul a (F.mul b c)) (F.mul (F.mul a b) c));
    QCheck.Test.make ~count:200 ~name:"inv is involutive" arb_felt (fun a ->
        QCheck.assume (not (F.equal a F.zero));
        F.equal a (F.inv (F.inv a)));
  ]

let () =
  Alcotest.run "field"
    [
      ( "field",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul/inv" `Quick test_mul_inv;
          Alcotest.test_case "inv zero" `Quick test_inv_zero;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "overflow boundary" `Quick test_overflow_boundary;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "small prime functor" `Quick test_small_prime_field;
          Alcotest.test_case "is_probable_prime" `Quick test_is_probable_prime;
        ] );
      ( "lagrange",
        [
          Alcotest.test_case "coeffs" `Quick test_lagrange_coeffs;
          Alcotest.test_case "matrix" `Quick test_lagrange_matrix;
          Alcotest.test_case "duplicates" `Quick test_lagrange_duplicate;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props);
    ]
