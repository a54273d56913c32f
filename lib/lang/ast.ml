module F = Yoso_field.Field.Fp

let max_width = 30
(* widths are capped so every annotated value sits strictly below the
   field modulus p = 2^31 - 1: 2^30 - 1 < p, hence the canonical field
   representative of an annotated input IS its integer value *)

type decl = {
  d_client : int;
  d_index : int; (* position in the client's declaration order *)
  d_width : int option;
  d_label : string;
}

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type expr = { id : int; node : node }

and node =
  | Input of decl
  | Const of int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Neg of expr
  | Sum of expr list
  | Prod of expr list
  | Cmp of cmp * expr * expr
  | Is_zero of expr
  | Mux of expr * expr * expr (* Mux (c, a, b) = if c = 0 then a else b *)

let next_id = ref 0

let mk node =
  let id = !next_id in
  incr next_id;
  { id; node }

(* ------------------------------------------------------------------ *)
(* smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let const v = mk (Const v)
let add a b = mk (Add (a, b))
let sub a b = mk (Sub (a, b))
let mul a b = mk (Mul (a, b))
let neg a = mk (Neg a)

let sum = function
  | [] -> invalid_arg "Yoso_lang.Ast.sum: empty list"
  | [ e ] -> e
  | es -> mk (Sum es)

let prod = function
  | [] -> invalid_arg "Yoso_lang.Ast.prod: empty list"
  | [ e ] -> e
  | es -> mk (Prod es)

let dot xs ys =
  if List.length xs <> List.length ys then
    invalid_arg "Yoso_lang.Ast.dot: length mismatch";
  sum (List.map2 mul xs ys)

(* comparisons are lowered through bit decomposition, so their operands
   must have compile-time-available bits: width-annotated inputs or
   nonnegative constants small enough to decompose *)
let bit_source_width e =
  match e.node with
  | Input { d_width = Some w; _ } -> Some w
  | Input { d_width = None; _ } -> None
  | Const v ->
    if v < 0 || v >= 1 lsl max_width then None
    else begin
      let rec bits n = if n <= 1 then 1 else 1 + bits (n lsr 1) in
      Some (bits v)
    end
  | _ -> None

let check_cmp_operand side e =
  match bit_source_width e with
  | Some _ -> ()
  | None ->
    invalid_arg
      (Printf.sprintf
         "Yoso_lang.Ast: %s comparison operand must be a width-annotated input \
          or a nonnegative constant below 2^%d (comparisons decompose their \
          operands into bits)"
         side max_width)

let cmp op a b =
  check_cmp_operand "left" a;
  check_cmp_operand "right" b;
  mk (Cmp (op, a, b))

let lt a b = cmp Lt a b
let le a b = cmp Le a b
let gt a b = cmp Gt a b
let ge a b = cmp Ge a b
let eq a b = cmp Eq a b
let ne a b = cmp Ne a b
let is_zero a = mk (Is_zero a)
let if_zero c ~then_ ~else_ = mk (Mux (c, then_, else_))

let let_ e f = f e
(* explicit sharing: [let_ e f] binds [e] once; elaboration and the
   interpreter memoize on node identity, so the bound expression is
   evaluated/compiled exactly once no matter how often [f] uses it *)

(* ------------------------------------------------------------------ *)
(* programs                                                            *)
(* ------------------------------------------------------------------ *)

type program = {
  p_name : string;
  p_decls : decl list; (* declaration order *)
  p_outputs : (int * expr) list; (* (client, expr), declaration order *)
}

module B = struct
  type t = {
    name : string;
    mutable decls : decl list; (* reversed *)
    mutable outs : (int * expr) list; (* reversed *)
    counts : (int, int) Hashtbl.t;
    mutable built : bool;
  }

  let create ?(name = "program") () =
    { name; decls = []; outs = []; counts = Hashtbl.create 8; built = false }

  let check_usable b = if b.built then invalid_arg "Yoso_lang.Ast.B: already built"

  let input b ~client ?width label =
    check_usable b;
    if client < 0 then invalid_arg "Yoso_lang.Ast.B.input: negative client id";
    (match width with
    | Some w when w < 1 || w > max_width ->
      invalid_arg
        (Printf.sprintf "Yoso_lang.Ast.B.input: width must be in [1, %d]" max_width)
    | _ -> ());
    let index = Option.value ~default:0 (Hashtbl.find_opt b.counts client) in
    Hashtbl.replace b.counts client (index + 1);
    let d = { d_client = client; d_index = index; d_width = width; d_label = label } in
    b.decls <- d :: b.decls;
    mk (Input d)

  let output b ~client e =
    check_usable b;
    if client < 0 then invalid_arg "Yoso_lang.Ast.B.output: negative client id";
    b.outs <- (client, e) :: b.outs

  let build b =
    check_usable b;
    if b.outs = [] then invalid_arg "Yoso_lang.Ast.B.build: program has no outputs";
    b.built <- true;
    { p_name = b.name; p_decls = List.rev b.decls; p_outputs = List.rev b.outs }
end

let clients p =
  List.sort_uniq compare
    (List.map (fun d -> d.d_client) p.p_decls @ List.map fst p.p_outputs)

(* ------------------------------------------------------------------ *)
(* traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

let iter_subexprs p f =
  let seen = Hashtbl.create 64 in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      f e;
      match e.node with
      | Input _ | Const _ -> ()
      | Add (a, b) | Sub (a, b) | Mul (a, b) -> go a; go b
      | Neg a | Is_zero a -> go a
      | Sum es | Prod es -> List.iter go es
      | Cmp (_, a, b) -> go a; go b
      | Mux (c, a, b) -> go c; go a; go b
    end
  in
  List.iter (fun (_, e) -> go e) p.p_outputs

let size p =
  let n = ref 0 in
  iter_subexprs p (fun _ -> incr n);
  !n

(* declarations whose bits the compiler must materialize: operands of
   at least one comparison *)
let bit_demanded p =
  let demanded = Hashtbl.create 8 in
  iter_subexprs p (fun e ->
      match e.node with
      | Cmp (_, a, b) ->
        List.iter
          (fun o ->
            match o.node with
            | Input d -> Hashtbl.replace demanded (d.d_client, d.d_index) ()
            | _ -> ())
          [ a; b ]
      | _ -> ());
  fun d -> Hashtbl.mem demanded (d.d_client, d.d_index)
