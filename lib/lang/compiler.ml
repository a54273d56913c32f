module F = Yoso_field.Field.Fp
module Circuit = Yoso_circuit.Circuit
module Builder = Yoso_circuit.Builder

type source = SValue of Ast.decl | SBit of Ast.decl * int

type compiled = {
  program : Ast.program;
  circuit : Circuit.t;
  const_client : int;
  constants : int list;
  sources : (int * source array) list;
  ir : Ir.t;
  naive_stats : Ir.stats;
  pass_stats : (string * Ir.stats) list;
}

let default_passes =
  [
    ("fold", Ir.fold);
    ("rewrite", Ir.rewrite);
    ("cse", Ir.cse);
    ("reassoc", Ir.reassoc);
    ("fold2", Ir.fold);
    ("cse2", Ir.cse);
  ]

(* ------------------------------------------------------------------ *)
(* input manifest: the slot layout each client's protocol input vector
   must follow.  Declarations appear in declaration order; a
   declaration demanded in bits (a comparison operand) expands to its
   width many bit slots, LSB first, and its plain value — if used —
   is recombined inside the circuit.                                   *)
(* ------------------------------------------------------------------ *)

let build_sources (p : Ast.program) =
  let demanded = Ast.bit_demanded p in
  let clients =
    List.sort_uniq compare (List.map (fun d -> d.Ast.d_client) p.Ast.p_decls)
  in
  List.map
    (fun client ->
      let slots = ref [] in
      List.iter
        (fun d ->
          if d.Ast.d_client = client then
            if demanded d then begin
              let w =
                match d.Ast.d_width with
                | Some w -> w
                | None ->
                  (* unreachable: cmp constructors reject unannotated
                     inputs *)
                  invalid_arg
                    (Printf.sprintf
                       "Yoso_lang.Compiler: input %S is compared but has no \
                        width annotation"
                       d.Ast.d_label)
              in
              for i = 0 to w - 1 do
                slots := SBit (d, i) :: !slots
              done
            end
            else slots := SValue d :: !slots)
        p.Ast.p_decls;
      (client, Array.of_list (List.rev !slots)))
    clients

let slot_table sources =
  (* (client, decl index) -> first slot of the declaration *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (client, slots) ->
      Array.iteri
        (fun slot s ->
          match s with
          | SValue d -> Hashtbl.replace tbl (client, d.Ast.d_index) slot
          | SBit (d, 0) -> Hashtbl.replace tbl (client, d.Ast.d_index) slot
          | SBit _ -> ())
        slots)
    sources;
  tbl

(* ------------------------------------------------------------------ *)
(* elaboration: AST -> IR                                              *)
(* ------------------------------------------------------------------ *)

let elaborate (p : Ast.program) ~sources =
  let demanded = Ast.bit_demanded p in
  let slots = slot_table sources in
  let b = Ir.B.create () in
  let memo = Hashtbl.create 64 in
  let cst v = Ir.B.cst b v in
  let add x y = Ir.B.add b x y in
  let mul x y = Ir.B.mul b x y in
  let sub x y = add x (mul (cst (-1)) y) in
  let one_minus x = add (cst 1) (mul (cst (-1)) x) in
  let first_slot d = Hashtbl.find slots (d.Ast.d_client, d.Ast.d_index) in
  (* the i-th bit wire of a comparison operand *)
  let operand_bit e i =
    match e.Ast.node with
    | Ast.Input d ->
      let w = Option.get d.Ast.d_width in
      if i < w then
        Ir.B.inp b ~client:d.Ast.d_client ~slot:(first_slot d + i)
      else cst 0
    | Ast.Const v -> cst ((v lsr i) land 1)
    | _ -> assert false (* enforced by Ast.check_cmp_operand *)
  in
  let operand_width e = Option.get (Ast.bit_source_width e) in
  (* lt over bit lists: scan from the MSB; E_i = "bits above i all
     equal", lt = exists i with equality above and x_i < y_i *)
  let bit_lt x y =
    let w = max (operand_width x) (operand_width y) in
    let xs = Array.init w (operand_bit x) in
    let ys = Array.init w (operand_bit y) in
    let ms = Array.init w (fun i -> mul xs.(i) ys.(i)) in
    (* eq_i = 1 - x_i - y_i + 2 m_i  (1 iff x_i = y_i) *)
    let eqs =
      Array.init w (fun i ->
          add (one_minus (add xs.(i) ys.(i))) (mul (cst 2) ms.(i)))
    in
    let e = Array.make (w + 1) (cst 1) in
    for i = w - 1 downto 0 do
      e.(i) <- mul e.(i + 1) eqs.(i)
    done;
    (* contribution of position i: equality above i and x_i=0, y_i=1;
       y_i (1 - x_i) = y_i - m_i *)
    let terms =
      List.init w (fun i -> mul e.(i + 1) (sub ys.(i) ms.(i)))
    in
    let lt = List.fold_left add (List.hd terms) (List.tl terms) in
    (lt, e.(0))
  in
  (* x^(p-1) by left-to-right square-and-multiply *)
  let fermat x =
    let e = F.p - 1 in
    let nbits =
      let rec go n = if n <= 1 then 1 else 1 + go (n lsr 1) in
      go e
    in
    let acc = ref x in
    for i = nbits - 2 downto 0 do
      acc := mul !acc !acc;
      if (e lsr i) land 1 = 1 then acc := mul !acc x
    done;
    !acc
  in
  let rec go (e : Ast.expr) =
    match Hashtbl.find_opt memo e.Ast.id with
    | Some v -> v
    | None ->
      let v =
        match e.Ast.node with
        | Ast.Input d ->
          if demanded d then begin
            (* plain value of a bit-supplied input: sum_i 2^i b_i *)
            let w = Option.get d.Ast.d_width in
            let s = first_slot d in
            let bit i = Ir.B.inp b ~client:d.Ast.d_client ~slot:(s + i) in
            let acc = ref (bit 0) in
            for i = 1 to w - 1 do
              acc := add !acc (mul (cst (1 lsl i)) (bit i))
            done;
            !acc
          end
          else Ir.B.inp b ~client:d.Ast.d_client ~slot:(first_slot d)
        | Ast.Const v -> cst v
        | Ast.Add (a, b') -> add (go a) (go b')
        | Ast.Sub (a, b') -> sub (go a) (go b')
        | Ast.Mul (a, b') -> mul (go a) (go b')
        | Ast.Neg a -> mul (cst (-1)) (go a)
        | Ast.Sum es ->
          let vs = List.map go es in
          List.fold_left add (List.hd vs) (List.tl vs)
        | Ast.Prod es ->
          let vs = List.map go es in
          List.fold_left mul (List.hd vs) (List.tl vs)
        | Ast.Cmp (op, a, b') -> (
          match op with
          | Ast.Lt -> fst (bit_lt a b')
          | Ast.Gt -> fst (bit_lt b' a)
          | Ast.Le -> one_minus (fst (bit_lt b' a))
          | Ast.Ge -> one_minus (fst (bit_lt a b'))
          | Ast.Eq -> snd (bit_lt a b')
          | Ast.Ne -> one_minus (snd (bit_lt a b')))
        | Ast.Is_zero a -> one_minus (fermat (go a))
        | Ast.Mux (c, a, b') ->
          (* b' + is_zero c * (a - b') *)
          let vb = go b' in
          let va = go a in
          let z = one_minus (fermat (go c)) in
          add vb (mul z (sub va vb))
      in
      Hashtbl.add memo e.Ast.id v;
      v
  in
  let outs = List.map (fun (client, e) -> (client, go e)) p.Ast.p_outputs in
  Ir.B.finish b ~outs

(* ------------------------------------------------------------------ *)
(* lowering: IR -> Circuit                                             *)
(* ------------------------------------------------------------------ *)

let lower (ir : Ir.t) ~sources ~const_client =
  let b = Builder.create () in
  (* every manifest slot becomes an input gate, emitted up front in
     (client, slot) order even when optimization removed all its uses:
     circuit evaluation hands each client's values out in gate order,
     so the wire layout must match the manifest exactly *)
  let wires = Hashtbl.create 64 in
  List.iter
    (fun (client, slots) ->
      Array.iteri
        (fun slot _ -> Hashtbl.replace wires (client, slot) (Builder.input b ~client))
        slots)
    sources;
  let def_wire = Array.make (Array.length ir.Ir.defs) (-1) in
  Array.iteri
    (fun i def ->
      def_wire.(i) <-
        (match def with
        | Ir.Inp { client; slot } -> Hashtbl.find wires (client, slot)
        | Ir.Cst v -> Builder.constant_wire b ~client:const_client v
        | Ir.Add2 (x, y) -> Builder.add b def_wire.(x) def_wire.(y)
        | Ir.Mul2 (x, y) -> Builder.mul b def_wire.(x) def_wire.(y)))
    ir.Ir.defs;
  List.iter
    (fun (client, o) -> Builder.output b ~client def_wire.(o))
    ir.Ir.outs;
  let constants = List.map snd (Builder.constants b) in
  (Builder.build b, constants)

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let compile ?(passes = default_passes) (p : Ast.program) =
  let sources = build_sources p in
  let const_client =
    1 + List.fold_left max (-1) (Ast.clients p)
  in
  let naive = elaborate p ~sources in
  let naive_stats = Ir.stats naive in
  let ir, pass_stats =
    List.fold_left
      (fun (ir, acc) (name, pass) ->
        let ir = pass ir in
        (ir, (name, Ir.stats ir) :: acc))
      (naive, []) passes
  in
  let pass_stats = List.rev pass_stats in
  let circuit, constants = lower ir ~sources ~const_client in
  { program = p; circuit; const_client; constants; sources; ir; naive_stats; pass_stats }

(* ------------------------------------------------------------------ *)
(* protocol input encoding                                             *)
(* ------------------------------------------------------------------ *)

let validate d v =
  match d.Ast.d_width with
  | None -> ()
  | Some w ->
    if v < 0 || v >= 1 lsl w then
      invalid_arg
        (Printf.sprintf
           "Yoso_lang.Compiler: input %S of client %d = %d does not fit its \
            declared width %d"
           d.Ast.d_label d.Ast.d_client v w)

let protocol_inputs c ~inputs =
  let consts = Array.of_list (List.map F.of_int c.constants) in
  fun client ->
    if client = c.const_client then consts
    else
      match List.assoc_opt client c.sources with
      | None -> [||]
      | Some slots ->
        Array.map
          (fun s ->
            match s with
            | SValue d ->
              let v = (inputs d.Ast.d_client).(d.Ast.d_index) in
              validate d v;
              F.of_int v
            | SBit (d, i) ->
              let v = (inputs d.Ast.d_client).(d.Ast.d_index) in
              validate d v;
              F.of_int ((v lsr i) land 1))
          slots

module Eval = Circuit.Eval (F)

let check c ~inputs =
  let expected = Interp.run c.program ~inputs in
  let got = Eval.run c.circuit ~inputs:(protocol_inputs c ~inputs) in
  List.length expected = List.length got
  && List.for_all2
       (fun (c1, v1) (c2, v2) -> c1 = c2 && F.equal v1 v2)
       expected got

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let final_stats c = Ir.stats c.ir

let pass_stats_json passes =
  let open Yoso_runtime.Json in
  let pass (name, s) = Obj [ ("pass", String name); ("after", Ir.stats_json s) ] in
  List (List.map pass passes)

let stats_json c =
  let open Yoso_runtime.Json in
  let g = c.circuit in
  Obj
    [ ("program", String c.program.Ast.p_name); ("naive", Ir.stats_json c.naive_stats);
      ("passes", pass_stats_json c.pass_stats);
      ( "circuit",
        Obj
          [ ("gates", Int (Circuit.size g)); ("inputs", Int (Circuit.num_inputs g));
            ("outputs", Int (Circuit.num_outputs g)); ("adds", Int (Circuit.num_add g));
            ("muls", Int (Circuit.num_mul g)); ("depth", Int (Circuit.depth g));
            ("mult_width", Int (Circuit.mult_width g)) ] );
      ("constants", Int (List.length c.constants)) ]

let pp_pipeline ppf c =
  let line name (s : Ir.stats) =
    Format.fprintf ppf "  %-10s nodes=%-5d adds=%-5d muls=%-5d depth=%d@." name
      s.Ir.nodes s.Ir.adds s.Ir.muls s.Ir.depth
  in
  Format.fprintf ppf "pass pipeline for %s:@." c.program.Ast.p_name;
  line "naive" c.naive_stats;
  List.iter (fun (name, s) -> line name s) c.pass_stats
