type t =
  | Int of int
  | Bool of bool
  | String of string
  | Float of int * float
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b ~opn ~cls add items =
  Buffer.add_char b opn;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add x)
    items;
  Buffer.add_char b cls

let rec to_buffer b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | String s -> add_string b s
  | Float (_, x) when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Float (decimals, x) -> Printf.bprintf b "%.*f" decimals x
  | List l -> add_seq b ~opn:'[' ~cls:']' (to_buffer b) l
  | Obj fields ->
    add_seq b ~opn:'{' ~cls:'}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields
  | Raw s -> Buffer.add_string b s

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b
