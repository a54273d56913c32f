type 'msg post = {
  seq : int;
  round : int;
  author : Role.id;
  phase : string;
  msg : 'msg;
}

type 'msg t = {
  mutable items : 'msg post list; (* reversed *)
  mutable ordered : 'msg post list option; (* cached List.rev items *)
  mutable count : int;
  mutable current_round : int;
  reg : Role.Registry.t;
  tally : Cost.t;
}

let create () =
  {
    items = [];
    ordered = None;
    count = 0;
    current_round = 0;
    reg = Role.Registry.create ();
    tally = Cost.create ();
  }

let registry t = t.reg
let cost t = t.tally
let round t = t.current_round
let next_round t = t.current_round <- t.current_round + 1

let post t ~author ~phase ~cost msg =
  Role.Registry.speak t.reg author;
  List.iter (fun (kind, n) -> Cost.charge t.tally ~phase kind n) cost;
  t.items <- { seq = t.count; round = t.current_round; author; phase; msg } :: t.items;
  t.ordered <- None;
  t.count <- t.count + 1

(* verify loops call [posts] repeatedly between writes; re-reversing the
   whole list each time was quadratic, so the forward order is cached
   and invalidated on write *)
let posts t =
  match t.ordered with
  | Some l -> l
  | None ->
    let l = List.rev t.items in
    t.ordered <- Some l;
    l
let posts_in_round t r = List.filter (fun p -> p.round = r) (posts t)
let posts_by t author = List.filter (fun p -> Role.compare p.author author = 0) (posts t)

let length t = t.count
