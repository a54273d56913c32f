type t = {
  mutable count : int;
  mutable current_round : int;
  reg : Role.Registry.t;
  tally : Cost.t;
}

let create () =
  { count = 0; current_round = 0; reg = Role.Registry.create (); tally = Cost.create () }

let registry t = t.reg
let cost t = t.tally
let round t = t.current_round
let next_round t = t.current_round <- t.current_round + 1

let post t ~author ~phase ~cost =
  Role.Registry.speak t.reg author;
  List.iter (fun (kind, n) -> Cost.charge t.tally ~phase kind n) cost;
  t.count <- t.count + 1

let length t = t.count
