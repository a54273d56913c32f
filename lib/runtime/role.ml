type id = { committee : string; index : int }

let id ~committee ~index = { committee; index }
let to_string r = Printf.sprintf "%s[%d]" r.committee r.index
let compare = Stdlib.compare

exception Already_spoke of id

let () =
  Printexc.register_printer (function
    | Already_spoke r -> Some (Printf.sprintf "Already_spoke(%s)" (to_string r))
    | _ -> None)

module Registry = struct
  type t = (id, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let speak t r =
    if Hashtbl.mem t r then raise (Already_spoke r);
    Hashtbl.add t r ()

  let has_spoken = Hashtbl.mem
end
