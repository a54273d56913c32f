type kind = Field_element | Ciphertext | Proof | Partial_decryption | Key

let kind_to_string = function
  | Field_element -> "field"
  | Ciphertext -> "ciphertext"
  | Proof -> "proof"
  | Partial_decryption -> "partial-dec"
  | Key -> "key"

let all_kinds = [ Field_element; Ciphertext; Proof; Partial_decryption; Key ]

(* abstract element counts per (phase, kind): the paper's metric.
   Measured wire bytes live in Yoso_net.Meter. *)
type t = (string * kind, int) Hashtbl.t

let create () : t = Hashtbl.create 16

let charge t ~phase kind n =
  if n < 0 then invalid_arg "Cost.charge: negative amount";
  Hashtbl.replace t (phase, kind) (n + Option.value ~default:0 (Hashtbl.find_opt t (phase, kind)))

let count t ~phase kind = Option.value ~default:0 (Hashtbl.find_opt t (phase, kind))

let elements t ~phase =
  List.fold_left (fun acc k -> acc + count t ~phase k) 0 all_kinds

let grand_total t = Hashtbl.fold (fun _ v acc -> acc + v) t 0

let phases t =
  Hashtbl.fold (fun (p, _) _ acc -> if List.mem p acc then acc else p :: acc) t []
  |> List.sort compare

let merge_into ?(map_phase = Fun.id) ~dst src =
  Hashtbl.iter (fun (phase, kind) n -> charge dst ~phase:(map_phase phase) kind n) src

let pp ppf t =
  List.iter
    (fun phase ->
      Format.fprintf ppf "@[<h>%-10s" phase;
      List.iter
        (fun k ->
          let c = count t ~phase k in
          if c > 0 then Format.fprintf ppf " %s=%d" (kind_to_string k) c)
        all_kinds;
      Format.fprintf ppf " total=%d@]@." (elements t ~phase))
    (phases t)
