module Make (F : Field.S) = struct
  let check_distinct points =
    let n = Array.length points in
    let tbl = Hashtbl.create n in
    Array.iter
      (fun x ->
        let key = F.to_int x in
        if Hashtbl.mem tbl key then
          invalid_arg "Lagrange: duplicate interpolation points";
        Hashtbl.add tbl key ())
      points

  let coeffs_at ~points ~target =
    check_distinct points;
    let n = Array.length points in
    (* w_j = prod_{m<>j} (target - x_m) / (x_j - x_m) *)
    Array.init n (fun j ->
        let num = ref F.one and den = ref F.one in
        for m = 0 to n - 1 do
          if m <> j then begin
            num := F.mul !num (F.sub target points.(m));
            den := F.mul !den (F.sub points.(j) points.(m))
          end
        done;
        F.div !num !den)

  let basis_matrix ~sources ~targets =
    Array.map (fun target -> coeffs_at ~points:sources ~target) targets
end
