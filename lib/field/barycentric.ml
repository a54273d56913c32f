module Make (F : Field.S) = struct
  type t = { nodes : F.t array; weights : F.t array }

  (* Montgomery's trick: the inverses of every entry for one F.inv *)
  let batch_inv xs =
    let m = Array.length xs in
    let out = Array.make m F.one in
    let acc = ref F.one in
    for j = 0 to m - 1 do
      out.(j) <- !acc;
      acc := F.mul !acc xs.(j)
    done;
    let inv = ref (F.inv !acc) in
    for j = m - 1 downto 0 do
      out.(j) <- F.mul !inv out.(j);
      inv := F.mul !inv xs.(j)
    done;
    out

  let create nodes =
    let m = Array.length nodes in
    let seen = Hashtbl.create m in
    Array.iter
      (fun x ->
        if Hashtbl.mem seen x then invalid_arg "Barycentric.create: duplicate nodes";
        Hashtbl.add seen x ())
      nodes;
    (* w_j = 1 / prod_{l<>j} (x_j - x_l) *)
    let prods =
      Array.init m (fun j ->
          let acc = ref F.one in
          for l = 0 to m - 1 do
            if l <> j then acc := F.mul !acc (F.sub nodes.(j) nodes.(l))
          done;
          !acc)
    in
    { nodes; weights = batch_inv prods }

  (* l_j(x) = w_j * prod_{l<>j} (x - x_l), the product as a prefix
     times a suffix: no inversion, and at a node x_j every other
     entry takes the factor (x_j - x_j) = 0 while entry j is
     w_j / w_j = 1 *)
  let row t x =
    let m = Array.length t.nodes in
    let out = Array.make m F.zero in
    let acc = ref F.one in
    for j = 0 to m - 1 do
      out.(j) <- F.mul t.weights.(j) !acc;
      acc := F.mul !acc (F.sub x t.nodes.(j))
    done;
    let acc = ref F.one in
    for j = m - 1 downto 0 do
      out.(j) <- F.mul out.(j) !acc;
      acc := F.mul !acc (F.sub x t.nodes.(j))
    done;
    out

  let eval t ~values x = F.dot (row t x) values
end
