exception Closed

type 'a t = {
  mutex : Mutex.t;
  refill_ok : Condition.t;   (* producer waits here in [reserve] *)
  available : Condition.t;   (* consumer waits here in [draw] *)
  slots : (int * string, 'a Queue.t) Hashtbl.t;
  held : (int, int) Hashtbl.t;  (* circuit -> slots held, absent at 0 *)
  mutable occupancy : int;
  mutable closed : bool;
  mutable poison : exn option;
  mutable puts : int;
  mutable draws : int;
  mutable producer_blocks : int;
  mutable consumer_blocks : int;
  mutable max_occupancy : int;
  mutable draw_log_rev : (int * string) list;
}

(* the producer starts a circuit only while fewer than this many
   circuits hold slots *)
let max_circuits = 2

let create () =
  {
    mutex = Mutex.create ();
    refill_ok = Condition.create ();
    available = Condition.create ();
    slots = Hashtbl.create 16;
    held = Hashtbl.create 4;
    occupancy = 0;
    closed = false;
    poison = None;
    puts = 0;
    draws = 0;
    producer_blocks = 0;
    consumer_blocks = 0;
    max_occupancy = 0;
    draw_log_rev = [];
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let reserve t =
  locked t (fun () ->
      if t.closed then raise Closed;
      if Hashtbl.length t.held >= max_circuits then begin
        t.producer_blocks <- t.producer_blocks + 1;
        while Hashtbl.length t.held >= max_circuits && not t.closed do
          Condition.wait t.refill_ok t.mutex
        done;
        if t.closed then raise Closed
      end)

let put t ~circuit ~kind slot =
  locked t (fun () ->
      if t.closed then raise Closed;
      let q =
        match Hashtbl.find_opt t.slots (circuit, kind) with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace t.slots (circuit, kind) q;
          q
      in
      Queue.push slot q;
      Hashtbl.replace t.held circuit
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.held circuit));
      t.occupancy <- t.occupancy + 1;
      if t.occupancy > t.max_occupancy then t.max_occupancy <- t.occupancy;
      t.puts <- t.puts + 1;
      Condition.broadcast t.available)

let draw t ~circuit ~kind =
  locked t (fun () ->
      let ready () =
        match Hashtbl.find_opt t.slots (circuit, kind) with
        | Some q when not (Queue.is_empty q) -> Some q
        | _ -> None
      in
      let fail_closed () =
        match t.poison with Some e -> raise e | None -> raise Closed
      in
      let q =
        match ready () with
        | Some q -> q
        | None ->
          if t.closed then fail_closed ();
          t.consumer_blocks <- t.consumer_blocks + 1;
          let rec wait () =
            Condition.wait t.available t.mutex;
            match ready () with
            | Some q -> q
            | None -> if t.closed then fail_closed () else wait ()
          in
          wait ()
      in
      let slot = Queue.pop q in
      t.occupancy <- t.occupancy - 1;
      t.draws <- t.draws + 1;
      t.draw_log_rev <- (circuit, kind) :: t.draw_log_rev;
      (match Hashtbl.find t.held circuit with
      | 1 ->
        Hashtbl.remove t.held circuit;
        Condition.broadcast t.refill_ok
      | n -> Hashtbl.replace t.held circuit (n - 1));
      slot)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.available;
      Condition.broadcast t.refill_ok)

let fail t exn =
  locked t (fun () ->
      if t.poison = None then t.poison <- Some exn;
      t.closed <- true;
      Condition.broadcast t.available;
      Condition.broadcast t.refill_ok)

type stats = {
  puts : int;
  draws : int;
  producer_blocks : int;
  consumer_blocks : int;
  max_occupancy : int;
  final_occupancy : int;
  draw_log : (int * string) list;
}

let stats t =
  locked t (fun () ->
      {
        puts = t.puts;
        draws = t.draws;
        producer_blocks = t.producer_blocks;
        consumer_blocks = t.consumer_blocks;
        max_occupancy = t.max_occupancy;
        final_occupancy = t.occupancy;
        draw_log = List.rev t.draw_log_rev;
      })
