exception Closed

type 'a t = {
  mutex : Mutex.t;
  filled : Condition.t;  (* consumer waits here in [draw] *)
  drawn : Condition.t;   (* producer waits here in [put] *)
  mutable slot : 'a option;
  mutable waiting : bool;  (* a consumer is blocked in [draw] *)
  mutable closed : bool;
  mutable poison : exn option;
  mutable puts : int;
  mutable draws : int;
  mutable producer_blocks : int;
  mutable consumer_blocks : int;
  mutable max_occupancy : int;
}

let create () =
  {
    mutex = Mutex.create ();
    filled = Condition.create ();
    drawn = Condition.create ();
    slot = None;
    waiting = false;
    closed = false;
    poison = None;
    puts = 0;
    draws = 0;
    producer_blocks = 0;
    consumer_blocks = 0;
    max_occupancy = 0;
  }

let locked t f = Mutex.protect t.mutex f

(* one producer: the slot is empty on entry, and it empties again
   only when the consumer draws this put's item *)
let put t x =
  locked t (fun () ->
      if t.closed then raise Closed;
      t.slot <- Some x;
      t.puts <- t.puts + 1;
      t.max_occupancy <- 1;
      if not t.waiting then t.producer_blocks <- t.producer_blocks + 1;
      Condition.signal t.filled;
      while Option.is_some t.slot && not t.closed do
        Condition.wait t.drawn t.mutex
      done;
      if Option.is_some t.slot then begin
        (* closed before the draw: the item stays the producer's *)
        t.slot <- None;
        raise Closed
      end)

let draw t =
  locked t (fun () ->
      if Option.is_none t.slot && not t.closed then begin
        t.consumer_blocks <- t.consumer_blocks + 1;
        t.waiting <- true;
        while Option.is_none t.slot && not t.closed do
          Condition.wait t.filled t.mutex
        done;
        t.waiting <- false
      end;
      match t.slot with
      | Some x ->
        t.slot <- None;
        t.draws <- t.draws + 1;
        Condition.signal t.drawn;
        x
      | None -> raise (Option.value t.poison ~default:Closed))

let stop t =
  t.closed <- true;
  Condition.broadcast t.filled;
  Condition.broadcast t.drawn

let close t = locked t (fun () -> stop t)

let fail t exn =
  locked t (fun () ->
      if t.poison = None then t.poison <- Some exn;
      stop t)

type stats = {
  puts : int;
  draws : int;
  producer_blocks : int;
  consumer_blocks : int;
  max_occupancy : int;
}

let stats t =
  locked t (fun () ->
      {
        puts = t.puts;
        draws = t.draws;
        producer_blocks = t.producer_blocks;
        consumer_blocks = t.consumer_blocks;
        max_occupancy = t.max_occupancy;
      })
