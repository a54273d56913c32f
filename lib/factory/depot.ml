module Pool = Yoso_parallel.Pool

exception Closed

(* The depot's state sits under [mutex]; every blocking wait goes
   through [Pool.await] on [pool], whose condition reads that state
   under [mutex] (lock order: pool, then depot), and every change a
   waiter could be waiting for is followed by [Pool.wake] once
   [mutex] is released. *)
type 'a t = {
  mutex : Mutex.t;
  pool : Pool.t;
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

let create ?(pool = Pool.create ~domains:1) () =
  {
    mutex = Mutex.create ();
    pool;
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
let await t ready = Pool.await t.pool (fun () -> locked t ready)

(* one producer: the slot is empty on entry, and it empties again
   only when the consumer draws this put's item *)
let put t x =
  locked t (fun () ->
      if t.closed then raise Closed;
      t.slot <- Some x;
      t.puts <- t.puts + 1;
      t.max_occupancy <- 1;
      if not t.waiting then t.producer_blocks <- t.producer_blocks + 1);
  Pool.wake t.pool;
  await t (fun () -> Option.is_none t.slot || t.closed);
  locked t (fun () ->
      if Option.is_some t.slot then begin
        (* closed before the draw: the item stays the producer's *)
        t.slot <- None;
        raise Closed
      end)

let draw t =
  let blocked =
    locked t (fun () ->
        let empty = Option.is_none t.slot && not t.closed in
        if empty then begin
          t.consumer_blocks <- t.consumer_blocks + 1;
          t.waiting <- true
        end;
        empty)
  in
  if blocked then await t (fun () -> Option.is_some t.slot || t.closed);
  let item =
    locked t (fun () ->
        t.waiting <- false;
        match t.slot with
        | Some x ->
          t.slot <- None;
          t.draws <- t.draws + 1;
          Ok x
        | None -> Error (Option.value t.poison ~default:Closed))
  in
  match item with
  | Ok x ->
    Pool.wake t.pool;
    x
  | Error e -> raise e

let close t =
  locked t (fun () -> t.closed <- true);
  Pool.wake t.pool

let fail t exn =
  locked t (fun () ->
      if t.poison = None then t.poison <- Some exn;
      t.closed <- true);
  Pool.wake t.pool

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
