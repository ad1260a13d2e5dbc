(* N deterministic run queues multiplexed onto one Sim.Engine heap.

   Each shard is a sim process: posting a message schedules its
   execution at max(now, shard.busy_until), and the shard's busy_until
   advances by the per-message service time. With service = 0 (the
   default) every message executes at the instant it was posted, in
   global post order — the heap is FIFO among simultaneous events — so
   behaviour is byte-identical under any shard count. With service > 0
   each shard serialises its own work while distinct shards proceed in
   parallel simulated time, which is what the concurrent-burst bench
   measures.

   A message is data the owner's handler runs. A shard's mailbox is a
   ring of messages, and its drain event is built once, so a post
   stores the message and pushes that event: nothing is allocated but
   the ring's amortised growth. *)

type 'm shard = {
  sid : int;
  owner : 'm t;
  mutable ring : 'm array; (* capacity a power of two, or 0 *)
  mutable head : int;
  mutable len : int;
  mutable busy_until : Sim.Time.t;
  mutable drained : int;
  drain : Sim.Engine.event; (* [Drain] of this shard, built once *)
}

and 'm t = {
  engine : Sim.Engine.t;
  mutable shards : 'm shard array;
  service : Sim.Time.t;
  vacant : 'm; (* fills the ring's free slots *)
  handle : 'm -> unit;
  mutable current : int; (* the executing shard; -1 outside any *)
  mutable posted : int;
  mutable cross : int;
}

type Sim.Engine.event +=
  | Drain : 'm shard -> Sim.Engine.event
      (* Run the shard's next message. *)
  | Timer : {
      sh : 'm shard;
      msg : 'm;
      mutable cancelled : bool;
    }
      -> Sim.Engine.event  (* Post [msg] to the shard, unless cancelled. *)

type timer = Sim.Engine.event

(* Never scheduled: cancelling it does nothing. *)
let no_timer = Sim.Engine.Thunk ignore
let cancel = function Timer r -> r.cancelled <- true | _ -> ()
let zero = Sim.Time.zero

(* Run [msg] as shard [sid], restoring the executing shard afterwards,
   also when it raises. *)
let run_as t sid msg =
  let prev = t.current in
  t.current <- sid;
  match t.handle msg with
  | () -> t.current <- prev
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.current <- prev;
      Printexc.raise_with_backtrace e bt

let drain_one sh =
  if sh.len > 0 then begin
    let msg = sh.ring.(sh.head) in
    sh.ring.(sh.head) <- sh.owner.vacant;
    sh.head <- (sh.head + 1) land (Array.length sh.ring - 1);
    sh.len <- sh.len - 1;
    sh.drained <- sh.drained + 1;
    run_as sh.owner sh.sid msg
  end

(* Double the ring, unwrapping it to start at slot 0. *)
let grow sh =
  let cap = Array.length sh.ring in
  let ring = Array.make (max 2 (2 * cap)) sh.owner.vacant in
  for i = 0 to sh.len - 1 do
    ring.(i) <- sh.ring.((sh.head + i) land (cap - 1))
  done;
  sh.ring <- ring;
  sh.head <- 0

let create_typed ?(service = zero) ~shards ~vacant ~handle engine =
  if shards < 1 then invalid_arg "Shard.Engine.create_typed: shards must be >= 1";
  let t =
    {
      engine;
      shards = [||];
      service;
      vacant;
      handle;
      current = -1;
      posted = 0;
      cross = 0;
    }
  in
  t.shards <-
    Array.init shards (fun sid ->
        let rec sh =
          {
            sid;
            owner = t;
            ring = [||];
            head = 0;
            len = 0;
            busy_until = zero;
            drained = 0;
            drain = Drain sh;
          }
        in
        sh);
  t

let shards t = Array.length t.shards

let shard_of_flow t flow =
  Netcore.Five_tuple.hash flow mod Array.length t.shards

let post t ~shard msg =
  let sh = t.shards.(shard) in
  t.posted <- t.posted + 1;
  if t.current >= 0 && t.current <> shard then t.cross <- t.cross + 1;
  let at = Sim.Time.max (Sim.Engine.now t.engine) sh.busy_until in
  sh.busy_until <- Sim.Time.add at t.service;
  if sh.len = Array.length sh.ring then grow sh;
  sh.ring.((sh.head + sh.len) land (Array.length sh.ring - 1)) <- msg;
  sh.len <- sh.len + 1;
  Sim.Engine.schedule_event_at t.engine ~at sh.drain

let post_after t ~shard ~delay msg =
  let ev = Timer { sh = t.shards.(shard); msg; cancelled = false } in
  Sim.Engine.schedule_event t.engine ~delay ev;
  ev

(* The run queues' dispatcher. *)
let () =
  Sim.Engine.register
    ~run:(function
      | Drain sh ->
          drain_one sh;
          Sim.Engine.Ran
      | Timer r ->
          if r.cancelled then Sim.Engine.Reaped
          else begin
            post r.sh.owner ~shard:r.sh.sid r.msg;
            Sim.Engine.Ran
          end
      | _ -> Sim.Engine.Unknown)
    ~channel:(function
      | Drain sh -> Some (Sim.Engine.Mailbox sh.sid)
      | Timer _ -> Some Sim.Engine.Timer
      | _ -> None)

let queue_depth t sid = t.shards.(sid).len
let posted t = t.posted
let processed t = Array.fold_left (fun acc sh -> acc + sh.drained) 0 t.shards
let cross_messages t = t.cross

let makespan t =
  Array.fold_left (fun acc sh -> Sim.Time.max acc sh.busy_until) zero t.shards

let register_metrics t ?(labels = []) reg =
  Array.iter
    (fun sh ->
      let labels = ("shard", string_of_int sh.sid) :: labels in
      Obs.Registry.gauge_fn reg ~labels "identxx_shard_queue_depth"
        ~help:"Messages waiting in the shard's run queue"
        (fun () -> float_of_int sh.len);
      Obs.Registry.counter_fn reg ~labels "identxx_shard_messages_total"
        ~help:"Messages drained by the shard" (fun () -> sh.drained))
    t.shards;
  Obs.Registry.counter_fn reg ~labels "identxx_shard_cross_messages_total"
    ~help:"Messages posted across shard boundaries"
    (fun () -> t.cross)
