(* N deterministic run queues multiplexed onto one Sim.Engine heap.

   Each shard is a sim process: posting a message schedules its
   execution at max(now, shard.busy_until), and the shard's busy_until
   advances by the per-message service time. With service = 0 (the
   default) every message executes at the instant it was posted, in
   global post order — the heap is FIFO among simultaneous events — so
   behaviour is byte-identical under any shard count. With service > 0
   each shard serialises its own work while distinct shards proceed in
   parallel simulated time, which is what the concurrent-burst bench
   measures. *)

type shard = {
  sid : int;
  queue : (unit -> unit) Queue.t;
  mutable busy_until : Sim.Time.t;
  mutable drained : int;
  mutable drain : unit -> unit;
      (* Runs the shard's next message: built once, scheduled per post. *)
}

type t = {
  engine : Sim.Engine.t;
  shards : shard array;
  service : Sim.Time.t;
  mutable current : int; (* the executing shard; -1 outside any *)
  mutable posted : int;
  mutable cross : int;
}

let zero = Sim.Time.zero

(* Run [fn] as shard [sid], restoring the executing shard afterwards,
   also when [fn] raises. *)
let run_as t sid fn =
  let prev = t.current in
  t.current <- sid;
  match fn () with
  | () -> t.current <- prev
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.current <- prev;
      Printexc.raise_with_backtrace e bt

let drain_one t sh () =
  if not (Queue.is_empty sh.queue) then begin
    let fn = Queue.take sh.queue in
    sh.drained <- sh.drained + 1;
    run_as t sh.sid fn
  end

let create ?(service = zero) ~shards engine =
  if shards < 1 then invalid_arg "Shard.Engine.create: shards must be >= 1";
  let t =
    {
      engine;
      shards =
        Array.init shards (fun sid ->
            {
              sid;
              queue = Queue.create ();
              busy_until = zero;
              drained = 0;
              drain = ignore;
            });
      service;
      current = -1;
      posted = 0;
      cross = 0;
    }
  in
  Array.iter (fun sh -> sh.drain <- drain_one t sh) t.shards;
  t

let shards t = Array.length t.shards

let shard_of_flow t flow =
  Netcore.Five_tuple.hash flow mod Array.length t.shards

let post t ~shard fn =
  let sh = t.shards.(shard) in
  t.posted <- t.posted + 1;
  if t.current >= 0 && t.current <> shard then t.cross <- t.cross + 1;
  let at = Sim.Time.max (Sim.Engine.now t.engine) sh.busy_until in
  sh.busy_until <- Sim.Time.add at t.service;
  Queue.push fn sh.queue;
  Sim.Engine.schedule_at t.engine ~at sh.drain

let post_after t ~shard ~delay fn =
  Sim.Engine.schedule_cancellable t.engine ~delay (fun () ->
      post t ~shard fn)

let queue_depth t sid = Queue.length t.shards.(sid).queue
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
        (fun () -> float_of_int (Queue.length sh.queue));
      Obs.Registry.counter_fn reg ~labels "identxx_shard_messages_total"
        ~help:"Messages drained by the shard" (fun () -> sh.drained))
    t.shards;
  Obs.Registry.counter_fn reg ~labels "identxx_shard_cross_messages_total"
    ~help:"Messages posted across shard boundaries"
    (fun () -> t.cross)
