type event = { action : unit -> unit; mutable cancelled : bool }
type t = { mutable clock : Time.t; queue : event Heap.t }
type cancel = event

(* Also the queue's filler: the value its unused cells hold. *)
let cancelled = { action = ignore; cancelled = true }
let create () = { clock = Time.zero; queue = Heap.create cancelled }
let now t = t.clock

let schedule_at t ~at action =
  if Time.compare at t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  Heap.push t.queue ~key:(Time.to_ns at) { action; cancelled = false }

let schedule t ~delay action = schedule_at t ~at:(Time.add t.clock delay) action

let schedule_cancellable t ~delay action =
  let ev = { action; cancelled = false } in
  Heap.push t.queue ~key:(Time.to_ns (Time.add t.clock delay)) ev;
  ev

let cancel ev = ev.cancelled <- true
let pending t = Heap.size t.queue

(* Dispatch the heap's first event. Reads the key in place and takes
   the value, so a dispatch allocates nothing of its own. *)
let dispatch t =
  let at = Heap.min_key t.queue in
  let ev = Heap.take t.queue in
  (* Cancelled events are reaped without advancing the clock — time
     only moves when something actually happens. *)
  if not ev.cancelled then begin
    t.clock <- Time.ns at;
    ev.action ()
  end

let step t =
  let live = not (Heap.is_empty t.queue) in
  if live then dispatch t;
  live

let run ?until ?max_events t =
  let deadline = match until with Some u -> Time.to_ns u | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let dispatched = ref 0 in
  while
    (not (Heap.is_empty t.queue))
    && Heap.min_key t.queue <= deadline
    && !dispatched < budget
  do
    dispatch t;
    incr dispatched
  done
