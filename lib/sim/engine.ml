type event = ..
type event += Thunk of (unit -> unit)

type channel =
  | Link of { node : string; port : int }
  | Switch_to_controller of int
  | Controller_to_switch of int
  | Mailbox of int
  | Timer

type outcome = Ran | Reaped | Unknown
type layer = { run : event -> outcome; channel : event -> channel option }

(* In registration order, which is module initialisation order. *)
let layers = ref [||]

let register ~run ~channel =
  layers := Array.append !layers [| { run; channel } |]

type t = { mutable clock : Time.t; queue : event Heap.t }

(* The queue's filler: the value its unused cells hold. *)
let idle = Thunk ignore
let create () = { clock = Time.zero; queue = Heap.create idle }
let now t = t.clock

let schedule_event_at t ~at ev =
  if Time.compare at t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  Heap.push t.queue ~key:(Time.to_ns at) ev

let schedule_event t ~delay ev =
  schedule_event_at t ~at:(Time.add t.clock delay) ev

let schedule_at t ~at action = schedule_event_at t ~at (Thunk action)
let schedule t ~delay action = schedule_event t ~delay (Thunk action)
let pending t = Heap.size t.queue

let no_layer () = invalid_arg "Sim.Engine: no registered layer knows this event"

let rec run_layers layers i ev =
  if i = Array.length layers then no_layer ()
  else
    match layers.(i).run ev with
    | Unknown -> run_layers layers (i + 1) ev
    | (Ran | Reaped) as o -> o

let run_event ev =
  match ev with
  | Thunk action ->
      action ();
      Ran
  | _ -> run_layers !layers 0 ev

let channel ev =
  match ev with
  | Thunk _ -> Timer
  | _ ->
      let layers = !layers in
      let rec go i =
        if i = Array.length layers then no_layer ()
        else match layers.(i).channel ev with Some c -> c | None -> go (i + 1)
      in
      go 0

let next_channel t =
  if Heap.is_empty t.queue then None else Some (channel (Heap.min_value t.queue))

(* Dispatch the heap's first event. Reads the key in place and takes
   the value, so a dispatch allocates nothing of its own. The event runs
   at its time; a cancelled one is reaped without advancing the clock —
   time only moves when something actually happens — so the clock
   goes back when the dispatcher reports it reaped. *)
let dispatch t =
  let at = Heap.min_key t.queue in
  let ev = Heap.take t.queue in
  let clock = t.clock in
  t.clock <- Time.ns at;
  match run_event ev with
  | Ran -> ()
  | Reaped | Unknown -> t.clock <- clock

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
