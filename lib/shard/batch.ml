(* The controller's outbox (batch.mli). Messages are grouped as they
   arrive, into per-switch arrays kept across ticks in dpid order, so a
   tick that touches switches already seen allocates nothing here. *)

module Msg = Openflow.Message

(* One switch's messages for the current tick, in arrival order. *)
type group = {
  dpid : Msg.switch_id;
  mutable msgs : Msg.to_switch array;
  mutable len : int;
  mutable whole : Msg.to_switch array; (* {!add_all}'s, while [len = 0] *)
}

type t = {
  engine : Sim.Engine.t;
  send : Msg.switch_id -> Msg.to_switch array -> unit;
  mutable groups : group array; (* one per switch seen, ascending dpid *)
  mutable buffered : int;
  mutable scheduled : bool;
  mutable flushes : int;
  mutable batched : int;
  mutable h_size : Obs.Registry.Histogram.t option;
  flush_event : Sim.Engine.event; (* [Flush t], built once *)
}

(* The end-of-tick pass. *)
type Sim.Engine.event += Flush of t

(* Fills released slots, so a flushed message is not kept alive. *)
let vacant = Msg.Barrier

let flush t =
  t.scheduled <- false;
  if t.buffered > 0 then begin
    t.buffered <- 0;
    t.flushes <- t.flushes + 1;
    for r = 0 to Array.length t.groups - 1 do
      let g = t.groups.(r) in
      let msgs = if g.len = 0 then g.whole else Array.sub g.msgs 0 g.len in
      let n = Array.length msgs in
      if n > 0 then begin
        (match t.h_size with
        | Some h -> Obs.Registry.Histogram.observe h (float_of_int n)
        | None -> ());
        t.batched <- t.batched + n;
        t.send g.dpid msgs;
        Array.fill g.msgs 0 g.len vacant;
        g.len <- 0;
        g.whole <- [||]
      end
    done
  end

let create ~engine ~send () =
  let rec t =
    {
      engine;
      send;
      groups = [||];
      buffered = 0;
      scheduled = false;
      flushes = 0;
      batched = 0;
      h_size = None;
      flush_event = Flush t;
    }
  in
  t

(* The batcher's dispatcher. *)
let () =
  Sim.Engine.register
    ~run:(function
      | Flush t ->
          flush t;
          Sim.Engine.Ran
      | _ -> Sim.Engine.Unknown)
    ~channel:(function Flush _ -> Some Sim.Engine.Timer | _ -> None)

(* The first index in [groups.(lo..hi-1)] whose dpid is at least
   [dpid]. *)
let rec search groups dpid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if groups.(mid).dpid < dpid then search groups dpid (mid + 1) hi
    else search groups dpid lo mid

(* [dpid]'s group; a new switch's group is entered in dpid order. *)
let group_of t dpid =
  let n = Array.length t.groups in
  let i = search t.groups dpid 0 n in
  if i < n && t.groups.(i).dpid = dpid then t.groups.(i)
  else begin
    let g = { dpid; msgs = Array.make 4 vacant; len = 0; whole = [||] } in
    t.groups <-
      Array.concat [ Array.sub t.groups 0 i; [| g |]; Array.sub t.groups i (n - i) ];
    g
  end

let push g msg =
  if g.len = Array.length g.msgs then begin
    let grown = Array.make (2 * g.len) vacant in
    Array.blit g.msgs 0 grown 0 g.len;
    g.msgs <- grown
  end;
  g.msgs.(g.len) <- msg;
  g.len <- g.len + 1

(* [n] more messages; the tick's first schedules the flush. *)
let queued t n =
  t.buffered <- t.buffered + n;
  if not t.scheduled then begin
    t.scheduled <- true;
    Sim.Engine.schedule_event t.engine ~delay:Sim.Time.zero t.flush_event
  end

let add t dpid msg =
  let g = group_of t dpid in
  if Array.length g.whole > 0 then begin
    Array.iter (push g) g.whole;
    g.whole <- [||]
  end;
  push g msg;
  queued t 1

let add_all t dpid msgs =
  if Array.length msgs > 0 then begin
    let g = group_of t dpid in
    if g.len > 0 then Array.iter (push g) msgs
    else g.whole <- (if Array.length g.whole = 0 then msgs else Array.append g.whole msgs);
    queued t (Array.length msgs)
  end

let pending t = t.buffered
let flushes t = t.flushes
let batched t = t.batched

let size_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

let register_metrics t ?(labels = []) reg =
  t.h_size <-
    Some
      (Obs.Registry.histogram reg ~labels ~buckets:size_buckets
         ~help:"Messages per switch per batched pass"
         "identxx_shard_batch_size");
  Obs.Registry.counter_fn reg ~labels "identxx_shard_batch_flushes_total"
    ~help:"Batched passes flushed" (fun () -> t.flushes);
  Obs.Registry.counter_fn reg ~labels "identxx_shard_batch_messages_total"
    ~help:"Switch-bound messages delivered through the batcher"
    (fun () -> t.batched)
