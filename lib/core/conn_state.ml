open Netcore

(* An open-addressing table over one int array: slot [s] is the three
   ints from [3 * s], the flow packed in two and its last-seen time.
   Linear probing, at most half the slots in use; a free slot's first
   int is [free]. Nothing is deleted in place: [expire] and [revoke]
   rebuild the table from the entries they keep. *)
type t = {
  idle_timeout : Sim.Time.t;
  mutable cells : int array;
  mutable size : int;
  mutable sweep_at : int; (* the size at which [note] next expires *)
}

let min_sweep = 128
let min_slots = 128
let free = -1

let create ?(idle_timeout = Sim.Time.s 60) () =
  {
    idle_timeout;
    cells = Array.make (3 * min_slots) free;
    size = 0;
    sweep_at = min_sweep;
  }

let[@inline] hash lo hi =
  let h = (lo * 0x1e37_79b9_7f4a_7c15) + hi in
  let h = (h lxor (h lsr 31)) * 0x3f58_476d_1ce4_e5b9 in
  h lxor (h lsr 29)

let slots t = Array.length t.cells / 3

let rec probe cells mask lo hi s =
  let c = cells.(3 * s) in
  if c = free || (c = lo && cells.((3 * s) + 1) = hi) then s
  else probe cells mask lo hi ((s + 1) land mask)

(* The slot holding [lo, hi], or the free slot where it would go. *)
let find t lo hi =
  let mask = slots t - 1 in
  probe t.cells mask lo hi (hash lo hi land mask)

let fresh t ~now last =
  (now : Sim.Time.t :> int) <= last + (t.idle_timeout : Sim.Time.t :> int)

let hit t ~now lo hi =
  let s = find t lo hi in
  t.cells.(3 * s) <> free
  && fresh t ~now t.cells.((3 * s) + 2)
  && begin
       t.cells.((3 * s) + 2) <- (now : Sim.Time.t :> int);
       true
     end

(* The flow, or its reverse: the same two ends swapped, the protocol
   number staying in bits 48-55 of the second int. *)
let permits t ~now flow =
  let lo = Five_tuple.pack_src flow and hi = Five_tuple.pack_dst flow in
  let proto = hi land lnot 0xffff_ffff_ffff in
  hit t ~now lo hi || hit t ~now (hi lxor proto) (lo lor proto)

let put t lo hi last =
  let s = find t lo hi in
  if t.cells.(3 * s) = free then begin
    t.cells.(3 * s) <- lo;
    t.cells.((3 * s) + 1) <- hi;
    t.size <- t.size + 1
  end;
  t.cells.((3 * s) + 2) <- last

(* The table of the entries [keep] accepts, in [slots] slots. *)
let rebuild t slots keep =
  let old = t.cells in
  t.cells <- Array.make (3 * slots) free;
  t.size <- 0;
  for s = 0 to (Array.length old / 3) - 1 do
    let lo = old.(3 * s) and hi = old.((3 * s) + 1) and last = old.((3 * s) + 2) in
    if lo <> free && keep lo hi last then put t lo hi last
  done

(* The fewest slots, a power of two, that keep [n] entries at most half
   full. *)
let slots_for n =
  let rec up s = if 2 * n <= s then s else up (2 * s) in
  up min_slots

(* Rebuild without what [doomed] names; returns the number dropped. *)
let drop t doomed =
  let n = ref 0 in
  for s = 0 to slots t - 1 do
    let lo = t.cells.(3 * s) in
    if lo <> free && doomed lo t.cells.((3 * s) + 1) t.cells.((3 * s) + 2) then
      incr n
  done;
  if !n > 0 then
    rebuild t (slots_for (t.size - !n)) (fun lo hi last -> not (doomed lo hi last));
  !n

let revoke t ~ip =
  let ip = Ipv4.to_int ip in
  drop t (fun lo hi _ ->
      lo lsr 16 = ip || (hi lsr 16) land 0xffff_ffff = ip)

let size t = t.size
let expire t ~now = drop t (fun _ _ last -> not (fresh t ~now last))

(* Sweep once the table has doubled since the last sweep: amortised O(1)
   per note, and the table stays within twice the flows still inside
   the idle timeout. *)
let note t ~now flow =
  let lo = Five_tuple.pack_src flow and hi = Five_tuple.pack_dst flow in
  if 2 * (t.size + 1) > slots t && t.cells.(3 * find t lo hi) = free then
    rebuild t (2 * slots t) (fun _ _ _ -> true);
  put t lo hi (now : Sim.Time.t :> int);
  if t.size >= t.sweep_at then begin
    ignore (expire t ~now);
    t.sweep_at <- max min_sweep (2 * t.size)
  end

let clear t =
  t.cells <- Array.make (3 * min_slots) free;
  t.size <- 0;
  t.sweep_at <- min_sweep
