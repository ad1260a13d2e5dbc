open Netcore

module Flow_tbl = Hashtbl.Make (struct
  type t = Five_tuple.t

  let equal = Five_tuple.equal
  let hash = Five_tuple.hash
end)

(* An installed entry. [seq] numbers installations, so table order is
   priority descending, then [seq] descending (newer installations win
   ties). [alive] turns false on removal; the expiry heap skips dead
   slots instead of searching for them. *)
type slot = { entry : Flow_entry.t; seq : int; mutable alive : bool }

type t = {
  capacity : int option;
  buckets : slot list Flow_tbl.t;
      (* Entries whose match is exactly one 5-tuple (the shape
         controllers install to cache per-flow decisions), keyed by that
         tuple. Each bucket is in table order. *)
  mutable band : slot array;
  mutable band_len : int;
      (* Every other entry, in table order, in [band.(0 .. band_len-1)];
         the cells beyond hold [vacant]. *)
  mutable count : int;
  mutable next_seq : int;
  deadlines : slot Sim.Heap.t;
      (* One slot per timed entry, keyed by a lower bound (ns) on its
         expiry. Hits only push deadlines later, so a popped live slot
         that has not expired is re-pushed at its true deadline. *)
  mutable timed : int;  (* live entries with a timeout *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  mutable refusal_count : int;
  mutable on_evict : (Flow_entry.t -> unit) option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Flow_table.create: capacity must be positive"
  | _ -> ());
  {
    capacity;
    buckets = Flow_tbl.create 64;
    band = [||];
    band_len = 0;
    count = 0;
    next_seq = 0;
    deadlines = Sim.Heap.create ();
    timed = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    refusal_count = 0;
    on_evict = None;
  }

let size t = t.count

(* Marks fields that pin down no 5-tuple; compared physically. *)
let unindexed =
  Five_tuple.make ~src:Ipv4.any ~dst:Ipv4.any ~proto:Proto.Tcp ~src_port:0
    ~dst_port:0

(* The 5-tuple an entry's fields pin down exactly, when the entry is
   "five-tuple shaped": layer-2 fields and ingress port wildcarded,
   /32 addresses, protocol and both ports given. {!unindexed} when not. *)
let index_key_of (fields : Match_fields.t) =
  match fields with
  | { Match_fields.in_port = None; dl_src = None; dl_dst = None;
      dl_vlan = None; dl_type = _; nw_src = Some src; nw_dst = Some dst;
      nw_proto = Some proto; tp_src = Some tp_src; tp_dst = Some tp_dst }
    when Prefix.length src = 32 && Prefix.length dst = 32 ->
      Five_tuple.make ~src:(Prefix.network src) ~dst:(Prefix.network dst)
        ~proto ~src_port:tp_src ~dst_port:tp_dst
  | _ -> unindexed

let timeout_ns base = function
  | None -> max_int
  | Some timeout -> Sim.Time.to_ns (Sim.Time.add base timeout)

(* The earlier of an entry's two deadlines, in ns; [max_int] for an
   entry without a timeout. *)
let deadline_of (e : Flow_entry.t) =
  Int.min
    (timeout_ns e.last_hit e.idle_timeout)
    (timeout_ns e.installed_at e.hard_timeout)

let is_timed (e : Flow_entry.t) = e.idle_timeout <> None || e.hard_timeout <> None

(* Does [a] come before [b] in table order? *)
let before a b =
  a.entry.priority > b.entry.priority
  || (a.entry.priority = b.entry.priority && a.seq > b.seq)

let rec insert s = function
  | x :: rest when before x s -> x :: insert s rest
  | l -> s :: l

(* Fills the band's unused cells, so they keep no removed entry alive. *)
let vacant =
  { entry = Flow_entry.make ~fields:Match_fields.any []; seq = -1; alive = false }

let kill t s =
  s.alive <- false;
  t.count <- t.count - 1;
  if is_timed s.entry then t.timed <- t.timed - 1

(* The table's helpers are closed functions taking their operands as
   arguments: a local closure would be allocated on every flow-mod. *)

(* [l] without the slots satisfying [gone a b], which are killed.
   Shares the unchanged tail, so a miss allocates nothing. *)
let rec cull t gone a b = function
  | [] -> []
  | s :: rest as l ->
      let rest' = cull t gone a b rest in
      if gone s a b then (
        kill t s;
        rest')
      else if rest' == rest then l
      else s :: rest'

let bucket t k = try Flow_tbl.find t.buckets k with Not_found -> []

(* Kill the slots of key [k]'s bucket satisfying [gone a b]. *)
let cull_bucket t k gone a b =
  let old = bucket t k in
  match cull t gone a b old with
  | l when l == old -> ()
  | [] -> Flow_tbl.remove t.buckets k
  | l -> Flow_tbl.replace t.buckets k l

let same_entry s priority fields =
  s.entry.priority = priority && Match_fields.equal s.entry.fields fields

let is_slot s slot () = s == slot

(* The first index in [lo, hi) at or below priority [p]: the band is
   sorted by priority descending, so a binary search finds it. *)
let rec band_search band p lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if band.(mid).entry.priority > p then band_search band p (mid + 1) hi
    else band_search band p lo mid

let band_start t p = band_search t.band p 0 t.band_len

(* Kill the band slot at [i] and close the gap. *)
let band_delete t i =
  kill t t.band.(i);
  let last = t.band_len - 1 in
  Array.blit t.band (i + 1) t.band i (last - i);
  t.band.(last) <- vacant;
  t.band_len <- last

(* A new slot comes before every slot of its priority (its [seq] is the
   newest), so it goes at [band_start]. *)
let band_insert t s =
  if t.band_len = Array.length t.band then begin
    let grown = Array.make (max 8 (2 * t.band_len)) vacant in
    Array.blit t.band 0 grown 0 t.band_len;
    t.band <- grown
  end;
  let i = band_start t s.entry.priority in
  Array.blit t.band i t.band (i + 1) (t.band_len - i);
  t.band.(i) <- s;
  t.band_len <- t.band_len + 1

let rec band_delete_in_run t p pred arg i =
  if i < t.band_len && t.band.(i).entry.priority = p then
    if pred t.band.(i) arg then band_delete t i
    else band_delete_in_run t p pred arg (i + 1)

(* Kill the first slot of priority [p] satisfying [pred arg], scanning
   only the contiguous run of that priority. *)
let band_delete_first t p pred arg =
  band_delete_in_run t p pred arg (band_start t p)

(* Kill every band slot satisfying [pred arg], compacting in place. *)
let band_filter t pred arg =
  let kept = ref 0 in
  for i = 0 to t.band_len - 1 do
    let s = t.band.(i) in
    if pred s arg then kill t s
    else begin
      if !kept < i then t.band.(!kept) <- s;
      incr kept
    end
  done;
  Array.fill t.band !kept (t.band_len - !kept) vacant;
  t.band_len <- !kept

let drop_slot t s =
  match index_key_of s.entry.fields with
  | k when k == unindexed -> band_delete_first t s.entry.priority ( == ) s
  | k -> cull_bucket t k is_slot s ()

let iter_slots t f =
  Flow_tbl.iter (fun _ b -> List.iter f b) t.buckets;
  for i = 0 to t.band_len - 1 do
    f t.band.(i)
  done

let push_deadline t s =
  let d = deadline_of s.entry in
  if d < max_int then Sim.Heap.push t.deadlines ~key:d s

(* Dead slots stay in the heap until popped; rebuild it once they
   outnumber the live ones, so replacement churn cannot grow it. *)
let compact t =
  if Sim.Heap.size t.deadlines > 2 * t.timed then begin
    Sim.Heap.clear t.deadlines;
    iter_slots t (push_deadline t)
  end

(* Only reactive entries (cookie 0) are evictable: a controller's
   compiled entries, guards and routes carry a cookie, and evicting one
   would change what the table decides, not only what it caches. *)
let evictable s = s.entry.cookie = 0

(* Evict the least recently hit evictable entry (ties go to the entry
   first in table order); false when there is none. *)
let evict_lru t =
  let victim = ref None in
  iter_slots t (fun s ->
      if evictable s then
        match !victim with
        | Some v
          when let c = Sim.Time.compare s.entry.last_hit v.entry.last_hit in
               c > 0 || (c = 0 && before v s) ->
            ()
        | _ -> victim := Some s);
  match !victim with
  | None -> false
  | Some s ->
      drop_slot t s;
      t.eviction_count <- t.eviction_count + 1;
      Option.iter (fun f -> f s.entry) t.on_evict;
      true

let same_fields s fields = Match_fields.equal s.entry.fields fields

let add t (entry : Flow_entry.t) =
  let key = index_key_of entry.fields in
  (* Replace an identical (fields, priority) entry. *)
  if key == unindexed then band_delete_first t entry.priority same_fields entry.fields
  else cull_bucket t key same_entry entry.priority entry.fields;
  let room =
    match t.capacity with
    | Some cap when t.count >= cap -> evict_lru t
    | _ -> true
  in
  if not room then t.refusal_count <- t.refusal_count + 1
  else begin
    let s = { entry; seq = t.next_seq; alive = true } in
    t.next_seq <- t.next_seq + 1;
    t.count <- t.count + 1;
    if key == unindexed then band_insert t s
    else Flow_tbl.replace t.buckets key (insert s (bucket t key));
    if is_timed entry then begin
      t.timed <- t.timed + 1;
      push_deadline t s
    end
  end;
  compact t

let rec find_in_bucket ~in_port pkt flow = function
  | [] -> None
  | s :: rest ->
      if Match_fields.matches_flow s.entry.fields ~in_port pkt flow then Some s
      else find_in_bucket ~in_port pkt flow rest

(* A wildcard wins only if it comes before the exact hit in table
   order; the scan stops at the first one that cannot. *)
let rec scan_band t ~in_port pkt flow exact i =
  if i = t.band_len then exact
  else
    let w = t.band.(i) in
    match exact with
    | Some e when before e w -> exact
    | _ ->
        if Match_fields.matches_flow w.entry.fields ~in_port pkt flow then
          Some w
        else scan_band t ~in_port pkt flow exact (i + 1)

let lookup_flow t ~in_port pkt flow =
  (* An indexable entry matches exactly the packets of its own key, so
     the candidates are the packet's bucket and the wildcards. The
     5-tuple is derived once and handed to every match test. *)
  let exact =
    match flow with
    | Some key when Flow_tbl.length t.buckets > 0 -> (
        (* Hashing the key allocates; a table of wildcards skips it. *)
        match Flow_tbl.find_opt t.buckets key with
        | Some bucket -> find_in_bucket ~in_port pkt flow bucket
        | None -> None)
    | Some _ | None -> None
  in
  match scan_band t ~in_port pkt flow exact 0 with
  | Some s ->
      t.hit_count <- t.hit_count + 1;
      Some s.entry
  | None ->
      t.miss_count <- t.miss_count + 1;
      None

let lookup t ~in_port pkt = lookup_flow t ~in_port pkt (Packet.five_tuple pkt)

let remove t ~priority ~fields =
  (* [add] keeps at most one entry per (fields, priority), and entries
     with equal fields share one index key. *)
  (match index_key_of fields with
  | k when k == unindexed -> band_delete_first t priority same_fields fields
  | k -> cull_bucket t k same_entry priority fields);
  compact t

let covered s fields = Match_fields.covers fields s.entry.fields
let covered_by s fields () = covered s fields

let remove_matching t ~fields =
  band_filter t covered fields;
  Flow_tbl.filter_map_inplace
    (fun _ b ->
      match cull t covered_by fields () b with [] -> None | b -> Some b)
    t.buckets;
  compact t

(* Drop the slots due by [now_ns]; [n] counts them. A closed function,
   so the per-packet call allocates nothing. *)
let rec expire_due t now_ns n =
  if Sim.Heap.is_empty t.deadlines || now_ns <= Sim.Heap.min_key t.deadlines
  then n
  else
    let s = Sim.Heap.take t.deadlines in
    if not s.alive then expire_due t now_ns n
    else
      if now_ns > deadline_of s.entry then begin
        drop_slot t s;
        expire_due t now_ns (n + 1)
      end
      else begin
        push_deadline t s;
        expire_due t now_ns n
      end

let expire t ~now =
  let evicted = expire_due t (Sim.Time.to_ns now) 0 in
  compact t;
  evicted

let entries t =
  let band = List.init t.band_len (Array.get t.band) in
  let all = Flow_tbl.fold (fun _ b acc -> b @ acc) t.buckets band in
  List.stable_sort (fun a b -> if before a b then -1 else 1) all
  |> List.map (fun s -> s.entry)

let misses t = t.miss_count
let hits t = t.hit_count
let evictions t = t.eviction_count
let refusals t = t.refusal_count
let set_on_evict t f = t.on_evict <- Some f
