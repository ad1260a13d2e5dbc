open Netcore

(* An installed entry is one [Flow_entry.t]: the rule its flow-mod
   carried, by reference, and the table's own fields. [seq] numbers
   installations, so table order is priority descending, then [seq]
   descending (newer installations win ties). [alive] turns false on
   removal; the expiry heap skips dead entries instead of searching for
   them. [next] links the entries of one exact-match chain; {!vacant}
   ends a chain. *)
open Flow_entry

(* Ends every chain, and fills the band's unused cells and the expiry
   heap's, so they keep no removed entry alive. Never linked into a
   chain, so its [next] stays itself. No table holds it: it is what a
   lookup that matches nothing returns. *)
let rec vacant =
  { rule = rule ~fields:Match_fields.any []; installed_at = Sim.Time.zero;
    last_hit = Sim.Time.zero; packets = 0; bytes = 0; seq = -1; alive = false;
    next = vacant }

let miss = vacant

(* [Five_tuple.hash] of the 5-tuple an entry's fields pin down exactly,
   when the entry is "five-tuple shaped": layer-2 fields and ingress
   port wildcarded, /32 addresses, protocol and both ports given. -1
   when not. The hash is taken from the fields' ints: no tuple is
   built. *)
let exact_hash (fields : Match_fields.t) =
  match fields with
  | { Match_fields.in_port = None; dl_src = None; dl_dst = None;
      dl_vlan = None; dl_type = _; nw_src = Some src; nw_dst = Some dst;
      nw_proto = Some proto; tp_src = Some src_port; tp_dst = Some dst_port }
    when Prefix.length src = 32 && Prefix.length dst = 32 ->
      Five_tuple.hash_ints
        ~src:(Ipv4.to_int (Prefix.network src))
        ~dst:(Ipv4.to_int (Prefix.network dst))
        ~proto:(Proto.to_int proto) ~src_port ~dst_port
  | _ -> -1

(* Does [a] come before [b] in table order? *)
let before a b =
  a.rule.priority > b.rule.priority
  || (a.rule.priority = b.rule.priority && a.seq > b.seq)

(* How the exact-match chains read and link an installed entry. *)
let exact_entry =
  {
    Flow_chains.vacant;
    hash = (fun s -> exact_hash s.rule.fields);
    before;
    next = (fun (s : Flow_entry.t) -> s.next);
    set_next = (fun (s : Flow_entry.t) n -> s.next <- n);
  }

type t = {
  capacity : int option;
  chains : Flow_entry.t Flow_chains.t;
      (* Entries whose match is exactly one 5-tuple (the shape
         controllers install to cache per-flow decisions), each chain
         in table order. *)
  mutable band : Flow_entry.t array;
  mutable band_len : int;
      (* Every other entry, in table order, in [band.(0 .. band_len-1)];
         the cells beyond hold [vacant]. *)
  mutable next_seq : int;
  deadlines : Flow_entry.t Sim.Heap.t;
      (* Each timed entry, keyed by a lower bound (ns) on its expiry.
         Hits only push deadlines later, so a popped live entry
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
    chains = Flow_chains.create exact_entry 16;
    band = [||];
    band_len = 0;
    next_seq = 0;
    deadlines = Sim.Heap.create vacant;
    timed = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    refusal_count = 0;
    on_evict = None;
  }

let size t = t.chains.Flow_chains.count + t.band_len

let ip_hash (ip : Packet.ipv4) ~src_port ~dst_port =
  Five_tuple.hash_ints ~src:(Ipv4.to_int ip.ip_src) ~dst:(Ipv4.to_int ip.ip_dst)
    ~proto:(Proto.to_int (Packet.ip_proto ip.payload)) ~src_port ~dst_port

(* [Five_tuple.hash] of the packet's 5-tuple, taken from its own fields;
   -1 for a non-IP packet, which has none. *)
let packet_hash (pkt : Packet.t) =
  match pkt.eth_payload with
  | Packet.Raw_eth _ -> -1
  | Packet.Ip ({ payload = Packet.Tcp tcp; _ } as ip) ->
      ip_hash ip ~src_port:tcp.tcp_src ~dst_port:tcp.tcp_dst
  | Packet.Ip ({ payload = Packet.Udp udp; _ } as ip) ->
      ip_hash ip ~src_port:udp.udp_src ~dst_port:udp.udp_dst
  | Packet.Ip ({ payload = Packet.Icmp _ | Packet.Raw_ip _; _ } as ip) ->
      ip_hash ip ~src_port:0 ~dst_port:0

let timeout_ns base = function
  | None -> max_int
  | Some timeout -> Sim.Time.to_ns (Sim.Time.add base timeout)

(* The earlier of an entry's two deadlines, in ns; [max_int] for an
   entry without a timeout. *)
let deadline_of e =
  Int.min
    (timeout_ns e.last_hit e.rule.idle_timeout)
    (timeout_ns e.installed_at e.rule.hard_timeout)

let is_timed r = r.idle_timeout <> None || r.hard_timeout <> None

let kill t s =
  s.alive <- false;
  if is_timed s.rule then t.timed <- t.timed - 1

(* The table's helpers are closed functions taking their operands as
   arguments: a local closure would be allocated on every flow-mod. *)
let same_fields s fields = Match_fields.equal s.rule.fields fields

(* The entry of the chain from [s] with these fields and priority;
   [vacant] when there is none. *)
let rec find_same s priority fields =
  if s == vacant || (s.rule.priority = priority && same_fields s fields) then s
  else find_same s.next priority fields

(* Unlink and kill the chained entry [s]; a no-op on [vacant]. Its link
   is reset, so a dead entry still in the expiry heap keeps no chain
   alive. *)
let unchain t hash s =
  if s != vacant then begin
    Flow_chains.remove t.chains hash s;
    kill t s
  end

(* The first index in [lo, hi) at or below priority [p]: the band is
   sorted by priority descending, so a binary search finds it. *)
let rec band_search band p lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if band.(mid).rule.priority > p then band_search band p (mid + 1) hi
    else band_search band p lo mid

let band_start t p = band_search t.band p 0 t.band_len

(* Kill the band entry at [i] and close the gap. *)
let band_delete t i =
  kill t t.band.(i);
  let last = t.band_len - 1 in
  Array.blit t.band (i + 1) t.band i (last - i);
  t.band.(last) <- vacant;
  t.band_len <- last

(* A new entry comes before every entry of its priority (its [seq] is the
   newest), so it goes at [band_start]. *)
let band_insert t s =
  if t.band_len = Array.length t.band then begin
    let grown = Array.make (max 8 (2 * t.band_len)) vacant in
    Array.blit t.band 0 grown 0 t.band_len;
    t.band <- grown
  end;
  let i = band_start t s.rule.priority in
  Array.blit t.band i t.band (i + 1) (t.band_len - i);
  t.band.(i) <- s;
  t.band_len <- t.band_len + 1

let rec band_delete_in_run t p pred arg i =
  if i < t.band_len && t.band.(i).rule.priority = p then
    if pred t.band.(i) arg then band_delete t i
    else band_delete_in_run t p pred arg (i + 1)

(* Kill the first entry of priority [p] satisfying [pred arg], scanning
   only the contiguous run of that priority. *)
let band_delete_first t p pred arg =
  band_delete_in_run t p pred arg (band_start t p)

(* Kill every band entry satisfying [pred arg], compacting in place. *)
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

(* Kill the entry with these fields and priority, if any; [hash] is
   [exact_hash fields]. [add] keeps at most one such entry, and entries
   with equal fields share one chain. *)
let delete_same t hash priority fields =
  if hash < 0 then band_delete_first t priority same_fields fields
  else unchain t hash (find_same (Flow_chains.chain t.chains hash) priority fields)

let drop t s =
  let hash = exact_hash s.rule.fields in
  if hash < 0 then band_delete_first t s.rule.priority ( == ) s
  else unchain t hash s

(* [f a s] for every entry [s]; [apply] passes [f] and [a] as the
   chains' two operands. *)
let apply f a s = f a s
let iter_entries t f a =
  Flow_chains.iter t.chains apply f a;
  for i = 0 to t.band_len - 1 do
    f a t.band.(i)
  done

let push_deadline t s =
  let d = deadline_of s in
  if d < max_int then Sim.Heap.push t.deadlines ~key:d s

(* Dead entries stay in the heap until popped; rebuild it once they
   outnumber the live ones, so replacement churn cannot grow it. The
   rebuild reuses the heap's arrays and allocates nothing. *)
let compact t =
  if Sim.Heap.size t.deadlines > 2 * t.timed then begin
    Sim.Heap.clear t.deadlines;
    iter_entries t push_deadline t
  end

(* Only reactive entries (cookie 0) are evictable: a controller's
   compiled entries, guards and routes carry a cookie, and evicting one
   would change what the table decides, not only what it caches. *)
let evictable s = s.rule.cookie = 0

(* Evict the least recently hit evictable entry (ties go to the entry
   first in table order); false when there is none. *)
let evict_lru t =
  let victim = ref None in
  iter_entries t
    (fun victim s ->
      if evictable s then
        match !victim with
        | Some v
          when let c = Sim.Time.compare s.last_hit v.last_hit in
               c > 0 || (c = 0 && before v s) ->
            ()
        | _ -> victim := Some s)
    victim;
  match !victim with
  | None -> false
  | Some s ->
      drop t s;
      t.eviction_count <- t.eviction_count + 1;
      Option.iter (fun f -> f s) t.on_evict;
      true

let add t ~now rule =
  let hash = exact_hash rule.fields in
  (* Replace an identical (fields, priority) entry. *)
  delete_same t hash rule.priority rule.fields;
  let room =
    match t.capacity with
    | Some cap when size t >= cap -> evict_lru t
    | _ -> true
  in
  if not room then t.refusal_count <- t.refusal_count + 1
  else begin
    let s =
      { rule; installed_at = now; last_hit = now; packets = 0; bytes = 0;
        seq = t.next_seq; alive = true; next = vacant }
    in
    t.next_seq <- t.next_seq + 1;
    if hash < 0 then band_insert t s else Flow_chains.add t.chains hash s;
    if is_timed rule then begin
      t.timed <- t.timed + 1;
      push_deadline t s
    end
  end;
  compact t

(* The first entry of a chain that matches; [vacant] when none does.
   A chain holds the tuples that share its cell, so the match test
   also sorts out which entries are the packet's. *)
let rec find_in_chain ~in_port pkt s =
  if s == vacant || Match_fields.matches_flow s.rule.fields ~in_port pkt
  then s
  else find_in_chain ~in_port pkt s.next

(* A wildcard wins only if it comes before the exact hit in table
   order; the scan stops at the first one that cannot. [vacant] stands
   for no match. *)
let rec scan_band t ~in_port pkt exact i =
  if i = t.band_len then exact
  else
    let w = t.band.(i) in
    if exact != vacant && before exact w then exact
    else if Match_fields.matches_flow w.rule.fields ~in_port pkt then w
    else scan_band t ~in_port pkt exact (i + 1)

let lookup_flow t ~in_port pkt =
  (* A chained entry matches exactly the packets of its own tuple, so
     the candidates are the packet's chain and the wildcards. Every
     match test reads the packet's own fields. *)
  let exact =
    if t.chains.Flow_chains.count = 0 then vacant
    else
      let hash = packet_hash pkt in
      if hash < 0 then vacant
      else find_in_chain ~in_port pkt (Flow_chains.chain t.chains hash)
  in
  let s = scan_band t ~in_port pkt exact 0 in
  if s == vacant then t.miss_count <- t.miss_count + 1
  else t.hit_count <- t.hit_count + 1;
  s

let lookup t ~in_port pkt =
  let e = lookup_flow t ~in_port pkt in
  if e == miss then None else Some e

let remove t ~priority ~fields =
  delete_same t (exact_hash fields) priority fields;
  compact t

let covered s fields = Match_fields.covers fields s.rule.fields
let unchain_covered t fields s =
  if covered s fields then unchain t (exact_hash s.rule.fields) s

let remove_matching t ~fields =
  band_filter t covered fields;
  Flow_chains.iter t.chains unchain_covered t fields;
  compact t

(* Drop the entries due by [now_ns]; [n] counts them. A closed function,
   so the per-packet call allocates nothing. *)
let rec expire_due t now_ns n =
  if Sim.Heap.is_empty t.deadlines || now_ns <= Sim.Heap.min_key t.deadlines
  then n
  else
    let s = Sim.Heap.take t.deadlines in
    if not s.alive then expire_due t now_ns n
    else
      if now_ns > deadline_of s then begin
        drop t s;
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
  let all = ref [] in
  iter_entries t (fun all s -> all := s :: !all) all;
  List.stable_sort (fun a b -> if before a b then -1 else 1) !all

let misses t = t.miss_count
let hits t = t.hit_count
let evictions t = t.eviction_count
let refusals t = t.refusal_count
let set_on_evict t f = t.on_evict <- Some f
