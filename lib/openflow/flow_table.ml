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
  mutable wildcards : slot list;
      (* Every other entry, in table order. *)
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
  mutable on_evict : (Flow_entry.t -> unit) option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Flow_table.create: capacity must be positive"
  | _ -> ());
  {
    capacity;
    buckets = Flow_tbl.create 64;
    wildcards = [];
    count = 0;
    next_seq = 0;
    deadlines = Sim.Heap.create ();
    timed = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    on_evict = None;
  }

let size t = t.count

(* The 5-tuple an entry's fields pin down exactly, when the entry is
   "five-tuple shaped": layer-2 fields and ingress port wildcarded,
   /32 addresses, protocol and both ports given. *)
let index_key_of (fields : Match_fields.t) =
  match fields with
  | { Match_fields.in_port = None; dl_src = None; dl_dst = None;
      dl_vlan = None; dl_type = _; nw_src = Some src; nw_dst = Some dst;
      nw_proto = Some proto; tp_src = Some tp_src; tp_dst = Some tp_dst }
    when Prefix.length src = 32 && Prefix.length dst = 32 ->
      Some
        (Five_tuple.make ~src:(Prefix.network src) ~dst:(Prefix.network dst)
           ~proto ~src_port:tp_src ~dst_port:tp_dst)
  | _ -> None

let deadline_of (e : Flow_entry.t) =
  let of_timeout base = function
    | None -> None
    | Some timeout -> Some (Sim.Time.to_ns (Sim.Time.add base timeout))
  in
  match
    (of_timeout e.last_hit e.idle_timeout, of_timeout e.installed_at e.hard_timeout)
  with
  | None, d | d, None -> d
  | Some a, Some b -> Some (min a b)

let is_timed (e : Flow_entry.t) = e.idle_timeout <> None || e.hard_timeout <> None

(* Does [a] come before [b] in table order? *)
let before a b =
  a.entry.priority > b.entry.priority
  || (a.entry.priority = b.entry.priority && a.seq > b.seq)

let rec insert s = function
  | x :: rest when before x s -> x :: insert s rest
  | l -> s :: l

let kill t s =
  s.alive <- false;
  t.count <- t.count - 1;
  if is_timed s.entry then t.timed <- t.timed - 1

(* [l] without the slots satisfying [gone], which are killed. Shares
   the unchanged tail, so a miss allocates nothing. *)
let rec cull t gone = function
  | [] -> []
  | s :: rest as l ->
      let rest' = cull t gone rest in
      if gone s then (
        kill t s;
        rest')
      else if rest' == rest then l
      else s :: rest'

(* Apply [f] to the ordered list that holds entries of index key [key]. *)
let update t key f =
  match key with
  | None -> t.wildcards <- f t.wildcards
  | Some k -> (
      let bucket = Option.value ~default:[] (Flow_tbl.find_opt t.buckets k) in
      match f bucket with
      | b when b == bucket -> ()
      | [] -> Flow_tbl.remove t.buckets k
      | b -> Flow_tbl.replace t.buckets k b)

let drop_slot t s = update t (index_key_of s.entry.fields) (cull t (( == ) s))

let iter_slots t f =
  Flow_tbl.iter (fun _ b -> List.iter f b) t.buckets;
  List.iter f t.wildcards

let push_deadline t s =
  match deadline_of s.entry with
  | Some d -> Sim.Heap.push t.deadlines ~key:d s
  | None -> ()

(* Dead slots stay in the heap until popped; rebuild it once they
   outnumber the live ones, so replacement churn cannot grow it. *)
let compact t =
  if Sim.Heap.size t.deadlines > 2 * t.timed then begin
    Sim.Heap.clear t.deadlines;
    iter_slots t (push_deadline t)
  end

let evict_lru t =
  (* Least recently hit; ties go to the entry first in table order. *)
  let victim = ref None in
  iter_slots t (fun s ->
      match !victim with
      | Some v
        when let c = Sim.Time.compare s.entry.last_hit v.entry.last_hit in
             c > 0 || (c = 0 && before v s) ->
          ()
      | _ -> victim := Some s);
  match !victim with
  | None -> ()
  | Some s ->
      drop_slot t s;
      t.eviction_count <- t.eviction_count + 1;
      Option.iter (fun f -> f s.entry) t.on_evict

let add t (entry : Flow_entry.t) =
  let key = index_key_of entry.fields in
  (* Replace an identical (fields, priority) entry. *)
  update t key
    (cull t (fun s ->
         s.entry.priority = entry.priority
         && Match_fields.equal s.entry.fields entry.fields));
  (match t.capacity with
  | Some cap when t.count >= cap -> evict_lru t
  | _ -> ());
  let s = { entry; seq = t.next_seq; alive = true } in
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1;
  update t key (insert s);
  if is_timed entry then begin
    t.timed <- t.timed + 1;
    push_deadline t s
  end;
  compact t

let lookup t ~in_port pkt =
  (* An indexable entry matches exactly the packets of its own key, so
     the candidates are the packet's bucket and the wildcards. *)
  let exact =
    match Packet.five_tuple pkt with
    | Some key ->
        Option.bind (Flow_tbl.find_opt t.buckets key)
          (List.find_opt (fun s -> Match_fields.matches s.entry.fields ~in_port pkt))
    | None -> None
  in
  (* A wildcard wins only if it comes before the exact hit in table
     order; the scan stops at the first one that cannot. *)
  let rec scan = function
    | [] -> exact
    | w :: rest -> (
        match exact with
        | Some e when before e w -> exact
        | _ ->
            if Match_fields.matches w.entry.fields ~in_port pkt then Some w
            else scan rest)
  in
  match scan t.wildcards with
  | Some s ->
      t.hit_count <- t.hit_count + 1;
      Some s.entry
  | None ->
      t.miss_count <- t.miss_count + 1;
      None

let remove t ~fields =
  (* Entries with equal fields share one index key. *)
  update t (index_key_of fields)
    (cull t (fun s -> Match_fields.equal s.entry.fields fields));
  compact t

let remove_matching t ~fields =
  let gone s = Match_fields.covers fields s.entry.fields in
  t.wildcards <- cull t gone t.wildcards;
  Flow_tbl.filter_map_inplace
    (fun _ b -> match cull t gone b with [] -> None | b -> Some b)
    t.buckets;
  compact t

let expire t ~now =
  let now_ns = Sim.Time.to_ns now in
  let rec go n =
    match Sim.Heap.peek t.deadlines with
    | Some (bound, s) when now_ns > bound -> (
        ignore (Sim.Heap.pop t.deadlines);
        if not s.alive then go n
        else
          match deadline_of s.entry with
          | Some d when now_ns > d ->
              drop_slot t s;
              go (n + 1)
          | Some _ | None ->
              push_deadline t s;
              go n)
    | Some _ | None -> n
  in
  let evicted = go 0 in
  compact t;
  evicted

let entries t =
  let all = Flow_tbl.fold (fun _ b acc -> b @ acc) t.buckets t.wildcards in
  List.stable_sort (fun a b -> if before a b then -1 else 1) all
  |> List.map (fun s -> s.entry)

let clear t = remove_matching t ~fields:Match_fields.any

let misses t = t.miss_count
let hits t = t.hit_count
let evictions t = t.eviction_count
let set_on_evict t f = t.on_evict <- Some f

let pp ppf t =
  Format.fprintf ppf "flow-table (%d entries, %d hits, %d misses)@."
    (size t) t.hit_count t.miss_count;
  List.iter (fun e -> Format.fprintf ppf "  %a@." Flow_entry.pp e) (entries t)
