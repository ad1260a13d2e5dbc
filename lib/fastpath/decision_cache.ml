open Netcore

type entry = {
  verdict : Pf.Eval.verdict;
  src : Ipv4.t;
  dst : Ipv4.t;
}

type t = {
  capacity : int;
  entries : (string, entry) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 16384) () =
  if capacity < 1 then
    invalid_arg "Decision_cache.create: capacity must be >= 1";
  {
    capacity;
    entries = Hashtbl.create 256;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let clear t =
  Hashtbl.reset t.entries;
  Queue.clear t.order

let find t ~key =
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      t.hits <- t.hits + 1;
      Some e.verdict
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some key ->
      if Hashtbl.mem t.entries key then begin
        Hashtbl.remove t.entries key;
        t.evictions <- t.evictions + 1
      end

(* Entries that leave by purge keep their keys queued, and nothing pops
   them while the table stays under capacity: past twice the capacity,
   keep only each live key's first place, the one that evicts it
   (amortised O(1) per insertion). *)
let compact t =
  if Queue.length t.order > 2 * t.capacity then begin
    let kept = Hashtbl.create t.capacity in
    for _ = 1 to Queue.length t.order do
      let key = Queue.take t.order in
      if Hashtbl.mem t.entries key && not (Hashtbl.mem kept key) then begin
        Hashtbl.add kept key ();
        Queue.add key t.order
      end
    done
  end

let store t ~key ~flow verdict =
  if not (Hashtbl.mem t.entries key) then begin
    while Hashtbl.length t.entries >= t.capacity do
      evict_one t
    done;
    Queue.add key t.order
  end;
  Hashtbl.replace t.entries key
    { verdict; src = flow.Five_tuple.src; dst = flow.Five_tuple.dst };
  compact t

let purge_ip t ip =
  let doomed =
    Hashtbl.fold
      (fun k e acc ->
        if Ipv4.equal e.src ip || Ipv4.equal e.dst ip then k :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) doomed;
  List.length doomed

let size t = Hashtbl.length t.entries
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
