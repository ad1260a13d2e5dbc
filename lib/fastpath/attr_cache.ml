open Netcore

let expires_key = "expires"

type entry = {
  response : Identxx.Response.t;
  signer : string option;
  expires_at : Sim.Time.t;
}

(* Key: the listening host's address, the proto and port of its socket,
   then the query's canonical hint string. *)
module Key = struct
  type t = { mutable host : int; mutable socket : int; mutable hints : string }

  let socket (f : Five_tuple.t) = (Proto.to_int f.proto lsl 16) lor f.dst_port

  let equal (a : t) (b : t) =
    a.host = b.host && a.socket = b.socket && String.equal a.hints b.hints

  let hash = Hashtbl.hash
end

let hint_key keys = String.concat "," (List.sort_uniq String.compare keys)

module Tbl = Hashtbl.Make (Key)

type t = {
  capacity : int;
  ttl : Sim.Time.t;
  entries : entry Tbl.t;
  probe : Key.t;  (* reused by every lookup, never stored *)
  order : Key.t Queue.t; (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 4096) ~ttl () =
  if capacity < 1 then invalid_arg "Attr_cache.create: capacity must be >= 1";
  {
    capacity;
    ttl;
    entries = Tbl.create 256;
    probe = { Key.host = 0; socket = 0; hints = "" };
    order = Queue.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

(* The response's own lifetime bound, when it carries one. *)
let self_expiry response =
  match Identxx.Response.latest response expires_key with
  | None -> None
  | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some s when s >= 0.0 -> Some (Sim.Time.of_float_s s)
      | Some _ | None -> None)

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some key ->
      if Tbl.mem t.entries key then begin
        Tbl.remove t.entries key;
        t.evictions <- t.evictions + 1
      end

(* Entries that leave by expiry or invalidation keep their keys queued,
   and nothing pops them while the table stays under capacity: past
   twice the capacity, keep only each live key's first place, the one
   that evicts it (amortised O(1) per insertion). *)
let compact t =
  if Queue.length t.order > 2 * t.capacity then begin
    let kept = Tbl.create t.capacity in
    for _ = 1 to Queue.length t.order do
      let key = Queue.take t.order in
      if Tbl.mem t.entries key && not (Tbl.mem kept key) then begin
        Tbl.add kept key ();
        Queue.add key t.order
      end
    done
  end

let store t ~now ~hints ~scope ~(flow : Five_tuple.t) ?signer response =
  match scope with
  | Identxx.Signed.Flow -> ()
  | Identxx.Signed.Socket | Identxx.Signed.Host ->
      let key =
        { Key.host = Ipv4.to_int flow.dst; socket = Key.socket flow; hints }
      in
      let ttl =
        match self_expiry response with
        | Some bound -> Sim.Time.min t.ttl bound
        | None -> t.ttl
      in
      let entry = { response; signer; expires_at = Sim.Time.add now ttl } in
      if not (Tbl.mem t.entries key) then begin
        (* The queue may hold keys of already-replaced or invalidated
           entries; evict until a live entry actually goes. *)
        while Tbl.length t.entries >= t.capacity do
          evict_one t
        done;
        Queue.add key t.order
      end;
      Tbl.replace t.entries key entry;
      compact t

let find t ~now ~hints ~(flow : Five_tuple.t) =
  let key = t.probe in
  key.Key.host <- Ipv4.to_int flow.dst;
  key.socket <- Key.socket flow;
  key.hints <- hints;
  let found =
    match Tbl.find_opt t.entries key with
    | Some e when Sim.Time.(now < e.expires_at) -> Some e.response
    | Some _ ->
        Tbl.remove t.entries key;
        None
    | None -> None
  in
  (match found with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  found

let drop_matching t pred =
  let stale =
    Tbl.fold (fun k e acc -> if pred k e then k :: acc else acc) t.entries []
  in
  List.iter (Tbl.remove t.entries) stale;
  let n = List.length stale in
  t.invalidations <- t.invalidations + n;
  n

let invalidate_host t host =
  let addr = Ipv4.to_int host in
  drop_matching t (fun (k : Key.t) _ -> k.host = addr)

let invalidate_signer t signer =
  drop_matching t (fun _ e -> e.signer = Some signer)

let size t = Tbl.length t.entries

let clear t =
  Tbl.reset t.entries;
  Queue.clear t.order

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations
