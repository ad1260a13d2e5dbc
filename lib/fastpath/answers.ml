open Netcore

let expires_key = "expires"
let hint_key keys = String.concat "," (List.sort_uniq String.compare keys)

(* Key: the destination host's address, the proto and port of its
   socket, then the query's canonical hint string. *)
module Key = struct
  type t = { mutable host : int; mutable socket : int; mutable hints : string }

  let equal (a : t) (b : t) =
    a.host = b.host && a.socket = b.socket && String.equal a.hints b.hints

  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

type 'w exchange = {
  key : Key.t;
  mutable waiters : 'w list; (* reverse join order; [] once settled *)
}

type 'w entry =
  | In_flight of 'w exchange
  | Settled of {
      response : Identxx.Response.t;
      signer : string;
      expires_at : Sim.Time.t;
    }

type 'w t = {
  capacity : int;
  ttl : Sim.Time.t;
  reuse : bool;
  entries : 'w entry Tbl.t;
  probe : Key.t; (* reused by every lookup, never stored *)
  order : Key.t Queue.t; (* settling order, for FIFO eviction *)
  mutable settled : int;
  mutable started : int;
  mutable coalesced : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 4096) ~ttl ~reuse () =
  if capacity < 1 then invalid_arg "Answers.create: capacity must be >= 1";
  {
    capacity;
    ttl;
    reuse;
    entries = Tbl.create 256;
    probe = { Key.host = 0; socket = 0; hints = "" };
    order = Queue.create ();
    settled = 0;
    started = 0;
    coalesced = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

(* Point the probe at [flow]'s destination socket. *)
let aim t ~hints ~(flow : Five_tuple.t) =
  let key = t.probe in
  key.Key.host <- Ipv4.to_int flow.dst;
  key.socket <- (Proto.to_int flow.proto lsl 16) lor flow.dst_port;
  key.hints <- hints;
  key

let remove t key entry =
  (match entry with
  | Settled _ -> t.settled <- t.settled - 1
  | In_flight _ -> ());
  Tbl.remove t.entries key

let find t ~now ~hints ~flow =
  if not t.reuse then None
  else begin
    let key = aim t ~hints ~flow in
    match Tbl.find_opt t.entries key with
    | Some (Settled e) when Sim.Time.(now < e.expires_at) ->
        t.hits <- t.hits + 1;
        Some e.response
    | Some (Settled _ as expired) ->
        remove t key expired;
        t.misses <- t.misses + 1;
        None
    | Some (In_flight _) | None ->
        t.misses <- t.misses + 1;
        None
  end

let join t ~hints ~flow ~joinable w =
  let key = aim t ~hints ~flow in
  match Tbl.find_opt t.entries key with
  | Some (In_flight ex) ->
      if joinable then begin
        ex.waiters <- w :: ex.waiters;
        t.coalesced <- t.coalesced + 1;
        `Joined
      end
      else `Alone
  | None when not (joinable || t.reuse) -> `Alone
  | prev ->
      Option.iter (remove t key) prev;
      let ex =
        {
          key = { Key.host = key.host; socket = key.socket; hints = key.hints };
          waiters = [ w ];
        }
      in
      Tbl.replace t.entries ex.key (In_flight ex);
      t.started <- t.started + 1;
      `First ex

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
  | Some key -> (
      match Tbl.find_opt t.entries key with
      | Some (Settled _ as e) ->
          remove t key e;
          t.evictions <- t.evictions + 1
      | Some (In_flight _) | None -> ())

(* Entries that leave by expiry or invalidation keep their keys queued,
   and nothing pops them while the table stays under capacity: past
   twice the capacity, keep only each settled key's first place, the
   one that evicts it (amortised O(1) per settlement). *)
let compact t =
  if Queue.length t.order > 2 * t.capacity then begin
    let kept = Tbl.create t.capacity in
    for _ = 1 to Queue.length t.order do
      let key = Queue.take t.order in
      match Tbl.find_opt t.entries key with
      | Some (Settled _) when not (Tbl.mem kept key) ->
          Tbl.add kept key ();
          Queue.add key t.order
      | Some _ | None -> ()
    done
  end

(* Turn the current in-flight entry at [key] settled. It is not yet
   settled, so making room never evicts it. *)
let keep t ~now key ~signer response =
  let ttl =
    match self_expiry response with
    | Some bound -> Sim.Time.min t.ttl bound
    | None -> t.ttl
  in
  (* The queue may hold keys of entries that already left; evict until
     a settled entry actually goes. *)
  while t.settled >= t.capacity do
    evict_one t
  done;
  Tbl.replace t.entries key
    (Settled
       {
         response;
         signer;
         expires_at = Sim.Time.add now ttl;
       });
  t.settled <- t.settled + 1;
  Queue.add key t.order;
  compact t

let settle t ~now ~signer ex answer =
  let ws = List.rev ex.waiters in
  ex.waiters <- [];
  (match Tbl.find_opt t.entries ex.key with
  | Some (In_flight cur) when cur == ex -> (
      match answer with
      | Some ((Identxx.Signed.Socket | Identxx.Signed.Host), response)
        when t.reuse ->
          keep t ~now ex.key ~signer response
      | Some _ | None -> Tbl.remove t.entries ex.key)
  | Some _ | None -> ());
  ws

let drop_matching t pred =
  let stale =
    Tbl.fold
      (fun k e acc -> if pred k e then (k, e) :: acc else acc)
      t.entries []
  in
  List.iter
    (fun (k, e) ->
      (match e with
      | Settled _ -> t.invalidations <- t.invalidations + 1
      | In_flight _ -> ());
      remove t k e)
    stale

let drop_host t host =
  let addr = Ipv4.to_int host in
  drop_matching t (fun (k : Key.t) _ -> k.host = addr)

let invalidate_signer t signer =
  drop_matching t (fun _ -> function
    | Settled e -> String.equal e.signer signer
    | In_flight _ -> false)

let size t = t.settled
let in_flight t = Tbl.length t.entries - t.settled
let started t = t.started
let coalesced t = t.coalesced
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations

(* Same help strings as the decision cache's series: one family. *)
let register_metrics t ?(labels = []) reg =
  List.iter
    (fun (event, read) ->
      Obs.Registry.counter_fn reg
        ~help:
          "Attribute/decision cache hits, misses, evictions and invalidations."
        ~labels:(labels @ [ ("cache", "attr"); ("event", event) ])
        "identxx_fastpath_cache_events_total" read)
    [
      ("hit", fun () -> t.hits);
      ("miss", fun () -> t.misses);
      ("eviction", fun () -> t.evictions);
      ("invalidation", fun () -> t.invalidations);
    ];
  Obs.Registry.gauge_fn reg ~help:"Entries currently held by the cache."
    ~labels:(labels @ [ ("cache", "attr") ])
    "identxx_fastpath_cache_size"
    (fun () -> float_of_int t.settled);
  Obs.Registry.counter_fn reg
    ~help:"Wire exchanges actually begun by the answer table." ~labels
    "identxx_shard_exchanges_total" (fun () -> t.started);
  Obs.Registry.counter_fn reg
    ~help:"Duplicate in-flight queries absorbed by coalescing." ~labels
    "identxx_shard_coalesced_queries_total" (fun () -> t.coalesced);
  Obs.Registry.gauge_fn reg
    ~help:"Exchanges currently in flight across all daemon connections."
    ~labels "identxx_shard_inflight_exchanges" (fun () ->
      float_of_int (in_flight t))
