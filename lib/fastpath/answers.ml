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
module Settled = Fifo_map.Make (Key)

type 'w exchange = {
  key : Key.t;
  mutable waiters : 'w list; (* reverse join order; [] once settled *)
}

type settled = {
  response : Identxx.Response.t;
  signer : string;
  expires_at : Sim.Time.t;
}

(* A key is in at most one of the two tables: opening an exchange
   drops its settled answer, and settling moves it over. *)
type 'w t = {
  ttl : Sim.Time.t;
  reuse : bool;
  exchanges : 'w exchange Tbl.t;
  settled : settled Settled.t;
  probe : Key.t; (* reused by every lookup, never stored *)
  mutable started : int;
  mutable coalesced : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let create ?(capacity = 4096) ~ttl ~reuse () =
  {
    ttl;
    reuse;
    exchanges = Tbl.create 256;
    settled = Settled.create ~capacity 256;
    probe = { Key.host = 0; socket = 0; hints = "" };
    started = 0;
    coalesced = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

(* Point the probe at [flow]'s destination socket. *)
let aim t ~hints ~(flow : Five_tuple.t) =
  let key = t.probe in
  key.Key.host <- Ipv4.to_int flow.dst;
  key.socket <- (Proto.to_int flow.proto lsl 16) lor flow.dst_port;
  key.hints <- hints;
  key

let find t ~now ~hints ~flow =
  if not t.reuse then None
  else begin
    let key = aim t ~hints ~flow in
    match Settled.find t.settled key with
    | e when Sim.Time.(now < e.expires_at) ->
        t.hits <- t.hits + 1;
        Some e.response
    | _expired ->
        Settled.remove t.settled key;
        t.misses <- t.misses + 1;
        None
    | exception Not_found ->
        t.misses <- t.misses + 1;
        None
  end

let join t ~hints ~flow ~joinable w =
  let key = aim t ~hints ~flow in
  match Tbl.find t.exchanges key with
  | ex ->
      if joinable then begin
        ex.waiters <- w :: ex.waiters;
        t.coalesced <- t.coalesced + 1;
        `Joined
      end
      else `Alone
  | exception Not_found when not (joinable || t.reuse) -> `Alone
  | exception Not_found ->
      Settled.remove t.settled key;
      let ex =
        {
          key = { Key.host = key.host; socket = key.socket; hints = key.hints };
          waiters = [ w ];
        }
      in
      Tbl.replace t.exchanges ex.key ex;
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

(* Settle the current exchange at [key]: it leaves the in-flight table,
   and with a reusable answer enters the settled one. *)
let keep t ~now ~signer key answer =
  Tbl.remove t.exchanges key;
  match answer with
  | Some ((Identxx.Signed.Socket | Identxx.Signed.Host), response) when t.reuse ->
      let ttl =
        match self_expiry response with
        | Some bound -> Sim.Time.min t.ttl bound
        | None -> t.ttl
      in
      Settled.add t.settled key
        { response; signer; expires_at = Sim.Time.add now ttl }
  | Some _ | None -> ()

let settle t ~now ~signer ex answer =
  let ws = List.rev ex.waiters in
  ex.waiters <- [];
  (match Tbl.find t.exchanges ex.key with
  | cur when cur == ex -> keep t ~now ~signer ex.key answer
  | _ | (exception Not_found) -> ());
  ws

let drop_settled t pred =
  let before = Settled.length t.settled in
  Settled.filter_inplace (fun k e -> not (pred k e)) t.settled;
  t.invalidations <- t.invalidations + before - Settled.length t.settled

let drop_host t host =
  let addr = Ipv4.to_int host in
  let on_host (k : Key.t) = k.host = addr in
  List.iter (Tbl.remove t.exchanges)
    (Tbl.fold (fun k _ acc -> if on_host k then k :: acc else acc) t.exchanges []);
  drop_settled t (fun k _ -> on_host k)

let invalidate_signer t signer =
  drop_settled t (fun _ e -> String.equal e.signer signer)

let size t = Settled.length t.settled
let in_flight t = Tbl.length t.exchanges
let started t = t.started
let coalesced t = t.coalesced
let hits t = t.hits
let misses t = t.misses
let evictions t = t.settled.evictions
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
      ("eviction", fun () -> evictions t);
      ("invalidation", fun () -> t.invalidations);
    ];
  Obs.Registry.gauge_fn reg ~help:"Entries currently held by the cache."
    ~labels:(labels @ [ ("cache", "attr") ])
    "identxx_fastpath_cache_size"
    (fun () -> float_of_int (size t));
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
