open Netcore
module Answers = Answers
module Decision_cache = Decision_cache
module Breaker = Breaker

type config = {
  enabled : bool;
  attr_capacity : int;
  attr_ttl : Sim.Time.t;
  decision_capacity : int;
  breaker_threshold : int;
  breaker_backoff : Sim.Time.t;
}

let default_config =
  {
    enabled = true;
    attr_capacity = 4096;
    attr_ttl = Sim.Time.s 5;
    decision_capacity = 16384;
    breaker_threshold = 3;
    breaker_backoff = Sim.Time.s 30;
  }

let disabled = { default_config with enabled = false }

type t = { cfg : config; decisions : Decision_cache.t; breaker : Breaker.t }

let create cfg =
  {
    cfg;
    decisions = Decision_cache.create ~capacity:cfg.decision_capacity ();
    breaker =
      Breaker.create ~threshold:cfg.breaker_threshold
        ~backoff:cfg.breaker_backoff ();
  }

let config t = t.cfg
let enabled t = t.cfg.enabled
let breaker t = t.breaker

(* Only [note_timeout] adds breaker state, and only with the fast path
   on: off, every host reads [`Ask] and a response removes nothing. *)
let consult_host t ~now ip = Breaker.consult t.breaker ~now ip

let note_timeout t ~now ip =
  if not t.cfg.enabled then false
  else begin
    let before = Breaker.trips t.breaker in
    Breaker.note_timeout t.breaker ~now ip;
    Breaker.trips t.breaker > before
  end

let note_response t ip = Breaker.note_response t.breaker ip

type decision_shape = { src_port : bool; reads : string list option }

let decision_shape env =
  let rules = Pf.Env.rules env in
  let calls_allowed =
    List.exists
      (fun (r : Pf.Ast.rule) ->
        List.exists (fun (fc : Pf.Ast.funcall) -> fc.fname = "allowed") r.conds)
      rules
  in
  {
    src_port =
      calls_allowed
      || List.exists (fun (r : Pf.Ast.rule) -> r.from_.port <> None) rules;
    reads = (if calls_allowed then None else Some (Pf.Env.referenced_keys env));
  }

(* Length prefixes keep the concatenated strings unambiguous: a value
   may contain any byte, including the separators, but a length always
   starts with a digit and every separator is a non-digit. *)
let add_lp_sub b s pos len =
  Buffer.add_string b (string_of_int len);
  Buffer.add_char b ':';
  Buffer.add_substring b s pos len;
  b

let add_lp b s = ignore (add_lp_sub b s 0 (String.length s) : Buffer.t)

(* "-" for a silent end, "R" then what the policy can read for an
   answer. A read key's values go in [Response.all_values] order, each
   copied from where it sits in the payload, closed by ';'; with [None]
   every section goes in whole, each opened by '|'. *)
let add_answer b reads = function
  | None -> Buffer.add_char b '-'
  | Some (r : Identxx.Response.t) -> (
      Buffer.add_char b 'R';
      match reads with
      | Some keys ->
          List.iter
            (fun key ->
              ignore (Identxx.Response.fold_values r key add_lp_sub b : Buffer.t);
              Buffer.add_char b ';')
            keys
      | None ->
          List.iter
            (fun section ->
              Buffer.add_char b '|';
              List.iter
                (fun (p : Identxx.Key_value.pair) ->
                  add_lp b p.key;
                  add_lp b p.value)
                section)
            (Identxx.Response.sections r))

let decision_key shape ~(flow : Five_tuple.t) ~src ~dst =
  let b = Buffer.create 64 in
  let add_int sep n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b sep
  in
  add_int '>' (Ipv4.to_int flow.src);
  add_int '/' (Ipv4.to_int flow.dst);
  add_int ':' (Proto.to_int flow.proto);
  if shape.src_port then add_int ':' flow.src_port
  else Buffer.add_string b "*:";
  add_int ',' flow.dst_port;
  add_answer b shape.reads src;
  add_answer b shape.reads dst;
  Buffer.contents b

let find_decision t ~key = Decision_cache.find t.decisions ~key
let store_decision t ~key ~flow verdict = Decision_cache.store t.decisions ~key ~flow verdict

let note_host_changed t ip =
  if t.cfg.enabled then ignore (Decision_cache.purge_ip t.decisions ip : int)

let revoke_ip t ip =
  note_host_changed t ip;
  note_response t ip

let flush_decisions t = Decision_cache.clear t.decisions

(* The caches keep their own plain-int counters on the hot path; the
   registry reads them through callbacks at snapshot time, so metrics
   add zero per-operation cost here. *)
let register_metrics t ?(labels = []) reg =
  List.iter
    (fun (event, read) ->
      Obs.Registry.counter_fn reg
        ~help:
          "Attribute/decision cache hits, misses, evictions and invalidations."
        ~labels:(labels @ [ ("cache", "decision"); ("event", event) ])
        "identxx_fastpath_cache_events_total" read)
    [
      ("hit", fun () -> Decision_cache.hits t.decisions);
      ("miss", fun () -> Decision_cache.misses t.decisions);
      ("eviction", fun () -> Decision_cache.evictions t.decisions);
    ];
  Obs.Registry.gauge_fn reg
    ~help:"Entries currently held by the cache."
    ~labels:(labels @ [ ("cache", "decision") ])
    "identxx_fastpath_cache_size"
    (fun () -> float_of_int (Decision_cache.size t.decisions));
  Obs.Registry.counter_fn reg
    ~help:"Closed-to-open breaker transitions (including failed probes)."
    ~labels "identxx_fastpath_breaker_trips_total"
    (fun () -> Breaker.trips t.breaker);
  Obs.Registry.counter_fn reg
    ~help:"Flows decided immediately with an absent response because the \
           host's breaker was open."
    ~labels "identxx_fastpath_breaker_fastpaths_total"
    (fun () -> Breaker.fastpaths t.breaker);
  Obs.Registry.gauge_fn reg
    ~help:"Hosts with live breaker state (tripped or under observation)."
    ~labels "identxx_fastpath_breaker_tracked_hosts"
    (fun () -> float_of_int (Breaker.tracked t.breaker));
  Obs.Registry.gauge_fn reg
    ~help:"1 when the flow-setup fast path is enabled, 0 otherwise."
    ~labels "identxx_fastpath_enabled"
    (fun () -> if t.cfg.enabled then 1. else 0.)

type counters = {
  decision_hits : int;
  decision_misses : int;
  decision_evictions : int;
  breaker_trips : int;
  breaker_fastpaths : int;
}

let counters t =
  {
    decision_hits = Decision_cache.hits t.decisions;
    decision_misses = Decision_cache.misses t.decisions;
    decision_evictions = Decision_cache.evictions t.decisions;
    breaker_trips = Breaker.trips t.breaker;
    breaker_fastpaths = Breaker.fastpaths t.breaker;
  }
