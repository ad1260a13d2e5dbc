open Netcore
module Answers = Answers
module Breaker = Breaker
module Verdicts = Fifo_map.Make (String)

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

(* A memoized verdict, with the hosts its flow touched: a change on
   either drops it. *)
type decision = { verdict : Pf.Eval.verdict; src : Ipv4.t; dst : Ipv4.t }

type t = {
  cfg : config;
  decisions : decision Verdicts.t;
  mutable hits : int;
  mutable misses : int;
  breaker : Breaker.t;
}

let create cfg =
  {
    cfg;
    decisions = Verdicts.create ~capacity:cfg.decision_capacity 256;
    hits = 0;
    misses = 0;
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

(* --- the decision-cache key ---

   Written in two passes over the same code: the first, into
   {!Bytes.empty}, only measures; the second writes into a buffer of the
   length the first found. Length prefixes keep the concatenated strings
   unambiguous: a value may contain any byte, including the separators,
   but a length always starts with a digit and every separator is a
   non-digit. *)

type cursor = { mutable b : Bytes.t; mutable pos : int }

let writing c = Bytes.length c.b > 0

let put_char c ch =
  if writing c then Bytes.unsafe_set c.b c.pos ch;
  c.pos <- c.pos + 1

let put_sub c s i len =
  if writing c then Bytes.blit_string s i c.b c.pos len;
  c.pos <- c.pos + len

let put_string c s = put_sub c s 0 (String.length s)

(* The digits of [n <= 0], counted and written from its negative side,
   so that [min_int] needs no special case. *)
let rec neg_digits n = if n > -10 then 1 else 1 + neg_digits (n / 10)

let rec write_neg b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then write_neg b (i - 1) (n / 10)

(* [n] in decimal, as [string_of_int] spells it, then [sep]. *)
let put_int c sep n =
  let neg = if n < 0 then n else -n in
  let len = neg_digits neg + if n < 0 then 1 else 0 in
  if writing c then begin
    if n < 0 then Bytes.unsafe_set c.b c.pos '-';
    write_neg c.b (c.pos + len - 1) neg
  end;
  c.pos <- c.pos + len;
  put_char c sep

let put_lp_sub c s pos len =
  put_int c ':' len;
  put_sub c s pos len;
  c

(* "-" for a silent end, "R" then what the policy can read for an
   answer. A read key's values go in [Response.all_values] order, each
   copied from where it sits in the payload, closed by ';'; without
   read keys, every pair of every section, each section opened by '|',
   copied from the payload the same way. *)
let rec put_reads c r = function
  | [] -> ()
  | key :: keys ->
      ignore (Identxx.Response.fold_values r key put_lp_sub c : cursor);
      put_char c ';';
      put_reads c r keys

let open_section c =
  put_char c '|';
  c

let put_pair c s i k e = put_lp_sub (put_lp_sub c s i (k - i)) s (k + 2) (e - k - 2)

let put_answer c reads = function
  | None -> put_char c '-'
  | Some r -> (
      put_char c 'R';
      match reads with
      | Some keys -> put_reads c r keys
      | None -> ignore (Identxx.Response.fold_pairs r open_section put_pair c : cursor))

let put_key c shape (flow : Five_tuple.t) ~src ~dst =
  c.pos <- 0;
  put_int c '>' (Ipv4.to_int flow.src);
  put_int c '/' (Ipv4.to_int flow.dst);
  put_int c ':' (Proto.to_int flow.proto);
  if shape.src_port then put_int c ':' flow.src_port else put_string c "*:";
  put_int c ',' flow.dst_port;
  put_answer c shape.reads src;
  put_answer c shape.reads dst

let decision_key shape ~(flow : Five_tuple.t) ~src ~dst =
  let c = { b = Bytes.empty; pos = 0 } in
  put_key c shape flow ~src ~dst;
  c.b <- Bytes.create c.pos;
  put_key c shape flow ~src ~dst;
  Bytes.unsafe_to_string c.b

let find_decision t ~key =
  match Verdicts.find t.decisions key with
  | d ->
      t.hits <- t.hits + 1;
      Some d.verdict
  | exception Not_found ->
      t.misses <- t.misses + 1;
      None

let store_decision t ~key ~(flow : Five_tuple.t) verdict =
  Verdicts.add t.decisions key { verdict; src = flow.src; dst = flow.dst }

let note_host_changed t ip =
  if t.cfg.enabled then
    Verdicts.filter_inplace
      (fun _ d -> not (Ipv4.equal d.src ip || Ipv4.equal d.dst ip))
      t.decisions

let revoke_ip t ip =
  note_host_changed t ip;
  note_response t ip

let flush_decisions t = Verdicts.clear t.decisions

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
      ("hit", fun () -> t.hits);
      ("miss", fun () -> t.misses);
      ("eviction", fun () -> t.decisions.evictions);
    ];
  Obs.Registry.gauge_fn reg
    ~help:"Entries currently held by the cache."
    ~labels:(labels @ [ ("cache", "decision") ])
    "identxx_fastpath_cache_size"
    (fun () -> float_of_int (Verdicts.length t.decisions));
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
    decision_hits = t.hits;
    decision_misses = t.misses;
    decision_evictions = t.decisions.evictions;
    breaker_trips = Breaker.trips t.breaker;
    breaker_fastpaths = Breaker.fastpaths t.breaker;
  }
