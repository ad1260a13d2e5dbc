open Netcore
module Net = Openflow.Network

let src = Logs.Src.create "identxx.controller" ~doc:"ident++ controller"

module Log = (val Logs.src_log src : Logs.LOG)
module Topo = Openflow.Topology
module Msg = Openflow.Message

type query_targets = Both | Src_only | Dst_only | Neither

(* The sharded flow-setup engine (DESIGN.md §12). [shard_service] is the
   simulated per-message cost each shard pays; zero keeps behaviour
   byte-identical under any shard count, positive models N controller
   cores (the concurrent-burst bench). [coalesce] turns on the per-host
   connection table: concurrent misses needing the same host share one
   in-flight ident++ exchange. *)
type shard_config = {
  shard_count : int;
  shard_service : Sim.Time.t;
  coalesce : bool;
}

let sharded ?(service = Sim.Time.zero) ?(coalesce = true) count =
  { shard_count = count; shard_service = service; coalesce }

type config = {
  query_timeout : Sim.Time.t;
  entry_idle_timeout : Sim.Time.t option;
  install_along_path : bool;
  require_signed_responses : bool;
  query_retries : int;
  query_targets : query_targets;
  default : Pf.Ast.action;
  fastpath : Fastpath.config;
  proactive : bool;
  shards : shard_config option;
}

let default_config =
  {
    query_timeout = Sim.Time.ms 5;
    entry_idle_timeout = Some (Sim.Time.s 30);
    install_along_path = true;
    require_signed_responses = false;
    query_retries = 0;
    query_targets = Both;
    default = Pf.Ast.Pass;
    (* Off by default: the baseline controller runs the unmodified
       Figure-1 exchange for every table-miss flow. *)
    fastpath = Fastpath.disabled;
    (* None: one sequential loop, no run queues, connection table or
       batching. *)
    proactive = false;
    shards = None;
  }

type pending = {
  p_flow : Five_tuple.t;
  mutable p_packets : (Msg.switch_id * int * Packet.t) list;
      (* Buffered data packets awaiting the verdict, oldest first. *)
  mutable src_resp : Identxx.Response.t option;
  mutable dst_resp : Identxx.Response.t option;
  mutable await_src : bool;
  mutable await_dst : bool;
  mutable retries_left : int;
  mutable p_timeout : Sim.Engine.cancel;
  p_started : float; (* packet-in time, seconds *)
  p_ctx : Obs.Trace_context.t option;
  p_span : Obs.Span.span;
  mutable src_qspan : Obs.Span.span;
  mutable dst_qspan : Obs.Span.span;
  mutable src_sent : float; (* first query send time; nan = never sent *)
  mutable dst_sent : float;
  mutable p_exchanges : (Ipv4.t * string) list;
      (* (host, query shape) wire exchanges this flow initiated in the
         connection table; its timeout settles them for every waiter. *)
}

type stats = {
  flows_seen : int;
  allowed : int;
  blocked : int;
  queries_sent : int;
  responses_received : int;
  query_timeouts : int;
  query_retries_sent : int;
  responses_rejected : int;
  responses_augmented : int;
  queries_answered_locally : int;
  eval_errors : int;
  fastpath_decisions : int;
  attr_cache_hits : int;
  attr_cache_misses : int;
  attr_cache_evictions : int;
  attr_cache_invalidations : int;
  decision_cache_hits : int;
  decision_cache_misses : int;
  decision_cache_evictions : int;
  breaker_trips : int;
  breaker_fastpaths : int;
}

module Flow_tbl = Hashtbl.Make (struct
  type t = Five_tuple.t

  let equal = Five_tuple.equal
  let hash = Five_tuple.hash
end)

(* The controller's own instruments. The old ad-hoc stat fields live in
   the registry now; {!stats} reads the counters back, so its numbers
   track the exported series exactly. *)
type metrics = {
  c_flows : Obs.Registry.Counter.t;
  c_allowed : Obs.Registry.Counter.t;
  c_blocked : Obs.Registry.Counter.t;
  c_queries : Obs.Registry.Counter.t;
  c_responses : Obs.Registry.Counter.t;
  c_timeouts : Obs.Registry.Counter.t;
  c_retries : Obs.Registry.Counter.t;
  c_rejected : Obs.Registry.Counter.t;
  c_augmented : Obs.Registry.Counter.t;
  c_local : Obs.Registry.Counter.t;
  c_eval_errors : Obs.Registry.Counter.t;
  c_fastpath : Obs.Registry.Counter.t;
  h_flow_setup : Obs.Registry.Histogram.t;
  h_query_rtt : Obs.Registry.Histogram.t;
}

let make_metrics reg ~labels =
  let counter help name = Obs.Registry.counter reg ~help ~labels name in
  {
    c_flows =
      counter "Table-miss flows that reached the controller."
        "identxx_controller_flows_total";
    c_allowed =
      Obs.Registry.counter reg ~help:"Flow verdicts, by decision."
        ~labels:(labels @ [ ("verdict", "pass") ])
        "identxx_controller_decisions_total";
    c_blocked =
      Obs.Registry.counter reg ~help:"Flow verdicts, by decision."
        ~labels:(labels @ [ ("verdict", "block") ])
        "identxx_controller_decisions_total";
    c_queries =
      counter "ident++ queries sent to daemons (including retries)."
        "identxx_controller_queries_sent_total";
    c_responses =
      counter "ident++ responses accepted."
        "identxx_controller_responses_received_total";
    c_timeouts =
      counter "Flows that decided with at least one end silent."
        "identxx_controller_query_timeouts_total";
    c_retries =
      counter "Query retry rounds issued."
        "identxx_controller_query_retries_total";
    c_rejected =
      counter "Responses dropped for a failed signature check."
        "identxx_controller_responses_rejected_total";
    c_augmented =
      counter "Transit responses augmented with a policy section."
        "identxx_controller_responses_augmented_total";
    c_local =
      counter "Queries answered on a host's behalf (interception)."
        "identxx_controller_local_answers_total";
    c_eval_errors =
      counter "Policy evaluations that failed (verdict fell back to block)."
        "identxx_controller_eval_errors_total";
    c_fastpath =
      counter
        "Flows decided without any query exchange (every needed answer came \
         from the attribute cache or an open breaker)."
        "identxx_controller_fastpath_decisions_total";
    h_flow_setup =
      Obs.Registry.histogram reg
        ~help:"Packet-in to verdict latency in seconds." ~labels
        "identxx_controller_flow_setup_seconds";
    h_query_rtt =
      Obs.Registry.histogram reg
        ~help:"First query send to accepted response, in seconds." ~labels
        "identxx_controller_query_rtt_seconds";
  }

(* Instruments of the proactive flow-table compiler; only registered
   when [config.proactive] is set, so the default metric exposition is
   unchanged. *)
type pro_metrics = {
  pc_recompiles : Obs.Registry.Counter.t;
  pc_delta_add : Obs.Registry.Counter.t;
  pc_delta_del : Obs.Registry.Counter.t;
  pc_evicted : Obs.Registry.Counter.t;
  ph_recompile : Obs.Registry.Histogram.t;
}

let make_pro_metrics reg ~labels =
  {
    pc_recompiles =
      Obs.Registry.counter reg
        ~help:"Proactive table recompilations (policy epochs compiled)."
        ~labels "identxx_compiler_recompiles_total";
    pc_delta_add =
      Obs.Registry.counter reg
        ~help:"Abstract entries in emitted flow-mod deltas, by operation."
        ~labels:(labels @ [ ("op", "add") ])
        "identxx_compiler_delta_entries_total";
    pc_delta_del =
      Obs.Registry.counter reg
        ~help:"Abstract entries in emitted flow-mod deltas, by operation."
        ~labels:(labels @ [ ("op", "del") ])
        "identxx_compiler_delta_entries_total";
    pc_evicted =
      Obs.Registry.counter reg
        ~help:"Proactively installed entries evicted by reactive churn."
        ~labels "identxx_compiler_proactive_evictions_total";
    ph_recompile =
      Obs.Registry.histogram reg
        ~help:"Wall time to recompile and diff the proactive table."
        ~labels "identxx_compiler_recompile_seconds";
  }

(* One flow parked on a coalesced exchange: enough to find its pending
   entry (owning shard + flow key) and to know which end of the flow
   the exchange resolves. *)
type waiter = {
  w_flow : Five_tuple.t;
  w_sid : int;
  w_end : [ `Src | `Dst ];
}

(* Everything per-flow state touches, split per shard: its own pending
   table, its own fast-path view (attribute/decision caches + breaker),
   and its own metrics record (labelled [shard=<i>] when sharding is
   on, so per-shard series export while {!stats} sums them). *)
type shard_ctx = {
  sid : int;
  s_pending : pending Flow_tbl.t;
  s_fp : Fastpath.t;
  s_m : metrics;
  s_labels : Obs.Registry.labels;
  s_pin : (string, Obs.Registry.Counter.t) Hashtbl.t;
      (* Per-source packet-in counters, cached by source address so the
         hot path registers each (shard, src) series once. *)
}

type t = {
  network : Net.t;
  id : Net.controller_id;
  cfg : config;
  policy : Policy_store.t;
  decision : Decision.t;
  conn_state : Conn_state.t;
  audit : Audit.t;
  mutable augment : Identxx.Response.t -> Identxx.Key_value.section;
  mutable local_answers : Ipv4.t -> Identxx.Key_value.section option;
  obs : Obs.Registry.t;
  spans : Obs.Span.t;
  recorder : Obs.Recorder.t;
  shards_ : shard_ctx array;
      (* Always at least one: the unsharded controller is shard 0. *)
  driver : Shard.Engine.t option;
      (* Some iff cfg.shards: the run-queue multiplexer. *)
  conn : waiter Shard.Conn_table.t option;
      (* Some iff cfg.shards with coalesce: the per-host connection
         table all shards share (it sits below them, on the wire side). *)
  batch : Shard.Batch.t option;
  send_sw : Msg.switch_id -> Msg.to_switch -> unit;
      (* Flow-handling path to the dataplane: direct when unsharded,
         through the per-tick batcher when sharded. *)
  mutable src_port_matters : (int * bool) option;
      (* Per-epoch memo of Fastpath.env_matches_src_port. *)
  mutable trace_seq : int;
      (* Disambiguates trace ids when the same 5-tuple misses twice. *)
  mutable last_stats : (Msg.switch_id * Msg.stats_reply) list;
  mutable precompiled : Openflow.Match_fields.t list;
      (* Drop matches currently pushed to the dataplane. *)
  mutable proactive_tbl : Compiler.table;
      (* The abstract compiled table currently installed. *)
  mutable proactive_state : Analysis.Flowspace.t * Analysis.Flowspace.t;
      (* (forward, reverse) spaces of keep-state pass rules at last
         sync: pass entries overlapping the forward space and block
         entries overlapping the reverse space were installed as punts,
         and a change in either forces a full reinstall. *)
  proactive_cache : Compiler.cache;
  pm : pro_metrics option; (* Some iff cfg.proactive. *)
}

let policy t = t.policy
let recorder t = t.recorder
let fastpath t = t.shards_.(0).s_fp
let shard_count t = Array.length t.shards_
let metrics t = t.obs
let spans t = t.spans

let time_now_s t = Sim.Time.to_float_s (Sim.Engine.now (Net.engine t.network))
let decision t = t.decision
let audit t = t.audit
let keystore t = Decision.keystore t.decision
let config t = t.cfg

let set_response_augment t f = t.augment <- f
let set_local_answers t f = t.local_answers <- f

(* Aggregated across shards: each shard owns its counter registry, and
   the summary sums them — so `netsim --json` reads the same whatever
   the shard count. *)
let stats t =
  let v = Obs.Registry.Counter.value in
  let sum f =
    Array.fold_left (fun acc sx -> acc + v (f sx.s_m)) 0 t.shards_
  in
  let fc f =
    Array.fold_left
      (fun acc sx -> acc + f (Fastpath.counters sx.s_fp))
      0 t.shards_
  in
  {
    flows_seen = sum (fun m -> m.c_flows);
    allowed = sum (fun m -> m.c_allowed);
    blocked = sum (fun m -> m.c_blocked);
    queries_sent = sum (fun m -> m.c_queries);
    responses_received = sum (fun m -> m.c_responses);
    query_timeouts = sum (fun m -> m.c_timeouts);
    query_retries_sent = sum (fun m -> m.c_retries);
    responses_rejected = sum (fun m -> m.c_rejected);
    responses_augmented = sum (fun m -> m.c_augmented);
    queries_answered_locally = sum (fun m -> m.c_local);
    eval_errors = sum (fun m -> m.c_eval_errors);
    fastpath_decisions = sum (fun m -> m.c_fastpath);
    attr_cache_hits = fc (fun c -> c.Fastpath.attr_hits);
    attr_cache_misses = fc (fun c -> c.Fastpath.attr_misses);
    attr_cache_evictions = fc (fun c -> c.Fastpath.attr_evictions);
    attr_cache_invalidations = fc (fun c -> c.Fastpath.attr_invalidations);
    decision_cache_hits = fc (fun c -> c.Fastpath.decision_hits);
    decision_cache_misses = fc (fun c -> c.Fastpath.decision_misses);
    decision_cache_evictions = fc (fun c -> c.Fastpath.decision_evictions);
    breaker_trips = fc (fun c -> c.Fastpath.breaker_trips);
    breaker_fastpaths = fc (fun c -> c.Fastpath.breaker_fastpaths);
  }

let pending_count t =
  Array.fold_left (fun acc sx -> acc + Flow_tbl.length sx.s_pending) 0 t.shards_

let coalesced_queries t =
  match t.conn with None -> 0 | Some ct -> Shard.Conn_table.coalesced ct

let wire_exchanges t =
  match t.conn with None -> 0 | Some ct -> Shard.Conn_table.started ct

let batch_flushes t =
  match t.batch with None -> 0 | Some b -> Shard.Batch.flushes b

let shard_makespan t =
  match t.driver with
  | None -> Sim.Time.zero
  | Some d -> Shard.Engine.makespan d

(* --- policy-driven interception (S3.4's undisclosed PF+=2 extensions,
   made concrete: `intercept query ... answer { ... }` and
   `intercept response ... augment { ... }`) --- *)

let section_of_pairs pairs =
  List.filter_map
    (fun (k, v) ->
      if Identxx.Key_value.valid_key k && Identxx.Key_value.valid_value v then
        Some (Identxx.Key_value.pair k v)
      else None)
    pairs

(* Answer queries addressed to [ip] on the host's behalf: policy
   intercepts take precedence over the programmatic hook. *)
let resolve_local_answer t ip =
  let from_policy =
    match Policy_store.env t.policy with
    | Error _ -> None
    | Ok env ->
        List.fold_left
          (fun acc (i : Pf.Ast.intercept) ->
            if acc <> None then acc
            else if
              i.Pf.Ast.ikind = Pf.Ast.Answer_query
              && Pf.Env.addr_spec_matches env i.Pf.Ast.target ip
            then Some (section_of_pairs i.Pf.Ast.pairs)
            else acc)
          None (Pf.Env.intercepts env)
  in
  match from_policy with Some s -> Some s | None -> t.local_answers ip

(* The section(s) to append to a response heading toward [dst_ip]. *)
let resolve_augment t ~dst_ip response =
  let from_policy =
    match Policy_store.env t.policy with
    | Error _ -> []
    | Ok env ->
        List.concat_map
          (fun (i : Pf.Ast.intercept) ->
            if
              i.Pf.Ast.ikind = Pf.Ast.Augment_response
              && Pf.Env.addr_spec_matches env i.Pf.Ast.target dst_ip
            then section_of_pairs i.Pf.Ast.pairs
            else [])
          (Pf.Env.intercepts env)
  in
  from_policy @ t.augment response

(* --- forwarding of intercepted ident++ packets, one hop at a time --- *)

let forward_toward t ~dpid ~dst_ip pkt =
  match Net.host_by_ip t.network dst_ip with
  | None -> () (* destination outside every known domain: drop *)
  | Some host -> (
      match Topo.next_hop (Net.topology t.network) ~from:dpid ~dst_host:host with
      | None -> ()
      | Some port ->
          t.send_sw dpid
            (Msg.Packet_out { Msg.out_packet = pkt; out_port = `Port port }))

(* --- installing the verdict (Figure 1, step 4) --- *)

let install_path t flow =
  let net = t.network in
  match
    ( Net.host_by_ip net flow.Five_tuple.src,
      Net.host_by_ip net flow.Five_tuple.dst )
  with
  | Some src_host, Some dst_host -> (
      match
        Topo.switch_path (Net.topology net) ~src:src_host ~dst:dst_host
      with
      | None | Some [] -> false
      | Some hops ->
          let hops = if t.cfg.install_along_path then hops else [ List.hd hops ] in
          List.iter
            (fun (dpid, _in_port, out_port) ->
              t.send_sw dpid
                (Msg.add_flow ?idle_timeout:t.cfg.entry_idle_timeout
                   ~fields:(Openflow.Match_fields.of_five_tuple flow)
                   [ Openflow.Action.Output out_port ]))
            hops;
          true)
  | _ -> false

let install_drop t ~dpid flow =
  t.send_sw dpid
    (Msg.add_flow ?idle_timeout:t.cfg.entry_idle_timeout
       ~fields:(Openflow.Match_fields.of_five_tuple flow)
       Openflow.Action.drop)

let release_packets t packets =
  (* Send each buffered packet back through its switch's (now updated)
     table. Flow-mods were enqueued first, and the control channel is
     FIFO, so the entries are in place when the packets run. *)
  List.iter
    (fun (dpid, _in_port, pkt) ->
      t.send_sw dpid
        (Msg.Packet_out { Msg.out_packet = pkt; out_port = `Table }))
    (List.rev packets)

(* Whether any rule of the current policy constrains source ports: the
   decision-cache key wildcards the ephemeral client port only when it
   provably cannot change the verdict. Memoized per policy epoch. *)
let src_port_matters t =
  let epoch = Policy_store.epoch t.policy in
  match t.src_port_matters with
  | Some (e, b) when e = epoch -> b
  | Some _ | None ->
      let b =
        match Policy_store.env t.policy with
        | Ok env -> Fastpath.env_matches_src_port env
        | Error _ -> true (* conservative: key on the full 5-tuple *)
      in
      t.src_port_matters <- Some (epoch, b);
      b

let compute_verdict t sx ~flow ~src ~dst =
  let input = { Decision.flow; src_response = src; dst_response = dst } in
  match Decision.decide t.decision input with
  | Ok v -> v
  | Error _ ->
      Obs.Registry.Counter.inc sx.s_m.c_eval_errors;
      (* Fail closed on configuration errors. *)
      {
        Pf.Eval.decision = Pf.Ast.Block;
        matched = None;
        keep_state = false;
        log = false;
      }

(* The verdict for a flow given both endpoint answers, through the
   decision cache when the fast path is on. [src_tag]/[dst_tag] are
   pre-computed answer tags (from the attribute cache) that save
   re-encoding the responses on the hot path. *)
let eval_decision ?src_tag ?dst_tag t sx ~flow ~src ~dst =
  if not (Fastpath.enabled sx.s_fp) then compute_verdict t sx ~flow ~src ~dst
  else begin
    let epoch = Policy_store.epoch t.policy in
    let tag precomputed resp =
      match precomputed with
      | Some tg -> tg
      | None -> Fastpath.answer_tag resp
    in
    let key =
      Fastpath.decision_key_tagged ~match_src_port:(src_port_matters t) ~flow
        ~src_tag:(tag src_tag src) ~dst_tag:(tag dst_tag dst)
    in
    match Fastpath.find_decision sx.s_fp ~epoch ~key with
    | Some v -> v
    | None ->
        let v = compute_verdict t sx ~flow ~src ~dst in
        Fastpath.store_decision sx.s_fp ~epoch ~key ~flow v;
        v
  end

let apply_verdict ?(span = Obs.Span.null) ?started ?trace_id t sx ~flow
    ~packets ~src ~dst verdict =
  Audit.record ?trace_id t.audit
    ~at:(Sim.Engine.now (Net.engine t.network))
    ~flow ~verdict ~src ~dst;
  Log.debug (fun m ->
      m "decision %s: %s%s" (Five_tuple.to_string flow)
        (match verdict.Pf.Eval.decision with
        | Pf.Ast.Pass -> "pass"
        | Pf.Ast.Block -> "block")
        (match verdict.Pf.Eval.matched with
        | Some r -> Printf.sprintf " (rule@%d)" r.Pf.Ast.line
        | None -> " (default)"));
  let now_s = time_now_s t in
  (match started with
  | Some s -> Obs.Registry.Histogram.observe sx.s_m.h_flow_setup (now_s -. s)
  | None -> ());
  if Obs.Span.is_live span then begin
    Obs.Span.set_attr span "decision"
      (match verdict.Pf.Eval.decision with
      | Pf.Ast.Pass -> "pass"
      | Pf.Ast.Block -> "block");
    Obs.Span.set_attr span "rule"
      (match verdict.Pf.Eval.matched with
      | Some r -> string_of_int r.Pf.Ast.line
      | None -> "default")
  end;
  (* A denied flow is exactly the trace an operator will want: override
     the head-sampling coin before the root is finished. *)
  if verdict.Pf.Eval.decision = Pf.Ast.Block then Obs.Span.force_sample span;
  (* The flight recorder keeps no shard attribution: the same workload
     must dump byte-identically whatever the shard count. *)
  if Obs.Recorder.enabled t.recorder then
    Obs.Recorder.record_lazy t.recorder ~at:now_s "decision"
      (lazy
        [
          ("flow", Five_tuple.to_string flow);
          ( "verdict",
            match verdict.Pf.Eval.decision with
            | Pf.Ast.Pass -> "pass"
            | Pf.Ast.Block -> "block" );
          ( "rule",
            match verdict.Pf.Eval.matched with
            | Some r -> string_of_int r.Pf.Ast.line
            | None -> "default" );
        ]);
  (match verdict.Pf.Eval.decision with
  | Pf.Ast.Pass ->
      Obs.Registry.Counter.inc sx.s_m.c_allowed;
      let installed = install_path t flow in
      if verdict.Pf.Eval.keep_state then begin
        Conn_state.note t.conn_state
          ~now:(Sim.Engine.now (Net.engine t.network))
          flow;
        ignore (install_path t (Five_tuple.reverse flow))
      end;
      if Obs.Span.is_live span then
        Obs.Span.event span ~at:now_s
          (if installed then "install" else "no-path");
      if installed then begin
        if Obs.Recorder.enabled t.recorder then
          Obs.Recorder.record_lazy t.recorder ~at:now_s "install"
            (lazy [ ("flow", Five_tuple.to_string flow); ("kind", "path") ]);
        release_packets t packets
      end
  | Pf.Ast.Block -> (
      Obs.Registry.Counter.inc sx.s_m.c_blocked;
      match packets with
      | (dpid, _, _) :: _ ->
          install_drop t ~dpid flow;
          if Obs.Span.is_live span then
            Obs.Span.event span ~at:now_s "install-drop";
          if Obs.Recorder.enabled t.recorder then
            Obs.Recorder.record_lazy t.recorder ~at:now_s "install"
              (lazy [ ("flow", Five_tuple.to_string flow); ("kind", "drop") ])
      | [] -> ()));
  Obs.Span.finish t.spans ~at:now_s span

let trace_id_of ctx =
  Option.map (fun (c : Obs.Trace_context.t) -> c.Obs.Trace_context.trace_id) ctx

let finalize t sx p =
  Sim.Engine.cancel p.p_timeout;
  Flow_tbl.remove sx.s_pending p.p_flow;
  let verdict =
    eval_decision t sx ~flow:p.p_flow ~src:p.src_resp ~dst:p.dst_resp
  in
  apply_verdict ~span:p.p_span ~started:p.p_started
    ?trace_id:(trace_id_of p.p_ctx) t sx ~flow:p.p_flow ~packets:p.p_packets
    ~src:p.src_resp ~dst:p.dst_resp verdict

let maybe_finalize t sx p =
  if (not p.await_src) && not p.await_dst then finalize t sx p

(* A coalesced exchange settled badly: the initiator timed out, or its
   timeout tripped the host's breaker. Every waiter fails, not just the
   initiating flow: the awaited end resolves absent, the flow's root
   span is force-sampled (an error trace per waiter), and the flow
   decides with what it has. Runs on the waiter's own shard. *)
let fail_waiter t ~cause ~host w =
  let sx = t.shards_.(w.w_sid) in
  match Flow_tbl.find_opt sx.s_pending w.w_flow with
  | None -> () (* already decided; stale settlement is a no-op *)
  | Some p ->
      let awaiting =
        match w.w_end with `Src -> p.await_src | `Dst -> p.await_dst
      in
      if awaiting then begin
        Obs.Registry.Counter.inc sx.s_m.c_timeouts;
        Obs.Span.force_sample p.p_span;
        let at = time_now_s t in
        if Obs.Span.is_live p.p_span then
          Obs.Span.event p.p_span ~at
            ~attrs:[ ("host", Ipv4.to_string host); ("cause", cause) ]
            "exchange-failed";
        let qspan =
          match w.w_end with `Src -> p.src_qspan | `Dst -> p.dst_qspan
        in
        if Obs.Span.is_live qspan then begin
          Obs.Span.set_attr qspan "outcome" cause;
          Obs.Span.finish t.spans ~at qspan
        end;
        if Obs.Recorder.enabled t.recorder then
          Obs.Recorder.record_lazy t.recorder ~at "query-settled"
            (lazy
              [
                ("flow", Five_tuple.to_string w.w_flow);
                ("host", Ipv4.to_string host);
                ("outcome", cause);
              ]);
        (match w.w_end with
        | `Src -> p.await_src <- false
        | `Dst -> p.await_dst <- false);
        maybe_finalize t sx p
      end

(* Settle an exchange's waiters onto their shards, in join order. Every
   delivery is posted — never run inline — so the global execution
   order is the join order whatever the shard count. *)
let post_to_waiters t ws fn =
  match t.driver with
  | None -> List.iter fn ws
  | Some d ->
      List.iter (fun w -> Shard.Engine.post d ~shard:w.w_sid (fun () -> fn w)) ws

(* --- querying daemons (Figure 1, step 3) --- *)

(* The keys a query hints when the policy reads none: the identity
   and application keys of §3.3. *)
let default_query_keys =
  Identxx.Key_value.
    [ user_id; group_id; app_name; exe_hash; version; requirements; req_sig ]

(* The key list a query hints: the keys the current policy actually
   reads, falling back to {!default_query_keys} (§3.2: the list is only
   a hint; daemons may answer with more). Also the attribute-cache key
   for the host's answer. *)
let hint_keys t =
  match Policy_store.env t.policy with
  | Ok env -> (
      match Pf.Env.referenced_keys env with
      | [] -> default_query_keys
      | keys -> keys)
  | Error _ -> default_query_keys

(* The coalescing key alongside the host: two queries share an exchange
   only when they hint the same key list. *)
let shape_of_keys keys = String.concat "," keys

(* Actually put a query on the wire toward [target_ip]'s attachment
   point. The caller has already checked reachability. *)
let wire_send ?trace t sx ~(flow : Five_tuple.t) ~target_ip ~reply_to
    attachment =
  let query =
    Identxx.Query.with_trace
      (Identxx.Query.make ~flow ~keys:(hint_keys t))
      trace
  in
  let pkt =
    Identxx.Wire.query_packet ~to_ip:target_ip ~from_ip:reply_to query
  in
  Obs.Registry.Counter.inc sx.s_m.c_queries;
  if Obs.Recorder.enabled t.recorder then
    Obs.Recorder.record_lazy t.recorder ~at:(time_now_s t) "query-sent"
      (lazy
        [
          ("flow", Five_tuple.to_string flow);
          ("host", Ipv4.to_string target_ip);
        ]);
  match attachment.Topo.node with
  | Topo.Sw dpid ->
      t.send_sw dpid
        (Msg.Packet_out
           { Msg.out_packet = pkt; out_port = `Port attachment.Topo.port })
  | Topo.Host _ -> ()

(* Where a query to [ip] enters the network: the switch port its host
   hangs off, if the address is a known, attached host. *)
let attachment_of t ip =
  match Net.host_by_ip t.network ip with
  | None -> None
  | Some host -> Topo.host_attachment (Net.topology t.network) host

(* Send an ident++ query to [target_ip] about [flow]. [reply_to] is the
   flow's other end: per §3.2 the controller uses it as the query's
   source address, so the response naturally routes back through the
   network (and its interception points). [`Unreachable] when no query
   could be issued (unknown host). *)
let send_query ?trace t sx ~(flow : Five_tuple.t) ~target_ip ~reply_to ~end_ =
  match resolve_local_answer t target_ip with
  | Some section ->
      (* Answer on the host's behalf without touching the network. *)
      Obs.Registry.Counter.inc sx.s_m.c_local;
      let response = Identxx.Response.make ~flow [ section ] in
      `Local response
  | None -> (
      match attachment_of t target_ip with
      | None -> `Unreachable
      | Some attachment -> (
          match t.conn with
          | None ->
              wire_send ?trace t sx ~flow ~target_ip ~reply_to attachment;
              `Sent None
          | Some ct -> (
              (* Multiplex through the per-host connection: only the
                 first flow needing this (host, shape) actually sends;
                 everyone else parks on the exchange. *)
              let shape = shape_of_keys (hint_keys t) in
              let w = { w_flow = flow; w_sid = sx.sid; w_end = end_ } in
              match Shard.Conn_table.join ct ~host:target_ip ~shape w with
              | `First ->
                  wire_send ?trace t sx ~flow ~target_ip ~reply_to attachment;
                  `Sent (Some shape)
              | `Coalesced _ -> `Joined)))

let start_flow t sx ~dpid ~in_port pkt (flow : Five_tuple.t) =
  Obs.Registry.Counter.inc sx.s_m.c_flows;
  let now_s = time_now_s t in
  (* Per-source packet-in accounting: the series the packet_in_surge
     health rule watches. Registration and the address formatting are
     gated on the registry flag to keep the disabled path free. *)
  if Obs.Registry.enabled t.obs then begin
    let src_s = Ipv4.to_string flow.Five_tuple.src in
    let pin =
      match Hashtbl.find_opt sx.s_pin src_s with
      | Some c -> c
      | None ->
          let c =
            Obs.Registry.counter t.obs
              ~help:"Packet-in table misses reaching the controller, by source."
              ~labels:(sx.s_labels @ [ ("src", src_s) ])
              "identxx_controller_packet_ins_total"
          in
          Hashtbl.replace sx.s_pin src_s c;
          c
    in
    Obs.Registry.Counter.inc pin
  end;
  if Obs.Recorder.enabled t.recorder then
    Obs.Recorder.record_lazy t.recorder ~at:now_s "packet-in"
      (lazy [ ("flow", Five_tuple.to_string flow) ]);
  (* One root span — and one trace context — per table-miss flow.
     Attribute formatting is gated on the collector flag (the Sim.Trace
     discipline); when disabled every operation below runs against the
     shared dead span and no context rides the queries. *)
  let sp, ctx =
    if Obs.Span.enabled t.spans then begin
      let seq = t.trace_seq in
      t.trace_seq <- seq + 1;
      let ctx =
        Obs.Trace_context.make ~seed:(Five_tuple.to_string flow) ~seq
          ~sampled:true
      in
      let sampled =
        Obs.Span.should_sample t.spans ~id:ctx.Obs.Trace_context.trace_id
      in
      let ctx = { ctx with Obs.Trace_context.sampled } in
      let attrs =
        [
          ("flow", Five_tuple.to_string flow);
          ("trace-id", ctx.Obs.Trace_context.trace_id);
        ]
      in
      let attrs =
        (* The owning shard, when the sharded engine is driving. *)
        if Option.is_none t.driver then attrs
        else attrs @ [ ("shard", string_of_int sx.sid) ]
      in
      let sp = Obs.Span.start t.spans ~at:now_s ~sampled ~attrs "flow-setup" in
      (sp, Some ctx)
    end
    else (Obs.Span.null, None)
  in
  Log.debug (fun m -> m "new flow %s at s%d" (Five_tuple.to_string flow) dpid);
  (* PF semantics: state matching precedes the ruleset. A flow covered
     by live keep-state (e.g. a reply whose cached entry idled out) is
     re-admitted without a fresh ident++ exchange. *)
  if Conn_state.permits t.conn_state ~now:(Sim.Engine.now (Net.engine t.network)) flow
  then begin
    Obs.Registry.Counter.inc sx.s_m.c_allowed;
    Obs.Registry.Histogram.observe sx.s_m.h_flow_setup 0.;
    if Obs.Span.is_live sp then begin
      Obs.Span.event sp ~at:now_s "conn-state-readmit";
      Obs.Span.set_attr sp "decision" "pass"
    end;
    if install_path t flow then
      t.send_sw dpid
        (Msg.Packet_out { Msg.out_packet = pkt; out_port = `Table });
    Obs.Span.finish t.spans ~at:now_s sp
  end
  else begin
    let now = Sim.Engine.now (Net.engine t.network) in
    let want_src =
      match t.cfg.query_targets with
      | Both | Src_only -> true
      | Dst_only | Neither -> false
    and want_dst =
      match t.cfg.query_targets with
      | Both | Dst_only -> true
      | Src_only | Neither -> false
    in
    (* Fast path: before any Figure-1 exchange, try to resolve each
       queried endpoint from the attribute cache, or — for a host whose
       breaker is open — as an immediate absent response. [Some (r, tag)]
       is a resolved answer (r = None means absent) with its cached
       decision-key tag; [None] means the daemon must actually be
       asked. *)
    let fp_resolve want ip =
      if not want then Some (None, "-")
      else
        match
          Fastpath.find_attrs_tagged sx.s_fp ~now ~host:ip
            ~keys:(hint_keys t)
        with
        | Some (r, tag) ->
            if Obs.Span.is_live sp then
              Obs.Span.event sp ~at:now_s
                ~attrs:[ ("host", Ipv4.to_string ip) ]
                "attr-cache-hit";
            Some (Some r, tag)
        | None -> (
            match Fastpath.consult_host sx.s_fp ~now ip with
            | `Absent ->
                if Obs.Span.is_live sp then
                  Obs.Span.event sp ~at:now_s
                    ~attrs:[ ("host", Ipv4.to_string ip) ]
                    "breaker-absent";
                Some (None, "-")
            | `Probe ->
                if Obs.Span.is_live sp then
                  Obs.Span.event sp ~at:now_s
                    ~attrs:[ ("host", Ipv4.to_string ip) ]
                    "breaker-probe";
                None
            | `Ask -> None)
    in
    let pre_src = fp_resolve want_src flow.Five_tuple.src
    and pre_dst = fp_resolve want_dst flow.Five_tuple.dst in
    match (pre_src, pre_dst) with
    | Some (src, src_tag), Some (dst, dst_tag) when Fastpath.enabled sx.s_fp
      ->
        (* Both ends resolved without touching the network: decide now,
           with no pending entry and no timer. *)
        Obs.Registry.Counter.inc sx.s_m.c_fastpath;
        if Obs.Span.is_live sp then Obs.Span.set_attr sp "path" "fastpath";
        let verdict = eval_decision t sx ~flow ~src ~dst ~src_tag ~dst_tag in
        apply_verdict ~span:sp ~started:now_s ?trace_id:(trace_id_of ctx) t sx
          ~flow
          ~packets:[ (dpid, in_port, pkt) ]
          ~src ~dst verdict
    | _ ->
    let timeout_handle = ref None in
    (* Sharded, the timer posts into the owning shard's mailbox, so
       timeout handling serialises with the shard's other work (and
       its installs ride the same batched pass). *)
    let arm_timeout () =
      let fire () = match !timeout_handle with Some f -> f () | None -> () in
      match t.driver with
      | None ->
          Sim.Engine.schedule_cancellable (Net.engine t.network)
            ~delay:t.cfg.query_timeout fire
      | Some d ->
          Shard.Engine.post_after d ~shard:sx.sid ~delay:t.cfg.query_timeout
            fire
    in
    let p =
      {
        p_flow = flow;
        p_packets = [ (dpid, in_port, pkt) ];
        src_resp = (match pre_src with Some (r, _) -> r | None -> None);
        dst_resp = (match pre_dst with Some (r, _) -> r | None -> None);
        await_src = false;
        await_dst = false;
        retries_left = t.cfg.query_retries;
        p_timeout = arm_timeout ();
        p_started = now_s;
        p_ctx = ctx;
        p_span = sp;
        src_qspan = Obs.Span.null;
        dst_qspan = Obs.Span.null;
        src_sent = Float.nan;
        dst_sent = Float.nan;
        p_exchanges = [];
      }
    in
    let note_sent end_ =
      (* First attempt only: a retried query keeps its original child
         span and send time, so the RTT histogram sees the full wait. *)
      let at = time_now_s t in
      let qspan target =
        if Obs.Span.is_live p.p_span then
          Obs.Span.start t.spans ~at ~parent:p.p_span
            ~attrs:[ ("host", Ipv4.to_string target) ]
            "query"
        else Obs.Span.null
      in
      match end_ with
      | `Src ->
          if Float.is_nan p.src_sent then begin
            p.src_sent <- at;
            p.src_qspan <- qspan flow.Five_tuple.src
          end
      | `Dst ->
          if Float.is_nan p.dst_sent then begin
            p.dst_sent <- at;
            p.dst_qspan <- qspan flow.Five_tuple.dst
          end
    in
    (* Each query carries a per-endpoint child context, derived
       deterministically from the root — a retry resends the same span
       id, so the daemon's timings land under the same child either
       way. *)
    let qtrace n = Option.map (fun c -> Obs.Trace_context.child c n) p.p_ctx in
    let issue_end end_ ~target ~reply ~qn =
      let awaiting =
        match end_ with `Src -> p.await_src | `Dst -> p.await_dst
      in
      if awaiting then begin
        if List.exists (fun (h, _) -> Ipv4.equal h target) p.p_exchanges then
          (* A retry round, and this flow initiated the exchange: put
             the query back on the wire without re-joining (coalesced
             waiters ride this resend). *)
          Option.iter
            (wire_send ?trace:(qtrace qn) t sx ~flow ~target_ip:target
               ~reply_to:reply)
            (attachment_of t target)
        else
          match
            send_query ?trace:(qtrace qn) t sx ~flow ~target_ip:target
              ~reply_to:reply ~end_
          with
          | `Local r ->
              if Obs.Span.is_live sp then
                Obs.Span.event sp ~at:(time_now_s t)
                  ~attrs:[ ("host", Ipv4.to_string target) ]
                  "local-answer";
              (match end_ with
              | `Src -> p.src_resp <- Some r
              | `Dst -> p.dst_resp <- Some r);
              (match end_ with
              | `Src -> p.await_src <- false
              | `Dst -> p.await_dst <- false)
          | `Sent shape ->
              (match shape with
              | Some s -> p.p_exchanges <- (target, s) :: p.p_exchanges
              | None -> ());
              note_sent end_
          | `Joined ->
              (* Another flow's exchange is already in flight to this
                 host for the same query shape: no duplicate wire
                 query; the settlement fans out to us too. *)
              note_sent end_;
              if Obs.Span.is_live sp then
                Obs.Span.event sp ~at:(time_now_s t)
                  ~attrs:[ ("host", Ipv4.to_string target) ]
                  "query-coalesced"
          | `Unreachable -> (
              match end_ with
              | `Src -> p.await_src <- false
              | `Dst -> p.await_dst <- false)
      end
    in
    let issue_queries () =
      issue_end `Src ~target:flow.Five_tuple.src ~reply:flow.Five_tuple.dst
        ~qn:1;
      issue_end `Dst ~target:flow.Five_tuple.dst ~reply:flow.Five_tuple.src
        ~qn:2
    in
    timeout_handle :=
      Some
        (fun () ->
          match Flow_tbl.find_opt sx.s_pending flow with
          | Some p' when p' == p ->
              if (p.await_src || p.await_dst) && p.retries_left > 0 then begin
                (* Re-issue the unanswered queries and re-arm the timer. *)
                p.retries_left <- p.retries_left - 1;
                Obs.Registry.Counter.inc sx.s_m.c_retries;
                if Obs.Span.is_live sp then
                  Obs.Span.event sp ~at:(time_now_s t) "retry";
                issue_queries ();
                p.p_timeout <- arm_timeout ()
              end
              else begin
                if p.await_src || p.await_dst then begin
                  Obs.Registry.Counter.inc sx.s_m.c_timeouts;
                  (* A flow decided with an end silent is an error
                     trace: keep it whatever the sampling coin said. *)
                  Obs.Span.force_sample sp;
                  (* Feed the breaker: each side that stayed silent
                     through every attempt is a consecutive timeout. *)
                  let now = Sim.Engine.now (Net.engine t.network) in
                  let at = time_now_s t in
                  let timed_out qspan ip =
                    let tripped =
                      Fastpath.note_timeout_report sx.s_fp ~now ip
                    in
                    if tripped then begin
                      if Obs.Span.is_live sp then
                        Obs.Span.event sp ~at
                          ~attrs:[ ("host", Ipv4.to_string ip) ]
                          "breaker-trip";
                      if Obs.Recorder.enabled t.recorder then
                        Obs.Recorder.record_lazy t.recorder ~at "breaker"
                          (lazy
                            [
                              ("host", Ipv4.to_string ip);
                              ("state", "open");
                            ]);
                      (* Propagate the trip to every other shard's
                         breaker — an explicit cross-shard message, so
                         the whole controller fails fast on this host. *)
                      match t.driver with
                      | Some d ->
                          Shard.Engine.broadcast d (fun osid ->
                              if osid <> sx.sid then
                                Fastpath.note_breaker_open
                                  t.shards_.(osid).s_fp ~now ip)
                      | None -> ()
                    end;
                    if Obs.Span.is_live qspan then begin
                      Obs.Span.set_attr qspan "outcome" "timeout";
                      Obs.Span.finish t.spans ~at qspan
                    end;
                    if Obs.Recorder.enabled t.recorder then
                      Obs.Recorder.record_lazy t.recorder ~at "query-settled"
                        (lazy
                          [
                            ("flow", Five_tuple.to_string flow);
                            ("host", Ipv4.to_string ip);
                            ("outcome", "timeout");
                          ]);
                    (* This flow initiated the exchange (a silent host
                       answers nobody): settle it and fail every other
                       waiter the same way. *)
                    match t.conn with
                    | None -> ()
                    | Some ct ->
                        let cause =
                          if tripped then "breaker-open" else "timeout"
                        in
                        List.iter
                          (fun (h, shape) ->
                            if Ipv4.equal h ip then
                              let ws =
                                Shard.Conn_table.settle ct ~host:h ~shape
                              in
                              post_to_waiters t
                                (List.filter
                                   (fun w ->
                                     not (Five_tuple.equal w.w_flow flow))
                                   ws)
                                (fail_waiter t ~cause ~host:ip))
                          p.p_exchanges
                  in
                  if p.await_src then
                    timed_out p.src_qspan flow.Five_tuple.src;
                  if p.await_dst then timed_out p.dst_qspan flow.Five_tuple.dst
                end;
                p.await_src <- false;
                p.await_dst <- false;
                finalize t sx p
              end
          | Some _ | None -> ());
    Flow_tbl.replace sx.s_pending flow p;
    (* Query only the ends the fast path could not resolve. *)
    p.await_src <- want_src && Option.is_none pre_src;
    p.await_dst <- want_dst && Option.is_none pre_dst;
    issue_queries ();
    maybe_finalize t sx p
  end

(* --- intercepted / owned ident++ traffic --- *)

(* Where a well-formed signature section must sit for the response to
   count as authenticated: last — except that a daemon answering a
   traced query appends its (unauthenticated, purely diagnostic) trace
   section after signing, so exactly one trailing trace section is
   tolerated. An untraced response is checked exactly as before. *)
let expected_signature_index (response : Identxx.Response.t) =
  let n = List.length response.Identxx.Response.sections in
  match List.rev response.Identxx.Response.sections with
  | last :: _ when Identxx.Response.is_trace_section last -> n - 2
  | _ -> n - 1

(* Transit: another controller's exchange crossing our domain.
   Augment (§3.4) and forward toward its destination. *)
let handle_transit t sx ~dpid ~from_ip ~to_ip response pkt =
  let section = resolve_augment t ~dst_ip:to_ip response in
  let pkt =
    if section = [] then pkt
    else begin
      Obs.Registry.Counter.inc sx.s_m.c_augmented;
      let augmented = Identxx.Response.append_section response section in
      let dst_port =
        match pkt.Packet.eth_payload with
        | Packet.Ip { payload = Packet.Tcp tcp; _ } -> tcp.Packet.tcp_dst
        | _ -> Identxx.Wire.port
      in
      Identxx.Wire.response_packet ~to_ip ~from_ip ~dst_port augmented
    end
  in
  forward_toward t ~dpid ~dst_ip:to_ip pkt

(* Stitch the daemon's piggybacked timings (decode, lookup, assemble,
   sign — on the daemon's clock) under this query's child span,
   completing the cross-host tree. *)
let stitch_daemon_spans t qspan dtrace =
  match dtrace with
  | Some (_trace_id, _parent, dspans) ->
      List.iter
        (fun (dname, t0, t1) ->
          let dsp = Obs.Span.start t.spans ~at:t0 ~parent:qspan dname in
          Obs.Span.finish t.spans ~at:t1 dsp)
        dspans
  | None -> ()

(* One settled answer landing on one parked flow, on the waiter's own
   shard. [dtrace] is the daemon's timing piggyback — stitched under
   the initiator's query span only (the timings are real once). *)
let deliver_to_waiter t ~dtrace response w =
  let sx = t.shards_.(w.w_sid) in
  match Flow_tbl.find_opt sx.s_pending w.w_flow with
  | None -> () (* the flow already decided (its own timeout won) *)
  | Some p ->
      let awaiting =
        match w.w_end with `Src -> p.await_src | `Dst -> p.await_dst
      in
      if awaiting then begin
        let at = time_now_s t in
        let qspan, sent =
          match w.w_end with
          | `Src -> (p.src_qspan, p.src_sent)
          | `Dst -> (p.dst_qspan, p.dst_sent)
        in
        if not (Float.is_nan sent) then
          Obs.Registry.Histogram.observe sx.s_m.h_query_rtt (at -. sent);
        if Obs.Span.is_live qspan then begin
          stitch_daemon_spans t qspan dtrace;
          Obs.Span.set_attr qspan "outcome" "answered";
          Obs.Span.finish t.spans ~at qspan
        end;
        if Obs.Recorder.enabled t.recorder then
          Obs.Recorder.record_lazy t.recorder ~at "query-settled"
            (lazy
              (let host =
                 match w.w_end with
                 | `Src -> w.w_flow.Five_tuple.src
                 | `Dst -> w.w_flow.Five_tuple.dst
               in
               [
                 ("flow", Five_tuple.to_string w.w_flow);
                 ("host", Ipv4.to_string host);
                 ("outcome", "answered");
               ]));
        (match w.w_end with
        | `Src ->
            p.src_resp <- Some response;
            p.await_src <- false
        | `Dst ->
            p.dst_resp <- Some response;
            p.await_dst <- false);
        maybe_finalize t sx p
      end

(* The shard owning [flow]'s pending entry: where its packet-ins run. *)
let owner t flow =
  match t.driver with
  | None -> t.shards_.(0)
  | Some d -> t.shards_.(Shard.Engine.shard_of_flow d flow)

(* The pending flow a daemon answer names. The daemon echoes the flow's
   proto and ports; [from_ip] is the answering end and [to_ip] the
   query's reply-to, i.e. the other end. So the flow is one of two exact
   keys; when both are pending, the one awaiting its source wins, then
   the other. *)
let named_pending t ~from_ip ~to_ip (r : Identxx.Response.t) =
  let find src dst =
    let flow =
      {
        Five_tuple.src;
        dst;
        proto = r.Identxx.Response.proto;
        src_port = r.Identxx.Response.src_port;
        dst_port = r.Identxx.Response.dst_port;
      }
    in
    Flow_tbl.find_opt (owner t flow).s_pending flow
  in
  match find from_ip to_ip with
  | Some p when p.await_src -> Some p
  | as_src -> (
      match find to_ip from_ip with Some _ as as_dst -> as_dst | None -> as_src)

(* The one response path: an answer pairs with the flow it names, on
   that flow's shard. If the flow initiated a coalesced exchange with
   the answering host, the answer settles it for every waiter, in join
   order and each on its own shard; otherwise the flow is the only
   waiter. An answer that fails authentication settles nothing: the
   waiters decide on a later valid answer or at the initiator's
   timeout, so an off-path spoofer cannot force early fail-closed
   decisions. An answer naming no pending flow is transit. *)
let handle_response t sx ~dpid ~from_ip ~to_ip response pkt =
  match named_pending t ~from_ip ~to_ip response with
  | None -> handle_transit t sx ~dpid ~from_ip ~to_ip response pkt
  | Some p
    when t.cfg.require_signed_responses
         && Identxx.Signed.verify (Decision.keystore t.decision) response
            <> Identxx.Signed.Valid (expected_signature_index response) ->
      Obs.Registry.Counter.inc (owner t p.p_flow).s_m.c_rejected;
      Obs.Span.force_sample p.p_span;
      if Obs.Span.is_live p.p_span then
        Obs.Span.event p.p_span ~at:(time_now_s t)
          ~attrs:[ ("host", Ipv4.to_string from_ip) ]
          "response-rejected";
      Log.debug (fun m ->
          m "rejecting unauthenticated response from %s"
            (Ipv4.to_string from_ip))
  | Some p ->
      let flow = p.p_flow in
      let osx = owner t flow in
      Obs.Registry.Counter.inc osx.s_m.c_responses;
      (* Pull the daemon's piggybacked timings out, then strip them:
         per-flow trace ids must not reach policy evaluation or the
         attribute cache (a cached trace section would both leak into
         later flows' decisions and defeat decision-cache key
         matching). *)
      let dtrace = Identxx.Response.trace_info response in
      let response = Identxx.Response.strip_trace response in
      let ws =
        match
          ( t.conn,
            List.find_opt (fun (h, _) -> Ipv4.equal h from_ip) p.p_exchanges )
        with
        | Some ct, Some ((_, shape) as ex) ->
            (* Forget it once settled: a duplicate answer naming this
               flow must not settle a newer exchange with the host. *)
            p.p_exchanges <- List.filter (fun e -> e != ex) p.p_exchanges;
            Shard.Conn_table.settle ct ~host:from_ip ~shape
        | _ ->
            let w_end =
              if Ipv4.equal from_ip flow.Five_tuple.src then `Src else `Dst
            in
            [ { w_flow = flow; w_sid = osx.sid; w_end } ]
      in
      (* An (authenticated, if required) answer: close breaker state and
         remember the attributes in every shard view that waited on it. *)
      let now = Sim.Engine.now (Net.engine t.network) in
      let keys = hint_keys t in
      let signer = Identxx.Response.latest response Identxx.Signed.signer_key in
      Array.iter
        (fun vx ->
          if List.exists (fun w -> w.w_sid = vx.sid) ws then begin
            Fastpath.note_response vx.s_fp from_ip;
            Fastpath.store_attrs vx.s_fp ~now ~host:from_ip ~keys ?signer
              response
          end)
        t.shards_;
      (* The initiator settles first and alone carries the daemon's
         timing piggyback (the timings are real once). *)
      let first = ref true in
      post_to_waiters t ws (fun w ->
          let dtrace = if !first then dtrace else None in
          first := false;
          deliver_to_waiter t ~dtrace response w)

let handle_foreign_query t sx ~dpid ~from_ip ~to_ip (q : Identxx.Query.t) pkt =
  (* "Intercepted queries are not allowed to cause new queries." *)
  match resolve_local_answer t to_ip with
  | Some section ->
      Obs.Registry.Counter.inc sx.s_m.c_local;
      let flow =
        (* Spoof the queried host: respond as if we were it. *)
        Identxx.Query.flow_of q ~src:to_ip ~dst:from_ip
      in
      let response = Identxx.Response.make ~flow [ section ] in
      let reply =
        Identxx.Wire.response_packet ~to_ip:from_ip ~from_ip:to_ip
          ~dst_port:
            (match pkt.Packet.eth_payload with
            | Packet.Ip { payload = Packet.Tcp tcp; _ } -> tcp.Packet.tcp_src
            | _ -> Identxx.Wire.port)
          response
      in
      forward_toward t ~dpid ~dst_ip:from_ip reply
  | None -> forward_toward t ~dpid ~dst_ip:to_ip pkt

let handle_packet_in t sx (pi : Msg.packet_in) =
  let pkt = pi.Msg.packet in
  match Identxx.Wire.classify pkt with
  | Identxx.Wire.Response { from_ip; to_ip; response } ->
      handle_response t sx ~dpid:pi.Msg.dpid ~from_ip ~to_ip response pkt
  | Identxx.Wire.Query { from_ip; to_ip; query } ->
      handle_foreign_query t sx ~dpid:pi.Msg.dpid ~from_ip ~to_ip query pkt
  | Identxx.Wire.Not_identxx -> (
      match Packet.five_tuple pkt with
      | None -> () (* non-IP traffic is dropped by this firewall *)
      | Some flow -> (
          match Flow_tbl.find_opt sx.s_pending flow with
          | Some p -> p.p_packets <- (pi.Msg.dpid, pi.Msg.in_port, pkt) :: p.p_packets
          | None -> start_flow t sx ~dpid:pi.Msg.dpid ~in_port:pi.Msg.in_port pkt flow))

(* The sharded front-end: classify the packet-in once (cheap, pure)
   and post the real work to the owning shard's run queue. Data
   packets partition by flow-key hash; responses go to the shard of
   the flow they name; foreign/transit traffic pins to shard 0. *)
let dispatch_packet_in t d (pi : Msg.packet_in) =
  let pkt = pi.Msg.packet in
  let post sid =
    Shard.Engine.post d ~shard:sid (fun () ->
        handle_packet_in t t.shards_.(sid) pi)
  in
  match Identxx.Wire.classify pkt with
  | Identxx.Wire.Response { from_ip; to_ip; response } ->
      post
        (match named_pending t ~from_ip ~to_ip response with
        | Some p -> (owner t p.p_flow).sid
        | None -> 0)
  | Identxx.Wire.Query _ -> post 0
  | Identxx.Wire.Not_identxx -> (
      match Packet.five_tuple pkt with
      | None -> ()
      | Some flow -> post (Shard.Engine.shard_of_flow d flow))

let handle_message t = function
  | Msg.Packet_in pi -> (
      match t.driver with
      | None -> handle_packet_in t t.shards_.(0) pi
      | Some d -> dispatch_packet_in t d pi)
  | Msg.Stats_reply reply ->
      t.last_stats <- (reply.Msg.st_dpid, reply) :: List.remove_assq reply.Msg.st_dpid t.last_stats

let request_stats =
  let next_xid = ref 0 in
  fun t dpid ->
    incr next_xid;
    Net.send_to_switch t.network dpid (Msg.Stats_request { xid = !next_xid })

let switch_stats t dpid = List.assoc_opt dpid t.last_stats

(* --- proactive dataplane rules ("enforcement at line rate", S6) --- *)

(* Precompiled entries sit above every reactive entry so they keep
   deciding even as per-flow caches churn. *)
let precompiled_priority = 0xffff

let sync_precompiled t =
  let matches =
    match Policy_store.env t.policy with
    | Ok env -> Precompile.drop_matches env
    | Error _ -> []
  in
  let switches = Net.switches_in_domain t.network t.id in
  (* Remove entries no longer derived from policy, add new ones. *)
  List.iter
    (fun fields ->
      if not (List.mem fields matches) then
        List.iter
          (fun dpid ->
            Net.send_to_switch t.network dpid
              (Msg.Flow_mod
                 {
                   Msg.command = Msg.Delete_strict;
                   fields;
                   priority = precompiled_priority;
                   actions = [];
                   idle_timeout = None;
                   hard_timeout = None;
                   cookie = 0;
                 }))
          switches)
    t.precompiled;
  List.iter
    (fun fields ->
      List.iter
        (fun dpid ->
          Net.send_to_switch t.network dpid
            (Msg.add_flow ~priority:precompiled_priority ~fields
               Openflow.Action.drop))
        switches)
    matches;
  t.precompiled <- matches

(* --- the proactive flow-table compiler (static slice -> wildcards) --- *)

let empty_table =
  {
    Compiler.entries = [];
    spills = [];
    static_coverage = 0.0;
    installed_coverage = 0.0;
    truncated = false;
  }

(* The compiled band sits below reactive entries; this guard sits at the
   very top of it. ident++ queries and responses must stay
   controller-mediated — a wildcard pass entry must never deliver an
   exchange packet straight to a host, past the interception points. *)
let proactive_guard_priority = 0x7fff

let proactive_guards =
  [
    {
      Openflow.Match_fields.any with
      nw_proto = Some Proto.Tcp;
      tp_dst = Some Identxx.Wire.port;
    };
    {
      Openflow.Match_fields.any with
      nw_proto = Some Proto.Tcp;
      tp_src = Some Identxx.Wire.port;
    };
  ]

(* The (forward, reverse) flow spaces of every keep-state pass rule.
   Both demote compiled entries overlapping them to punts:

   - A {e pass} entry overlapping the forward space must punt, because
     statically forwarding the connection's first packet would skip the
     controller and never record connection state ([start_flow]) — the
     reply would then be blocked where the reactive baseline admits it.
     Stateful regions are inherently reactive; only their first packet
     pays the round-trip.
   - A {e block} entry overlapping the reverse space must punt, because
     a reply in that space may be readmitted by connection state even
     though the ruleset statically blocks it (state matching precedes
     the ruleset).

   [of_rule_env] over-approximates conditional rules, which errs toward
   punting — slower, never wrong. *)
let state_spaces env =
  List.fold_left
    (fun (fwd, rev) (r : Pf.Ast.rule) ->
      if r.Pf.Ast.keep_state && r.Pf.Ast.action = Pf.Ast.Pass then
        let atoms =
          Analysis.Flowspace.atoms (Analysis.Flowspace.of_rule_env env r)
        in
        let reversed =
          List.map
            (fun (a : Analysis.Flowspace.atom) ->
              {
                a with
                Analysis.Flowspace.src = a.Analysis.Flowspace.dst;
                dst = a.Analysis.Flowspace.src;
                sport = a.Analysis.Flowspace.dport;
                dport = a.Analysis.Flowspace.sport;
              })
            atoms
        in
        ( Analysis.Flowspace.union fwd (Analysis.Flowspace.of_atoms atoms),
          Analysis.Flowspace.union rev (Analysis.Flowspace.of_atoms reversed) )
      else (fwd, rev))
    (Analysis.Flowspace.empty, Analysis.Flowspace.empty)
    (Pf.Env.rules env)

let atom_of_fields (m : Openflow.Match_fields.t) =
  let any = Analysis.Flowspace.atom_any in
  {
    Analysis.Flowspace.proto =
      (match m.Openflow.Match_fields.nw_proto with
      | None -> Analysis.Flowspace.proto_any
      | Some p -> Analysis.Flowspace.proto_only p);
    src = (match m.Openflow.Match_fields.nw_src with
          | None -> any.Analysis.Flowspace.src
          | Some p -> p);
    dst = (match m.Openflow.Match_fields.nw_dst with
          | None -> any.Analysis.Flowspace.dst
          | Some p -> p);
    sport = (match m.Openflow.Match_fields.tp_src with
            | None -> Analysis.Flowspace.port_any
            | Some v -> (v, v));
    dport = (match m.Openflow.Match_fields.tp_dst with
            | None -> Analysis.Flowspace.port_any
            | Some v -> (v, v));
  }

(* One abstract entry, lowered for one switch: concrete
   (fields, priority, actions) triples.

   A wildcard pass entry cannot name an output port, so it lowers to a
   punt plus one host-specialized forwarding entry per reachable
   destination the match admits (nw_dst narrowed to the host /32, at
   priority + 1 — the gap the compiler's step-2 priorities leave).
   Traffic toward unknown destinations still punts, which is the
   reactive behaviour. Block entries drop in hardware unless their
   space overlaps the keep-state reverse space, and pass entries punt
   where they overlap the keep-state forward space (see
   [state_spaces]). *)
let lower_entry t ~dpid ~hosts ~state:(state_fwd, state_rev)
    (e : Compiler.entry) =
  let fields = e.Compiler.e_fields and prio = e.Compiler.e_priority in
  let punt = (fields, prio, [ Openflow.Action.To_controller ]) in
  match e.Compiler.e_decision with
  | Compiler.Punt -> [ punt ]
  | Compiler.Decide Pf.Ast.Block ->
      if Analysis.Flowspace.overlaps [ atom_of_fields fields ] state_rev then
        [ punt ]
      else [ (fields, prio, Openflow.Action.drop) ]
  | Compiler.Decide Pf.Ast.Pass
    when Analysis.Flowspace.overlaps [ atom_of_fields fields ] state_fwd ->
      [ punt ]
  | Compiler.Decide Pf.Ast.Pass ->
      let specials =
        List.filter_map
          (fun host ->
            (* Skip topology hosts without an attached endpoint. *)
            match
              (try Some (Net.host_ip t.network host)
               with Not_found | Invalid_argument _ -> None)
            with
            | None -> None
            | Some ip ->
                let admits =
                  match fields.Openflow.Match_fields.nw_dst with
                  | None -> true
                  | Some p -> Prefix.mem ip p
                in
                if not admits then None
                else
                  Option.map
                    (fun port ->
                      ( {
                          fields with
                          Openflow.Match_fields.nw_dst = Some (Prefix.host ip);
                        },
                        prio + 1,
                        [ Openflow.Action.Output port ] ))
                    (Topo.next_hop (Net.topology t.network) ~from:dpid
                       ~dst_host:host))
          hosts
      in
      specials @ [ punt ]

let sync_proactive ?(force = false) t =
  if t.cfg.proactive then begin
    let t0 = Sys.time () in
    let fdd, state =
      match Policy_store.env t.policy with
      | Ok env ->
          (Some (Analysis.Fdd.compile ~default:t.cfg.default env),
           state_spaces env)
      | Error _ -> (None, (Analysis.Flowspace.empty, Analysis.Flowspace.empty))
    in
    let cur =
      match fdd with
      | Some fdd -> Compiler.compile ~cache:t.proactive_cache fdd
      (* Unresolvable policy: install nothing, every flow goes to the
         controller, which fails closed per rule evaluation. *)
      | None -> empty_table
    in
    let d =
      if force then
        (* The dataplane was (possibly partially) wiped out from under
           us: re-add everything, nothing to delete. *)
        { Compiler.d_add = cur.Compiler.entries; d_del = [] }
      else if t.proactive_state <> state then
        (* Same abstract entry, different lowering: start over. *)
        {
          Compiler.d_add = cur.Compiler.entries;
          d_del = t.proactive_tbl.Compiler.entries;
        }
      else Compiler.delta ~old_:t.proactive_tbl cur
    in
    let switches = Net.switches_in_domain t.network t.id in
    let hosts = Topo.hosts (Net.topology t.network) in
    List.iter
      (fun dpid ->
        List.iter
          (fun e ->
            List.iter
              (fun (fields, priority, _) ->
                Net.send_to_switch t.network dpid
                  (Msg.Flow_mod
                     {
                       Msg.command = Msg.Delete_strict;
                       fields;
                       priority;
                       actions = [];
                       idle_timeout = None;
                       hard_timeout = None;
                       cookie = 0;
                     }))
              (lower_entry t ~dpid ~hosts ~state e))
          d.Compiler.d_del;
        let adds =
          List.concat_map
            (fun e -> lower_entry t ~dpid ~hosts ~state e)
            d.Compiler.d_add
        in
        let adds =
          if cur.Compiler.entries = [] then adds
          else
            adds
            @ List.map
                (fun f ->
                  (f, proactive_guard_priority, [ Openflow.Action.To_controller ]))
                proactive_guards
        in
        List.iter
          (fun (fields, priority, actions) ->
            Net.send_to_switch t.network dpid
              (Msg.add_flow ~priority ~cookie:Compiler.proactive_cookie ~fields
                 actions))
          adds)
      switches;
    (match t.pm with
    | Some pm ->
        Obs.Registry.Counter.inc pm.pc_recompiles;
        Obs.Registry.Counter.add pm.pc_delta_add (List.length d.Compiler.d_add);
        Obs.Registry.Counter.add pm.pc_delta_del (List.length d.Compiler.d_del);
        Obs.Registry.Histogram.observe pm.ph_recompile (Sys.time () -. t0)
    | None -> ());
    Log.debug (fun m ->
        m "proactive sync: %d entries (%+d/-%d), coverage %.3f"
          (List.length cur.Compiler.entries)
          (List.length d.Compiler.d_add)
          (List.length d.Compiler.d_del)
          cur.Compiler.installed_coverage);
    t.proactive_tbl <- cur;
    t.proactive_state <- state
  end

let proactive_table t = t.proactive_tbl

(* Per-switch eviction telemetry: a counter series per flow table, and
   a force-sampled span whenever reactive churn pushes out a compiled
   entry (the signal that the table-size budget is too tight). *)
let wire_eviction_telemetry t =
  List.iter
    (fun dpid ->
      let table = Openflow.Switch.table (Net.switch t.network dpid) in
      Obs.Registry.counter_fn t.obs
        ~help:"Flow-table capacity evictions (LRU victims), by switch."
        ~labels:[ ("dpid", string_of_int dpid) ]
        "identxx_switch_evictions_total"
        (fun () -> Openflow.Flow_table.evictions table);
      Openflow.Flow_table.set_on_evict table (fun victim ->
          if victim.Openflow.Flow_entry.cookie = Compiler.proactive_cookie
          then begin
            (match t.pm with
            | Some pm -> Obs.Registry.Counter.inc pm.pc_evicted
            | None -> ());
            if Obs.Span.enabled t.spans then begin
              let at = time_now_s t in
              let sp =
                Obs.Span.start t.spans ~at
                  ~attrs:
                    [
                      ("dpid", string_of_int dpid);
                      ( "entry",
                        Compiler.fields_to_string
                          victim.Openflow.Flow_entry.fields );
                    ]
                  "proactive-evicted"
              in
              Obs.Span.force_sample sp;
              Obs.Span.finish t.spans ~at sp
            end
          end))
    (Net.switches_in_domain t.network t.id)

(* --- cache management: override and revoke (S1, S7) --- *)

let flush_cache t =
  (* Remove every cached decision in this controller's domain so the
     next packet of every flow is re-evaluated against current policy. *)
  List.iter
    (fun dpid ->
      Net.send_to_switch t.network dpid
        (Msg.delete_flow ~fields:Openflow.Match_fields.any))
    (Net.switches_in_domain t.network t.id);
  Conn_state.clear t.conn_state;
  (* Memoized verdicts go too; cached host attributes survive, since
     policy operations do not change what the hosts would answer. Every
     shard's view is flushed — control-plane operations are global. *)
  Array.iter (fun sx -> Fastpath.flush_decisions sx.s_fp) t.shards_;
  (* The wildcard delete also removed the precompiled and proactive
     entries. *)
  t.precompiled <- [];
  sync_precompiled t;
  sync_proactive ~force:true t

(* A daemon-side change event (login/logout, process spawn/exit,
   configuration reload) reached us: what the host would answer may have
   changed, so its cached attributes — and every decision derived from
   them — are no longer trustworthy. *)
let note_host_changed t ip =
  Array.iter (fun sx -> Fastpath.note_host_changed sx.s_fp ip) t.shards_

let revoke_principal t ~ip =
  Log.info (fun m -> m "revoking principal %s" (Ipv4.to_string ip));
  let dropped = Conn_state.revoke t.conn_state ~ip in
  Array.iter (fun sx -> Fastpath.revoke_ip sx.s_fp ip) t.shards_;
  (* Dataplane: delete every installed entry the principal's address
     appears in, either end, on every switch of the domain. *)
  let host = Prefix.host ip in
  List.iter
    (fun dpid ->
      Net.send_to_switch t.network dpid
        (Msg.delete_flow
           ~fields:{ Openflow.Match_fields.any with nw_src = Some host });
      Net.send_to_switch t.network dpid
        (Msg.delete_flow
           ~fields:{ Openflow.Match_fields.any with nw_dst = Some host }))
    (Net.switches_in_domain t.network t.id);
  (* The per-host deletes cannot have clipped a precompiled wildcard
     entry unless it was host-specific; re-sync to be sure. The
     proactive table's host-specialized pass entries were certainly
     clipped, so it reinstalls in full. *)
  sync_precompiled t;
  sync_proactive ~force:true t;
  dropped

let update_file t ~name content =
  match Policy_store.add t.policy ~name content with
  | Error _ as e -> e
  | Ok () ->
      flush_cache t;
      Ok ()

let revoke_file t ~name =
  Log.info (fun m -> m "revoking policy file %s" name);
  Policy_store.remove t.policy ~name;
  flush_cache t

let create ?(config = default_config) ?keystore ?functions ?obs ?spans
    ?(recorder = Obs.Recorder.null) ~network ~id () =
  let policy = Policy_store.create () in
  let decision =
    Decision.create ~default:config.default ?keystore ?functions ~policy ()
  in
  (* A private registry when none is shared: stats counting must work
     out of the box. Span collection is opt-in — it retains per-flow
     records, which nothing reads unless a collector was passed. *)
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let spans =
    match spans with Some s -> s | None -> Obs.Span.create ~enabled:false ()
  in
  let labels = [ ("controller", string_of_int id) ] in
  (* One shard context (the unsharded sequential path) unless
     config.shards asks for more. *)
  let nshards, sharded =
    match config.shards with
    | None -> (1, false)
    | Some s ->
        if s.shard_count < 1 then invalid_arg "Controller.create: shards < 1";
        (s.shard_count, true)
  in
  let shard_labels sid =
    if sharded then labels @ [ ("shard", string_of_int sid) ] else labels
  in
  let driver =
    match config.shards with
    | None -> None
    | Some s ->
        Some
          (Shard.Engine.create ~service:s.shard_service ~shards:nshards
             (Net.engine network))
  in
  let conn =
    match config.shards with
    | Some s when s.coalesce -> Some (Shard.Conn_table.create ())
    | _ -> None
  in
  let batch =
    match config.shards with
    | None -> None
    | Some _ ->
        Some
          (Shard.Batch.create
             ~engine:(Net.engine network)
             ~send:(Net.send_to_switch network) ())
  in
  let send_sw =
    match batch with
    | Some b -> Shard.Batch.add b
    | None -> Net.send_to_switch network
  in
  let shards_ =
    Array.init nshards (fun sid ->
        {
          sid;
          s_pending = Flow_tbl.create 64;
          s_fp = Fastpath.create config.fastpath;
          s_m = make_metrics obs ~labels:(shard_labels sid);
          s_labels = shard_labels sid;
          s_pin = Hashtbl.create 16;
        })
  in
  let t =
    {
      network;
      id;
      cfg = config;
      policy;
      decision;
      conn_state = Conn_state.create ();
      audit = Audit.create ();
      augment = (fun _ -> []);
      local_answers = (fun _ -> None);
      obs;
      spans;
      recorder;
      shards_;
      driver;
      conn;
      batch;
      send_sw;
      src_port_matters = None;
      trace_seq = 0;
      last_stats = [];
      precompiled = [];
      proactive_tbl = empty_table;
      proactive_state = (Analysis.Flowspace.empty, Analysis.Flowspace.empty);
      proactive_cache = Compiler.create_cache ();
      pm = (if config.proactive then Some (make_pro_metrics obs ~labels) else None);
    }
  in
  Array.iter
    (fun sx ->
      Obs.Registry.gauge_fn obs ~help:"Flows awaiting daemon responses."
        ~labels:(shard_labels sx.sid) "identxx_controller_pending_flows"
        (fun () -> float_of_int (Flow_tbl.length sx.s_pending)))
    t.shards_;
  (* Per-collector, not per-controller: collectors may be shared, so no
     controller label — re-registration just replaces the callback. *)
  Obs.Registry.counter_fn obs
    ~help:"Trace spans discarded before export, by cause."
    ~labels:[ ("cause", "sampling") ]
    "identxx_trace_spans_dropped_total" (fun () ->
      Obs.Span.sampled_out spans);
  Obs.Registry.counter_fn obs
    ~help:"Trace spans discarded before export, by cause."
    ~labels:[ ("cause", "capacity") ]
    "identxx_trace_spans_dropped_total" (fun () ->
      Obs.Span.capacity_dropped spans);
  if config.proactive then begin
    Obs.Registry.gauge_fn obs
      ~help:"Abstract entries in the installed proactive table." ~labels
      "identxx_compiler_entries" (fun () ->
        float_of_int (List.length t.proactive_tbl.Compiler.entries));
    Obs.Registry.gauge_fn obs
      ~help:"Branches spilled back to the reactive path." ~labels
      "identxx_compiler_spilled_regions" (fun () ->
        float_of_int (List.length t.proactive_tbl.Compiler.spills));
    Obs.Registry.gauge_fn obs
      ~help:"Flow-space volume decided by installed static entries." ~labels
      "identxx_compiler_installed_coverage" (fun () ->
        t.proactive_tbl.Compiler.installed_coverage)
  end;
  Array.iter
    (fun sx -> Fastpath.register_metrics sx.s_fp ~labels:(shard_labels sx.sid) obs)
    t.shards_;
  (match driver with
  | Some d -> Shard.Engine.register_metrics d ~labels obs
  | None -> ());
  (match batch with
  | Some b -> Shard.Batch.register_metrics b ~labels obs
  | None -> ());
  (match conn with
  | Some ct ->
      Obs.Registry.counter_fn obs
        ~help:"Wire exchanges actually begun by the connection table."
        ~labels "identxx_shard_exchanges_total" (fun () ->
          Shard.Conn_table.started ct);
      Obs.Registry.counter_fn obs
        ~help:"Duplicate in-flight queries absorbed by coalescing."
        ~labels "identxx_shard_coalesced_queries_total" (fun () ->
          Shard.Conn_table.coalesced ct);
      Obs.Registry.gauge_fn obs
        ~help:"Exchanges currently in flight across all daemon connections."
        ~labels "identxx_shard_inflight_exchanges" (fun () ->
          float_of_int (Shard.Conn_table.in_flight ct))
  | None -> ());
  Net.register_controller network ~id (handle_message t);
  wire_eviction_telemetry t;
  (* No initial sync: hosts are typically attached after the controller
     is created, and the first policy change (or an explicit
     [sync_proactive]) installs the table with the full host set. *)
  Policy_store.on_change policy (fun () ->
      sync_precompiled t;
      sync_proactive t);
  t
