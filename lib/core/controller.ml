open Netcore

let src = Logs.Src.create "identxx.controller" ~doc:"ident++ controller"

module Log = (val Logs.src_log src : Logs.LOG)
module Topo = Openflow.Topology
module Msg = Openflow.Message

(* Per-flow debug lines build their closures only at debug level. *)
let debug_on () = Logs.Src.level src = Some Logs.Debug

(* The sharded flow-setup engine (DESIGN.md §12): run queues only, every
   table and counter stays the controller's. [shard_service] is the
   simulated per-message cost each shard pays; zero keeps behaviour
   byte-identical under any shard count, positive models N controller
   cores (the concurrent-burst bench). *)
type shard_config = { shard_count : int; shard_service : Sim.Time.t }

let sharded ?(service = Sim.Time.zero) count =
  { shard_count = count; shard_service = service }

type config = {
  query_timeout : Sim.Time.t;
  entry_idle_timeout : Sim.Time.t option;
  require_signed_responses : bool;
  query_retries : int;
  default : Pf.Ast.action;
  fastpath : Fastpath.config;
  proactive : bool;
  shards : shard_config option;
}

let default_config =
  {
    query_timeout = Sim.Time.ms 5;
    entry_idle_timeout = Some (Sim.Time.s 30);
    require_signed_responses = false;
    query_retries = 0;
    default = Pf.Ast.Pass;
    (* Off by default: the baseline controller runs the unmodified
       Figure-1 exchange for every table-miss flow. *)
    fastpath = Fastpath.disabled;
    proactive = false;
    shards = None;
  }

(* One flow waiting on an exchange: its pending entry's key, and which
   end of the flow the exchange resolves. *)
type waiter = { w_flow : Five_tuple.t; w_end : [ `Src | `Dst ] }

(* One queried end of a pending flow. *)
type leg = {
  mutable answer : Identxx.Response.t option;
      (* The fast path's, or an answer that covers the end, set when
         the answer is taken, before its [Settle] runs; kept only if the
         end settles answered. *)
  mutable awaiting : bool; (* its query is out and has not settled *)
  mutable qspan : Obs.Span.span;
  mutable sent : int; (* first query send time, ns; -1 = never sent *)
  mutable query : Identxx.Query.t option;
      (* Written at the query's first send, its nonce drawn then when
         answers must be signed; a retry resends it. *)
  mutable requeried : bool;
      (* An answer that did not cover this end re-asked it once; the
         next such answer fails it. *)
}

type pending = {
  p_flow : Five_tuple.t;
  mutable p_packets : Msg.packet_in list;
      (* Buffered data packets awaiting the verdict, newest first. *)
  p_src : leg;
  p_dst : leg;
  mutable retries_left : int;
  mutable p_timeout : Shard.Engine.timer;
  p_started : Sim.Time.t; (* packet-in time *)
  p_ctx : Obs.Trace_context.t option;
  p_span : Obs.Span.span;
  mutable p_exchange : waiter Fastpath.Answers.exchange option;
      (* The exchange this flow's destination query initiated in the
         answer table; its answer or timeout settles it for every
         waiter. *)
  mutable p_silent : bool;
      (* An end settled silent: the flow counts once as timed out. *)
  mutable p_live : bool;
      (* In the pending table: cleared when the flow is decided. *)
  mutable p_next : pending;
      (* The next flow of its pending-table chain ({!pending_entry}). *)
}

let leg p = function `Src -> p.p_src | `Dst -> p.p_dst

(* Whether the end may take an answer: it awaits one, and none taken is
   on its way to settle it. A leg's [answer] reads three ways:
   - not [awaiting]: settled, by the fast path, an intercept, an
     answer ([Some]), or with none ([None]);
   - [Some] while [awaiting]: taken ({!settle_answer}) and in flight,
     its [Settle] posted; a retry round still re-asks the end, and a
     [Requery] for it may still run first;
   - [None] while [awaiting]: open.
   {!settle_end} ends the in-flight state: [Answered] keeps the taken
   answer (or the one it carries), [Timed_out] and [Failed] clear it. *)
let takes_answer l = l.awaiting && Option.is_none l.answer

let end_ip (flow : Five_tuple.t) = function
  | `Src -> flow.Five_tuple.src
  | `Dst -> flow.Five_tuple.dst

(* The end of [flow] that [ip] is: its source, or else its
   destination. *)
let end_of (flow : Five_tuple.t) ip =
  if Ipv4.equal ip flow.Five_tuple.src then `Src else `Dst

(* How a queried end settled. *)
type settled =
  | Answered of Identxx.Response.t
  | Timed_out (* its own query's timeout, tripping the breaker or not *)
  | Failed of string (* the exchange it joined failed, by this cause *)

(* Everything that reaches the controller, each taken by {!step}: a
   switch's message, a policy revision, a topology change, and the work
   the controller posts to its shards' mailboxes. Each posted case holds
   what its handler reads, built once by the poster. *)
type input =
  | Switch of Msg.to_controller (* A packet-in or a stats reply. *)
  | Revision of Policy_store.Revision.t (* The policy store installed it. *)
  | Topology_changed (* A proactive controller's routes follow it. *)
  | Flow_miss of Msg.packet_in * Five_tuple.t
      (* A table miss of ordinary traffic, and the packet's flow. *)
  | Answer of {
      pi : Msg.packet_in;
      response : Identxx.Response.t;
      from_ip : Ipv4.t;
      to_ip : Ipv4.t;
      named : pending;
    }
      (* A daemon answer from [from_ip] to the query's reply-to [to_ip],
         and the pending flow it named when it arrived
         ([named_pending]), [no_pending] for none. *)
  | Foreign_query of {
      pi : Msg.packet_in;
      from_ip : Ipv4.t;
      to_ip : Ipv4.t;
      query : Identxx.Query.t;
    }  (* Another controller's query, crossing our domain. *)
  | Settle of {
      flow : Five_tuple.t;
      end_ : [ `Src | `Dst ];
      settled : settled;
      dtrace : (string * string * (string * float * float) list) option;
    }
      (* Settle a waiter's end; the first waiter an answer covers also
         gets the daemon's timings ({!Identxx.Response.trace_info}). *)
  | Requery of { flow : Five_tuple.t; end_ : [ `Src | `Dst ] }
      (* A waiter the answer did not cover asks itself. *)
  | Timeout of pending (* The flow's query timer fired. *)
  | Vacant (* Fills a mailbox's free slots; never posted. *)

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

(* Ends every pending-table chain and stands for "no pending flow": a
   lookup that finds none returns it. Never in the table, so never
   live. *)
let rec no_pending =
  let idle () =
    {
      answer = None;
      awaiting = false;
      qspan = Obs.Span.null;
      sent = -1;
      query = None;
      requeried = false;
    }
  in
  {
    p_flow = Five_tuple.tcp ~src:Ipv4.any ~dst:Ipv4.any ~src_port:0 ~dst_port:0;
    p_packets = [];
    p_src = idle ();
    p_dst = idle ();
    retries_left = 0;
    p_timeout = Shard.Engine.no_timer;
    p_started = Sim.Time.zero;
    p_ctx = None;
    p_span = Obs.Span.null;
    p_exchange = None;
    p_silent = false;
    p_live = false;
    p_next = no_pending;
  }

(* The pending flows, in chains by the hash of their flows. Their keys
   are distinct, so the chains keep no order. *)
let pending_entry =
  {
    Flow_chains.vacant = no_pending;
    hash = (fun p -> Five_tuple.hash p.p_flow);
    before = (fun _ _ -> false);
    next = (fun p -> p.p_next);
    set_next = (fun p n -> p.p_next <- n);
  }

(* A pending flow's key, as {!Flow_chains.probe} reads it. *)
let p_flow p = p.p_flow

(* The pending flow of [flow], [no_pending] for none. *)
let find_pending pending (flow : Five_tuple.t) =
  Flow_chains.probe pending p_flow ~src:flow.src ~dst:flow.dst ~proto:flow.proto
    ~src_port:flow.src_port ~dst_port:flow.dst_port

module Ip_tbl = Hashtbl.Make (Ipv4)

(* Flow setup reports each lifecycle point here, with one call where
   the point happens, and the point feeds every sink it concerns: the
   registry's counters and histograms, the trace spans, the flight
   recorder, the audit log and the debug log. Each sink keeps its own
   on/off test, so a point whose sinks are off allocates nothing: no
   attributes, no closure, not even its time in seconds. The flight
   recorder keeps no shard attribution: the same workload must dump
   byte-identically whatever the shard count. *)
module Events = struct
  open Obs

  type t = {
    obs : Registry.t;
    labels : Registry.labels; (* [controller="<id>"] *)
    pin : (string, Registry.Counter.t) Hashtbl.t;
        (* Per-source packet-in counters, cached by source address so
           the hot path registers each source's series once. *)
    spans : Span.t;
    recorder : Recorder.t;
    audit : Audit.t;
    mutable trace_seq : int;
        (* Disambiguates trace ids when the same 5-tuple misses twice. *)
    (* The controller's own instruments. {!stats} reads the counters
       back, so its numbers track the exported series exactly. *)
    c_flows : Registry.Counter.t;
    c_allowed : Registry.Counter.t;
    c_blocked : Registry.Counter.t;
    c_queries : Registry.Counter.t;
    c_responses : Registry.Counter.t;
    c_timeouts : Registry.Counter.t;
    c_retries : Registry.Counter.t;
    c_rejected : Registry.Counter.t;
    c_augmented : Registry.Counter.t;
    c_local : Registry.Counter.t;
    c_eval_errors : Registry.Counter.t;
    c_fastpath : Registry.Counter.t;
    h_flow_setup : Registry.Histogram.t;
    h_query_rtt : Registry.Histogram.t;
  }

  let create ~obs ~spans ~recorder ~labels =
    let counter ?(labels = labels) name help =
      Registry.counter obs ~help ~labels name
    and histogram name help = Registry.histogram obs ~help ~labels name in
    let verdict v =
      counter ~labels:(labels @ [ ("verdict", v) ])
        "identxx_controller_decisions_total" "Flow verdicts, by decision."
    in
    {
      obs; labels; spans; recorder;
      pin = Hashtbl.create 16; audit = Audit.create (); trace_seq = 0;
      c_flows = counter "identxx_controller_flows_total"
          "Table-miss flows that reached the controller.";
      c_allowed = verdict "pass";
      c_blocked = verdict "block";
      c_queries = counter "identxx_controller_queries_sent_total"
          "ident++ queries sent to daemons (including retries).";
      c_responses = counter "identxx_controller_responses_received_total"
          "ident++ responses accepted.";
      c_timeouts = counter "identxx_controller_query_timeouts_total"
          "Flows that decided with at least one end silent.";
      c_retries = counter "identxx_controller_query_retries_total"
          "Query retry rounds issued.";
      c_rejected = counter "identxx_controller_responses_rejected_total"
          "Responses dropped for a failed signature check.";
      c_augmented = counter "identxx_controller_responses_augmented_total"
          "Transit responses augmented with a policy section.";
      c_local = counter "identxx_controller_local_answers_total"
          "Queries answered on a host's behalf (interception).";
      c_eval_errors = counter "identxx_controller_eval_errors_total"
          "Policy evaluations that failed (verdict fell back to block).";
      c_fastpath = counter "identxx_controller_fastpath_decisions_total"
          "Flows decided without any query exchange (every needed answer \
           came from the attribute cache or an open breaker).";
      h_flow_setup = histogram "identxx_controller_flow_setup_seconds"
          "Packet-in to verdict latency in seconds.";
      h_query_rtt = histogram "identxx_controller_query_rtt_seconds"
          "First query send to accepted response, in seconds.";
    }

  let secs = Sim.Time.to_float_s

  (* A root-span event naming [host]. *)
  let host_event ~now ?(attrs = []) span host name =
    if Span.is_live span then
      Span.event span ~at:(secs now)
        ~attrs:(("host", Ipv4.to_string host) :: attrs)
        name

  (* A recorder event's flow and host attributes. *)
  let flow_host flow host =
    [ ("flow", Five_tuple.to_string flow); ("host", Ipv4.to_string host) ]

  (* The root of every flow while spans are off, shared: allocates none. *)
  let no_root = (Span.null, None)

  (* A table miss for [flow] reached the controller from switch [dpid]:
     it is counted, by source too (the series the packet_in_surge
     health rule watches), and gets its root span and trace context. *)
  let packet_in ev ~now ~shards ~dpid flow =
    Registry.Counter.inc ev.c_flows;
    if Registry.enabled ev.obs then begin
      let src = Ipv4.to_string flow.Five_tuple.src in
      Registry.Counter.inc
        (match Hashtbl.find_opt ev.pin src with
        | Some c -> c
        | None ->
            let c =
              Registry.counter ev.obs
                ~help:"Packet-in table misses reaching the controller, by source."
                ~labels:(ev.labels @ [ ("src", src) ])
                "identxx_controller_packet_ins_total"
            in
            Hashtbl.replace ev.pin src c;
            c)
    end;
    if Recorder.enabled ev.recorder then
      Recorder.record_lazy ev.recorder ~at:(secs now) "packet-in"
        (lazy [ ("flow", Five_tuple.to_string flow) ]);
    let root =
      if not (Span.enabled ev.spans) then no_root
      else begin
        let seq = ev.trace_seq in
        ev.trace_seq <- seq + 1;
        let ctx =
          Trace_context.make ~seed:(Five_tuple.to_string flow) ~seq
            ~sampled:true
        in
        let id = ctx.Trace_context.trace_id in
        let sampled = Span.should_sample ev.spans ~id in
        let shard = string_of_int (Shard.Engine.shard_of_flow shards flow) in
        ( Span.start ev.spans ~at:(secs now) ~sampled
            ~attrs:[ ("flow", Five_tuple.to_string flow); ("trace-id", id); ("shard", shard) ]
            "flow-setup",
          Some { ctx with Trace_context.sampled } )
      end
    in
    if debug_on () then
      Log.debug (fun m -> m "new flow %s at s%d" (Five_tuple.to_string flow) dpid);
    root

  (* [end_]'s query of [p] went on the wire, or joined another flow's
     exchange with the host. The first send opens the query's span and
     starts its round-trip clock; a resend keeps both, so the RTT
     histogram sees the full wait. *)
  let query_sent ev ~now ~how p end_ =
    let l = leg p end_ and host = end_ip p.p_flow end_ in
    if l.sent < 0 then begin
      l.sent <- Sim.Time.to_ns now;
      if Span.is_live p.p_span then
        l.qspan <-
          Span.start ev.spans ~at:(secs now) ~parent:p.p_span
            ~attrs:[ ("host", Ipv4.to_string host) ]
            "query"
    end;
    match how with
    | `Joined -> host_event ~now p.p_span host "query-coalesced"
    | `Wire ->
        Registry.Counter.inc ev.c_queries;
        if Recorder.enabled ev.recorder then
          Recorder.record_lazy ev.recorder ~at:(secs now) "query-sent"
            (lazy (flow_host p.p_flow host))

  (* [end_] of [p] settled. An answer is timed from the first send, and
     the daemon's timings ([dtrace], on its clock) complete the query
     span's cross-host tree. An end settling silent makes the flow an
     error trace, kept whatever the sampling coin said, and counts the
     flow once however many of its ends do. *)
  let query_settled ev ~now ?dtrace p end_ settled =
    let l = leg p end_ and host = end_ip p.p_flow end_ in
    let outcome =
      match settled with
      | Answered _ ->
          if l.sent >= 0 && Registry.enabled ev.obs then
            Registry.Histogram.observe ev.h_query_rtt
              (secs now -. secs (Sim.Time.ns l.sent));
          "answered"
      | Timed_out -> "timeout"
      | Failed cause ->
          host_event ~now ~attrs:[ ("cause", cause) ] p.p_span host
            "exchange-failed";
          cause
    in
    (match settled with
    | Answered _ -> ()
    | Timed_out | Failed _ ->
        Span.force_sample p.p_span;
        if not p.p_silent then begin
          p.p_silent <- true;
          Registry.Counter.inc ev.c_timeouts
        end);
    if Span.is_live l.qspan then begin
      Option.iter
        (fun (_trace_id, _parent, dspans) ->
          List.iter
            (fun (name, t0, t1) ->
              Span.finish ev.spans ~at:t1
                (Span.start ev.spans ~at:t0 ~parent:l.qspan name))
            dspans)
        dtrace;
      Span.set_attr l.qspan "outcome" outcome;
      Span.finish ev.spans ~at:(secs now) l.qspan
    end;
    if Recorder.enabled ev.recorder then
      Recorder.record_lazy ev.recorder ~at:(secs now) "query-settled"
        (lazy (flow_host p.p_flow host @ [ ("outcome", outcome) ]))

  (* A verdict's decision and deciding rule, as spans and the flight
     recorder name them. *)
  let decision_name = function Pf.Ast.Pass -> "pass" | Pf.Ast.Block -> "block"

  let rule_name (v : Pf.Eval.verdict) =
    match v.Pf.Eval.matched with
    | Some r -> string_of_int r.Pf.Ast.line
    | None -> "default"

  (* A verdict's counter, and its latency since the packet-in. *)
  let counted ev ~now ~started decision =
    Registry.Counter.inc
      (match decision with Pf.Ast.Pass -> ev.c_allowed | Pf.Ast.Block -> ev.c_blocked);
    if Registry.enabled ev.obs then
      Registry.Histogram.observe ev.h_flow_setup (secs now -. secs started)

  (* [flow] got [verdict] from the answers [src] and [dst], [via] the
     query exchange, the policy's diagram alone or the fast path. A
     denied flow is exactly the trace an operator will want: it
     overrides the head-sampling coin before the root is finished. *)
  let decided ev ~now ~started ~span ~ctx ~via ~flow ~src ~dst
      (verdict : Pf.Eval.verdict) =
    let decision = verdict.Pf.Eval.decision in
    Audit.record
      ?trace_id:(Option.map (fun c -> c.Trace_context.trace_id) ctx)
      ev.audit ~at:now ~flow ~verdict ~src ~dst;
    if debug_on () then
      Log.debug (fun m ->
          m "decision %s: %s%s" (Five_tuple.to_string flow)
            (decision_name decision)
            (match verdict.Pf.Eval.matched with
            | Some r -> Printf.sprintf " (rule@%d)" r.Pf.Ast.line
            | None -> " (default)"));
    counted ev ~now ~started decision;
    (match via with
    | `Exchange -> ()
    | `Static -> Span.set_attr span "path" "static"
    | `Fastpath ->
        Registry.Counter.inc ev.c_fastpath;
        Span.set_attr span "path" "fastpath");
    if Span.is_live span then begin
      Span.set_attr span "decision" (decision_name decision);
      Span.set_attr span "rule" (rule_name verdict)
    end;
    if decision = Pf.Ast.Block then Span.force_sample span;
    if Recorder.enabled ev.recorder then
      Recorder.record_lazy ev.recorder ~at:(secs now) "decision"
        (lazy
          [ ("flow", Five_tuple.to_string flow); ("verdict", decision_name decision);
            ("rule", rule_name verdict) ])

  (* What [flow]'s verdict installed: the path's entries, nothing (no
     path to install), or a drop at the ingress switch. The flow's root
     span ends here. *)
  let installed ev ~now span flow how =
    let event, kind =
      match how with
      | `Path -> ("install", Some "path")
      | `No_path -> ("no-path", None)
      | `Drop -> ("install-drop", Some "drop")
    in
    if Span.is_live span then begin
      let at = secs now in
      Span.event span ~at event;
      Span.finish ev.spans ~at span
    end;
    match kind with
    | Some kind when Recorder.enabled ev.recorder ->
        Recorder.record_lazy ev.recorder ~at:(secs now) "install"
          (lazy [ ("flow", Five_tuple.to_string flow); ("kind", kind) ])
    | Some _ | None -> ()

  (* Live keep state re-admitted a flow at its packet-in, without an
     exchange: a pass decided as it arrived, with no audit entry. *)
  let readmitted ev ~now span =
    counted ev ~now ~started:now Pf.Ast.Pass;
    if Span.is_live span then begin
      let at = secs now in
      Span.event span ~at "conn-state-readmit";
      Span.set_attr span "decision" "pass";
      Span.finish ev.spans ~at span
    end

  (* How a flow's end resolved without a query of its own, or why it is
     asked again, on the flow's root span; an answer given on the
     host's behalf is counted too. *)
  let note ev ~now span host what =
    host_event ~now span host
      (match what with
      | `Attr_cache_hit -> "attr-cache-hit"
      | `Breaker_absent -> "breaker-absent"
      | `Breaker_probe -> "breaker-probe"
      | `Query_out_of_scope -> "query-out-of-scope"
      | `Local_answer ->
          Registry.Counter.inc ev.c_local;
          "local-answer")

  (* A retry round re-issued a flow's unanswered queries. *)
  let retried ev ~now span =
    Registry.Counter.inc ev.c_retries;
    if Span.is_live span then Span.event span ~at:(secs now) "retry"

  (* A silent [host]'s timeout opened its breaker. *)
  let breaker_tripped ev ~now span host =
    host_event ~now span host "breaker-trip";
    if Recorder.enabled ev.recorder then
      Recorder.record_lazy ev.recorder ~at:(secs now) "breaker"
        (lazy [ ("host", Ipv4.to_string host); ("state", "open") ])

  (* An answer from [host] naming [flow] was refused for [reason]: it
     settles nothing, the flow's trace is kept, and the audit log keeps
     the refusal. *)
  let answer_rejected ev ~now span flow ~host ?signer reason =
    Registry.Counter.inc ev.c_rejected;
    Span.force_sample span;
    if Span.is_live span then
      Span.event span ~at:(secs now)
        ~attrs:[ ("host", Ipv4.to_string host); ("reason", reason) ]
        "response-rejected";
    Audit.record_rejection ev.audit ~at:now ~flow ~host ?signer reason;
    if debug_on () then
      Log.debug (fun m ->
          m "rejecting response from %s: %s" (Ipv4.to_string host) reason)

  (* Points only a counter marks: an accepted answer, before it settles
     its waiters; a transit response augmented with a policy section; a
     policy evaluation that failed, whose verdict falls back to block. *)
  let answer_received ev = Registry.Counter.inc ev.c_responses
  let augmented ev = Registry.Counter.inc ev.c_augmented
  let eval_failed ev = Registry.Counter.inc ev.c_eval_errors
end

type t = {
  cfg : config;
  policy : Policy_store.t;
  decision : Decision.t;
  conn_state : Conn_state.t;
  ev : Events.t; (* every per-flow sink *)
  pending : pending Flow_chains.t;
  prefixes : Prefix.t option Ip_tbl.t;
      (* [Some (Prefix.host ip)] of each attached host a reactive match
         named, which every later match naming it shares. Only
         addresses [host_by_ip] knows enter, so a spoofed source cannot
         grow it. *)
  fp : Fastpath.t; (* the decision cache and the breaker *)
  answers : waiter Fastpath.Answers.t;
  shard_engine : input Shard.Engine.t;
      (* The run queues every packet-in, timeout and settlement is
         posted to; they hold no state of their own. *)
  batch : Shard.Batch.t;
      (* Everything sent to a switch leaves in the tick's pass. *)
  mutable plan : Query_plan.t; (* what the current revision derives *)
  compiled : Proactive.t; (* the compiled tables and routes sent *)
  mutable last_stats : (Msg.switch_id * Msg.stats_reply) list;
  mutable xid : int; (* the last stats request's *)
  nonces : Sim.Prng.t option;
      (* Query nonces, drawn only when answers must be signed: only such
         a controller checks the echo. Seeded, so runs stay
         deterministic. *)
  mutable now : Sim.Time.t; (* the time of the input {!step} takes *)
  (* What the controller reads of the world and sends into it, which
     {!create} binds to the network. *)
  topo : Topo.t;
  clock : unit -> Sim.Time.t;
  host_by_ip : Ipv4.t -> string option;
  hosts : unit -> (string * Ipv4.t) list; (* attached, with addresses *)
  iter_path :
    'a. src:Ipv4.t -> dst:Ipv4.t -> ('a -> Msg.switch_id -> int -> unit) -> 'a -> bool;
  add_hop : Openflow.Match_fields.t -> Msg.switch_id -> int -> unit;
      (* Queue the flow-mod that installs a reactive match at one hop of
         its path. Built once, so a path walk allocates no closure. *)
  domain : unit -> Msg.switch_id list; (* its switches, ascending *)
}

(* Queue [msgs dpid] for each switch of the domain. *)
let send_domain t msgs =
  List.iter (fun dpid -> Shard.Batch.add_all t.batch dpid (msgs dpid)) (t.domain ())

let policy t = t.policy
let fastpath t = t.fp

let shard_count t = Shard.Engine.shards t.shard_engine

let metrics t = t.ev.Events.obs

let decision t = t.decision
let audit t = t.ev.Events.audit
let keystore t = Decision.keystore t.decision
let config t = t.cfg

(* The registry's counters read back, so the summary tracks the
   exported series exactly. *)
let stats t =
  let v = Obs.Registry.Counter.value and m = t.ev in
  let fc = Fastpath.counters t.fp in
  {
    flows_seen = v m.Events.c_flows;
    allowed = v m.c_allowed;
    blocked = v m.c_blocked;
    queries_sent = v m.c_queries;
    responses_received = v m.c_responses;
    query_timeouts = v m.c_timeouts;
    query_retries_sent = v m.c_retries;
    responses_rejected = v m.c_rejected;
    responses_augmented = v m.c_augmented;
    queries_answered_locally = v m.c_local;
    eval_errors = v m.c_eval_errors;
    fastpath_decisions = v m.c_fastpath;
    attr_cache_hits = Fastpath.Answers.hits t.answers;
    attr_cache_misses = Fastpath.Answers.misses t.answers;
    attr_cache_evictions = Fastpath.Answers.evictions t.answers;
    attr_cache_invalidations = Fastpath.Answers.invalidations t.answers;
    decision_cache_hits = fc.Fastpath.decision_hits;
    decision_cache_misses = fc.Fastpath.decision_misses;
    decision_cache_evictions = fc.Fastpath.decision_evictions;
    breaker_trips = fc.Fastpath.breaker_trips;
    breaker_fastpaths = fc.Fastpath.breaker_fastpaths;
  }

let pending_count t = t.pending.Flow_chains.count
let host_prefixes t = Ip_tbl.length t.prefixes

let coalesced_queries t = Fastpath.Answers.coalesced t.answers
let wire_exchanges t = Fastpath.Answers.started t.answers

let batch_flushes t = Shard.Batch.flushes t.batch
let shard_makespan t = Shard.Engine.makespan t.shard_engine

(* --- forwarding of intercepted ident++ packets, one hop at a time --- *)

let forward_toward t ~dpid ~dst_ip pkt =
  match t.host_by_ip dst_ip with
  | None -> () (* destination outside every known domain: drop *)
  | Some host -> (
      match Topo.next_hop t.topo ~from:dpid ~dst_host:host with
      | None -> ()
      | Some port ->
          Shard.Batch.add t.batch dpid
            (Msg.Packet_out { Msg.out_packet = pkt; out_port = `Port port }))

(* --- installing the verdict (Figure 1, step 4) --- *)

(* [ip]'s exact prefix as a match field, shared when [ip] is a known
   host's. *)
let host_prefix t ip =
  match Ip_tbl.find t.prefixes ip with
  | prefix -> prefix
  | exception Not_found ->
      let prefix = Some (Prefix.host ip) in
      if Option.is_some (t.host_by_ip ip) then Ip_tbl.add t.prefixes ip prefix;
      prefix

(* The exact match of [flow], or of its reverse. *)
let flow_match t ~reverse (flow : Five_tuple.t) =
  let src = if reverse then flow.dst else flow.src
  and dst = if reverse then flow.src else flow.dst in
  Openflow.Match_fields.exact ~nw_src:(host_prefix t src)
    ~nw_dst:(host_prefix t dst) ~proto:flow.proto
    ~src_port:(if reverse then flow.dst_port else flow.src_port)
    ~dst_port:(if reverse then flow.src_port else flow.dst_port)

(* Install [flow], or its reverse, along its path: one match serves
   every hop's flow-mod, and the entries they install share it. *)
let install_path t ~reverse (flow : Five_tuple.t) =
  t.iter_path
    ~src:(if reverse then flow.dst else flow.src)
    ~dst:(if reverse then flow.src else flow.dst)
    t.add_hop (flow_match t ~reverse flow)

(* Send a buffered packet back through its switch's (now updated)
   table. Flow-mods were enqueued first, and the control channel is
   FIFO, so the entries are in place when the packet runs. *)
let release t (pi : Msg.packet_in) =
  Shard.Batch.add t.batch pi.Msg.dpid
    (Msg.Packet_out { Msg.out_packet = pi.Msg.packet; out_port = `Table })

(* Release the buffered [packets], held newest first, in the order they
   arrived. *)
let rec release_all t = function
  | [] -> ()
  | pi :: older ->
      release_all t older;
      release t pi

let compute_verdict t ~flow ~src ~dst =
  let input = { Decision.flow; src_response = src; dst_response = dst } in
  match Decision.decide t.decision input with
  | Ok v -> v
  | Error _ ->
      Events.eval_failed t.ev;
      (* Fail closed on configuration errors. *)
      { Pf.Eval.decision = Pf.Ast.Block; matched = None; keep_state = false; log = false }

(* The verdict for a flow given both endpoint answers, through the
   decision cache when the fast path is on. *)
let eval_decision t ~flow ~src ~dst =
  if not (Fastpath.enabled t.fp) then compute_verdict t ~flow ~src ~dst
  else begin
    let key = Fastpath.decision_key (Query_plan.shape t.plan) ~flow ~src ~dst in
    match Fastpath.find_decision t.fp ~key with
    | Some v -> v
    | None ->
        let v = compute_verdict t ~flow ~src ~dst in
        Fastpath.store_decision t.fp ~key ~flow v;
        v
  end

(* Report [verdict] on [flow] and install it: on a pass the path's
   entries (and the reverse path's under keep state), then the buffered
   [packets] released through them; on a block a drop at the newest
   packet's ingress switch. *)
let apply_verdict t ~span ~started ~ctx ~via ~flow ~packets ~src ~dst verdict =
  let now = t.now in
  Events.decided t.ev ~now ~started ~span ~ctx ~via ~flow ~src ~dst verdict;
  Events.installed t.ev ~now span flow
    (match verdict.Pf.Eval.decision with
    | Pf.Ast.Pass ->
        let installed = install_path t ~reverse:false flow in
        if verdict.Pf.Eval.keep_state then begin
          Conn_state.note t.conn_state ~now flow;
          ignore (install_path t ~reverse:true flow)
        end;
        if installed then (release_all t packets; `Path)
        else `No_path
    | Pf.Ast.Block -> (
        match packets with
        | pi :: _ ->
            Shard.Batch.add t.batch pi.Msg.dpid
              (Msg.add_flow ?idle_timeout:t.cfg.entry_idle_timeout
                 ~fields:(flow_match t ~reverse:false flow)
                 Openflow.Action.drop);
            `Drop
        | [] -> `No_path))

(* Decide [p] once neither of its ends awaits a query. *)
let maybe_finalize t p =
  if (not p.p_src.awaiting) && not p.p_dst.awaiting then begin
    Shard.Engine.cancel p.p_timeout;
    Flow_chains.remove t.pending (Five_tuple.hash p.p_flow) p;
    p.p_live <- false;
    let src = p.p_src.answer and dst = p.p_dst.answer in
    apply_verdict t ~span:p.p_span ~started:p.p_started
      ~ctx:p.p_ctx ~via:`Exchange ~flow:p.p_flow ~packets:p.p_packets ~src ~dst
      (eval_decision t ~flow:p.p_flow ~src ~dst)
  end

(* The one place a queried end settles: [end_] of [p]. Only an end
   still awaiting its query settles; anything later is stale and a
   no-op. *)
let settle_end ?dtrace t p end_ settled =
  let l = leg p end_ in
  if l.awaiting then begin
    (match (settled, l.answer) with
    | Answered r, Some taken when taken == r -> ()
    | Answered r, _ -> l.answer <- Some r
    | (Timed_out | Failed _), _ -> l.answer <- None);
    Events.query_settled t.ev ~now:t.now ?dtrace p end_ settled;
    l.awaiting <- false;
    maybe_finalize t p
  end

let shard_of t flow = Shard.Engine.shard_of_flow t.shard_engine flow

(* Deliver [msg] to a waiter on [flow]'s shard. An exchange's waiters
   are delivered to in join order, and every delivery is posted — never
   run inline — so the global execution order is the join order
   whatever the shard count. *)
let post_to_waiter t flow msg =
  Shard.Engine.post t.shard_engine ~shard:(shard_of t flow) msg

(* [p]'s query to [host] reached its outcome: the exchange [p]
   initiated with the host, if any, which the caller settles and whose
   waiters it tells, in join order. Without one, [p] is the only waiter.
   [p] forgets it: a duplicate answer naming this flow must not settle a
   newer exchange with the host. *)
let take_exchange p ~host =
  match p.p_exchange with
  | Some _ as ex when Ipv4.equal host p.p_flow.Five_tuple.dst ->
      p.p_exchange <- None;
      ex
  | Some _ | None -> None

(* --- querying daemons (Figure 1, step 3) --- *)

(* Each query carries a per-end child context, derived deterministically
   from the root: a retry resends the same span id, so the daemon's
   timings land under the same child either way. *)
let qtrace p end_ =
  match p.p_ctx with
  | None -> None
  | Some c ->
      Some (Obs.Trace_context.child c (match end_ with `Src -> 1 | `Dst -> 2))

(* [end_]'s query: written at its first send, in one buffer, from the
   plan's rendered hints, a nonce drawn into it when answers must be
   signed and the end's trace context; then kept, so a retry resends it
   as it was. *)
let leg_query t p end_ =
  let l = leg p end_ in
  match l.query with
  | Some q -> q
  | None ->
      let q =
        Identxx.Query.write (Query_plan.query_hints t.plan) ~flow:p.p_flow
          ~nonce:t.nonces ~trace:(qtrace p end_)
      in
      l.query <- Some q;
      q

(* Put [end_]'s query to [p]'s host on the wire at [attachment], the
   switch port the host hangs off. Per §3.2 the query's source address
   is the flow's other end, so the response routes back through the
   network (and its interception points). *)
let wire_send t p end_ attachment =
  let flow = p.p_flow and target = end_ip p.p_flow end_ in
  let pkt =
    Identxx.Wire.query_packet ~to_ip:target
      ~from_ip:(end_ip flow (match end_ with `Src -> `Dst | `Dst -> `Src))
      (leg_query t p end_)
  in
  (match attachment.Topo.node with
  | Topo.Sw dpid ->
      Shard.Batch.add t.batch dpid
        (Msg.Packet_out
           { Msg.out_packet = pkt; out_port = `Port attachment.Topo.port })
  | Topo.Host _ -> ());
  Events.query_sent t.ev ~now:t.now ~how:`Wire p end_

(* Where a query to [ip] enters the network: the switch port its host
   hangs off, if the address is a known, attached host. *)
let attachment_of t ip =
  match t.host_by_ip ip with
  | None -> None
  | Some host -> Topo.host_attachment t.topo host

(* Whether [ip]'s answers are expected to declare how far they hold:
   only signed answers declare, and a waiter an undeclared answer does
   not cover pays a second round trip. *)
let declares_scope t ip =
  t.cfg.require_signed_responses
  || Idcrypto.Sign.signs_for (keystore t) (Ipv4.to_string ip)

(* Put [end_]'s query back on the wire as first sent, with the same
   nonce and trace context, joining no exchange: a retry round's resend,
   or a waiter's own query after an answer that did not cover it. *)
let resend t p end_ =
  match attachment_of t (end_ip p.p_flow end_) with
  | Some attachment -> wire_send t p end_ attachment
  | None -> ()

(* Ask [end_] of [p], if it is awaited. An intercept may answer on the
   host's behalf, and an unknown host cannot be asked: either way the
   end resolves at once. *)
let issue_end t p end_ =
  let l = leg p end_ in
  if l.awaiting then
    if end_ = `Dst && Option.is_some p.p_exchange then
      (* A retry round, and this flow initiated the exchange: put the
         query back on the wire without re-joining (waiters ride this
         resend). *)
      resend t p end_
    else
      let flow = p.p_flow and target = end_ip p.p_flow end_ in
      match Query_plan.answer_for t.plan target with
      | Some section ->
          Events.note t.ev ~now:t.now p.p_span target `Local_answer;
          l.answer <- Some (Identxx.Response.make ~flow [ section ]);
          l.awaiting <- false
      | None -> (
          match attachment_of t target with
          | None -> l.awaiting <- false
          | Some attachment -> (
              match
                match end_ with
                | `Src ->
                    (* A source answers from its own connection, which
                       no other flow shares. *)
                    `Alone
                | `Dst ->
                    (* A query parks on the exchange in flight with the
                       same socket when the target is expected to
                       declare its scope. *)
                    Fastpath.Answers.join t.answers
                      ~hints:(Query_plan.hint_key t.plan)
                      ~flow ~joinable:(declares_scope t target)
                      { w_flow = flow; w_end = end_ }
              with
              | `Joined ->
                  (* Another flow's exchange is already in flight to
                     this host for the same query shape: no duplicate
                     wire query; the settlement fans out to us too. *)
                  Events.query_sent t.ev ~now:t.now ~how:`Joined p end_
              | (`First _ | `Alone) as sent -> (
                  wire_send t p end_ attachment;
                  match sent with
                  | `First ex -> p.p_exchange <- Some ex
                  | `Alone -> ())))

(* [p]'s query to [end_] stayed silent through every attempt. Feed the
   breaker: each silent end is a consecutive timeout. If [p] initiated
   an exchange, a silent host answers nobody: settle it and fail every
   other waiter. Then settle the end itself. *)
let expire_end t p end_ =
  let ip = end_ip p.p_flow end_ and now = t.now in
  let tripped = Fastpath.note_timeout t.fp ~now ip in
  if tripped then Events.breaker_tripped t.ev ~now p.p_span ip;
  (match take_exchange p ~host:ip with
  | None -> ()
  | Some ex ->
      let failed = Failed (if tripped then "breaker-open" else "timeout") in
      List.iter
        (fun w ->
          if not (Five_tuple.equal w.w_flow p.p_flow) then
            post_to_waiter t w.w_flow
              (Settle { flow = w.w_flow; end_ = w.w_end; settled = failed; dtrace = None }))
        (Fastpath.Answers.settle t.answers ~now ~signer:"" ex None));
  settle_end t p end_ Timed_out

(* The timer posts into the flow's shard's run queue, so timeout
   handling serialises with the shard's other work (and its installs
   ride the same batched pass). *)
let arm_timeout t p =
  p.p_timeout <-
    Shard.Engine.post_after t.shard_engine ~shard:(shard_of t p.p_flow)
      ~delay:t.cfg.query_timeout (Timeout p)

(* Only while [p] is pending: a decided flow's timer is void. *)
let on_timeout t p =
  if p.p_live then begin
    let waiting = p.p_src.awaiting || p.p_dst.awaiting in
    if waiting && p.retries_left > 0 then begin
      (* Re-issue the unanswered queries and re-arm the timer. *)
      p.retries_left <- p.retries_left - 1;
      Events.retried t.ev ~now:t.now p.p_span;
      issue_end t p `Src;
      issue_end t p `Dst;
      arm_timeout t p
    end
    else if not waiting then maybe_finalize t p
    else begin
      if p.p_src.awaiting then expire_end t p `Src;
      if p.p_dst.awaiting then expire_end t p `Dst
    end
  end

(* An end the flow [want]s asked unless the fast path resolved it
   ([pre], as {!fast_resolve} returns it). *)
let new_leg ~want pre =
  let awaiting = want && Option.is_none pre in
  {
    answer = Option.join pre;
    awaiting;
    qspan = Obs.Span.null;
    sent = -1;
    query = None;
    requeried = false;
  }

(* The fast path, before any Figure-1 exchange: try to resolve [end_]
   of [flow], if [want]ed, from a settled answer, or, for a host whose
   breaker is open, as an immediate absent answer. [Some r] is a
   resolved answer ([r = None] means absent); [None] means the daemon
   must actually be asked. *)
let fast_resolve t sp flow ~want end_ =
  if not want then Some None
  else
    let ip = end_ip flow end_ and now = t.now in
    match
      match end_ with
      | `Src -> None
      | `Dst ->
          Fastpath.Answers.find t.answers ~now
            ~hints:(Query_plan.hint_key t.plan)
            ~flow
    with
    | Some r ->
        Events.note t.ev ~now sp ip `Attr_cache_hit;
        Some (Some r)
    | None -> (
        match Fastpath.consult_host t.fp ~now ip with
        | `Absent ->
            Events.note t.ev ~now sp ip `Breaker_absent;
            Some None
        | `Probe ->
            Events.note t.ev ~now sp ip `Breaker_probe;
            None
        | `Ask -> None)

let start_flow t (pi : Msg.packet_in) (flow : Five_tuple.t) =
  let now = t.now in
  let sp, ctx =
    Events.packet_in t.ev ~now ~shards:t.shard_engine ~dpid:pi.Msg.dpid flow
  in
  (* PF semantics: state matching precedes the ruleset. A flow covered
     by live keep-state (e.g. a reply whose cached entry idled out) is
     re-admitted without a fresh ident++ exchange. *)
  if Conn_state.permits t.conn_state ~now flow then begin
    Events.readmitted t.ev ~now sp;
    if install_path t ~reverse:false flow then release t pi
  end
  else begin
    (* Only the ends the flow's verdict can read are asked (see
       {!Query_plan}). *)
    let { Query_plan.src = want_src; dst = want_dst } =
      Query_plan.ends t.plan flow
    in
    let pre_src = fast_resolve t sp flow ~want:want_src `Src
    and pre_dst = fast_resolve t sp flow ~want:want_dst `Dst in
    let static = (not want_src) && not want_dst in
    match (pre_src, pre_dst) with
    | Some src, Some dst ->
        (* The diagram decides this flow whatever the hosts answer, or
           both ends resolved without touching the network: decide now,
           with no pending entry and no timer. With the fast path off an
           end resolves early only when it is not wanted, so only a
           static flow gets here. *)
        apply_verdict t ~span:sp ~started:now ~ctx
          ~via:(if static then `Static else `Fastpath)
          ~flow ~packets:[ pi ] ~src ~dst (eval_decision t ~flow ~src ~dst)
    | _ ->
        (* Query only the ends the fast path could not resolve. *)
        let p =
          {
            p_flow = flow;
            p_packets = [ pi ];
            p_src = new_leg ~want:want_src pre_src;
            p_dst = new_leg ~want:want_dst pre_dst;
            retries_left = t.cfg.query_retries;
            p_timeout = Shard.Engine.no_timer;
            p_started = now;
            p_ctx = ctx;
            p_span = sp;
            p_exchange = None;
            p_silent = false;
            p_live = true;
            p_next = no_pending;
          }
        in
        arm_timeout t p;
        Flow_chains.add t.pending (Five_tuple.hash p.p_flow) p;
        issue_end t p `Src;
        issue_end t p `Dst;
        maybe_finalize t p
  end

(* --- intercepted / owned ident++ traffic --- *)

(* [pkt]'s TCP source or destination port; the ident++ port when it is
   not TCP. *)
let tcp_port pkt end_ =
  match pkt.Packet.eth_payload with
  | Packet.Ip { payload = Packet.Tcp tcp; _ } -> (
      match end_ with `Src -> tcp.Packet.tcp_src | `Dst -> tcp.Packet.tcp_dst)
  | _ -> Identxx.Wire.port

(* Transit: another controller's exchange crossing our domain.
   Augment (§3.4) and forward toward its destination. *)
let handle_transit t ~dpid ~from_ip ~to_ip response pkt =
  let section = Query_plan.augment_for t.plan to_ip in
  let pkt =
    if section = [] then pkt
    else begin
      Events.augmented t.ev;
      Identxx.Wire.response_packet ~to_ip ~from_ip
        ~dst_port:(tcp_port pkt `Dst)
        (Identxx.Response.append_section response section)
    end
  in
  forward_toward t ~dpid ~dst_ip:to_ip pkt

(* The pending flow an answer from [from_ip] to [to_ip] names;
   [no_pending] for none. The daemon echoes the flow's proto and ports,
   and the answer runs from the answering end to the query's reply-to,
   the other end. So the flow runs from one of the two addresses to the
   other, with the echoed ports: the table is probed with the answering
   host as source, then as destination. When both are pending, the one
   that takes an answer from its source wins, then the other. *)
let named_pending t ~from_ip ~to_ip (r : Identxx.Response.t) =
  let proto = r.proto and src_port = r.src_port and dst_port = r.dst_port in
  let by_src =
    Flow_chains.probe t.pending p_flow ~src:from_ip ~dst:to_ip ~proto ~src_port ~dst_port
  in
  if takes_answer by_src.p_src then by_src
  else
    let by_dst =
      Flow_chains.probe t.pending p_flow ~src:to_ip ~dst:from_ip ~proto ~src_port ~dst_port
    in
    if by_dst != no_pending then by_dst else by_src

let names_pending t ~from_ip ~to_ip response =
  named_pending t ~from_ip ~to_ip response != no_pending

(* Under [require_signed_responses], whether [response], whose
   signature section reads [sg], may settle [p]'s query to [from_ip]. It
   must verify and be the answer to this query: its echoed host and peer
   are the packet's addresses and its nonce the one that query carried.
   And its signer must be allowed to answer for [from_ip]. A refusal is
   counted, marked on the flow's span and logged in the audit. *)
let answer_accepted t p ~from_ip ~to_ip response sg =
  let ks = Decision.keystore t.decision in
  let refusal =
    (* A well-formed signature section must sit last for the response to
       count as authenticated — except that a daemon answering a traced
       query appends its (unauthenticated, purely diagnostic) trace
       section after signing, so exactly one trailing trace section is
       tolerated. *)
    match (Identxx.Signed.check ks response sg, sg) with
    | Identxx.Signed.Valid _, Some sg when Identxx.Signed.closes sg ->
        let signer = Identxx.Signed.signer sg in
        if
          not
            (Identxx.Signed.echoes sg ~host:from_ip ~peer:to_ip
               ~query:(leg p (end_of p.p_flow from_ip)).query)
        then Some (Some signer, "stale-binding")
        else if
          not
            (Idcrypto.Sign.answers_for ks ~public:signer
               (Ipv4.to_string from_ip))
        then Some (Some signer, "unbound-signer")
        else None
    | _ -> Some (None, "unauthenticated")
  in
  match refusal with
  | None -> true
  | Some (signer, reason) ->
      Events.answer_rejected t.ev ~now:t.now p.p_span p.p_flow ~host:from_ip
        ?signer reason;
      false

(* Whether an answer about [flow]'s [end_], declaring [scope], answers
   the waiter on [w_end] of [w_flow] too: the same end of the flow
   itself under [Flow]; a destination of any flow to the same listening
   socket under [Socket] or [Host]. So a source's answer declaring
   [Socket] or [Host] answers no waiter, not even its own query.
   The answer table only parks destination waiters asking the same host
   about the same socket, so the socket needs no second check. *)
let covers scope ~flow ~end_ w_flow w_end =
  match scope with
  | Identxx.Signed.Socket | Identxx.Signed.Host -> w_end = `Dst && end_ = `Dst
  | Identxx.Signed.Flow -> w_end = end_ && Five_tuple.equal w_flow flow

(* An accepted answer from [from_ip], whose signature section reads
   [sg], settles [p]'s query to that host ({!take_exchange}), each
   waiter on its flow's shard. *)
let settle_answer t p ~from_ip response sg =
  let flow = p.p_flow in
  Events.answer_received t.ev;
  (* Pull the daemon's piggybacked timings out, then strip them:
     per-flow trace ids must not reach policy evaluation or a
     settled answer (a reused trace section would both leak into
     later flows' decisions and defeat decision-cache key
     matching). The scope and the signer are the stripped answer's:
     the reading of the signature section still holds when there was
     nothing to strip, and then there were no timings either. *)
  let stripped = Identxx.Response.strip_trace response in
  let untraced = stripped == response in
  let dtrace =
    if untraced then None else Identxx.Response.trace_info response
  in
  let sg = if untraced then sg else Identxx.Signed.signature stripped in
  let scope = Identxx.Signed.scope_of sg
  and signer = match sg with Some sg -> Identxx.Signed.signer sg | None -> "" in
  let response = stripped in
  let end_ = end_of flow from_ip in
  (* An (authenticated, if required) answer: the host is alive. *)
  Fastpath.note_response t.fp from_ip;
  (* A waiter takes the answer only as far as its declared scope
     reaches; any other asks for itself. [p]'s end keeps an answer that
     covers it at once, so an answer taken after this one names another
     flow. *)
  let covered = covers scope ~flow ~end_ flow end_ in
  let l = leg p end_ in
  if covered && takes_answer l then l.answer <- Some response;
  match take_exchange p ~host:from_ip with
  | None ->
      (* [p]'s own query is the only waiter. *)
      post_to_waiter t flow
        (if covered then Settle { flow; end_; settled = Answered response; dtrace }
         else Requery { flow; end_ })
  | Some ex ->
      let ws =
        Fastpath.Answers.settle t.answers ~now:t.now ~signer ex
          (Some (scope, response))
      in
      (* The initiator settles first and alone carries the daemon's
         timing piggyback (the timings are real once). *)
      let first = ref true and answered = Answered response in
      List.iter
        (fun w ->
          post_to_waiter t w.w_flow
            (if covers scope ~flow ~end_ w.w_flow w.w_end then begin
               let dtrace = if !first then dtrace else None in
               first := false;
               Settle { flow = w.w_flow; end_ = w.w_end; settled = answered; dtrace }
             end
             else Requery { flow = w.w_flow; end_ = w.w_end }))
        ws

(* The one response path: an answer pairs with the pending flow [p] it
   names, on that flow's shard, and settles the flow's query to the
   answering host ({!settle_answer}). Its signature section is read
   once. An answer that fails authentication settles nothing: the
   waiters decide on a later valid answer or at the initiator's timeout,
   so an off-path spoofer cannot force early fail-closed decisions. *)
let take_answer t p ~from_ip ~to_ip response =
  let sg = Identxx.Signed.signature response in
  if
    (not t.cfg.require_signed_responses)
    || answer_accepted t p ~from_ip ~to_ip response sg
  then settle_answer t p ~from_ip response sg

(* An answer the shard takes: it pairs with [named], the flow it named
   on arrival, while that flow is live and the answering end of it
   takes an answer; else with the flow it names now, if any; else it is
   transit. Answers that arrive together all name the flow awaiting
   their host as its source, and only the first finds that end still
   taking one. *)
let answer t (pi : Msg.packet_in) ~from_ip ~to_ip response named =
  let p =
    if named.p_live && takes_answer (leg named (end_of named.p_flow from_ip))
    then named
    else named_pending t ~from_ip ~to_ip response
  in
  if p != no_pending then take_answer t p ~from_ip ~to_ip response
  else handle_transit t ~dpid:pi.Msg.dpid ~from_ip ~to_ip response pi.Msg.packet

(* The controller's one way in: [input] at [now]. A switch's packet-in
   is classified once (pure) and its real work posted, with what the
   classification built, to a shard's run queue, which brings it back
   here. Data packets partition by flow-key hash; responses go to the
   shard of the flow they name (with one shard, straight to it);
   foreign/transit traffic pins to shard 0. *)
let step t ~now input =
  t.now <- now;
  match input with
  | Switch (Msg.Packet_in pi) -> (
      match Identxx.Wire.classify pi.Msg.packet with
      | Identxx.Wire.Response { from_ip; to_ip; response } -> (
          (* Routed once: the flow it names, found here, travels with it
             to that flow's shard. *)
          let named = named_pending t ~from_ip ~to_ip response in
          Shard.Engine.post t.shard_engine
            ~shard:
              (if named == no_pending || shard_count t = 1 then 0
               else shard_of t named.p_flow)
            (Answer { pi; response; from_ip; to_ip; named }))
      | Identxx.Wire.Query { from_ip; to_ip; query } ->
          Shard.Engine.post t.shard_engine ~shard:0
            (Foreign_query { pi; from_ip; to_ip; query })
      | Identxx.Wire.Not_identxx -> (
          match Packet.five_tuple pi.Msg.packet with
          | None -> () (* non-IP traffic is dropped by this firewall *)
          | Some flow ->
              Shard.Engine.post t.shard_engine ~shard:(shard_of t flow)
                (Flow_miss (pi, flow))))
  | Switch (Msg.Stats_reply reply) ->
      t.last_stats <- (reply.Msg.st_dpid, reply) :: List.remove_assq reply.Msg.st_dpid t.last_stats
  | Revision rev ->
      (* The one place the controller follows a policy change: the new
         plan replaces the old, the verdicts memoized under the old go,
         and the compiled table follows. *)
      t.plan <- Query_plan.make ~default:t.cfg.default ~prev:t.plan rev;
      Fastpath.flush_decisions t.fp;
      send_domain t (Fun.const (Proactive.sync t.compiled ~proactive:t.cfg.proactive t.plan))
  | Topology_changed -> send_domain t (Proactive.sync_routes t.compiled t.topo (t.hosts ()))
  | Flow_miss (pi, flow) ->
      let p = find_pending t.pending flow in
      if p != no_pending then p.p_packets <- pi :: p.p_packets
      else start_flow t pi flow
  | Answer { pi; response; from_ip; to_ip; named } ->
      answer t pi ~from_ip ~to_ip response named
  | Foreign_query { pi; from_ip; to_ip; query } -> (
      (* "Intercepted queries are not allowed to cause new queries." *)
      let dpid = pi.Msg.dpid in
      match Query_plan.answer_for t.plan to_ip with
      | Some section ->
          (* No flow of ours, so no root span to mark. Spoof the queried
             host: respond as if we were it. *)
          Events.note t.ev ~now Obs.Span.null to_ip `Local_answer;
          let flow = Identxx.Query.flow_of query ~src:to_ip ~dst:from_ip in
          forward_toward t ~dpid ~dst_ip:from_ip
            (Identxx.Wire.response_packet ~to_ip:from_ip ~from_ip:to_ip
               ~dst_port:(tcp_port pi.Msg.packet `Src)
               (Identxx.Response.make ~flow [ section ]))
      | None -> forward_toward t ~dpid ~dst_ip:to_ip pi.Msg.packet)
  | Settle { flow; end_; settled; dtrace } ->
      (* Unless its flow already decided (its own timeout won). *)
      let p = find_pending t.pending flow in
      if p != no_pending then settle_end ?dtrace t p end_ settled
  | Requery { flow; end_ } ->
      (* Its own query, with its own nonce and trace context, once: a
         host that answers the same way again does not speak for this
         end, and asking on would not change its answer. *)
      let p = find_pending t.pending flow in
      let l = leg p end_ in
      if p != no_pending && l.awaiting then
        if l.requeried then settle_end t p end_ (Failed "out-of-scope")
        else begin
          l.requeried <- true;
          Events.note t.ev ~now p.p_span (end_ip flow end_) `Query_out_of_scope;
          resend t p end_
        end
  | Timeout p -> on_timeout t p
  | Vacant -> ()

let handle_message t msg = step t ~now:(t.clock ()) (Switch msg)

let request_stats t dpid =
  t.xid <- t.xid + 1;
  if List.mem dpid (t.domain ()) then
    Shard.Batch.add t.batch dpid (Msg.Stats_request { xid = t.xid })

let switch_stats t dpid = List.assoc_opt dpid t.last_stats
let proactive_table t = Proactive.table t.compiled

(* --- cache management: override and revoke (S1, S7) --- *)

(* Delete in table 0 of every switch in the domain every entry one of
   [fields] covers, then re-add from the view the compiled entries and
   guards those deletes took: the deletes, a barrier, the adds, after
   what the tick queued before. Table 1 holds only routes, which follow
   the topology, so neither a flush nor a revocation touches it. *)
let reinstall t fields = send_domain t (Fun.const (Proactive.reinstall t.compiled fields))

let flush_cache t =
  (* Remove every cached decision in this controller's domain so the
     next packet of every flow is re-evaluated against current policy. *)
  reinstall t [ Openflow.Match_fields.any ];
  Conn_state.clear t.conn_state;
  (* Memoized verdicts go too; cached host attributes survive, since
     policy operations do not change what the hosts would answer. *)
  Fastpath.flush_decisions t.fp

(* A daemon-side change event (login/logout, process spawn/exit,
   configuration reload) reached us: what the host would answer may have
   changed, so its cached attributes — and every decision derived from
   them — are no longer trustworthy. *)
let note_host_changed t ip =
  Fastpath.note_host_changed t.fp ip;
  Fastpath.Answers.drop_host t.answers ip

let revoke_principal t ~ip =
  Log.info (fun m -> m "revoking principal %s" (Ipv4.to_string ip));
  let dropped = Conn_state.revoke t.conn_state ~ip in
  Fastpath.revoke_ip t.fp ip;
  Fastpath.Answers.drop_host t.answers ip;
  (* Dataplane: every table-0 entry with the principal's address at
     either end goes; the compiled entries among them come back. *)
  let host = Some (Prefix.host ip) in
  reinstall t
    Openflow.Match_fields.[ { any with nw_src = host }; { any with nw_dst = host } ];
  dropped

let update_file t ~name content =
  match Policy_store.add t.policy ~name content with
  | Error _ as e -> e
  | Ok () ->
      flush_cache t;
      Ok ()

(* Removing a file the store does not hold changes nothing. *)
let revoke_file t ~name =
  Log.info (fun m -> m "revoking policy file %s" name);
  if Policy_store.remove t.policy ~name then flush_cache t

(* The adapter: the network, the policy store and the topology feed
   {!step}, and so do the shards, whose handler is the controller they
   belong to. *)
let create ?(config = default_config) ?keystore ?functions ?obs ?spans
    ?(recorder = Obs.Recorder.null) ~network ~id () =
  let module Net = Openflow.Network in
  (* The topology's hosts that have an address, with it. A link change
     leaves both, so it gets the previous list, the same physical value
     {!Proactive.sync_routes} recognises. *)
  let attached_hosts network topo =
    let attached () =
      List.filter_map
        (fun host ->
          match Net.host_ip network host with
          | ip -> Some (host, ip)
          | exception (Not_found | Invalid_argument _) -> None)
        (Topo.hosts topo)
    in
    (* Whether [attached] is still the attached part of [names]. *)
    let rec still names attached =
      match (names, attached) with
      | [], [] -> true
      | [], _ :: _ -> false
      | name :: names, (host, ip) :: rest when String.equal name host -> (
          match Net.host_ip network name with
          | ip' -> Ipv4.equal ip ip' && still names rest
          | exception (Not_found | Invalid_argument _) -> false)
      | name :: names, _ -> (
          match Net.host_ip network name with
          | _ -> false
          | exception (Not_found | Invalid_argument _) -> still names attached)
    in
    let last = ref [] in
    fun () ->
      if not (still (Topo.hosts topo) !last) then last := attached ();
      !last
  in
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
  let sc = Option.value config.shards ~default:(sharded 1) in
  let engine = Net.engine network and topo = Net.topology network in
  let clock () = Sim.Engine.now engine in
  let answers =
    Fastpath.Answers.create ~capacity:config.fastpath.Fastpath.attr_capacity
      ~ttl:config.fastpath.Fastpath.attr_ttl
      ~reuse:config.fastpath.Fastpath.enabled ()
  in
  let batch = Shard.Batch.create ~engine ~send:(Net.send_batch network) () in
  (* The shards' handler steps the controller that holds them. *)
  let rec t =
    lazy
      {
        cfg = config;
        policy;
        decision;
        conn_state = Conn_state.create ();
        ev = Events.create ~obs ~spans ~recorder ~labels;
        pending = Flow_chains.create pending_entry 64;
        prefixes = Ip_tbl.create 16;
        fp = Fastpath.create config.fastpath;
        answers;
        shard_engine =
          Shard.Engine.create_typed ~service:sc.shard_service ~shards:sc.shard_count
            ~vacant:Vacant
            ~handle:(fun msg -> step (Lazy.force t) ~now:(clock ()) msg)
            engine;
        batch;
        plan = Query_plan.make ~default:config.default (Policy_store.current policy);
        compiled = Proactive.create obs ~labels;
        last_stats = [];
        xid = 0;
        nonces =
          (if config.require_signed_responses then
             Some (Sim.Prng.create (0x6e6f6e6365 + id))
           else None);
        now = clock ();
        topo;
        clock;
        host_by_ip = Net.host_by_ip network;
        hosts = attached_hosts network topo;
        iter_path = (fun ~src ~dst f a -> Net.iter_path network ~src ~dst f a);
        add_hop =
          (fun fields dpid out_port ->
            Shard.Batch.add batch dpid
              (Msg.add_flow ?idle_timeout:config.entry_idle_timeout ~fields
                 (Openflow.Action.output out_port)));
        domain = (fun () -> Net.switches_in_domain network id);
      }
  in
  let t = Lazy.force t in
  Obs.Registry.gauge_fn obs ~help:"Flows awaiting daemon responses." ~labels
    "identxx_controller_pending_flows" (fun () ->
      float_of_int t.pending.Flow_chains.count);
  (* Per-collector, not per-controller: collectors may be shared, so no
     controller label — re-registration just replaces the callback. *)
  List.iter
    (fun (cause, dropped) ->
      Obs.Registry.counter_fn obs
        ~help:"Trace spans discarded before export, by cause."
        ~labels:[ ("cause", cause) ] "identxx_trace_spans_dropped_total"
        (fun () -> dropped spans))
    [ ("sampling", Obs.Span.sampled_out); ("capacity", Obs.Span.capacity_dropped) ];
  Fastpath.register_metrics t.fp ~labels obs;
  Fastpath.Answers.register_metrics answers ~labels obs;
  Shard.Engine.register_metrics t.shard_engine ~labels obs;
  Shard.Batch.register_metrics batch ~labels obs;
  (* Per-switch capacity telemetry: evictions and refused adds of each
     switch's table 0. *)
  List.iter
    (fun dpid ->
      let table = Openflow.Switch.table (Net.switch network dpid) in
      let labels = [ ("dpid", string_of_int dpid) ] in
      Obs.Registry.counter_fn obs
        ~help:"Flow-table capacity evictions (LRU reactive victims), by switch."
        ~labels "identxx_switch_evictions_total"
        (fun () -> Openflow.Flow_table.evictions table);
      Obs.Registry.counter_fn obs
        ~help:"Flow-mod adds refused by a full table with nothing reactive to evict, by switch."
        ~labels "identxx_switch_refusals_total"
        (fun () -> Openflow.Flow_table.refusals table))
    (Net.switches_in_domain network id);
  Net.register_controller network ~id (handle_message t);
  (* Each revision the store installs replaces the plan and the
     compiled table; the routes follow the topology from here on, hosts
     attached later included. *)
  Policy_store.on_change policy (fun rev -> step t ~now:(clock ()) (Revision rev));
  if config.proactive then begin
    Topo.on_change topo (fun () -> step t ~now:(clock ()) Topology_changed);
    step t ~now:(clock ()) Topology_changed
  end;
  t
