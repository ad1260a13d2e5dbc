(* The sharded flow-setup engine: the lib/shard building blocks in
   isolation (run-queue engine, install batcher) and the controller
   integration — above all the determinism oracle: with zero service
   time, the same seed scenario must produce a byte-identical audit
   trail and identical aggregated counters under any shard count. *)

open Netcore
module Net = Openflow.Network
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module Policy_store = Identxx_core.Policy_store
module Audit = Identxx_core.Audit

let check = Alcotest.check

(* --- Shard.Engine unit tests --- *)

(* Shards whose messages are closures, each run as it is drained. *)
let thunk_shards ?service ~shards engine =
  Shard.Engine.create_typed ?service ~shards ~vacant:ignore ~handle:(fun f -> f ()) engine

let test_engine_post_order () =
  let e = Sim.Engine.create () in
  let d = thunk_shards ~shards:3 e in
  let order = ref [] in
  List.iter
    (fun (s, tag) ->
      Shard.Engine.post d ~shard:s (fun () -> order := tag :: !order))
    [ (2, "a"); (0, "b"); (2, "c"); (1, "d") ];
  check Alcotest.int "posted" 4 (Shard.Engine.posted d);
  Sim.Engine.run e;
  (* service = 0: execution order is global post order, independent of
     which shard each message landed on. *)
  check
    Alcotest.(list string)
    "global post order" [ "a"; "b"; "c"; "d" ] (List.rev !order);
  check Alcotest.int "processed" 4 (Shard.Engine.processed d);
  check Alcotest.int "queues drained" 0 (Shard.Engine.queue_depth d 2)

let test_engine_makespan () =
  let ms = Sim.Time.ms in
  (* One shard: four 1 ms messages serialise to 4 ms. *)
  let e1 = Sim.Engine.create () in
  let d1 = thunk_shards ~service:(ms 1) ~shards:1 e1 in
  for _ = 1 to 4 do
    Shard.Engine.post d1 ~shard:0 ignore
  done;
  Sim.Engine.run e1;
  check Alcotest.bool "serial makespan 4ms" true
    (Sim.Time.compare (Shard.Engine.makespan d1) (ms 4) = 0);
  (* Two shards, two messages each: parallel simulated time, 2 ms. *)
  let e2 = Sim.Engine.create () in
  let d2 = thunk_shards ~service:(ms 1) ~shards:2 e2 in
  List.iter (fun s -> Shard.Engine.post d2 ~shard:s ignore) [ 0; 1; 0; 1 ];
  Sim.Engine.run e2;
  check Alcotest.bool "parallel makespan 2ms" true
    (Sim.Time.compare (Shard.Engine.makespan d2) (ms 2) = 0)

let test_engine_cross_posts () =
  let e = Sim.Engine.create () in
  let d = thunk_shards ~shards:3 e in
  let seen = ref [] in
  (* A post from outside every shard, or from a shard to itself, is not
     cross-shard traffic; from inside shard 1, the posts to shards 2 and
     0 are. A timer fires outside every shard, so its post is not
     either. *)
  Shard.Engine.post d ~shard:1 (fun () ->
      List.iter
        (fun sid ->
          Shard.Engine.post d ~shard:sid (fun () -> seen := sid :: !seen))
        [ 2; 1; 0 ]);
  ignore (Shard.Engine.post_after d ~shard:2 ~delay:(Sim.Time.ms 1) ignore);
  Sim.Engine.run e;
  check Alcotest.(list int) "post order" [ 2; 1; 0 ] (List.rev !seen);
  check Alcotest.int "five posts" 5 (Shard.Engine.posted d);
  check Alcotest.int "two foreign posts" 2 (Shard.Engine.cross_messages d)

let test_engine_post_after () =
  let e = Sim.Engine.create () in
  let d = thunk_shards ~shards:2 e in
  let fired = ref 0 in
  let _keep =
    Shard.Engine.post_after d ~shard:1 ~delay:(Sim.Time.ms 5) (fun () ->
        incr fired)
  in
  let cancel =
    Shard.Engine.post_after d ~shard:1 ~delay:(Sim.Time.ms 6) (fun () ->
        incr fired)
  in
  Shard.Engine.cancel cancel;
  Sim.Engine.run e;
  check Alcotest.int "timer posted once, cancel held" 1 !fired

(* --- Shard.Batch unit tests --- *)

let stats_req xid = Openflow.Message.Stats_request { xid }

let xid_of = function
  | Openflow.Message.Stats_request { xid } -> xid
  | _ -> -1

let test_batch_ordering () =
  let e = Sim.Engine.create () in
  let sent = ref [] and calls = ref 0 in
  let b =
    Shard.Batch.create ~engine:e
      ~send:(fun dpid msgs ->
        incr calls;
        Array.iter (fun msg -> sent := (dpid, xid_of msg) :: !sent) msgs)
      ()
  in
  (* Interleave two switches; the flush must group by ascending dpid
     while preserving each switch's arrival order (flow-mods must land
     before the packet-out that relies on them). *)
  Shard.Batch.add b 2 (stats_req 1);
  Shard.Batch.add b 1 (stats_req 2);
  Shard.Batch.add b 2 (stats_req 3);
  Shard.Batch.add b 1 (stats_req 4);
  check Alcotest.int "buffered until the tick ends" 4 (Shard.Batch.pending b);
  Sim.Engine.run e;
  check
    Alcotest.(list (pair int int))
    "grouped by dpid, per-dpid arrival order"
    [ (1, 2); (1, 4); (2, 1); (2, 3) ]
    (List.rev !sent);
  check Alcotest.int "one send per switch" 2 !calls;
  check Alcotest.int "one pass" 1 (Shard.Batch.flushes b);
  check Alcotest.int "four messages through" 4 (Shard.Batch.batched b);
  (* A later tick batches afresh. *)
  Shard.Batch.add b 1 (stats_req 5);
  Sim.Engine.run e;
  check Alcotest.int "second pass" 2 (Shard.Batch.flushes b);
  check Alcotest.int "five total" 5 (Shard.Batch.batched b)

(* A switch's whole array is sent as it is while nothing else is queued
   for it; a second array is appended, and an [add] after a whole array
   keeps the array's messages first. *)
let test_batch_whole_arrays () =
  let e = Sim.Engine.create () in
  let sent = ref [] in
  let b =
    Shard.Batch.create ~engine:e ~send:(fun dpid msgs -> sent := (dpid, msgs) :: !sent) ()
  in
  let shared = [| stats_req 1; stats_req 2 |] in
  Shard.Batch.add_all b 1 shared;
  Shard.Batch.add_all b 2 shared;
  Shard.Batch.add_all b 2 [| stats_req 3 |];
  Shard.Batch.add_all b 3 shared;
  Shard.Batch.add b 3 (stats_req 4);
  Shard.Batch.add_all b 4 [||];
  check Alcotest.int "buffered" 8 (Shard.Batch.pending b);
  Sim.Engine.run e;
  let sent = List.rev !sent in
  check
    Alcotest.(list (pair int (list int)))
    "per-switch order"
    [ (1, [ 1; 2 ]); (2, [ 1; 2; 3 ]); (3, [ 1; 2; 4 ]) ]
    (List.map (fun (d, msgs) -> (d, Array.to_list (Array.map xid_of msgs))) sent);
  check Alcotest.bool "a lone array is not copied" true (List.assoc 1 sent == shared);
  check Alcotest.int "eight messages through" 8 (Shard.Batch.batched b)

(* --- controller integration --- *)

(* Sign [target]'s answers and give it a listener on port 80: its
   answers then hold for every new flow to that port, which is what lets
   a coalesced waiter take another flow's answer. *)
let serve controller target =
  ignore (Deploy.sign_host controller target);
  let www = Identxx.Host.run target ~user:"www" ~exe:"/bin/srv" () in
  Identxx.Host.listen target ~proc:www ~port:80 ()

(* The netsim burst scenario, inline: 16 hosts on a 4-switch chain,
   every host but the first opening a flow to host 0 at t = 0. The
   policy reads both ends, so every flow asks the target too. [silent]
   silences the target. *)
let run_burst ?obs ?spans ?recorder ?(fastpath = Fastpath.disabled)
    ?(silent = false) ~shards () =
  let config = { C.default_config with C.shards; C.fastpath } in
  let engine, network, controller, hosts =
    Deploy.linear_network ?obs ?spans ?recorder ~config ~switches:4
      ~hosts_per_switch:4 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[name], app) with eq(@dst[name], srv) \
     keep state";
  let target = hosts.(0) in
  serve controller target;
  if silent then
    Identxx.Daemon.set_behaviour
      (Identxx.Host.daemon target)
      Identxx.Daemon.Silent;
  Array.iteri
    (fun i h ->
      if i > 0 then begin
        let proc = Identxx.Host.run h ~user:"u" ~exe:"/bin/app" () in
        let flow =
          Identxx.Host.connect h ~proc ~dst:(Identxx.Host.ip target)
            ~dst_port:80 ()
        in
        Net.send_from_host network ~name:(Identxx.Host.name h)
          (Identxx.Host.first_packet h ~flow)
      end)
    hosts;
  Sim.Engine.run engine;
  (controller, network)

let stats_t =
  Alcotest.testable
    (fun ppf (st : C.stats) ->
      Format.fprintf ppf
        "flows=%d allowed=%d blocked=%d queries=%d responses=%d timeouts=%d"
        st.C.flows_seen st.C.allowed st.C.blocked st.C.queries_sent
        st.C.responses_received st.C.query_timeouts)
    ( = )

(* One scenario run under each shard configuration: each run's audit
   trail, aggregated stats, delivery counts and pending flows. *)
let oracle_runs run configs =
  List.map
    (fun shards ->
      let c, net = run shards in
      ( Format.asprintf "%a" Audit.pp (C.audit c),
        C.stats c,
        (Net.delivered net, Net.dropped net, Net.packet_ins net),
        C.pending_count c ))
    configs

(* Run the burst under each shard configuration and require every run
   to match the first: byte-identical audit trail, identical aggregated
   stats, identical delivery counts, nothing left pending. *)
let burst_oracle configs =
  let runs = oracle_runs (fun shards -> run_burst ~shards ()) configs in
  let a0, s0, d0, _ = List.hd runs in
  List.iteri
    (fun i (a, s, d, p) ->
      let what = Printf.sprintf " (run %d)" i in
      check Alcotest.string ("audit identical" ^ what) a0 a;
      check stats_t ("stats identical" ^ what) s0 s;
      check Alcotest.(triple int int int) ("delivery identical" ^ what) d0 d;
      check Alcotest.int ("no stuck flows" ^ what) 0 p)
    runs;
  check Alcotest.int "all 15 flows decided" 15 s0.C.flows_seen;
  check Alcotest.int "15 source queries and one shared destination query" 16
    s0.C.queries_sent

let test_determinism_oracle () =
  (* Same scenario by default ([None], one shard) and under 1, 2 and 8
     shards: every run coalesces the 15 destination queries alike. *)
  burst_oracle (None :: List.map (fun n -> Some (C.sharded n)) [ 1; 2; 8 ])

(* [None] is [Some (sharded 1)], not a mode: the burst's spans (attributes,
   events, children and times) export byte-identically, and a
   controller registers the same series whatever its shard count or
   [proactive] (names alike; label sets alike for one shard either
   way). *)
let test_none_is_one_shard () =
  let spans_of shards =
    let spans = Obs.Span.create ~enabled:true () in
    ignore (run_burst ~spans ~shards ());
    check Alcotest.bool "every root names its shard" true
      (List.for_all
         (fun sp -> List.assoc_opt "shard" (Obs.Span.attrs sp) = Some "0")
         (Obs.Span.finished spans));
    Obs.Json.to_string (Obs.Span.export spans)
  in
  check Alcotest.string "span export identical"
    (spans_of (Some (C.sharded 1)))
    (spans_of None);
  let series config =
    let obs = Obs.Registry.create () in
    ignore
      (Deploy.linear_network ~obs ~config ~switches:1 ~hosts_per_switch:1 ());
    List.map
      (fun (s : Obs.Registry.series) ->
        (s.Obs.Registry.name, s.Obs.Registry.labels))
      (Obs.Registry.snapshot obs)
  in
  let names config = List.sort_uniq compare (List.map fst (series config)) in
  let default = C.default_config in
  check
    Alcotest.(list (pair string (list (pair string string))))
    "None and one shard register the same series" (series default)
    (series { default with C.shards = Some (C.sharded 1) });
  check Alcotest.(list string) "proactive, 4 shards: the same names"
    (names default)
    (names { default with C.proactive = true; shards = Some (C.sharded 4) })

(* [clients] hosts on a 4-switch chain open one flow each to host 0's
   port 80 per source port in [ports], taken in turn, all at t = 0 (a
   port of [None] is the host's next ephemeral one). *)
let port_burst ~clients ~ports shards =
  let config = { C.default_config with C.shards } in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:4
      ~hosts_per_switch:((clients + 4) / 4)
      ()
  in
  (* The last rule reads the hot host's answer, so both ends are asked;
     it never matches. *)
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\n\
     pass all with eq(@src[name], app) keep state\n\
     block all with eq(@dst[name], quarantined)";
  let target = Identxx.Host.ip hosts.(0) in
  let procs =
    Array.map (fun h -> Identxx.Host.run h ~user:"u" ~exe:"/bin/app" ()) hosts
  in
  List.iteri
    (fun k src_port ->
      let i = 1 + (k mod clients) in
      let h = hosts.(i) in
      let flow =
        Identxx.Host.connect h ~proc:procs.(i) ~dst:target ?src_port
          ~dst_port:80 ()
      in
      Net.send_from_host network ~name:(Identxx.Host.name h)
        (Identxx.Host.first_packet h ~flow))
    ports;
  Sim.Engine.run engine;
  (controller, network)

(* The hot host does not sign, so no query joins another: every flow
   queries both ends itself. Source ports drawn from a small pool make
   answers from the hot host name the same ports and differ only in the
   client address. Pairing by the named flow delivers each to its own
   flow, so 1, 2, 4 and 8 shards agree on every run, and no flow
   decides with an end absent. ([None] is one shard, which the
   determinism oracle above compares with [Some 1].) *)
let prop_pairing_oracle =
  let scenario =
    QCheck.Gen.(
      let* clients = int_range 1 15 in
      let* rounds = int_range 1 3 in
      let+ ports =
        list_repeat (clients * rounds)
          (oneofl [ None; Some 40000; Some 40001; Some 40002 ])
      in
      (clients, ports))
  in
  let print (clients, ports) =
    Printf.sprintf "%d clients, source ports [%s]" clients
      (String.concat "; "
         (List.map
            (function None -> "ephemeral" | Some p -> string_of_int p)
            ports))
  in
  QCheck.Test.make ~name:"pairing oracle (1/2/4/8 shards, uncoalesced)"
    ~count:25 (QCheck.make ~print scenario) (fun (clients, ports) ->
      let runs =
        oracle_runs (port_burst ~clients ~ports)
          (List.map (fun n -> Some (C.sharded n)) [ 1; 2; 4; 8 ])
      in
      let a0, s0, d0, _ = List.hd runs in
      List.iteri
        (fun i (a, s, d, p) ->
          if a <> a0 then QCheck.Test.fail_reportf "run %d: audit differs" i;
          if s <> s0 then QCheck.Test.fail_reportf "run %d: stats differ" i;
          if d <> d0 then QCheck.Test.fail_reportf "run %d: deliveries differ" i;
          if p <> 0 then QCheck.Test.fail_reportf "run %d: %d flows pending" i p)
        runs;
      if s0.C.query_timeouts <> 0 then
        QCheck.Test.fail_reportf "%d flows decided with an end silent"
          s0.C.query_timeouts;
      s0.C.responses_received = 2 * s0.C.flows_seen)

(* Span-drop attribution must be shard-count invariant: the same burst
   through a capacity-4 collector finishes the same 15 root spans and
   evicts the same number whatever the shard count, and the registry
   series identxx_trace_spans_dropped_total{cause=capacity} (a
   per-collector callback, no shard label) reports exactly that. *)
let test_span_drop_invariance () =
  let series_value obs ~cause =
    match
      List.find_opt
        (fun (s : Obs.Registry.series) ->
          s.Obs.Registry.name = "identxx_trace_spans_dropped_total"
          && s.Obs.Registry.labels = [ ("cause", cause) ])
        (Obs.Registry.snapshot obs)
    with
    | Some { Obs.Registry.value = Obs.Registry.Counter_v n; _ } -> n
    | _ -> Alcotest.fail "no capacity drop series"
  in
  let runs =
    List.map
      (fun n ->
        let obs = Obs.Registry.create () in
        let spans = Obs.Span.create ~capacity:4 ~enabled:true () in
        let c, _net = run_burst ~obs ~spans ~shards:(Some (C.sharded n)) () in
        ignore c;
        ( series_value obs ~cause:"capacity",
          series_value obs ~cause:"sampling",
          List.length (Obs.Span.finished spans) ))
      [ 1; 2; 8 ]
  in
  match runs with
  | [ (c1, s1, k1); (c2, s2, k2); (c8, s8, k8) ] ->
      check Alcotest.bool "burst overflows the cap" true (c1 > 0);
      check Alcotest.int "capacity drops 1 vs 2 shards" c1 c2;
      check Alcotest.int "capacity drops 1 vs 8 shards" c1 c8;
      check Alcotest.int "nothing sampled out (1)" 0 s1;
      check Alcotest.int "sampling drops invariant" s1 s2;
      check Alcotest.int "sampling drops invariant (8)" s1 s8;
      (* The collector holds exactly its capacity; every finished root
         is either retained or counted dropped. *)
      check Alcotest.int "capacity held" 4 k1;
      check Alcotest.int "all 15 roots accounted for" 15 (c1 + k1);
      check Alcotest.int "retained invariant 1 vs 2" k1 k2;
      check Alcotest.int "retained invariant 1 vs 8" k1 k8
  | _ -> assert false

(* One switch, a target host 0 and clients 1..n, on two coalescing
   shards: concurrent flows to the target share one wire exchange with
   it. The tests' policies read the target's answer, and the source's
   only where a test needs it asked. *)
let target_net ?(require_signed = false)
    ?(fastpath = C.default_config.C.fastpath) ?spans ?recorder ~clients () =
  let config =
    {
      C.default_config with
      C.shards = Some (C.sharded 2);
      C.require_signed_responses = require_signed;
      C.fastpath;
    }
  in
  Deploy.linear_network ~config ?spans ?recorder ~switches:1
    ~hosts_per_switch:(clients + 1) ()

(* Client [h] opens a flow to [target]'s port 80. *)
let open_flow network h ~target =
  let proc = Identxx.Host.run h ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect h ~proc ~dst:(Identxx.Host.ip target) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:(Identxx.Host.name h)
    (Identxx.Host.first_packet h ~flow);
  flow

(* An answer about [flow] claiming to come from its destination, with
   the given pairs and no signature. *)
let forge network ~target flow pairs =
  Net.send_from_host network ~name:(Identxx.Host.name target)
    (Identxx.Wire.response_packet ~to_ip:flow.Five_tuple.src
       ~from_ip:(Identxx.Host.ip target) ~dst_port:49152
       (Identxx.Response.make ~flow
          [ List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs ]))

(* K concurrent misses needing the same host: one wire exchange, K
   decisions. *)
let coalesce_net ?(silent = false) ~clients () =
  let engine, network, controller, hosts = target_net ~clients () in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let target = hosts.(0) in
  serve controller target;
  if silent then
    Identxx.Daemon.set_behaviour
      (Identxx.Host.daemon target)
      Identxx.Daemon.Silent;
  for i = 1 to clients do
    ignore (open_flow network hosts.(i) ~target)
  done;
  Sim.Engine.run engine;
  controller

let test_coalescing () =
  let c = coalesce_net ~clients:5 () in
  let st = C.stats c in
  check Alcotest.int "five table misses" 5 st.C.flows_seen;
  check Alcotest.int "one wire exchange" 1 (C.wire_exchanges c);
  check Alcotest.int "four duplicates absorbed" 4 (C.coalesced_queries c);
  check Alcotest.int "one query on the wire" 1 st.C.queries_sent;
  check Alcotest.int "one response back" 1 st.C.responses_received;
  check Alcotest.int "five decisions" 5 st.C.allowed;
  check Alcotest.int "nothing pending" 0 (C.pending_count c)

let test_uncovered_waiter_asks_itself () =
  (* The target signs, so flows to its listener share one exchange. But
     its app supplies run-time pairs for a flow to the port, so the
     listener's answers hold for their own flow only: the flows that
     coalesced onto the first each send their own query, and every flow
     still decides on its own answer. *)
  let engine, network, controller, hosts = target_net ~clients:3 () in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let target = hosts.(0) in
  serve controller target;
  Identxx.Daemon.register_runtime
    (Identxx.Host.daemon target)
    ~flow:
      (Five_tuple.tcp ~src:(Identxx.Host.ip hosts.(1))
         ~dst:(Identxx.Host.ip target) ~src_port:1 ~dst_port:80)
    [ Identxx.Key_value.pair "request" "clicked" ];
  for i = 1 to 3 do
    ignore (open_flow network hosts.(i) ~target)
  done;
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "one wire exchange" 1 (C.wire_exchanges controller);
  check Alcotest.int "two waiters coalesced" 2 (C.coalesced_queries controller);
  check Alcotest.int "each waiter asked again" 3 st.C.queries_sent;
  check Alcotest.int "the target answered every flow" 3
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon target));
  check Alcotest.int "three passes" 3 st.C.allowed;
  check Alcotest.int "no timeouts" 0 st.C.query_timeouts;
  check Alcotest.int "nothing pending" 0 (C.pending_count controller)

let test_unsigned_target_not_joined () =
  (* A target whose answers are not expected to be signed declares no
     scope, so no flow could take another's answer: each destination
     query goes on the wire at once instead of waiting for the first. *)
  let engine, network, controller, hosts = target_net ~clients:3 () in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let target = hosts.(0) in
  let www = Identxx.Host.run target ~user:"www" ~exe:"/bin/srv" () in
  Identxx.Host.listen target ~proc:www ~port:80 ();
  for i = 1 to 3 do
    ignore (open_flow network hosts.(i) ~target)
  done;
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "nobody coalesced" 0 (C.coalesced_queries controller);
  check Alcotest.int "three queries" 3 st.C.queries_sent;
  check Alcotest.int "three passes" 3 st.C.allowed;
  check Alcotest.int "nothing pending" 0 (C.pending_count controller)

let test_fail_all_waiters () =
  (* The coalesced exchange's terminal failure (here: host silent, the
     initiator's timeout) must fail every parked waiter, not just the
     initiating flow. *)
  let c = coalesce_net ~silent:true ~clients:3 () in
  let st = C.stats c in
  check Alcotest.int "three table misses" 3 st.C.flows_seen;
  check Alcotest.int "one wire exchange" 1 (C.wire_exchanges c);
  check Alcotest.int "no responses" 0 st.C.responses_received;
  check Alcotest.int "every waiter timed out" 3 st.C.query_timeouts;
  check Alcotest.int "all three flows decided" 3
    (st.C.allowed + st.C.blocked);
  check Alcotest.int "nothing pending" 0 (C.pending_count c)

let test_joined_failure_counts_once () =
  (* Flow B joins flow A's exchange with a silent signing target, and
     B's own source is silent too. A's timeout fails B's destination
     end; B's own timeout then settles its source. B decided with an
     end silent once, so it counts once. *)
  let engine, network, controller, hosts = target_net ~clients:2 () in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[name], app) with eq(@dst[name], srv)";
  let target = hosts.(0) in
  serve controller target;
  List.iter
    (fun h ->
      Identxx.Daemon.set_behaviour
        (Identxx.Host.daemon h)
        Identxx.Daemon.Silent)
    [ target; hosts.(2) ];
  ignore (open_flow network hosts.(1) ~target);
  Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) (fun () ->
      ignore (open_flow network hosts.(2) ~target));
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "two table misses" 2 st.C.flows_seen;
  check Alcotest.int "B joined A's exchange" 1 (C.coalesced_queries controller);
  check Alcotest.int "both decided" 2 (st.C.allowed + st.C.blocked);
  check Alcotest.int "each flow counted once" 2 st.C.query_timeouts;
  check Alcotest.int "nothing pending" 0 (C.pending_count controller)

(* Every way a queried end settles, as the spans and the flight
   recorder tell it. Each scenario runs with both on; each flow renders
   as its root span's events (with their [host] and [cause]), each
   [query] child's host and [outcome], and the recorder's
   [query-settled] events for the flow (host and outcome), all in
   order. *)
let settle_story ~spans ~recorder =
  let attr k attrs =
    match List.assoc_opt k attrs with Some v -> " " ^ k ^ "=" ^ v | None -> ""
  in
  let settled =
    List.rev (Obs.Recorder.events recorder)
    |> List.filter (fun e -> e.Obs.Recorder.ev_kind = "query-settled")
  in
  Obs.Span.finished spans
  |> List.map (fun root ->
         let flow = List.assoc "flow" (Obs.Span.attrs root) in
         let events =
           List.map
             (fun (_, name, attrs) ->
               name ^ attr "host" attrs ^ attr "cause" attrs)
             (Obs.Span.events root)
         in
         let queries =
           List.map
             (fun q ->
               let a = Obs.Span.attrs q in
               List.assoc "host" a ^ attr "outcome" a)
             (Obs.Span.children root)
         in
         let records =
           List.filter_map
             (fun e ->
               let a = e.Obs.Recorder.ev_attrs in
               if List.assoc "flow" a = flow then
                 Some (List.assoc "host" a ^ attr "outcome" a)
               else None)
             settled
         in
         Printf.sprintf "%s | events: %s | queries: %s | settled: %s" flow
           (String.concat ", " events)
           (String.concat ", " queries)
           (String.concat ", " records))
  |> List.sort compare

let test_settle_vocabulary () =
  let story ?fastpath ~clients ~policy ~silent_flows setup =
    let spans = Obs.Span.create ~enabled:true () in
    let recorder = Obs.Recorder.create ~enabled:true () in
    let engine, network, controller, hosts =
      target_net ?fastpath ~spans ~recorder ~clients ()
    in
    Policy_store.add_exn (C.policy controller) ~name:"00" policy;
    setup engine network controller hosts;
    Sim.Engine.run engine;
    check Alcotest.int "nothing pending" 0 (C.pending_count controller);
    check Alcotest.int "flows decided with an end silent" silent_flows
      (C.stats controller).C.query_timeouts;
    settle_story ~spans ~recorder
  in
  let silent h =
    Identxx.Daemon.set_behaviour (Identxx.Host.daemon h) Identxx.Daemon.Silent
  in
  let both =
    "block all\npass all with eq(@src[name], app) with eq(@dst[name], srv)"
  and dst_only = "block all\npass all with eq(@dst[name], srv)" in
  let lines = Alcotest.(list string) in
  (* Answered, and the flow's own timeout: the source is silent, the
     destination answers. *)
  check lines "answered and own timeout"
    [
      "tcp 10.0.1.2:50000 -> 10.0.1.1:80 | events: install-drop | queries: \
       10.0.1.2 outcome=timeout, 10.0.1.1 outcome=answered | settled: \
       10.0.1.1 outcome=answered, 10.0.1.2 outcome=timeout";
    ]
    (story ~clients:1 ~policy:both ~silent_flows:1 (fun _ network _ hosts ->
         silent hosts.(1);
         ignore (open_flow network hosts.(1) ~target:hosts.(0))));
  (* A joined exchange fails: B coalesces on A's query to a silent
     signing target and fails at A's timeout; B's silent source then
     times out on its own. *)
  check lines "joined exchange failed"
    [
      "tcp 10.0.1.2:50000 -> 10.0.1.1:80 | events: install-drop | queries: \
       10.0.1.2 outcome=answered, 10.0.1.1 outcome=timeout | settled: \
       10.0.1.2 outcome=answered, 10.0.1.1 outcome=timeout";
      "tcp 10.0.1.3:50000 -> 10.0.1.1:80 | events: query-coalesced \
       host=10.0.1.1, exchange-failed host=10.0.1.1 cause=timeout, \
       install-drop | queries: 10.0.1.3 outcome=timeout, 10.0.1.1 \
       outcome=timeout | settled: 10.0.1.1 outcome=timeout, 10.0.1.3 \
       outcome=timeout";
    ]
    (story ~clients:2 ~policy:both ~silent_flows:2
       (fun engine network controller hosts ->
         let target = hosts.(0) in
         serve controller target;
         silent target;
         silent hosts.(2);
         ignore (open_flow network hosts.(1) ~target);
         Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) (fun () ->
             ignore (open_flow network hosts.(2) ~target))));
  (* A breaker trip: the initiator's timeout opens the target's breaker,
     and the flow that joined its exchange fails as breaker-open. *)
  let fastpath =
    { Fastpath.default_config with Fastpath.breaker_threshold = 1 }
  in
  check lines "breaker trip"
    [
      "tcp 10.0.1.2:50000 -> 10.0.1.1:80 | events: breaker-trip \
       host=10.0.1.1, install-drop | queries: 10.0.1.1 outcome=timeout | \
       settled: 10.0.1.1 outcome=timeout";
      "tcp 10.0.1.3:50000 -> 10.0.1.1:80 | events: query-coalesced \
       host=10.0.1.1, exchange-failed host=10.0.1.1 cause=breaker-open, \
       install-drop | queries: 10.0.1.1 outcome=breaker-open | settled: \
       10.0.1.1 outcome=breaker-open";
    ]
    (story ~fastpath ~clients:2 ~policy:dst_only ~silent_flows:2
       (fun engine network controller hosts ->
         let target = hosts.(0) in
         serve controller target;
         silent target;
         ignore (open_flow network hosts.(1) ~target);
         Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) (fun () ->
             ignore (open_flow network hosts.(2) ~target))));
  (* An answer out of a waiter's scope: the listener's answers hold for
     their own flow only, so each flow that coalesced asks again and
     settles on its own answer. *)
  check lines "out of scope, then requery"
    [
      "tcp 10.0.1.2:50000 -> 10.0.1.1:80 | events: install | queries: \
       10.0.1.1 outcome=answered | settled: 10.0.1.1 outcome=answered";
      "tcp 10.0.1.3:50000 -> 10.0.1.1:80 | events: query-coalesced \
       host=10.0.1.1, query-out-of-scope host=10.0.1.1, install | queries: \
       10.0.1.1 outcome=answered | settled: 10.0.1.1 outcome=answered";
    ]
    (story ~clients:2 ~policy:dst_only ~silent_flows:0
       (fun _ network controller hosts ->
         let target = hosts.(0) in
         serve controller target;
         Identxx.Daemon.register_runtime
           (Identxx.Host.daemon target)
           ~flow:
             (Five_tuple.tcp ~src:(Identxx.Host.ip hosts.(1))
                ~dst:(Identxx.Host.ip target) ~src_port:1 ~dst_port:80)
           [ Identxx.Key_value.pair "request" "clicked" ];
         ignore (open_flow network hosts.(1) ~target);
         ignore (open_flow network hosts.(2) ~target)))

let test_stale_answer_settles_nothing () =
  (* An answer naming a flow whose exchange with the host already
     settled must not settle the next exchange with that host, whether
     the named flow is still pending on its other end or decided: it
     changes nothing, and the new exchange's waiters decide on their
     own answer. Pairing by position would hand them the forged
     attributes. *)
  let engine, network, controller, hosts = target_net ~clients:4 () in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[name], app) with eq(@dst[clearance], top)";
  let target = hosts.(0) in
  (* A signing target: flows to it share exchanges. *)
  ignore (Deploy.sign_host controller target);
  (* The target answers [stale] at once; its silent source keeps it
     pending until the 5 ms timeout. *)
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon hosts.(1))
    Identxx.Daemon.Silent;
  let stale = open_flow network hosts.(1) ~target in
  let new_exchange_at ms clients =
    Sim.Engine.schedule engine ~delay:(Sim.Time.ms ms) (fun () ->
        List.iter
          (fun i -> ignore (open_flow network hosts.(i) ~target))
          clients;
        Sim.Engine.schedule engine ~delay:(Sim.Time.us 1) (fun () ->
            forge network ~target stale [ ("clearance", "top") ]))
  in
  new_exchange_at 1 [ 2; 3 ];
  new_exchange_at 10 [ 4 ];
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "one coalesced waiter" 1 (C.coalesced_queries controller);
  check Alcotest.int "no flow passed on the forged answer" 0 st.C.allowed;
  check Alcotest.int "all four blocked" 4 st.C.blocked;
  check Alcotest.int "only the silent source timed out" 1
    st.C.query_timeouts;
  check Alcotest.int "nothing pending" 0 (C.pending_count controller)

let test_rejected_answer_settles_nothing () =
  (* With signatures required, an unsigned answer naming the initiator
     is ignored: it settles nothing, and the genuine signed answer that
     follows decides every waiter on the real attributes. *)
  let engine, network, controller, hosts =
    target_net ~require_signed:true ~clients:3 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let target = hosts.(0) in
  let key = Idcrypto.Sign.generate "target-host" in
  Idcrypto.Sign.register (C.keystore controller) key;
  Identxx.Host.set_signing_key target (Some key);
  let srv = Identxx.Host.run target ~user:"www" ~exe:"/bin/srv" () in
  Identxx.Host.listen target ~proc:srv ~port:80 ();
  let initiator = open_flow network hosts.(1) ~target in
  ignore (open_flow network hosts.(2) ~target);
  ignore (open_flow network hosts.(3) ~target);
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 1) (fun () ->
      forge network ~target initiator [ ("name", "evil") ]);
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "one wire exchange" 1 (C.wire_exchanges controller);
  check Alcotest.int "forgery rejected" 1 st.C.responses_rejected;
  check Alcotest.int "genuine answer accepted" 1 st.C.responses_received;
  check Alcotest.int "every waiter passed on the genuine answer" 3
    st.C.allowed;
  check Alcotest.int "no timeouts" 0 st.C.query_timeouts;
  check Alcotest.int "nothing pending" 0 (C.pending_count controller)

let test_breaker_trip_propagates () =
  (* A breaker trip observed by a flow on one shard opens the host's
     breaker for the whole controller, which keeps one breaker: later
     flows on other shards decide immediately, without a query. *)
  let fp =
    {
      Fastpath.default_config with
      Fastpath.breaker_threshold = 1;
      breaker_backoff = Sim.Time.s 30;
    }
  in
  let config =
    {
      C.default_config with
      C.shards = Some (C.sharded 4);
      C.fastpath = fp;
    }
  in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:1 ~hosts_per_switch:6 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let target = hosts.(0) in
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon target)
    Identxx.Daemon.Silent;
  let start i =
    let h = hosts.(i) in
    let proc = Identxx.Host.run h ~user:"u" ~exe:"/bin/app" () in
    let flow =
      Identxx.Host.connect h ~proc ~dst:(Identxx.Host.ip target) ~dst_port:80
        ()
    in
    Net.send_from_host network ~name:(Identxx.Host.name h)
      (Identxx.Host.first_packet h ~flow)
  in
  (* First flow: times out and trips the controller's breaker. *)
  start 1;
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "one query burned the timeout" 1 st.C.queries_sent;
  check Alcotest.int "one trip (not one per shard)" 1 st.C.breaker_trips;
  (* Every remaining flow — whatever shard its hash picks — sees the
     open breaker and decides without a wire query. *)
  for i = 2 to 5 do
    start i
  done;
  Sim.Engine.run engine;
  let st = C.stats controller in
  check Alcotest.int "no further queries" 1 st.C.queries_sent;
  check Alcotest.int "decided via the propagated trip" 4
    st.C.breaker_fastpaths;
  check Alcotest.int "still one trip" 1 st.C.breaker_trips;
  check Alcotest.int "all five flows decided" 5 (st.C.allowed + st.C.blocked)

(* [flows] flows in turn from one client process to host 0's port 80,
   each run to its verdict before the next starts, on a controller with
   [shards] shards and the default fast path (its breaker trips at 3
   timeouts). [silent] silences host 0. Each flow takes the client's
   next ephemeral port, so the flows hash onto several shards. Returns
   the controller's stats and how many distinct shards the flows landed
   on. *)
let flows_in_turn ?(silent = false) ~policy ~flows shards =
  let config =
    {
      C.default_config with
      C.shards = Some (C.sharded shards);
      C.fastpath = Fastpath.default_config;
    }
  in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:1 ~hosts_per_switch:2 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00" policy;
  let target = hosts.(0) and client = hosts.(1) in
  if silent then
    Identxx.Daemon.set_behaviour
      (Identxx.Host.daemon target)
      Identxx.Daemon.Silent;
  let proc = Identxx.Host.run client ~user:"u" ~exe:"/bin/app" () in
  let used = Hashtbl.create 8 in
  for _ = 1 to flows do
    let flow =
      Identxx.Host.connect client ~proc ~dst:(Identxx.Host.ip target)
        ~dst_port:80 ()
    in
    Hashtbl.replace used (Five_tuple.hash flow mod shards) ();
    Net.send_from_host network ~name:(Identxx.Host.name client)
      (Identxx.Host.first_packet client ~flow);
    Sim.Engine.run engine
  done;
  check Alcotest.int "nothing pending" 0 (C.pending_count controller);
  (C.stats controller, Hashtbl.length used)

(* The breaker is the controller's: [breaker_threshold] silent queries
   trip it whatever the shard count, and every later flow, on any
   shard, decides at once with the target absent. *)
let test_breaker_threshold_shard_invariant () =
  List.iter
    (fun shards ->
      let st, used =
        flows_in_turn ~silent:true
          ~policy:"block all
pass all with eq(@dst[name], srv)" ~flows:11
          shards
      in
      let what s = Printf.sprintf "%s (%d shards)" s shards in
      if shards > 1 then
        check Alcotest.bool (what "flows on several shards") true (used > 1);
      check Alcotest.int (what "three wire queries") 3 st.C.queries_sent;
      check Alcotest.int (what "one trip") 1 st.C.breaker_trips;
      check Alcotest.int (what "eight breaker fast paths") 8
        st.C.breaker_fastpaths;
      check Alcotest.int (what "all eleven decided") 11
        (st.C.allowed + st.C.blocked))
    [ 1; 2; 4; 8 ]

(* The decision cache is the controller's: a verdict cached by the
   first flow serves the next flows of the same class whatever shard
   each hashes to. *)
let test_decision_cache_shard_invariant () =
  List.iter
    (fun shards ->
      let st, used =
        flows_in_turn
          ~policy:"block all
pass all with eq(@src[name], app)" ~flows:16
          shards
      in
      let what s = Printf.sprintf "%s (%d shards)" s shards in
      if shards > 1 then
        check Alcotest.bool (what "flows on several shards") true (used > 1);
      check Alcotest.int (what "one miss") 1 st.C.decision_cache_misses;
      check Alcotest.int (what "fifteen hits") 15 st.C.decision_cache_hits;
      check Alcotest.int (what "all sixteen pass") 16 st.C.allowed)
    [ 1; 2; 4; 8 ]

(* A listener's settled answer is the controller's, not one shard's:
   settled by a flow on one shard, it serves a later flow to the same
   socket that the other shard owns. *)
let test_settled_answer_crosses_shards () =
  let config =
    {
      C.default_config with
      C.shards = Some (C.sharded 2);
      C.fastpath = Fastpath.default_config;
    }
  in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:1 ~hosts_per_switch:3 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let target = hosts.(0) in
  serve controller target;
  let procs =
    Array.map (fun h -> Identxx.Host.run h ~user:"u" ~exe:"/bin/app" ()) hosts
  in
  (* Client [i]'s flow to the listener, from the first source port that
     puts it on shard [sid]. *)
  let start i ~sid =
    let flow src_port =
      Five_tuple.tcp ~src:(Identxx.Host.ip hosts.(i))
        ~dst:(Identxx.Host.ip target) ~src_port ~dst_port:80
    in
    let src_port =
      List.find
        (fun port -> Five_tuple.hash (flow port) mod 2 = sid)
        (List.init 16 (fun k -> 40000 + k))
    in
    let flow =
      Identxx.Host.connect hosts.(i) ~proc:procs.(i)
        ~dst:(Identxx.Host.ip target) ~src_port ~dst_port:80 ()
    in
    Net.send_from_host network ~name:(Identxx.Host.name hosts.(i))
      (Identxx.Host.first_packet hosts.(i) ~flow);
    Sim.Engine.run engine
  in
  start 1 ~sid:0;
  start 2 ~sid:1;
  let st = C.stats controller in
  check Alcotest.int "the listener answered once" 1
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon target));
  check Alcotest.int "the second flow reused its answer" 1
    st.C.attr_cache_hits;
  check Alcotest.int "both flows pass" 2 st.C.allowed

(* Every sink sees the same lifecycle. On the burst with the fast path
   on and the target silenced, traced and recorded, the flight
   recorder's counts of each lifecycle point agree with the registry's
   counters, the finished root spans and the audit log. *)
let test_sinks_agree () =
  let spans = Obs.Span.create ~enabled:true () in
  let recorder = Obs.Recorder.create ~enabled:true () in
  let c, _ =
    run_burst ~spans ~recorder ~fastpath:Fastpath.default_config ~silent:true
      ~shards:None ()
  in
  let st = C.stats c in
  let recorded kind =
    List.length
      (List.filter
         (fun e -> e.Obs.Recorder.ev_kind = kind)
         (Obs.Recorder.events recorder))
  in
  let roots = Obs.Span.finished spans in
  let span_installs =
    List.length
      (List.filter
         (fun root ->
           List.exists
             (fun (_, name, _) -> name = "install" || name = "install-drop")
             (Obs.Span.events root))
         roots)
  in
  check Alcotest.int "every flow reached the controller" 15 st.C.flows_seen;
  check Alcotest.int "every root span kept" (Obs.Span.count spans)
    (List.length roots);
  check Alcotest.int "packet-in = flows counted" st.C.flows_seen
    (recorded "packet-in");
  check Alcotest.int "packet-in = finished roots" (Obs.Span.count spans)
    (recorded "packet-in");
  check Alcotest.int "query-sent = queries counted" st.C.queries_sent
    (recorded "query-sent");
  check Alcotest.int "decision = verdicts counted"
    (st.C.allowed + st.C.blocked)
    (recorded "decision");
  check Alcotest.int "decision = audit entries" (Audit.count (C.audit c))
    (recorded "decision");
  check Alcotest.int "install = installs the spans show" span_installs
    (recorded "install");
  check Alcotest.int "every flow installed" 15 (recorded "install")

(* A warm fast-path setup on two coalescing shards, the configuration
   hot-host-burst runs: the destination's answer comes from the
   attribute cache and the verdict from the decision cache, so each
   table miss costs the engine's post and drain, the decision, and the
   batched install and release, with no query. Entries expire after a
   microsecond, so every re-sent first packet is a fresh table miss.
   Metrics recording is off so the gate prices the setup, not the
   registry. The policy reads only the destination, a listener whose
   signed answer holds for every flow to its port (a source's answer is
   never cached). Measured: 136 minor words per setup with the audit
   log a ring of columns that a record writes in place; 153 with each
   reactive match sharing its hosts' exact prefixes, a path walked
   with no closure, the pending table probed in place and a single
   buffered packet released without reversing the list; 171 before
   that, once later changes had taken words off the 283 this gate
   first read; 283 with typed
   simulator events and shard messages (frames, packet-ins, control
   batches and posts as data, the packet-in's flow key built once);
   323 while each was a closure; 559 with one pending
   table, fast-path view and metrics record per controller instead of
   one per shard; 560 once five-tuple hashing and the ident++ codec
   stopped allocating copies; 635 with
   [Response.latest] allocating nothing on a miss (about 31 of those
   words) and the fast-path lookup a top-level function instead of a
   per-flow closure (about 10); 676 with the audit log keeping the
   matched rule instead of printing it and building each summary in
   one pass; 865 before that, the same as while the
   policy read only the source, its answer cached under the flow's
   5-tuple; 982 while both ends were answered from the cache, the
   decision key holding only the flow class and the one value the
   policy reads; 1464 while the key embedded both answers' full wire
   encodings (tagged once by the attribute cache); 1645 while, besides, the
   engine built a drain closure per post, the batcher regrouped its
   messages at every flush and the simulator boxed the heap's minimum
   on every read. The budget is the 136 plus 5%, so that the figure
   cannot creep back. *)
let test_warm_fastpath_alloc () =
  let config =
    {
      C.default_config with
      C.entry_idle_timeout = Some (Sim.Time.us 1);
      C.require_signed_responses = true;
      C.fastpath = Fastpath.default_config;
      C.shards = Some (C.sharded 2);
    }
  in
  let s = Deploy.simple_network ~config () in
  Obs.Registry.set_enabled (C.metrics s.Deploy.controller) false;
  Policy_store.add_exn (C.policy s.Deploy.controller) ~name:"00"
    "block all\npass all with eq(@dst[name], srv)";
  let client = s.Deploy.client and server = s.Deploy.server in
  List.iter
    (fun host -> ignore (Deploy.sign_host s.Deploy.controller host))
    [ client; server ];
  let www = Identxx.Host.run server ~user:"www" ~exe:"/bin/srv" () in
  Identxx.Host.listen server ~proc:www ~port:80 ();
  let proc = Identxx.Host.run client ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect client ~proc ~dst:(Identxx.Host.ip server)
      ~dst_port:80 ()
  in
  let pkt = Identxx.Host.first_packet client ~flow in
  let setup () =
    Net.send_from_host s.Deploy.network ~name:"client" pkt;
    Sim.Engine.run s.Deploy.engine
  in
  for _ = 1 to 10 do
    setup ()
  done;
  let rounds = 200 in
  (* The registry is off: count cache hits and daemon answers instead. *)
  let hits () = (C.stats s.Deploy.controller).C.decision_cache_hits in
  let answered () =
    Identxx.Daemon.queries_answered (Identxx.Host.daemon client)
    + Identxx.Daemon.queries_answered (Identxx.Host.daemon server)
  in
  let hits0 = hits () and answered0 = answered ()
  and delivered0 = Net.delivered s.Deploy.network in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    setup ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  check Alcotest.int "every round a decision-cache hit" rounds (hits () - hits0);
  check Alcotest.int "no daemon asked" answered0 (answered ());
  check Alcotest.int "the first packet delivered each round" rounds
    (Net.delivered s.Deploy.network - delivered0);
  if words > 143.0 then
    Alcotest.failf "%.0f minor words per warm setup" words

let () =
  Alcotest.run "shard"
    [
      ( "engine",
        [
          Alcotest.test_case "global post order" `Quick test_engine_post_order;
          Alcotest.test_case "makespan regimes" `Quick test_engine_makespan;
          Alcotest.test_case "cross-shard posts counted" `Quick
            test_engine_cross_posts;
          Alcotest.test_case "post_after timers" `Quick test_engine_post_after;
        ] );
      ( "batch",
        [
          Alcotest.test_case "grouped ordered flush" `Quick test_batch_ordering;
          Alcotest.test_case "whole arrays" `Quick test_batch_whole_arrays;
        ] );
      ( "controller",
        [
          Alcotest.test_case "None is one shard" `Quick test_none_is_one_shard;
          Alcotest.test_case "determinism oracle (1/2/8 shards)" `Quick
            test_determinism_oracle;
          QCheck_alcotest.to_alcotest prop_pairing_oracle;
          Alcotest.test_case "span-drop attribution invariant (1/2/8 shards)"
            `Quick test_span_drop_invariance;
          Alcotest.test_case "query coalescing" `Quick test_coalescing;
          Alcotest.test_case "uncovered waiter asks for itself" `Quick
            test_uncovered_waiter_asks_itself;
          Alcotest.test_case "unsigned target is not joined" `Quick
            test_unsigned_target_not_joined;
          Alcotest.test_case "failure fails all waiters" `Quick
            test_fail_all_waiters;
          Alcotest.test_case "a joined failure counts a flow once" `Quick
            test_joined_failure_counts_once;
          Alcotest.test_case "settle vocabulary" `Quick test_settle_vocabulary;
          Alcotest.test_case "stale answer settles nothing" `Quick
            test_stale_answer_settles_nothing;
          Alcotest.test_case "rejected answer settles nothing" `Quick
            test_rejected_answer_settles_nothing;
          Alcotest.test_case "breaker trip propagates" `Quick
            test_breaker_trip_propagates;
          Alcotest.test_case "a settled answer serves every shard" `Quick
            test_settled_answer_crosses_shards;
          Alcotest.test_case "breaker threshold (1/2/4/8 shards)" `Quick
            test_breaker_threshold_shard_invariant;
          Alcotest.test_case "a cached verdict serves every shard" `Quick
            test_decision_cache_shard_invariant;
          Alcotest.test_case "warm fast-path allocation (2 shards)" `Quick
            test_warm_fastpath_alloc;
          Alcotest.test_case "every sink sees the same lifecycle" `Quick
            test_sinks_agree;
        ] );
    ]
