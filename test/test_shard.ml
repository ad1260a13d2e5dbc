(* The sharded flow-setup engine: the lib/shard building blocks in
   isolation (run-queue engine, connection table, install batcher) and
   the controller integration — above all the determinism oracle: with
   zero service time, the same seed scenario must produce a
   byte-identical audit trail and identical aggregated counters under
   any shard count. *)

open Netcore
module Net = Openflow.Network
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module Policy_store = Identxx_core.Policy_store
module Audit = Identxx_core.Audit

let check = Alcotest.check
let ip = Ipv4.of_string

(* --- Shard.Engine unit tests --- *)

let test_engine_post_order () =
  let e = Sim.Engine.create () in
  let d = Shard.Engine.create ~shards:3 e in
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
  let d1 = Shard.Engine.create ~service:(ms 1) ~shards:1 e1 in
  for _ = 1 to 4 do
    Shard.Engine.post d1 ~shard:0 ignore
  done;
  Sim.Engine.run e1;
  check Alcotest.bool "serial makespan 4ms" true
    (Sim.Time.compare (Shard.Engine.makespan d1) (ms 4) = 0);
  (* Two shards, two messages each: parallel simulated time, 2 ms. *)
  let e2 = Sim.Engine.create () in
  let d2 = Shard.Engine.create ~service:(ms 1) ~shards:2 e2 in
  List.iter (fun s -> Shard.Engine.post d2 ~shard:s ignore) [ 0; 1; 0; 1 ];
  Sim.Engine.run e2;
  check Alcotest.bool "parallel makespan 2ms" true
    (Sim.Time.compare (Shard.Engine.makespan d2) (ms 2) = 0)

let test_engine_broadcast_and_cross () =
  let e = Sim.Engine.create () in
  let d = Shard.Engine.create ~shards:3 e in
  let seen = ref [] in
  (* Broadcast from inside shard 1: delivered synchronously in shard
     order; the two foreign deliveries count as cross-shard traffic. *)
  Shard.Engine.post d ~shard:1 (fun () ->
      Shard.Engine.broadcast d (fun sid -> seen := sid :: !seen));
  Sim.Engine.run e;
  check Alcotest.(list int) "shard order" [ 0; 1; 2 ] (List.rev !seen);
  check Alcotest.int "two foreign deliveries" 2 (Shard.Engine.cross_messages d)

let test_engine_post_after () =
  let e = Sim.Engine.create () in
  let d = Shard.Engine.create ~shards:2 e in
  let fired = ref 0 in
  let _keep =
    Shard.Engine.post_after d ~shard:1 ~delay:(Sim.Time.ms 5) (fun () ->
        incr fired)
  in
  let cancel =
    Shard.Engine.post_after d ~shard:1 ~delay:(Sim.Time.ms 6) (fun () ->
        incr fired)
  in
  Sim.Engine.cancel cancel;
  Sim.Engine.run e;
  check Alcotest.int "timer posted once, cancel held" 1 !fired

(* --- Shard.Conn_table unit tests --- *)

let test_conn_join_settle () =
  let t = Shard.Conn_table.create () in
  let h = ip "10.0.0.1" in
  check Alcotest.bool "first starts the exchange" true
    (Shard.Conn_table.join t ~host:h ~shape:"name,userID" "w1" = `First);
  check Alcotest.bool "second coalesces" true
    (Shard.Conn_table.join t ~host:h ~shape:"name,userID" "w2"
    = `Coalesced 2);
  check Alcotest.bool "different shape starts its own" true
    (Shard.Conn_table.join t ~host:h ~shape:"name" "w3" = `First);
  check Alcotest.int "two exchanges in flight" 2
    (Shard.Conn_table.in_flight t);
  check Alcotest.int "three waiters parked" 3 (Shard.Conn_table.waiters t);
  check
    Alcotest.(list string)
    "settle returns join order" [ "w1"; "w2" ]
    (Shard.Conn_table.settle t ~host:h ~shape:"name,userID");
  check
    Alcotest.(list string)
    "settled exchange is gone" []
    (Shard.Conn_table.settle t ~host:h ~shape:"name,userID");
  check Alcotest.int "wire exchanges" 2 (Shard.Conn_table.started t);
  check Alcotest.int "coalesced joins" 1 (Shard.Conn_table.coalesced t)

(* --- Shard.Batch unit tests --- *)

let stats_req xid = Openflow.Message.Stats_request { xid }

let xid_of = function
  | Openflow.Message.Stats_request { xid } -> xid
  | _ -> -1

let test_batch_ordering () =
  let e = Sim.Engine.create () in
  let sent = ref [] in
  let b =
    Shard.Batch.create ~engine:e
      ~send:(fun dpid msg -> sent := (dpid, xid_of msg) :: !sent)
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
  check Alcotest.int "one pass" 1 (Shard.Batch.flushes b);
  check Alcotest.int "four messages through" 4 (Shard.Batch.batched b);
  (* A later tick batches afresh. *)
  Shard.Batch.add b 1 (stats_req 5);
  Sim.Engine.run e;
  check Alcotest.int "second pass" 2 (Shard.Batch.flushes b);
  check Alcotest.int "five total" 5 (Shard.Batch.batched b)

(* --- controller integration --- *)

(* The netsim burst scenario, inline: 16 hosts on a 4-switch chain,
   every host but the first opening a flow to host 0 at t = 0. *)
let run_burst ?obs ?spans ~shards () =
  let config = { C.default_config with C.shards } in
  let engine, network, controller, hosts =
    Deploy.linear_network ?obs ?spans ~config ~switches:4 ~hosts_per_switch:4
      ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[name], app) keep state";
  let target = hosts.(0) in
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

(* Run the burst under each shard configuration and require every run
   to match the first: byte-identical audit trail, identical aggregated
   stats, identical delivery counts, nothing left pending. *)
let burst_oracle configs =
  let runs =
    List.map
      (fun shards ->
        let c, net = run_burst ~shards () in
        ( Format.asprintf "%a" Audit.pp (C.audit c),
          C.stats c,
          (Net.delivered net, Net.dropped net, Net.packet_ins net),
          C.pending_count c ))
      configs
  in
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
  s0

let test_determinism_oracle () =
  (* Same scenario under 1, 2 and 8 coalescing shards. *)
  ignore
    (burst_oracle (List.map (fun n -> Some (C.sharded n)) [ 1; 2; 8 ]))

let test_pairing_oracle () =
  (* Without coalescing, every flow queries both ends itself, and every
     client's first ephemeral port is the same: 15 answers from the hot
     host name the same ports and differ only in the client address.
     Pairing by the named flow delivers each to its own flow, so the
     unsharded path and 1, 2 or 8 shards agree, and no flow decides
     with its destination end absent. *)
  let st =
    burst_oracle
      (None
      :: List.map (fun n -> Some (C.sharded ~coalesce:false n)) [ 1; 2; 8 ])
  in
  check Alcotest.int "every answer paired" 30 st.C.responses_received;
  check Alcotest.int "no timeouts" 0 st.C.query_timeouts

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
      (* Lazy trim may briefly hold cap + cap/4; every finished root is
         either retained or counted dropped. *)
      check Alcotest.int "all 15 roots accounted for" 15 (c1 + k1);
      check Alcotest.int "retained invariant 1 vs 2" k1 k2;
      check Alcotest.int "retained invariant 1 vs 8" k1 k8
  | _ -> assert false

(* One switch, a target host 0 and clients 1..n, on two coalescing
   shards: concurrent flows to the target share one wire exchange with
   it. By default only the target is queried. *)
let target_net ?(require_signed = false) ?(targets = C.Dst_only) ~clients () =
  let config =
    {
      C.default_config with
      C.shards = Some (C.sharded 2);
      C.query_targets = targets;
      C.require_signed_responses = require_signed;
    }
  in
  Deploy.linear_network ~config ~switches:1 ~hosts_per_switch:(clients + 1) ()

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
  Policy_store.add_exn (C.policy controller) ~name:"00" "pass all";
  let target = hosts.(0) in
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

let test_stale_answer_settles_nothing () =
  (* An answer naming a flow whose exchange with the host already
     settled must not settle the next exchange with that host, whether
     the named flow is still pending on its other end or decided: it
     changes nothing, and the new exchange's waiters decide on their
     own answer. Pairing by position would hand them the forged
     attributes. *)
  let engine, network, controller, hosts =
    target_net ~targets:C.Both ~clients:4 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@dst[clearance], top)";
  let target = hosts.(0) in
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
  (* A breaker trip observed by one shard must open the host's breaker
     in every shard's fast-path view (via Shard.Engine.broadcast):
     later flows on other shards decide immediately, without a query. *)
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
      C.query_targets = C.Dst_only;
      C.fastpath = fp;
    }
  in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:1 ~hosts_per_switch:6 ()
  in
  Policy_store.add_exn (C.policy controller) ~name:"00" "pass all";
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
  (* First flow: times out, trips the breaker on its shard; the trip is
     broadcast to the other three views. *)
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

let () =
  Alcotest.run "shard"
    [
      ( "engine",
        [
          Alcotest.test_case "global post order" `Quick test_engine_post_order;
          Alcotest.test_case "makespan regimes" `Quick test_engine_makespan;
          Alcotest.test_case "broadcast order and cross count" `Quick
            test_engine_broadcast_and_cross;
          Alcotest.test_case "post_after timers" `Quick test_engine_post_after;
        ] );
      ( "conn table",
        [
          Alcotest.test_case "join, coalesce, settle order" `Quick
            test_conn_join_settle;
        ] );
      ( "batch",
        [ Alcotest.test_case "grouped ordered flush" `Quick test_batch_ordering ] );
      ( "controller",
        [
          Alcotest.test_case "determinism oracle (1/2/8 shards)" `Quick
            test_determinism_oracle;
          Alcotest.test_case "pairing oracle (unsharded, 1/2/8 uncoalesced)"
            `Quick test_pairing_oracle;
          Alcotest.test_case "span-drop attribution invariant (1/2/8 shards)"
            `Quick test_span_drop_invariance;
          Alcotest.test_case "query coalescing" `Quick test_coalescing;
          Alcotest.test_case "failure fails all waiters" `Quick
            test_fail_all_waiters;
          Alcotest.test_case "stale answer settles nothing" `Quick
            test_stale_answer_settles_nothing;
          Alcotest.test_case "rejected answer settles nothing" `Quick
            test_rejected_answer_settles_nothing;
          Alcotest.test_case "breaker trip propagates" `Quick
            test_breaker_trip_propagates;
        ] );
    ]
