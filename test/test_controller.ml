(* Integration tests of the ident++ controller over the simulated
   OpenFlow fabric: the Figure-1 flow-setup sequence, policy caching,
   keep-state, interception, incremental deployment and failure
   injection. *)

open Netcore
module Net = Openflow.Network
module Topo = Openflow.Topology
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy

let ip = Ipv4.of_string

(* A policy that admits only flows whose source daemon names an approved
   application. *)
let app_policy apps =
  Printf.sprintf "allowed = \"{ %s }\"\nblock all\npass all with member(@src[name], $allowed)"
    (String.concat " " apps)

(* [app_policy] plus a rule that reads the destination's answer, so the
   controller asks both ends. The server runs nothing, so the rule never
   matches. *)
let both_ends_policy apps =
  app_policy apps ^ "\nblock all with eq(@dst[name], quarantined)"

let run_flow ?(dst_port = 80) (s : Deploy.simple) ~user ~exe =
  let proc = Identxx.Host.run s.client ~user ~exe () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port ()
  in
  let pkt = Identxx.Host.first_packet s.client ~flow in
  Net.send_from_host s.network ~name:"client" pkt;
  Sim.Engine.run s.engine;
  flow

let test_fig1_allowed_flow_delivered () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  let delivered_before = Net.delivered s.network in
  let _flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  let st = C.stats s.controller in
  Alcotest.(check int) "one flow seen" 1 st.C.flows_seen;
  Alcotest.(check int) "one allowed" 1 st.C.allowed;
  Alcotest.(check int) "none blocked" 0 st.C.blocked;
  (* The policy reads only the source's answer: the destination is not
     asked. *)
  Alcotest.(check int) "one query" 1 st.C.queries_sent;
  Alcotest.(check int) "one response" 1 st.C.responses_received;
  Alcotest.(check bool) "data packet delivered to server" true
    (Net.delivered s.network > delivered_before)

let test_fig1_blocked_flow_not_delivered () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  let _flow = run_flow s ~user:"mallory" ~exe:"/usr/bin/exfiltrator" in
  let st = C.stats s.controller in
  Alcotest.(check int) "one blocked" 1 st.C.blocked;
  Alcotest.(check int) "none allowed" 0 st.C.allowed;
  (* Only ident++ exchange packets were delivered to hosts; count the
     data packet as dropped. *)
  Alcotest.(check bool) "drop recorded" true (Net.dropped s.network >= 0)

let test_fig1_event_sequence () =
  (* The trace must show the Figure-1 order: client tx, packet-in,
     queries out, responses back, flow-mods, then server rx. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  Sim.Trace.set_enabled (Net.trace s.network) true;
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let entries = Sim.Trace.entries (Net.trace s.network) in
  let index_of pred =
    let rec go i = function
      | [] -> None
      | e :: rest -> if pred e then Some i else go (i + 1) rest
    in
    go 0 entries
  in
  let contains sub (e : Sim.Trace.entry) =
    let len_s = String.length sub and len_e = String.length e.event in
    let rec go i =
      i + len_s <= len_e && (String.sub e.event i len_s = sub || go (i + 1))
    in
    len_s <= len_e && go 0
  in
  let first_packet_in = index_of (fun e -> contains "packet-in" e) in
  let first_flow_mod = index_of (fun e -> contains "flow-mod" e) in
  (* The server's first rx is the ident++ query (Figure 1 step 3); the
     data packet is delivered last, on port 80. *)
  let server_rx =
    let rec last i best = function
      | [] -> best
      | e :: rest ->
          let best =
            if e.Sim.Trace.actor = "server" && contains "rx" e && contains ":80" e
            then Some i
            else best
          in
          last (i + 1) best rest
    in
    last 0 None entries
  in
  match (first_packet_in, first_flow_mod, server_rx) with
  | Some pi, Some fm, Some rx ->
      Alcotest.(check bool) "packet-in before flow-mod" true (pi < fm);
      Alcotest.(check bool) "flow-mod before server delivery" true (fm < rx)
  | _ -> Alcotest.fail "expected packet-in, flow-mod and server rx in trace"

let test_udp_flow_end_to_end () =
  (* UDP flows run the same pipeline: daemon identifies the sender and
     the listening service, policy decides, entries install. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass proto udp from any to any port 53 with eq(@dst[name], named)";
  let dproc = Identxx.Host.run s.server ~user:"bind" ~exe:"/usr/sbin/named" () in
  Identxx.Host.listen s.server ~proc:dproc ~port:53 ~proto:Proto.Udp ();
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/dig" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~proto:Proto.Udp ~dst_port:53 ()
  in
  let delivered_before = Net.delivered s.network in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "allowed" 1 (C.stats s.controller).C.allowed;
  Alcotest.(check bool) "datagram delivered" true
    (Net.delivered s.network > delivered_before);
  (* The same query to a TCP port is a different proto and is blocked. *)
  let flow2 =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~proto:Proto.Tcp ~dst_port:53 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow:flow2);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "tcp blocked by proto clause" 1
    (C.stats s.controller).C.blocked

let test_caching_second_packet_bypasses_controller () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  let st1 = C.stats s.controller in
  let packet_ins_before = Net.packet_ins s.network in
  (* Re-send a packet of the same flow: it must ride the installed entry. *)
  let pkt = Identxx.Host.first_packet s.client ~flow in
  Net.send_from_host s.network ~name:"client" pkt;
  Sim.Engine.run s.engine;
  let st2 = C.stats s.controller in
  Alcotest.(check int) "no new flow decisions" st1.C.flows_seen st2.C.flows_seen;
  Alcotest.(check int) "no new packet-ins" packet_ins_before
    (Net.packet_ins s.network)

let test_denial_caching () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  let flow = run_flow s ~user:"mallory" ~exe:"/usr/bin/worm" in
  let packet_ins_before = Net.packet_ins s.network in
  let pkt = Identxx.Host.first_packet s.client ~flow in
  Net.send_from_host s.network ~name:"client" pkt;
  Sim.Engine.run s.engine;
  Alcotest.(check int) "denied flow cached as drop entry" packet_ins_before
    (Net.packet_ins s.network)

let test_silent_daemon_fails_closed () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let st = C.stats s.controller in
  Alcotest.(check int) "flow blocked" 1 st.C.blocked;
  Alcotest.(check int) "timeout recorded" 1 st.C.query_timeouts

let test_late_response_after_timeout_is_harmless () =
  (* A response that arrives after the query timeout finds no pending
     flow: it is treated as transit traffic and forwarded, never
     revising the already-made (fail-closed) decision. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (app_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "timed out and blocked" 1 (C.stats s.controller).C.blocked;
  (* The "server's" answer finally limps in, long after the verdict. *)
  let late =
    Identxx.Wire.response_packet ~to_ip:(Identxx.Host.ip s.client)
      ~from_ip:(Identxx.Host.ip s.server) ~dst_port:49152
      (Identxx.Response.make ~flow
         [ [ Identxx.Key_value.pair "name" "firefox" ] ])
  in
  Net.send_from_host s.network ~name:"server" late;
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "decision unchanged" 1 st.C.blocked;
  Alcotest.(check int) "no retroactive allow" 0 st.C.allowed;
  Alcotest.(check int) "no pending resurrection" 0 (C.pending_count s.controller)

let test_lying_daemon_can_bypass_name_policy () =
  (* §5.3: a compromised end-host can send false responses; name-based
     policy alone cannot catch it (signatures can, see test_pf verify). *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon s.client)
    (Identxx.Daemon.Lying [ Identxx.Key_value.pair "name" "firefox" ]);
  ignore (run_flow s ~user:"mallory" ~exe:"/usr/bin/worm");
  let st = C.stats s.controller in
  Alcotest.(check int) "lying daemon admitted" 1 st.C.allowed

let test_keep_state_installs_reverse_path () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy"
    "block all\npass all with eq(@src[userID], alice) keep state";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  let packet_ins_before = Net.packet_ins s.network in
  (* The server's reply must pass without a new controller decision. *)
  let reply = Packet.of_five_tuple (Five_tuple.reverse flow) in
  Net.send_from_host s.network ~name:"server" reply;
  Sim.Engine.run s.engine;
  Alcotest.(check int) "reply bypassed controller" packet_ins_before
    (Net.packet_ins s.network);
  let st = C.stats s.controller in
  Alcotest.(check int) "still one decision" 1 st.C.flows_seen

let test_no_keep_state_reply_needs_decision () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" "block all\npass all with eq(@src[userID], alice)";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  (* Reply flow has server as source: alice isn't there, so blocked. *)
  let reply = Packet.of_five_tuple (Five_tuple.reverse flow) in
  Net.send_from_host s.network ~name:"server" reply;
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "reply was a separate decision" 2 st.C.flows_seen;
  Alcotest.(check int) "reply blocked" 1 st.C.blocked

(* PF matches state before the ruleset: a reply that keep state admits
   passes even where a quick block would drop it. The precompiled drop
   for "from any port 80" sits above the reverse entries keep state
   installs, so it must be withheld, with and without the proactive
   compiler. *)
let test_keep_state_reply_passes_quick_block () =
  List.iter
    (fun proactive ->
      let mode = if proactive then "proactive" else "reactive" in
      let s = Deploy.simple_network ~config:{ C.default_config with C.proactive } () in
      Identxx_core.Policy_store.add_exn (C.policy s.controller)
        ~name:"00-policy"
        "block quick from any port 80 to any\n\
         pass all with eq(@src[userID], alice) keep state";
      Sim.Engine.run s.engine;
      let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
      Alcotest.(check int) (mode ^ ": alice's flow passes") 1
        (C.stats s.controller).C.allowed;
      let delivered = Net.delivered s.network in
      Net.send_from_host s.network ~name:"server"
        (Packet.of_five_tuple (Five_tuple.reverse flow));
      Sim.Engine.run s.engine;
      Alcotest.(check int) (mode ^ ": the server's reply is delivered")
        (delivered + 1) (Net.delivered s.network))
    [ false; true ]

let test_query_targets_src_only () =
  (* The policy reads only the source's answer: the destination is not
     asked. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy" (app_policy [ "firefox" ]);
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let st = C.stats s.controller in
  Alcotest.(check int) "only one query" 1 st.C.queries_sent;
  Alcotest.(check int) "allowed" 1 st.C.allowed

(* Two users' apps on one client host, under a policy that tells the
   users apart: each flow must be decided on its own process's answer.
   [concurrent] opens both flows at the same instant, so their source
   queries are in flight together; otherwise mallory's flow starts once
   alice's has been decided. Both processes exist before either flow,
   so no change event separates the two. *)
let two_users ~config ~concurrent =
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@src[userID], alice)";
  List.iter
    (fun host -> ignore (Deploy.sign_host s.controller host))
    [ s.client; s.server ];
  let spawn user = Identxx.Host.run s.client ~user ~exe:"/usr/bin/firefox" () in
  let alice = spawn "alice" and mallory = spawn "mallory" in
  let start proc =
    let flow =
      Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
        ~dst_port:80 ()
    in
    Net.send_from_host s.network ~name:"client"
      (Identxx.Host.first_packet s.client ~flow);
    if not concurrent then Sim.Engine.run s.engine;
    flow
  in
  let fa = start alice in
  let fm = start mallory in
  Sim.Engine.run s.engine;
  let verdict flow =
    match
      List.find_opt
        (fun (e : Identxx_core.Audit.entry) -> Five_tuple.equal e.flow flow)
        (Identxx_core.Audit.entries (C.audit s.controller))
    with
    | Some e -> e.decision
    | None -> Alcotest.failf "%s undecided" (Five_tuple.to_string flow)
  in
  Alcotest.(check bool) "alice's flow passes" true (verdict fa = Pf.Ast.Pass);
  Alcotest.(check bool) "mallory's flow is blocked" true
    (verdict fm = Pf.Ast.Block)

let test_coalescing_keeps_users_apart () =
  two_users ~concurrent:true
    ~config:{ C.default_config with C.shards = Some (C.sharded 2) }

let test_attr_cache_keeps_users_apart () =
  two_users ~concurrent:false
    ~config:{ C.default_config with C.fastpath = Fastpath.default_config }

let test_local_answers_controller_only_deployment () =
  (* §4 Incremental Benefit: controllers implement ident++ but hosts
     don't — the controller answers from its own information. *)
  let s = Deploy.simple_network () in
  (* A policy that reads both ends, so both are asked; the controller
     knows its assets through its intercepts. *)
  let asset host =
    Printf.sprintf "\nintercept query to %s answer { name : inventory-db }"
      (Ipv4.to_string (Identxx.Host.ip host))
  in
  Identxx_core.Policy_store.add_exn (C.policy s.controller)
    ~name:"00-policy"
    (app_policy [ "inventory-db" ]
    ^ "\nblock all with eq(@dst[name], quarantined)"
    ^ asset s.client ^ asset s.server);
  (* Hosts' daemons are silent. *)
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  ignore (run_flow s ~user:"svc" ~exe:"/opt/inventory-db");
  let st = C.stats s.controller in
  Alcotest.(check int) "no wire queries" 0 st.C.queries_sent;
  Alcotest.(check int) "answered locally" 2 st.C.queries_answered_locally;
  Alcotest.(check int) "allowed" 1 st.C.allowed

let test_policy_hot_reload () =
  let s = Deploy.simple_network () in
  let policy = C.policy s.controller in
  Identxx_core.Policy_store.add_exn policy ~name:"00-policy"
    (app_policy [ "firefox" ]);
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/curl");
  Alcotest.(check int) "curl blocked" 1 (C.stats s.controller).C.blocked;
  (* Administrator adds curl to the approved list; new flows pass. *)
  Identxx_core.Policy_store.add_exn policy ~name:"00-policy"
    (app_policy [ "firefox"; "curl" ]);
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/curl" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:8080 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "curl now allowed" 1 (C.stats s.controller).C.allowed

(* A rule may name a table that a later file defines. Added one file at
   a time in name order, the first file is refused, as a single-file
   edit that breaks the policy always is; the whole set goes in as one
   revision, and the controller enforces it. *)
let test_set_installs_a_forward_reference () =
  let s = Deploy.simple_network () in
  let policy = C.policy s.controller in
  let module PS = Identxx_core.Policy_store in
  PS.add_exn policy ~name:"00.control" "block all";
  let files =
    [
      ("00.control", "block all");
      ("a.control", "pass from <t> to any");
      ("b.control", "table <t> { 10.0.0.0/8 }");
    ]
  in
  Alcotest.(check (result unit string)) "a.control alone"
    (Error "a.control: line 1: unknown table <t>")
    (PS.add policy ~name:"a.control" "pass from <t> to any");
  Alcotest.(check int) "refused: the epoch stays" 1 PS.(Revision.epoch (current policy));
  Alcotest.(check (result unit string)) "the set" (Ok ()) (PS.set policy files);
  Alcotest.(check int) "one revision" 2 PS.(Revision.epoch (current policy));
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let st = C.stats s.controller in
  Alcotest.(check int) "the 10.x flow passes" 1 st.C.allowed;
  Alcotest.(check int) "none blocked" 0 st.C.blocked

let test_non_ip_packets_dropped () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" "pass all";
  let arp =
    {
      Packet.eth_src = Mac.of_int 1;
      eth_dst = Mac.broadcast;
      vlan = Vlan.untagged;
      eth_payload = Packet.Raw_eth (Ethertype.Arp, "who-has");
    }
  in
  let dropped_before = Net.dropped s.network in
  Net.send_from_host s.network ~name:"client" arp;
  Sim.Engine.run s.engine;
  (* The packet-in reaches the controller, which ignores non-IP; the
     frame goes nowhere. *)
  Alcotest.(check int) "no decisions" 0 (C.stats s.controller).C.flows_seen;
  Alcotest.(check bool) "not delivered anywhere" true
    (Net.delivered s.network = 0 && Net.dropped s.network >= dropped_before)

let test_flow_to_unknown_destination_blocked () =
  (* A pass verdict toward an address outside the topology cannot be
     routed: no entries install and the buffered packet is never
     released. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" "pass all";
  let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(ip "203.0.113.7") ~dst_port:80 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "decision happened" 1 (C.stats s.controller).C.allowed;
  (* [pass all] reads no answer, so no host was asked, and the data
     packet had nowhere to go. *)
  Alcotest.(check int) "nothing delivered" 0 (Net.delivered s.network)

let test_pipeline_agrees_with_pure_decision () =
  (* The networked pipeline (queries over the fabric, responses
     reassembled at the controller) must decide exactly like the pure
     Decision engine fed the daemons' direct answers. *)
  let policy_text =
    "allowed = \"{ firefox ssh }\"\n\
     block all\n\
     pass from any to any port 22 with member(@src[name], $allowed)\n\
     pass from any to any port 80 with eq(@src[name], firefox) with \
     gte(@src[version], 100)\n\
     block from any to any port 80 with eq(@src[userID], guest)"
  in
  let prng = Sim.Prng.create 4242 in
  let apps = [| "firefox"; "ssh"; "worm" |] in
  let users = [| "alice"; "guest" |] in
  for case = 0 to 19 do
    let app = Sim.Prng.pick prng apps in
    let user = Sim.Prng.pick prng users in
    let version = 50 + Sim.Prng.int prng 200 in
    let dst_port = if Sim.Prng.bool prng then 22 else 80 in
    (* Networked run. *)
    let s = Deploy.simple_network () in
    Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
      policy_text;
    let exe = "/usr/bin/" ^ app in
    (match
       Identxx.Daemon.load_config (Identxx.Host.daemon s.client) ~name:"10"
         (Printf.sprintf "@app %s {\nname : %s\nversion : %d\n}" exe app version)
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    let proc = Identxx.Host.run s.client ~user ~exe () in
    let flow =
      Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
        ~dst_port ()
    in
    Net.send_from_host s.network ~name:"client"
      (Identxx.Host.first_packet s.client ~flow);
    Sim.Engine.run s.engine;
    let networked = (C.stats s.controller).C.allowed = 1 in
    (* Pure run over the daemons' direct answers. *)
    let answer host ~peer =
      Option.map fst
        (Identxx.Daemon.answer (Identxx.Host.daemon host) ~peer
           ~proto:flow.Five_tuple.proto ~src_port:flow.Five_tuple.src_port
           ~dst_port:flow.Five_tuple.dst_port ~keys:[])
    in
    let input =
      {
        Identxx_core.Decision.flow;
        src_response = answer s.client ~peer:(Identxx.Host.ip s.server);
        dst_response = answer s.server ~peer:(Identxx.Host.ip s.client);
      }
    in
    let pure = Identxx_core.Decision.allows (C.decision s.controller) input in
    Alcotest.(check bool)
      (Printf.sprintf "case %d (%s/%s v%d :%d)" case app user version dst_port)
      pure networked
  done

(* --- multi-switch path installation --- *)

let test_entries_installed_along_path () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~switches:3 ~hosts_per_switch:1 ()
  in
  Identxx_core.Policy_store.add_exn (C.policy controller) ~name:"00-policy"
    "pass all";
  let h1 = hosts.(0) and h3 = hosts.(2) in
  let proc = Identxx.Host.run h1 ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect h1 ~proc ~dst:(Identxx.Host.ip h3) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:(Identxx.Host.name h1)
    (Identxx.Host.first_packet h1 ~flow);
  Sim.Engine.run engine;
  (* Every switch on the path holds an entry for the flow. *)
  List.iter
    (fun dpid ->
      let table = Openflow.Switch.table (Net.switch network dpid) in
      Alcotest.(check bool)
        (Printf.sprintf "switch %d has an entry" dpid)
        true
        (Openflow.Flow_table.size table > 0))
    [ 1; 2; 3 ];
  (* And only the first switch took a packet-in for the data flow. *)
  let st = C.stats controller in
  Alcotest.(check int) "one flow decision" 1 st.C.flows_seen

(* --- interception across domains (§3.4 / §4 network collaboration) --- *)

let two_domain_network () =
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Topo.add_switch topology 2;
  Topo.add_host topology "hA";
  Topo.add_host topology "hB";
  Topo.link topology (Topo.Host "hA", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "hB", 0) (Topo.Sw 2, 1);
  Topo.link topology (Topo.Sw 1, 2) (Topo.Sw 2, 2);
  let network = Net.create ~engine ~topology () in
  let cA = C.create ~network ~id:0 () in
  let cB = C.create ~network ~id:1 () in
  Net.assign_switch network 1 0;
  Net.assign_switch network 2 1;
  let hA =
    Identxx.Host.create ~name:"hA" ~mac:(Mac.of_int 1) ~ip:(ip "10.0.1.1") ()
  in
  let hB =
    Identxx.Host.create ~name:"hB" ~mac:(Mac.of_int 2) ~ip:(ip "10.0.2.1") ()
  in
  Deploy.attach_host network hA;
  Deploy.attach_host network hB;
  (engine, network, cA, cB, hA, hB)

let test_three_domain_transit_chain () =
  (* A response crossing TWO transit domains gets augmented by each
     (hop-by-hop forwarding, §3.4), and the querying controller sees
     both sections. *)
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  List.iter (Topo.add_switch topology) [ 1; 2; 3 ];
  List.iter (Topo.add_host topology) [ "hA"; "hC" ];
  Topo.link topology (Topo.Host "hA", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "hC", 0) (Topo.Sw 3, 1);
  Topo.link topology (Topo.Sw 1, 2) (Topo.Sw 2, 2);
  Topo.link topology (Topo.Sw 2, 3) (Topo.Sw 3, 3);
  let network = Net.create ~engine ~topology () in
  let cA = C.create ~network ~id:0 () in
  let cB = C.create ~network ~id:1 () in
  let cC = C.create ~network ~id:2 () in
  Net.assign_switch network 1 0;
  Net.assign_switch network 2 1;
  Net.assign_switch network 3 2;
  (* hC's response toward hA packet-ins at s3 first (domain C), then at
     s2 (domain B); each controller appends its tag, so the querying
     controller reads the concatenation in transit order: "C,B". *)
  Identxx_core.Policy_store.add_exn (C.policy cA) ~name:"00"
    "block all\npass all with eq(*@dst[hop], \"C,B\")";
  Identxx_core.Policy_store.add_exn (C.policy cB) ~name:"00"
    "pass all\nintercept response to any augment { hop : B }";
  Identxx_core.Policy_store.add_exn (C.policy cC) ~name:"00"
    "pass all\nintercept response to any augment { hop : C }";
  let hA = Identxx.Host.create ~name:"hA" ~mac:(Mac.of_int 1) ~ip:(ip "10.0.1.1") () in
  let hC = Identxx.Host.create ~name:"hC" ~mac:(Mac.of_int 3) ~ip:(ip "10.0.3.1") () in
  List.iter (Deploy.attach_host network) [ hA; hC ];
  let proc = Identxx.Host.run hA ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect hA ~proc ~dst:(Identxx.Host.ip hC) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:"hA" (Identxx.Host.first_packet hA ~flow);
  Sim.Engine.run engine;
  Alcotest.(check int) "admitted via two transit augments" 1
    (C.stats cA).C.allowed;
  Alcotest.(check bool) "both transits augmented" true
    ((C.stats cB).C.responses_augmented >= 1
    && (C.stats cC).C.responses_augmented >= 1)

let test_interception_augments_response () =
  let engine, network, cA, cB, hA, hB = two_domain_network () in
  (* Domain A admits flows only when domain B vouches for them: B's
     controller augments transiting responses with a branch tag. *)
  Identxx_core.Policy_store.add_exn (C.policy cA) ~name:"00"
    "block all\npass all with eq(@dst[branch], B)";
  Identxx_core.Policy_store.add_exn (C.policy cB) ~name:"00"
    "pass all\nintercept response to any augment { branch : B }";
  let proc = Identxx.Host.run hA ~user:"u" ~exe:"/bin/app" () in
  let server_proc = Identxx.Host.run hB ~user:"svc" ~exe:"/bin/srv" () in
  Identxx.Host.listen hB ~proc:server_proc ~port:80 ();
  let flow =
    Identxx.Host.connect hA ~proc ~dst:(Identxx.Host.ip hB) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:"hA" (Identxx.Host.first_packet hA ~flow);
  Sim.Engine.run engine;
  let stA = C.stats cA and stB = C.stats cB in
  Alcotest.(check int) "A allowed the flow" 1 stA.C.allowed;
  Alcotest.(check bool) "B augmented at least one response" true
    (stB.C.responses_augmented >= 1)

let test_interception_without_augment_blocks () =
  let engine, network, cA, cB, hA, hB = two_domain_network () in
  Identxx_core.Policy_store.add_exn (C.policy cA) ~name:"00"
    "block all\npass all with eq(@dst[branch], B)";
  Identxx_core.Policy_store.add_exn (C.policy cB) ~name:"00" "pass all";
  (* No augment intercept: the branch tag never appears. *)
  let proc = Identxx.Host.run hA ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect hA ~proc ~dst:(Identxx.Host.ip hB) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:"hA" (Identxx.Host.first_packet hA ~flow);
  Sim.Engine.run engine;
  Alcotest.(check int) "A blocked the flow" 1 (C.stats cA).C.blocked


let test_total_loss_fails_closed () =
  (* With the ident++ exchange lost on the wire, the decision falls to
     the query timeout with no responses; information-dependent policy
     fails closed. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (app_policy [ "firefox" ]);
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  let pkt = Identxx.Host.first_packet s.client ~flow in
  (* The data packet reaches the switch, then all subsequent frames
     (queries and responses) are lost. *)
  Net.send_from_host s.network ~name:"client" pkt;
  Sim.Engine.run ~max_events:1 s.engine;
  Net.set_loss s.network ~rate:1.0 ();
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "blocked" 1 st.C.blocked;
  Alcotest.(check int) "timeout" 1 st.C.query_timeouts

let test_flow_stats_monitoring () =
  (* OpenFlow flow-stats: the controller snapshots a switch's table and
     sees the counters of installed entries. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "pass all";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  (* Two more packets ride the cached entry. *)
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  C.request_stats s.controller 1;
  (* A switch outside the domain is not asked. *)
  C.request_stats s.controller 7;
  Sim.Engine.run s.engine;
  Alcotest.(check bool) "no reply from outside the domain" true
    (Option.is_none (C.switch_stats s.controller 7));
  match C.switch_stats s.controller 1 with
  | None -> Alcotest.fail "no stats reply"
  | Some reply ->
      Alcotest.(check bool) "has entries" true
        (List.length reply.Openflow.Message.st_flows >= 1);
      let data_entry =
        List.find_opt
          (fun (st : Openflow.Message.flow_stat) ->
            st.Openflow.Message.st_fields.Openflow.Match_fields.tp_dst = Some 80)
          reply.Openflow.Message.st_flows
      in
      (match data_entry with
      | Some st ->
          (* The first packet was released via packet-out `Table (one
             hit) plus two cached packets. *)
          Alcotest.(check int) "three packets counted" 3
            st.Openflow.Message.st_packets
      | None -> Alcotest.fail "no entry for the data flow")

let test_conn_state_survives_entry_expiry () =
  (* keep-state is connection state, not just reverse flow entries: a
     reply arriving after the cached entries idled out is re-admitted
     without a new ident++ exchange (PF evaluates state before rules). *)
  let config =
    { C.default_config with C.entry_idle_timeout = Some (Sim.Time.ms 1) }
  in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@src[userID], alice) keep state";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  (* Let the flow entries idle out (but not the 60 s connection state). *)
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.ms 50) (fun () -> ());
  Sim.Engine.run s.engine;
  let queries_before = (C.stats s.controller).C.queries_sent in
  let delivered_before = Net.delivered s.network in
  let reply = Packet.of_five_tuple (Five_tuple.reverse flow) in
  Net.send_from_host s.network ~name:"server" reply;
  Sim.Engine.run s.engine;
  Alcotest.(check int) "no new queries for the stateful reply" queries_before
    (C.stats s.controller).C.queries_sent;
  Alcotest.(check bool) "reply delivered" true
    (Net.delivered s.network > delivered_before)

let test_query_retries_on_silent_daemon () =
  let config = { C.default_config with C.query_retries = 2 } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (both_ends_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let st = C.stats s.controller in
  Alcotest.(check int) "two retry rounds" 2 st.C.query_retries_sent;
  (* 2 initial + 2 per retry round. *)
  Alcotest.(check int) "six queries total" 6 st.C.queries_sent;
  Alcotest.(check int) "still fails closed" 1 st.C.blocked;
  Alcotest.(check int) "one timeout in the end" 1 st.C.query_timeouts

let test_retry_resends_only_to_silent_side () =
  (* One end answers, the other stays silent: the retry round must
     re-query only the silent side — the answered side's daemon sees
     exactly one query. *)
  let config = { C.default_config with C.query_retries = 1 } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (both_ends_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let st = C.stats s.controller in
  Alcotest.(check int) "one retry round" 1 st.C.query_retries_sent;
  (* 2 initial + 1 retry aimed at the silent server only. *)
  Alcotest.(check int) "three queries total" 3 st.C.queries_sent;
  Alcotest.(check int) "client daemon queried exactly once" 1
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.client));
  Alcotest.(check int) "one response" 1 st.C.responses_received;
  Alcotest.(check int) "one timeout at give-up" 1 st.C.query_timeouts;
  (* The passing rule reads only @src, which did answer, and the silent
     destination cannot prove itself quarantined: the flow passes. *)
  Alcotest.(check int) "decided with the answered side" 1 st.C.allowed

let test_retry_recovers_from_transient_loss () =
  let config = { C.default_config with C.query_retries = 3 } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (app_policy [ "firefox" ]);
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  (* Lose everything during the first exchange, then heal the network
     before the first retry fires. *)
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run ~max_events:1 s.engine;
  Net.set_loss s.network ~rate:1.0 ();
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.ms 4) (fun () ->
      Net.set_loss s.network ~rate:0.0 ());
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "allowed after retry" 1 st.C.allowed;
  Alcotest.(check bool) "at least one retry round" true
    (st.C.query_retries_sent >= 1)

let test_spoofed_response_accepted_without_signing () =
  (* Baseline: an attacker host fabricates the server's response and the
     controller, with signing off, believes it. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[clearance], top)";
  (* The real server would never claim clearance=top. *)
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  (* The client host also plays attacker: it injects a response that
     claims to come from the server. *)
  let fake =
    Identxx.Wire.response_packet ~to_ip:(Identxx.Host.ip s.client)
      ~from_ip:(Identxx.Host.ip s.server) ~dst_port:49152
      (Identxx.Response.make ~flow
         [ [ Identxx.Key_value.pair "clearance" "top" ] ])
  in
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 200) (fun () ->
      Net.send_from_host s.network ~name:"client" fake);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "spoof believed without signing" 1
    (C.stats s.controller).C.allowed

let test_spoofed_response_rejected_with_signing () =
  let config = { C.default_config with C.require_signed_responses = true } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[clearance], top)";
  (* Hosts hold keys the controller trusts. *)
  ignore (Deploy.sign_host s.controller s.client);
  ignore (Deploy.sign_host s.controller s.server);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  let fake =
    Identxx.Wire.response_packet ~to_ip:(Identxx.Host.ip s.client)
      ~from_ip:(Identxx.Host.ip s.server) ~dst_port:49152
      (Identxx.Response.make ~flow
         [ [ Identxx.Key_value.pair "clearance" "top" ] ])
  in
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 200) (fun () ->
      Net.send_from_host s.network ~name:"client" fake);
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check bool) "spoof rejected" true (st.C.responses_rejected >= 1);
  Alcotest.(check int) "flow fails closed" 1 st.C.blocked

let test_signed_responses_accepted_when_valid () =
  let config = { C.default_config with C.require_signed_responses = true } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (app_policy [ "firefox" ]);
  ignore (Deploy.sign_host s.controller s.client);
  ignore (Deploy.sign_host s.controller s.server);
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  let st = C.stats s.controller in
  Alcotest.(check int) "signed responses admitted" 1 st.C.allowed;
  Alcotest.(check int) "nothing rejected" 0 st.C.responses_rejected

(* The cold Figure-1 exchange as deployed: both daemons sign their
   answers and carry a 25-pair administrator config (~1.8 KB), the
   controller verifies both, decides and installs. The policy reads both
   ends, so both are asked; the config holds no hinted key, so it stays
   home. Entries expire after a microsecond and the fast path is off, so
   every re-sent first packet is a fresh table miss with two signed
   answers on the wire. Metrics recording is off so the gate prices the
   exchange, not the recorder. The timed rounds follow ten warm-up
   exchanges, so both daemons reuse their cached section tags and the
   controller confirms them from its verified-section cache: each answer
   costs one binding tag per side. Measured: 740 minor words per
   exchange with the audit log a ring of columns that a record writes
   in place and the keep-state check probing packed ints; 755 with
   each answer settling its own flow with no waiter list
   or closure, the pending table probed in place from the answer's
   fields, each reactive match sharing its hosts' exact prefixes and a
   path walked with no closure; 825 before that; 844 with each query
   written once from the plan's rendered hints
   and read where it sits by the daemon, each audit summary interned
   without a copy and each switch hop building no 5-tuple; 1025 with
   each response a view over its payload (decoded into
   no pairs, verified and read where it sits) and each daemon writing
   its answer once into the payload's buffer; 1395 with every
   simulator event and shard message typed data,
   not a closure; 1526 with the event queue and flow table keeping times unboxed
   and flow setup reporting through one emitter; 1732 before that, with
   the decision building no default keystore or registry
   and reading the policy's member() list split once per epoch, one
   match shared by every hop's flow-mod along a path walked in place,
   each HMAC stream kept per key, and each switch hop forwarding its
   single output without merging or boxing; 2409 before that, with the
   controller's state one record; 2433 with the ident++ codec writing
   and reading its payloads in
   place (an encoder allocates its payload, a decoder the pairs it
   keeps, keys the protocol names shared), the signature section read
   once per answer, the daemon assembling its parts without
   intermediate lists and five-tuple hashing allocation-free; 3910
   before that; 3947 when first measured with the pending flow's
   per-flow closures replaced by top-level
   functions over it (about 70 of those words) and [Response.latest]
   allocating nothing on a miss (about 68); 4085
   with the audit log keeping the matched rule instead of printing it
   and building each summary in one pass; 4293 before that, with the
   daemons answering only the hinted sections and declaring their
   scopes (about 85 of those words); 5210 while every
   answer carried the config; 5528 before the engine and batcher
   stopped allocating per flow, 5629 while every answer was signed and
   verified whole (its signature section two pairs, not six), 6309
   while each HMAC rebuilt its key pads and carried its own message
   schedule, 7825 while every switch hop sized its packet by encoding
   it, and 15346 with the list-building signer and line-list decoder.
   The budget keeps ~5% of headroom (37 words), as it did at 4293,
   and catches a return of any of them. *)
let test_cold_exchange_alloc () =
  let config =
    {
      C.default_config with
      C.entry_idle_timeout = Some (Sim.Time.us 1);
      C.require_signed_responses = true;
      C.fastpath = Fastpath.disabled;
    }
  in
  let s = Deploy.simple_network ~config () in
  Obs.Registry.set_enabled (C.metrics s.controller) false;
  let admin_config =
    String.concat "\n"
      ("os-patch : 8831"
      :: List.init 24 (fun i ->
             Printf.sprintf "site-attr-%02d : %s" i (String.make 48 'v')))
  in
  List.iter
    (fun host ->
      ignore (Deploy.sign_host s.controller host);
      match
        Identxx.Daemon.load_config (Identxx.Host.daemon host) ~name:"00-admin"
          admin_config
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ s.client; s.server ];
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
    (both_ends_policy [ "firefox" ]);
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  let pkt = Identxx.Host.first_packet s.client ~flow in
  let exchange () =
    Net.send_from_host s.network ~name:"client" pkt;
    Sim.Engine.run s.engine
  in
  for _ = 1 to 10 do
    exchange ()
  done;
  let rounds = 200 in
  let answered () =
    Identxx.Daemon.queries_answered (Identxx.Host.daemon s.client)
    + Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server)
  in
  let answered0 = answered () and delivered0 = Net.delivered s.network in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    exchange ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  Alcotest.(check int) "two answers per round" (2 * rounds)
    (answered () - answered0);
  Alcotest.(check int) "both queries and the first packet delivered"
    (3 * rounds)
    (Net.delivered s.network - delivered0);
  if words > 777.0 then Alcotest.failf "%.0f minor words per exchange" words

(* [Deploy.simple_network]'s two hosts, with every ident++ query the
   server receives recorded (with its packet): an attacker who can see
   the server's queries. *)
let tapped_network ~config =
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Topo.add_host topology "client";
  Topo.add_host topology "server";
  Topo.link topology (Topo.Host "client", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "server", 0) (Topo.Sw 1, 2);
  let network = Net.create ~engine ~topology () in
  let controller = C.create ~config ~network ~id:0 () in
  let client =
    Identxx.Host.create ~name:"client" ~mac:(Mac.of_int 0x0a0001)
      ~ip:(ip "10.0.0.1") ()
  in
  let server =
    Identxx.Host.create ~name:"server" ~mac:(Mac.of_int 0x0a0002)
      ~ip:(ip "10.0.0.2") ()
  in
  let queries = ref [] in
  Deploy.attach_host network client;
  Deploy.attach_host_with network server ~rx:(fun pkt ->
      match Identxx.Wire.classify pkt with
      | Identxx.Wire.Query { query; _ } -> queries := (pkt, query) :: !queries
      | _ -> ());
  Deploy.watch_host controller client;
  Deploy.watch_host controller server;
  ({ Deploy.engine; topology; network; controller; client; server }, queries)

let rejection_reasons (s : Deploy.simple) =
  List.map
    (fun (r : Identxx_core.Audit.rejection) -> r.r_reason)
    (Identxx_core.Audit.rejections (C.audit s.controller))

(* Any trusted key used to vouch for any host. The client holds a key
   the controller trusts, sees the server's query, and answers in the
   silent server's name: right addresses, right nonce, a valid
   signature, and the claim "clearance: top". Its key is bound to its
   own address, so the answer is refused and the flow fails closed. *)
let test_forged_answer_with_own_key_rejected () =
  let config = { C.default_config with C.require_signed_responses = true } in
  let s, queries = tapped_network ~config in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[clearance], top)";
  let client_key = Deploy.sign_host s.controller s.client in
  ignore (Deploy.sign_host s.controller s.server);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  let client_ip = Identxx.Host.ip s.client and server_ip = Identxx.Host.ip s.server in
  let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  let flow = Identxx.Host.connect s.client ~proc ~dst:server_ip ~dst_port:80 () in
  Net.send_from_host s.network ~name:"client" (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 200) (fun () ->
      let nonce =
        match !queries with
        | (_, q) :: _ -> (Identxx.Query.nonce q)
        | [] -> Alcotest.fail "the server was never queried"
      in
      Alcotest.(check bool) "the query carries a nonce" true (nonce <> None);
      let forged =
        Identxx.Signed.sign ~keypair:client_key ~host:server_ip ~peer:client_ip
          ?nonce
          (Identxx.Response.make ~flow [ [ Identxx.Key_value.pair "clearance" "top" ] ])
      in
      Net.send_from_host s.network ~name:"client"
        (Identxx.Wire.response_packet ~to_ip:client_ip ~from_ip:server_ip
           ~dst_port:49152 forged));
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "not allowed" 0 st.C.allowed;
  Alcotest.(check int) "flow fails closed" 1 st.C.blocked;
  Alcotest.(check int) "forgery rejected" 1 st.C.responses_rejected;
  Alcotest.(check (list string)) "audited as an unbound signer"
    [ "unbound-signer" ] (rejection_reasons s);
  match Identxx_core.Audit.rejections (C.audit s.controller) with
  | [ r ] ->
      Alcotest.(check (option string)) "names the signer"
        (Some client_key.Idcrypto.Sign.public) r.r_signer;
      Alcotest.(check string) "and the host it spoke for" "10.0.0.2"
        (Ipv4.to_string r.r_host)
  | _ -> Alcotest.fail "one rejection expected"

(* An answer under the server's own key, from the server's address,
   with the query's nonce, but naming another host as the one
   answering: its echo is not this query's, so it settles nothing. *)
let test_answer_for_another_host_rejected () =
  let config = { C.default_config with C.require_signed_responses = true } in
  let s, queries = tapped_network ~config in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[clearance], top)";
  ignore (Deploy.sign_host s.controller s.client);
  let server_key = Deploy.sign_host s.controller s.server in
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  let client_ip = Identxx.Host.ip s.client and server_ip = Identxx.Host.ip s.server in
  let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  let flow = Identxx.Host.connect s.client ~proc ~dst:server_ip ~dst_port:80 () in
  Net.send_from_host s.network ~name:"client" (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 200) (fun () ->
      let nonce =
        match !queries with
        | (_, q) :: _ -> (Identxx.Query.nonce q)
        | [] -> Alcotest.fail "the server was never queried"
      in
      let answer =
        Identxx.Signed.sign ~keypair:server_key ~host:(ip "10.0.0.9") ~peer:client_ip
          ?nonce
          (Identxx.Response.make ~flow [ [ Identxx.Key_value.pair "clearance" "top" ] ])
      in
      Net.send_from_host s.network ~name:"server"
        (Identxx.Wire.response_packet ~to_ip:client_ip ~from_ip:server_ip
           ~dst_port:49152 answer));
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "flow fails closed" 1 st.C.blocked;
  Alcotest.(check (list string)) "audited as a stale binding"
    [ "stale-binding" ] (rejection_reasons s)

(* A genuine signed answer recorded from one flow and replayed onto a
   later flow with the same proto and ports (source-port reuse) while
   the server's daemon is down: its nonce is the old query's. *)
let test_replayed_answer_rejected () =
  let config =
    {
      C.default_config with
      C.require_signed_responses = true;
      entry_idle_timeout = Some (Sim.Time.ms 1);
    }
  in
  let s, queries = tapped_network ~config in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[name], srv)";
  ignore (Deploy.sign_host s.controller s.client);
  ignore (Deploy.sign_host s.controller s.server);
  let srv = Identxx.Host.run s.server ~user:"www" ~exe:"/bin/srv" () in
  Identxx.Host.listen s.server ~proc:srv ~port:80 ();
  let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~src_port:50000 ~dst_port:80 ()
  in
  let pkt = Identxx.Host.first_packet s.client ~flow in
  Net.send_from_host s.network ~name:"client" pkt;
  Sim.Engine.run s.engine;
  Alcotest.(check int) "the first flow passes" 1 (C.stats s.controller).C.allowed;
  let recorded =
    match !queries with
    | (query_pkt, _) :: _ -> Option.get (Identxx.Host.handle_packet s.server query_pkt)
    | [] -> Alcotest.fail "the server was never queried"
  in
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  (* Once the first flow's entries have idled out. *)
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.ms 5) (fun () ->
      Net.send_from_host s.network ~name:"client" pkt);
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 5200) (fun () ->
      Net.send_from_host s.network ~name:"client" recorded);
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "two flows seen" 2 st.C.flows_seen;
  Alcotest.(check int) "the replay admits nothing" 1 st.C.allowed;
  Alcotest.(check int) "the second flow fails closed" 1 st.C.blocked;
  Alcotest.(check (list string)) "audited as a stale binding"
    [ "stale-binding" ] (rejection_reasons s)

(* Figures 6 and 7 under signed answers: a third party's [req-sig] in
   the client's app config still verifies. The vendor's key is trusted
   for [verify] only, unbound, while each daemon's key is bound to its
   host. *)
let test_third_party_req_sig_verifies () =
  let config = { C.default_config with C.require_signed_responses = true } in
  let s = Deploy.simple_network ~config () in
  let secur = Idcrypto.Sign.generate "Secur" in
  Idcrypto.Sign.register (C.keystore s.controller) secur;
  ignore (Deploy.sign_host s.controller s.client);
  ignore (Deploy.sign_host s.controller s.server);
  let requirements = "block all pass all" in
  Identxx.Host.install_exe s.client ~path:"/usr/bin/thunderbird" ~content:"tb-91";
  let exe_hash =
    Option.get (Identxx.Host.exe_hash s.client ~path:"/usr/bin/thunderbird")
  in
  let req_sig =
    Idcrypto.Sign.sign ~secret:secur.Idcrypto.Sign.secret
      [ exe_hash; "thunderbird"; requirements ]
  in
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon s.client) ~name:"40-secur"
       (Printf.sprintf
          "@app /usr/bin/thunderbird {\nrule-maker : Secur\nrequirements : %s\n\
           req-sig : %s\n}"
          requirements req_sig)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"30-secur"
    (Printf.sprintf
       "dict <pubkeys> { Secur : %s }\n\
        block all\n\
        pass from any with eq(@src[rule-maker], Secur) \\\n\
        with verify(@src[req-sig], @pubkeys[Secur], @src[exe-hash], \\\n\
        @src[app-name], @src[requirements]) to any"
       secur.Idcrypto.Sign.public);
  ignore (run_flow s ~user:"dana" ~exe:"/usr/bin/thunderbird");
  let st = C.stats s.controller in
  Alcotest.(check int) "nothing rejected" 0 st.C.responses_rejected;
  Alcotest.(check int) "admitted on the vendor's signature" 1 st.C.allowed

(* Reinstalling an executable changes the exe-hash its daemon reports.
   The change must reach the controller's attribute cache: the next flow
   is decided on the new hash, not the cached answer of the listener
   running it, which carries the old. *)
let test_reinstalled_exe_reaches_next_answer () =
  let config = { C.default_config with C.fastpath = Fastpath.default_config } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (Printf.sprintf "block all\npass all with eq(@dst[exe-hash], %s)"
       (Idcrypto.Sha256.hexdigest "app-v2"));
  ignore (Deploy.sign_host s.controller s.server);
  Identxx.Host.install_exe s.server ~path:"/usr/sbin/app" ~content:"app-v1";
  let srv = Identxx.Host.run s.server ~user:"www" ~exe:"/usr/sbin/app" () in
  Identxx.Host.listen s.server ~proc:srv ~port:80 ();
  ignore (run_flow s ~user:"u" ~exe:"/usr/bin/app");
  let st = C.stats s.controller in
  Alcotest.(check int) "v1 blocked" 1 st.C.blocked;
  let invalidations = st.C.attr_cache_invalidations in
  Identxx.Host.install_exe s.server ~path:"/usr/sbin/app" ~content:"app-v2";
  Alcotest.(check bool) "the server's cached answer dropped" true
    ((C.stats s.controller).C.attr_cache_invalidations > invalidations);
  ignore (run_flow s ~user:"u" ~exe:"/usr/bin/app");
  Alcotest.(check int) "v2 decided on its new hash" 1 (C.stats s.controller).C.allowed

let test_policy_configured_local_answers () =
  (* The S3.4 PF+=2 extensions: a policy file configures the controller
     to answer queries on behalf of hosts — no OCaml hook needed. *)
  let s = Deploy.simple_network () in
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "intercept query to any answer { asset-class : kiosk }\n\
     block all\n\
     pass all with eq(@src[asset-class], kiosk) with eq(@dst[asset-class], kiosk)";
  ignore (run_flow s ~user:"u" ~exe:"/bin/app");
  let st = C.stats s.controller in
  Alcotest.(check int) "no wire queries" 0 st.C.queries_sent;
  Alcotest.(check int) "answered from policy" 2 st.C.queries_answered_locally;
  Alcotest.(check int) "allowed via policy-supplied pairs" 1 st.C.allowed

let test_policy_configured_augment () =
  (* Branch collaboration configured purely in the .control file. *)
  let engine, network, cA, cB, hA, hB = two_domain_network () in
  Identxx_core.Policy_store.add_exn (C.policy cA) ~name:"00"
    "block all\npass all with eq(@dst[branch], B)";
  Identxx_core.Policy_store.add_exn (C.policy cB) ~name:"00"
    "pass all\nintercept response to !10.0.2.0/24 augment { branch : B }";
  let proc = Identxx.Host.run hA ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect hA ~proc ~dst:(Identxx.Host.ip hB) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:"hA" (Identxx.Host.first_packet hA ~flow);
  Sim.Engine.run engine;
  Alcotest.(check int) "A allowed via policy-configured augment" 1
    (C.stats cA).C.allowed

(* A flow still pending when a revision lands: its query is on the
   wire, asked under the old plan, and its answer comes back after the
   new plan replaced it. This pins what happens today: the ends it asked
   are the old plan's (the destination alone), its query carried the old
   plan's hints, and the new revision's rules decide it on those answers.
   The new rules read the source, which was never asked, so the flow is
   blocked although its source runs the application they admit, as the
   next flow shows (CHANGES.md names this test). *)
let test_pending_flow_across_revision () =
  let s, queries = tapped_network ~config:C.default_config in
  let old_policy =
    "block all\npass all with eq(@dst[name], httpd)\nblock all with eq(@dst[quarantine], yes)"
  and new_policy = "block all\npass all with eq(@src[name], firefox)" in
  let hints policy =
    Identxx_core.Query_plan.hints
      (Identxx_core.Query_plan.make ~default:Pf.Ast.Pass
         (Result.get_ok (Identxx_core.Policy_store.load [ ("00", policy) ])))
  in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" old_policy;
  let www = Identxx.Host.run s.server ~user:"www" ~exe:"/usr/sbin/httpd" () in
  Identxx.Host.listen s.server ~proc:www ~port:80 ();
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let send () =
    let flow =
      Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server) ~dst_port:80 ()
    in
    Net.send_from_host s.network ~name:"client" (Identxx.Host.first_packet s.client ~flow)
  in
  send ();
  (* Up to the server's receipt of the query: its answer is on the wire. *)
  while !queries = [] && Sim.Engine.step s.engine do
    ()
  done;
  Alcotest.(check int) "pending at the revision" 1 (C.pending_count s.controller);
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" new_policy;
  Sim.Engine.run s.engine;
  let client_asked () = Identxx.Daemon.queries_answered (Identxx.Host.daemon s.client) in
  Alcotest.(check int) "the old plan's ends: the server alone" 1 (List.length !queries);
  Alcotest.(check int) "the client never asked" 0 (client_asked ());
  (match !queries with
  | [ (_, q) ] ->
      Alcotest.(check (list string)) "the old plan's hints" (hints old_policy)
        (Identxx.Query.keys q);
      Alcotest.(check bool) "not the new plan's" false (hints new_policy = (Identxx.Query.keys q))
  | _ -> Alcotest.fail "one query expected");
  let st = C.stats s.controller in
  Alcotest.(check int) "the new rules block it" 1 st.C.blocked;
  Alcotest.(check int) "nothing passed" 0 st.C.allowed;
  (match Identxx_core.Audit.entries (C.audit s.controller) with
  | [ e ] ->
      Alcotest.(check (option int)) "the new policy's block all" (Some 1)
        (Identxx_core.Audit.rule_line e)
  | _ -> Alcotest.fail "one audit entry expected");
  (* A flow that starts under the new plan asks its source and passes. *)
  send ();
  Sim.Engine.run s.engine;
  Alcotest.(check int) "the next flow asks the client" 1 (client_asked ());
  Alcotest.(check int) "and passes" 1 (C.stats s.controller).C.allowed

(* Minor words per round of [exchange], after ten warm-up rounds. *)
let words_per_round exchange =
  for _ = 1 to 10 do
    exchange ()
  done;
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    exchange ()
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

(* [n] answer intercepts, every one covering [target]: only the first
   answers. *)
let answer_intercepts n target =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "\nintercept query to %s answer { asset-class : kiosk, seq : %d }"
           target i))

(* A query an intercept answers costs the same however many intercepts
   cover its host: the plan's table holds each section built once, the
   first covering line answers, and only the response that carries it
   is allocated. Two paths answer: a query the controller did not send
   (the client asks the server itself), answered on the server's behalf,
   and an end of the controller's own flow. Each round of the latter
   re-sends a first packet whose entries have expired, so it is a fresh
   table miss. Before the table, every such query rebuilt the section of
   every covering line. *)
let test_intercept_answer_alloc () =
  let config =
    { C.default_config with C.entry_idle_timeout = Some (Sim.Time.us 1) }
  in
  let network policy =
    let s = Deploy.simple_network ~config () in
    Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" policy;
    let proc = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
    let flow =
      Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
        ~dst_port:80 ()
    in
    (s, flow)
  in
  let rounds pkt (s : Deploy.simple) =
    words_per_round (fun () ->
        Net.send_from_host s.network ~name:"client" pkt;
        Sim.Engine.run s.engine)
  in
  let foreign n =
    let s, flow = network ("pass all" ^ answer_intercepts n "10.0.0.2") in
    let words =
      rounds
        (Identxx.Wire.query_packet ~to_ip:(Identxx.Host.ip s.server)
           ~from_ip:(Identxx.Host.ip s.client)
           (Identxx.Query.make ~flow []))
        s
    in
    Alcotest.(check int) "answered every query on the server's behalf" 110
      (C.stats s.controller).C.queries_answered_locally;
    Alcotest.(check int) "the server never asked" 0
      (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server));
    words
  and local n =
    let s, flow =
      network
        ("block all\npass all with eq(@dst[asset-class], kiosk)"
        ^ answer_intercepts n "10.0.0.2")
    in
    let words = rounds (Identxx.Host.first_packet s.client ~flow) s in
    let st = C.stats s.controller in
    Alcotest.(check int) "no wire query" 0 st.C.queries_sent;
    Alcotest.(check int) "the server's end answered every round" 110
      st.C.queries_answered_locally;
    Alcotest.(check int) "passed every round" 110 st.C.allowed;
    words
  in
  List.iter
    (fun (what, words) ->
      let one = words 1 and many = words 32 in
      if one <> many then
        Alcotest.failf "%s: %.1f minor words per round with 1 covering intercept, %.1f with 32"
          what one many)
    [ ("foreign query", foreign); ("local end", local) ]

(* --- proactive quick-block drops (line-rate enforcement, S6) --- *)

let test_precompiled_block_never_reaches_controller () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block quick from any to any port 445\npass all";
  Sim.Engine.run s.engine;
  (* propagate the proactive flow-mods *)
  let packet_ins_before = Net.packet_ins s.network in
  let proc = Identxx.Host.run s.client ~user:"worm" ~exe:"/bin/worm" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:445 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "no packet-in for precompiled block" packet_ins_before
    (Net.packet_ins s.network);
  Alcotest.(check int) "controller never consulted" 0
    (C.stats s.controller).C.flows_seen;
  (* Other traffic still goes reactive and passes. *)
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  Alcotest.(check int) "reactive path intact" 1 (C.stats s.controller).C.allowed

(* The drop entries installed on a switch. *)
let drops table =
  List.filter
    (fun e -> e.Openflow.Flow_entry.rule.actions = Openflow.Action.drop)
    (Openflow.Flow_table.entries table)

let test_precompiled_sync_on_policy_change () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block quick from any to any port 445\npass all";
  Sim.Engine.run s.engine;
  let table = Openflow.Switch.table (Net.switch s.network 1) in
  Alcotest.(check int) "the drop and two guards" 3 (Openflow.Flow_table.size table);
  (* Replace the policy: the old drop must disappear and the new one
     appear. *)
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block quick from any to any port 23\npass all";
  Sim.Engine.run s.engine;
  Alcotest.(check int) "still the drop and two guards" 3
    (Openflow.Flow_table.size table);
  match drops table with
  | [ e ] ->
      Alcotest.(check bool) "matches port 23" true
        (e.Openflow.Flow_entry.rule.fields.Openflow.Match_fields.tp_dst = Some 23)
  | _ -> Alcotest.fail "expected exactly one drop"

let test_precompile_stops_at_informational_quick () =
  (* A quick rule needing end-host information leaves reactive only
     what it may decide: the port-23 flows are blocked by line 2 or
     line 3 in every context, so they drop in hardware too. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block quick from any to any port 445\n\
     block quick all with eq(@src[name], worm)\n\
     block quick from any to any port 23\n\
     pass all";
  Sim.Engine.run s.engine;
  let table = Openflow.Switch.table (Net.switch s.network 1) in
  Alcotest.(check int) "two drops and two guards" 4
    (List.length (Openflow.Flow_table.entries table));
  Alcotest.(check (list (option int))) "ports 445 and 23" [ Some 23; Some 445 ]
    (List.sort compare
       (List.map
          (fun e -> e.Openflow.Flow_entry.rule.fields.Openflow.Match_fields.tp_dst)
          (drops table)))

(* The drops-only table a controller without [proactive] installs. *)
let drops_only policy =
  match Pf.Env.of_string policy with
  | Ok env ->
      Compiler.compile
        (Compiler.offload ~proactive:false env (Analysis.Fdd.compile env))
  | Error e -> Alcotest.fail e

let test_precompile_expands_tables_and_ranges () =
  let tbl =
    drops_only
      "table <bad> { 203.0.113.0/24 198.51.100.0/24 }\n\
       block quick from <bad> to any port 8000:8003\npass all"
  in
  (* 2 prefixes x 4 ports, beside the punts the compiler leaves between
     them. *)
  Alcotest.(check int) "cross product" 8
    (List.length
       (List.filter
          (fun e -> e.Compiler.e_decision = Compiler.Decide Pf.Ast.Block)
          tbl.Compiler.entries))

let test_precompile_keeps_reactive () =
  let check_empty policy =
    Alcotest.(check int)
      ("not offloaded: " ^ policy)
      0
      (List.length (drops_only policy).Compiler.entries)
  in
  (* Wider than the region budget: the range spills back. *)
  check_empty "block quick from any to any port 1:10000";
  (* The controller must see a logged flow to audit it. *)
  check_empty "block quick log from any to any port 445";
  check_empty "block quick all with eq(@src[name], x)";
  (* Non-quick blocks are never offloaded (they can be overridden). *)
  check_empty "block from any to any port 445";
  (* Negations and ranges within the budget are plain regions. *)
  List.iter
    (fun policy ->
      Alcotest.(check bool) ("offloaded: " ^ policy) true
        ((drops_only policy).Compiler.entries <> []))
    [
      "table <t> {10.0.0.0/8}\nblock quick from !<t> to any";
      "block quick from any to any port 8000:8016";
    ]

(* A quick block over the server's addresses must not drop the
   server's ident++ answer: the exchange guards outrank every compiled
   drop. *)
let test_quick_drop_spares_answers () =
  List.iter
    (fun proactive ->
      let mode = if proactive then "proactive" else "reactive" in
      let s =
        Deploy.simple_network
          ~config:{ C.default_config with C.proactive }
          ~client_ip:(ip "192.168.0.1")
          ~server_ip:(ip "10.0.0.2") ()
      in
      Identxx_core.Policy_store.add_exn (C.policy s.controller)
        ~name:"00-policy"
        "block quick from 10.0.0.0/8 to any\n\
         block all\n\
         pass all with eq(@dst[name], srv)";
      Sim.Engine.run s.engine;
      let srv = Identxx.Host.run s.server ~user:"www" ~exe:"/bin/srv" () in
      Identxx.Host.listen s.server ~proc:srv ~port:80 ();
      ignore (run_flow s ~user:"u" ~exe:"/bin/app");
      let st = C.stats s.controller in
      Alcotest.(check int) (mode ^ ": allowed") 1 st.C.allowed;
      Alcotest.(check int) (mode ^ ": blocked") 0 st.C.blocked;
      Alcotest.(check int) (mode ^ ": query timeouts") 0 st.C.query_timeouts)
    [ false; true ]

(* A region a [log] rule may decide stays with the controller, which
   audits each flow there, in both modes. *)
let test_logged_region_stays_reactive () =
  List.iter
    (fun proactive ->
      let mode = if proactive then "proactive" else "reactive" in
      let s =
        Deploy.simple_network ~config:{ C.default_config with C.proactive } ()
      in
      Identxx_core.Policy_store.add_exn (C.policy s.controller)
        ~name:"00-policy" "block quick log from any to any port 23\npass all";
      Sim.Engine.run s.engine;
      ignore (run_flow ~dst_port:23 s ~user:"u" ~exe:"/bin/telnet");
      let st = C.stats s.controller in
      Alcotest.(check int) (mode ^ ": flows seen") 1 st.C.flows_seen;
      Alcotest.(check int) (mode ^ ": blocked") 1 st.C.blocked;
      Alcotest.(check int) (mode ^ ": flagged") 1
        (List.length (Identxx_core.Audit.flagged (C.audit s.controller))))
    [ false; true ]

let test_tree_network_cross_pod_flow () =
  (* depth-3 binary tree: 7 switches, 4 leaves. A flow between hosts in
     different pods must traverse the root and install entries on every
     switch of the path. *)
  let engine, network, controller, hosts =
    Deploy.tree_network ~depth:3 ~fanout:2 ~hosts_per_edge:1 ()
  in
  Identxx_core.Policy_store.add_exn (C.policy controller) ~name:"00" "pass all";
  Alcotest.(check int) "four leaf hosts" 4 (Array.length hosts);
  let src = hosts.(0) and dst = hosts.(3) in
  let proc = Identxx.Host.run src ~user:"u" ~exe:"/bin/app" () in
  let flow =
    Identxx.Host.connect src ~proc ~dst:(Identxx.Host.ip dst) ~dst_port:80 ()
  in
  let delivered_before = Net.delivered network in
  Net.send_from_host network ~name:(Identxx.Host.name src)
    (Identxx.Host.first_packet src ~flow);
  Sim.Engine.run engine;
  Alcotest.(check bool) "delivered across pods" true
    (Net.delivered network > delivered_before);
  Alcotest.(check int) "one decision" 1 (C.stats controller).C.flows_seen;
  (* Path: leaf -> aggregation -> root -> aggregation -> leaf = 5 switches. *)
  let with_entries =
    List.length
      (List.filter
         (fun dpid ->
           Openflow.Flow_table.size (Openflow.Switch.table (Net.switch network dpid)) > 0)
         [ 1; 2; 3; 4; 5; 6; 7 ])
  in
  Alcotest.(check int) "entries on the 5-switch path" 5 with_entries

let test_poisson_driven_enterprise () =
  (* Time-driven load over the fabric: Poisson arrivals scheduled on the
     engine, everything decided by policy, accounting must balance. *)
  let engine, network, controller, hosts =
    Deploy.linear_network ~switches:3 ~hosts_per_switch:4 ()
  in
  Identxx_core.Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[userID], user) keep state";
  let prng = Sim.Prng.create 99 in
  let sends = ref 0 in
  (* Pick random (src, dst) host pairs at Poisson times. *)
  let rec schedule t =
    let t = t +. Sim.Prng.exponential prng ~mean:0.02 in
    if t < 2.0 then begin
      Sim.Engine.schedule engine ~delay:(Sim.Time.of_float_s t) (fun () ->
          let src = hosts.(Sim.Prng.int prng (Array.length hosts)) in
          let dst = hosts.(Sim.Prng.int prng (Array.length hosts)) in
          if Identxx.Host.ip src <> Identxx.Host.ip dst then begin
            incr sends;
            let proc = Identxx.Host.run src ~user:"user" ~exe:"/bin/app" () in
            let flow =
              Identxx.Host.connect src ~proc ~dst:(Identxx.Host.ip dst)
                ~dst_port:80 ()
            in
            Net.send_from_host network ~name:(Identxx.Host.name src)
              (Identxx.Host.first_packet src ~flow)
          end);
      schedule t
    end
  in
  schedule 0.0;
  Sim.Engine.run engine;
  let st = C.stats controller in
  Alcotest.(check bool) "a real load ran" true (!sends > 50);
  (* Keep-state admissions may bypass decisions, so allowed+blocked can
     be <= sends, but nothing may be lost or erroneous. *)
  Alcotest.(check bool) "decisions bounded by sends" true
    (st.C.allowed + st.C.blocked <= !sends);
  Alcotest.(check int) "no eval errors" 0 st.C.eval_errors;
  Alcotest.(check int) "no timeouts" 0 st.C.query_timeouts;
  Alcotest.(check int) "nothing left pending" 0 (C.pending_count controller)

(* --- audit and revocation (S1: "override, audit, and revoke") --- *)

let test_audit_records_decisions () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass log all with eq(@src[name], firefox)";
  ignore (run_flow s ~user:"alice" ~exe:"/usr/bin/firefox");
  ignore (run_flow s ~user:"bob" ~exe:"/usr/bin/worm");
  let audit = C.audit s.controller in
  Alcotest.(check int) "two decisions" 2 (Identxx_core.Audit.count audit);
  Alcotest.(check int) "one blocked" 1 (Identxx_core.Audit.blocked_count audit);
  let flagged = Identxx_core.Audit.flagged audit in
  Alcotest.(check int) "only the log rule flags" 1 (List.length flagged);
  (match flagged with
  | [ e ] ->
      Alcotest.(check bool) "records the pass" true
        (e.Identxx_core.Audit.decision = Pf.Ast.Pass);
      Alcotest.(check bool) "summarizes source info" true
        (List.mem_assoc "userID" e.Identxx_core.Audit.src_info)
  | _ -> Alcotest.fail "expected one flagged entry");
  (* The blocked flow's entry records the default/block. *)
  let blocked =
    List.find
      (fun (e : Identxx_core.Audit.entry) -> e.decision = Pf.Ast.Block)
      (Identxx_core.Audit.entries audit)
  in
  Alcotest.(check bool) "blocked entry has rule line" true
    (Identxx_core.Audit.rule_line blocked <> None)

let test_revocation_takes_immediate_effect () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-base"
    "block all";
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"50-grant"
    "pass all with eq(@src[userID], alice)";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  Alcotest.(check int) "granted" 1 (C.stats s.controller).C.allowed;
  (* Revoke: policy file removed AND caches flushed. *)
  C.revoke_file s.controller ~name:"50-grant";
  Sim.Engine.run s.engine;
  (* The same flow's next packet must be re-decided and blocked. *)
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "re-decided" 2 st.C.flows_seen;
  Alcotest.(check int) "now blocked" 1 st.C.blocked

(* Revoking a file the store does not hold installs no revision, so no
   recompile, and sends the switches nothing: the cached entry keeps
   serving and its flow is not re-decided. *)
let test_revoke_absent_file_does_nothing () =
  let s = Deploy.simple_network () in
  let ps = C.policy s.controller in
  Identxx_core.Policy_store.add_exn ps ~name:"00-base" "pass all";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  let epoch () = Identxx_core.Policy_store.(Revision.epoch (current ps)) in
  let before = epoch () in
  C.revoke_file s.controller ~name:"50-grant";
  Alcotest.(check int) "epoch unchanged" before (epoch ());
  Alcotest.(check int) "nothing sent" 0 (Sim.Engine.pending s.engine);
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "not re-decided" 1 (C.stats s.controller).C.flows_seen

let test_without_flush_cache_serves_stale_policy () =
  (* The ablation: removing the file without flushing leaves the cached
     entry serving the revoked policy. *)
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-base"
    "block all";
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"50-grant"
    "pass all with eq(@src[userID], alice)";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  Alcotest.(check bool) "held" true
    (Identxx_core.Policy_store.remove (C.policy s.controller) ~name:"50-grant");
  let delivered_before = Net.delivered s.network in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "no new decision (stale cache)" 1
    (C.stats s.controller).C.flows_seen;
  Alcotest.(check bool) "packet still delivered" true
    (Net.delivered s.network > delivered_before)

let test_flush_is_domain_scoped () =
  (* Two controllers share the fabric; revoking policy in domain A must
     not disturb domain B's cached entries. *)
  let engine, network, cA, cB, hA, hB = two_domain_network () in
  Identxx_core.Policy_store.add_exn (C.policy cA) ~name:"00" "pass all";
  Identxx_core.Policy_store.add_exn (C.policy cB) ~name:"00" "pass all";
  (* hB talks locally within domain B to populate switch 2's table. *)
  let procB = Identxx.Host.run hB ~user:"u" ~exe:"/bin/app" () in
  let flowB =
    Identxx.Host.connect hB ~proc:procB ~dst:(Identxx.Host.ip hA) ~dst_port:80 ()
  in
  Net.send_from_host network ~name:"hB" (Identxx.Host.first_packet hB ~flow:flowB);
  Sim.Engine.run engine;
  let s2_entries () =
    Openflow.Flow_table.size (Openflow.Switch.table (Net.switch network 2))
  in
  let before = s2_entries () in
  Alcotest.(check bool) "domain B has cached entries" true (before > 0);
  (* Flush domain A only. *)
  C.flush_cache cA;
  Sim.Engine.run engine;
  Alcotest.(check int) "domain B untouched" before (s2_entries ());
  Alcotest.(check int) "domain A cleared" 0
    (Openflow.Flow_table.size (Openflow.Switch.table (Net.switch network 1)))

let test_update_file_flushes () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "pass all";
  let flow = run_flow s ~user:"alice" ~exe:"/usr/bin/firefox" in
  (match C.update_file s.controller ~name:"00-policy" "block all" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.Engine.run s.engine;
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "blocked after update" 1 (C.stats s.controller).C.blocked

(* A verdict reached in the same instant as an operator action queues
   its install before the action's deletes, so the deletes take it: no
   per-flow (cookie 0) entry naming the client is left. *)
let same_instant_verdict action =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" "pass all";
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server) ~dst_port:80 ()
  in
  Net.send_from_host s.network ~name:"client" (Identxx.Host.first_packet s.client ~flow);
  while (C.stats s.controller).C.allowed < 1 && Sim.Engine.step s.engine do () done;
  Alcotest.(check int) "decided" 1 (C.stats s.controller).C.allowed;
  action s;
  Sim.Engine.run s.engine;
  let host = Some (Prefix.host (Identxx.Host.ip s.client)) in
  let left =
    List.concat_map
      (fun dpid ->
        List.filter
          (fun (e : Openflow.Flow_entry.t) ->
            e.rule.cookie = 0 && (e.rule.fields.nw_src = host || e.rule.fields.nw_dst = host))
          (Openflow.Flow_table.entries (Openflow.Switch.table (Net.switch s.network dpid))))
      (Net.switches_in_domain s.network 0)
  in
  Alcotest.(check int) "no per-flow entry names the client" 0 (List.length left)

let test_revoke_takes_same_instant_install () =
  same_instant_verdict (fun s ->
      ignore (C.revoke_principal s.controller ~ip:(Identxx.Host.ip s.client)))

let test_flush_takes_same_instant_install () =
  same_instant_verdict (fun s -> C.flush_cache s.controller)

(* --- reactive matches and the pending table --- *)

(* Reactive matches share each attached host's exact prefix, and only
   attached hosts enter the shared table: 1,000 blocked flows from
   spoofed sources leave it at the attached-host count. *)
let test_host_prefixes_stay_bounded () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00" "block all";
  let server = Identxx.Host.ip s.server in
  let send src =
    Net.send_from_host s.network ~name:"client"
      (Packet.of_five_tuple
         (Five_tuple.tcp ~src ~dst:server ~src_port:40000 ~dst_port:80))
  in
  send (Identxx.Host.ip s.client);
  for i = 1 to 1000 do
    send (Ipv4.of_octets 192 168 (i / 256) (i mod 256))
  done;
  Sim.Engine.run s.engine;
  Alcotest.(check int) "every flow blocked" 1001 (C.stats s.controller).C.blocked;
  Alcotest.(check int) "one prefix per attached host"
    (List.length (Topo.hosts s.topology))
    (C.host_prefixes s.controller)

(* Sharing prefixes changes no match: every reactive entry on every
   switch of a three-switch chain is [Match_fields.of_five_tuple] of a
   flow it was installed for, a pass's path and keep state's reverse
   path at each hop, a block's drop at the ingress, a spoofed source's
   too; and each of those flows has its entry. *)
let test_reactive_matches_are_exact () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~switches:3 ~hosts_per_switch:1 ()
  in
  Identxx_core.Policy_store.add_exn (C.policy controller) ~name:"00"
    "block all\npass from any to any port 80 keep state";
  let ip i = Identxx.Host.ip hosts.(i) in
  let flow ?(src = ip 0) dst_port =
    Five_tuple.tcp ~src ~dst:(ip 2) ~src_port:40000 ~dst_port
  in
  let pass = flow 80
  and block = flow 22
  and spoofed = flow ~src:(Ipv4.of_string "192.168.0.9") 22 in
  List.iter
    (fun f ->
      Net.send_from_host network ~name:(Identxx.Host.name hosts.(0))
        (Packet.of_five_tuple f))
    [ pass; block; spoofed ];
  Sim.Engine.run engine;
  Alcotest.(check int) "one pass" 1 (C.stats controller).C.allowed;
  Alcotest.(check int) "two blocks" 2 (C.stats controller).C.blocked;
  let entries =
    List.concat_map
      (fun dpid ->
        List.filter
          (fun (e : Openflow.Flow_entry.t) -> e.rule.cookie = 0)
          (Openflow.Flow_table.entries (Openflow.Switch.table (Net.switch network dpid))))
      (Net.switches_in_domain network 0)
  in
  let expected =
    List.map Openflow.Match_fields.of_five_tuple
      [ pass; Five_tuple.reverse pass; block; spoofed ]
  in
  List.iter
    (fun (e : Openflow.Flow_entry.t) ->
      if not (List.exists (Openflow.Match_fields.equal e.rule.fields) expected)
      then
        Alcotest.failf "entry %a is no flow's exact match"
          Openflow.Match_fields.pp e.rule.fields)
    entries;
  List.iter
    (fun fields ->
      let installed =
        List.filter
          (fun (e : Openflow.Flow_entry.t) ->
            Openflow.Match_fields.equal e.rule.fields fields)
          entries
      in
      let drops =
        List.filter
          (fun (e : Openflow.Flow_entry.t) -> e.rule.actions = Openflow.Action.drop)
          installed
      in
      let is_block = List.exists (Openflow.Match_fields.equal fields) (List.tl (List.tl expected)) in
      Alcotest.(check int)
        (Format.asprintf "%a: one entry a hop, or one drop" Openflow.Match_fields.pp fields)
        (if is_block then 1 else 3)
        (List.length installed);
      Alcotest.(check int) "drops only for blocks"
        (if is_block then 1 else 0)
        (List.length drops))
    expected

(* An answer to a flow's own query settles it directly, with no
   exchange, but only as far as its declared scope reaches. The source
   listens on the flow's destination port and holds no connection of
   the flow, so its signed answer speaks for the listening socket and
   declares [socket] scope, which covers no source end: the source is
   asked again once, and its second such answer fails the end
   ("out-of-scope"), so the flow is decided without it, well before its
   timeout. It was asked about 40 times in its 5 ms timeout while every
   such answer re-asked. *)
let test_direct_settle_out_of_scope_requeries () =
  let s = Deploy.simple_network () in
  ignore (Deploy.sign_host s.controller s.client);
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
    "block all\npass all with eq(@src[name], app)";
  let app = Identxx.Host.run s.client ~user:"u" ~exe:"/bin/app" () in
  Identxx.Host.listen s.client ~proc:app ~port:80 ();
  let flow =
    Five_tuple.tcp ~src:(Identxx.Host.ip s.client) ~dst:(Identxx.Host.ip s.server)
      ~src_port:40000 ~dst_port:80
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run ~until:(Sim.Time.ms 1) s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "the source is asked twice" 2 st.C.queries_sent;
  Alcotest.(check int) "both answers taken" 2 st.C.responses_received;
  Alcotest.(check int) "the source failed, counted once" 1 st.C.query_timeouts;
  Alcotest.(check int) "decided without its answer" 1 st.C.blocked;
  Alcotest.(check int) "nothing pending before the timeout" 0
    (C.pending_count s.controller);
  Sim.Engine.run s.engine;
  Alcotest.(check int) "asked no more" 2 (C.stats s.controller).C.queries_sent

(* Two flows pending between the same two hosts with the same ports,
   one each way, the second opened [apart] us after the first: each
   answer names both, and while both are pending the flow whose source
   still takes an answer from the answering host gets it, the other
   flow the host's next answer. Each end gets an answer, so nothing
   times out. *)
let pending_both_ways ~apart () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
    (both_ends_policy [ "firefox" ]);
  let open_flow ~from ~name ~to_ =
    let proc = Identxx.Host.run from ~user:"alice" ~exe:"/usr/bin/firefox" () in
    let flow =
      Identxx.Host.connect from ~proc ~dst:(Identxx.Host.ip to_) ~src_port:40000
        ~dst_port:80 ()
    in
    Net.send_from_host s.network ~name (Identxx.Host.first_packet from ~flow)
  in
  open_flow ~from:s.client ~name:"client" ~to_:s.server;
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us apart) (fun () ->
      open_flow ~from:s.server ~name:"server" ~to_:s.client);
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "two flows" 2 st.C.flows_seen;
  Alcotest.(check int) "four answers taken" 4 st.C.responses_received;
  Alcotest.(check int) "no end timed out" 0 st.C.query_timeouts;
  Alcotest.(check int) "both passed" 2 st.C.allowed;
  Alcotest.(check int) "nothing pending" 0 (C.pending_count s.controller)

(* Opened in one instant, each host's two answers arrive together and
   both name, on arrival, the flow awaiting that host as its source.
   The first takes that end; the second finds it taken and names the
   other flow. *)
let test_pending_both_ways_at_once () = pending_both_ways ~apart:0 ()

(* A TCP and a UDP flow from one process between the same two hosts
   with the same ports, opened at once: the source's answer to each
   query echoes its flow's protocol, so it names that flow alone, and
   each flow decides on its own answer before its timeout. The source
   port is the first from 40000 at which the two flows' hashes agree in
   their low 12 bits, so they share a chain in any pending table of up
   to 4,096 cells and only the protocol tells them apart. *)
let test_pending_tcp_and_udp () =
  let s = Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
    (app_policy [ "firefox" ]);
  let src = Identxx.Host.ip s.client and dst = Identxx.Host.ip s.server in
  let rec colliding src_port =
    let hash proto =
      Five_tuple.hash (Five_tuple.make ~src ~dst ~proto ~src_port ~dst_port:80) land 0xfff
    in
    if hash Proto.Tcp = hash Proto.Udp then src_port else colliding (src_port + 1)
  in
  let src_port = colliding 40000 in
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  List.iter
    (fun proto ->
      let flow = Identxx.Host.connect s.client ~proc ~dst ~src_port ~dst_port:80 ~proto () in
      Net.send_from_host s.network ~name:"client"
        (Identxx.Host.first_packet s.client ~flow))
    [ Proto.Tcp; Proto.Udp ];
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Alcotest.(check int) "two flows" 2 st.C.flows_seen;
  Alcotest.(check int) "two answers taken" 2 st.C.responses_received;
  Alcotest.(check int) "no end timed out" 0 st.C.query_timeouts;
  Alcotest.(check int) "both passed" 2 st.C.allowed;
  Alcotest.(check int) "nothing pending" 0 (C.pending_count s.controller)

(* An answer is taken (kept in its end's leg) when its shard runs it,
   and settles the end when the [Settle] it posts runs. Here the flow's
   timeout, with a retry left, runs in between: each message costs the
   one shard 10 us, the answer reaches it 100 us before the 1 ms timeout
   behind 20 buffered packets, so the timer's message queues after the
   answer and before the [Settle] the answer posts. The retry round asks
   the silent source again, since its end still awaits; the [Settle]
   then settles it with the taken answer, so the flow passes on it and
   no end times out. The order is read off the counters, one event at a
   time: the answer is taken, then the retry round goes out, then the
   flow passes. *)
let test_timeout_between_take_and_settle () =
  let config =
    {
      C.default_config with
      C.query_timeout = Sim.Time.ms 1;
      query_retries = 1;
      shards = Some (C.sharded ~service:(Sim.Time.us 10) 1);
    }
  in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
    (app_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  let client = Identxx.Host.ip s.client and server = Identxx.Host.ip s.server in
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow = Identxx.Host.connect s.client ~proc ~dst:server ~dst_port:80 () in
  let send pkt = Net.send_from_host s.network ~name:"client" pkt in
  send (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 900) (fun () ->
      for _ = 1 to 20 do
        send (Identxx.Host.first_packet s.client ~flow)
      done;
      send
        (Identxx.Wire.response_packet ~to_ip:server ~from_ip:client ~dst_port:49152
           (Identxx.Response.make ~flow [ [ Identxx.Key_value.pair "name" "firefox" ] ])));
  (* The step at which each counter first turned nonzero. *)
  let taken = ref 0 and retried = ref 0 and passed = ref 0 and n = ref 0 in
  let first r v = if !r = 0 && v > 0 then r := !n in
  while Sim.Engine.step s.engine do
    incr n;
    let st = C.stats s.controller in
    first taken st.C.responses_received;
    first retried st.C.query_retries_sent;
    first passed st.C.allowed
  done;
  let st = C.stats s.controller in
  Alcotest.(check bool) "taken, then a retry round, then passed" true
    (0 < !taken && !taken < !retried && !retried < !passed);
  Alcotest.(check int) "the source asked again" 2 st.C.queries_sent;
  Alcotest.(check int) "one answer taken" 1 st.C.responses_received;
  Alcotest.(check int) "no end timed out" 0 st.C.query_timeouts;
  Alcotest.(check int) "passed" 1 st.C.allowed;
  Alcotest.(check int) "nothing pending" 0 (C.pending_count s.controller)

(* Packets that miss while their flow is pending are buffered, and the
   verdict releases them oldest first: the server gets the flow's first
   three packets in the order they were sent. *)
let test_buffered_packets_released_in_order () =
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Topo.add_host topology "client";
  Topo.add_host topology "server";
  Topo.link topology (Topo.Host "client", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "server", 0) (Topo.Sw 1, 2);
  let network = Net.create ~engine ~topology () in
  let controller = C.create ~network ~id:0 () in
  let client =
    Identxx.Host.create ~name:"client" ~mac:(Mac.of_int 0x0a0001)
      ~ip:(ip "10.0.0.1") ()
  in
  let server =
    Identxx.Host.create ~name:"server" ~mac:(Mac.of_int 0x0a0002)
      ~ip:(ip "10.0.0.2") ()
  in
  let received = ref [] in
  Deploy.attach_host network client;
  Deploy.attach_host_with network server ~rx:(fun pkt ->
      match (Identxx.Wire.classify pkt, pkt.Packet.eth_payload) with
      | Identxx.Wire.Not_identxx, Packet.Ip { payload = Packet.Tcp tcp; _ } ->
          received := tcp.Packet.tcp_payload :: !received
      | _ -> ());
  Identxx_core.Policy_store.add_exn (C.policy controller) ~name:"00"
    (app_policy [ "firefox" ]);
  let proc = Identxx.Host.run client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect client ~proc ~dst:(Identxx.Host.ip server) ~dst_port:80 ()
  in
  List.iter
    (fun payload ->
      Net.send_from_host network ~name:"client"
        (Packet.of_five_tuple ~eth_src:(Identxx.Host.mac client) ~payload flow))
    [ "1"; "2"; "3" ];
  Sim.Engine.run engine;
  Alcotest.(check int) "one flow decided" 1 (C.stats controller).C.allowed;
  Alcotest.(check (list string)) "in the order sent" [ "1"; "2"; "3" ]
    (List.rev !received)

(* [n] flows from the client pending at once: both daemons are silent
   and the timeout is far off. *)
let pending_flows n =
  let config = { C.default_config with C.query_timeout = Sim.Time.s 1000 } in
  let s = Deploy.simple_network ~config () in
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00"
    (both_ends_policy [ "firefox" ]);
  List.iter
    (fun h ->
      Identxx.Daemon.set_behaviour (Identxx.Host.daemon h) Identxx.Daemon.Silent)
    [ s.client; s.server ];
  let flow i =
    Five_tuple.tcp ~src:(Identxx.Host.ip s.client) ~dst:(Identxx.Host.ip s.server)
      ~src_port:(10000 + i) ~dst_port:80
  in
  for i = 0 to n - 1 do
    Net.send_from_host s.network ~name:"client"
      (Identxx.Host.first_packet s.client ~flow:(flow i))
  done;
  Sim.Engine.run ~until:(Sim.Time.s 1) s.engine;
  Alcotest.(check int) "all pending" n (C.pending_count s.controller);
  (s, flow)

(* The front end probes the pending table from each answer's addresses
   and echoed ports where they sit: a probe, hit or miss, allocates
   nothing, with 10 flows pending as with 1,000. *)
let test_pending_probe_alloc () =
  List.iter
    (fun n ->
      let s, flow = pending_flows n in
      let client = Identxx.Host.ip s.client and server = Identxx.Host.ip s.server in
      (* Half the flows the answers name are pending, half are not. *)
      let named j = (j * 37) mod (2 * n) in
      let answers =
        Array.init 64 (fun j -> Identxx.Response.make ~flow:(flow (named j)) [])
      in
      let rounds = 10_000 in
      let hits = ref 0 in
      let before = Gc.minor_words () in
      for i = 1 to rounds do
        if
          C.names_pending s.controller ~from_ip:server ~to_ip:client
            answers.(i land 63)
        then incr hits
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int rounds in
      let expected = ref 0 in
      for i = 1 to rounds do
        if named (i land 63) < n then incr expected
      done;
      Alcotest.(check int) (Printf.sprintf "%d pending: hits" n) !expected !hits;
      if words > 0.01 then
        Alcotest.failf "%d pending: %.3f minor words per probe" n words)
    [ 10; 1000 ]

let () =
  Alcotest.run "controller"
    [
      ( "figure1",
        [
          Alcotest.test_case "allowed flow delivered" `Quick
            test_fig1_allowed_flow_delivered;
          Alcotest.test_case "blocked flow not delivered" `Quick
            test_fig1_blocked_flow_not_delivered;
          Alcotest.test_case "event sequence" `Quick test_fig1_event_sequence;
          Alcotest.test_case "udp end to end" `Quick test_udp_flow_end_to_end;
        ] );
      ( "caching",
        [
          Alcotest.test_case "second packet bypasses controller" `Quick
            test_caching_second_packet_bypasses_controller;
          Alcotest.test_case "denial caching" `Quick test_denial_caching;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "silent daemon fails closed" `Quick
            test_silent_daemon_fails_closed;
          Alcotest.test_case "lying daemon bypasses name policy" `Quick
            test_lying_daemon_can_bypass_name_policy;
          Alcotest.test_case "late response harmless" `Quick
            test_late_response_after_timeout_is_harmless;
        ] );
      ( "pending flows",
        [
          Alcotest.test_case "host prefixes stay bounded" `Quick
            test_host_prefixes_stay_bounded;
          Alcotest.test_case "reactive matches are exact" `Quick
            test_reactive_matches_are_exact;
          Alcotest.test_case "direct settle out of scope requeries" `Quick
            test_direct_settle_out_of_scope_requeries;
          Alcotest.test_case "a flow pending both ways" `Quick
            (pending_both_ways ~apart:10);
          Alcotest.test_case "a flow pending both ways, opened at once" `Quick
            test_pending_both_ways_at_once;
          Alcotest.test_case "TCP and UDP pending on one port pair" `Quick
            test_pending_tcp_and_udp;
          Alcotest.test_case "a timeout between take and settle" `Quick
            test_timeout_between_take_and_settle;
          Alcotest.test_case "buffered packets released in order" `Quick
            test_buffered_packets_released_in_order;
          Alcotest.test_case "pending probe allocation, flat in pending flows"
            `Quick test_pending_probe_alloc;
        ] );
      ( "state",
        [
          Alcotest.test_case "keep state reverse path" `Quick
            test_keep_state_installs_reverse_path;
          Alcotest.test_case "no keep state means new decision" `Quick
            test_no_keep_state_reply_needs_decision;
          Alcotest.test_case "keep state reply passes a quick block" `Quick
            test_keep_state_reply_passes_quick_block;
        ] );
      ( "deployment modes",
        [
          Alcotest.test_case "src-only queries" `Quick
            test_query_targets_src_only;
          Alcotest.test_case "controller-only (local answers)" `Quick
            test_local_answers_controller_only_deployment;
          Alcotest.test_case "policy hot reload" `Quick test_policy_hot_reload;
          Alcotest.test_case "a flow pending across a revision" `Quick
            test_pending_flow_across_revision;
          Alcotest.test_case "set installs a forward reference" `Quick
            test_set_installs_a_forward_reference;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "pipeline agrees with pure decision" `Quick
            test_pipeline_agrees_with_pure_decision;
        ] );
      ( "reuse scope",
        [
          Alcotest.test_case "coalescing keeps two users apart" `Quick
            test_coalescing_keeps_users_apart;
          Alcotest.test_case "attribute cache keeps two users apart" `Quick
            test_attr_cache_keeps_users_apart;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "non-ip dropped" `Quick test_non_ip_packets_dropped;
          Alcotest.test_case "unknown destination" `Quick
            test_flow_to_unknown_destination_blocked;
        ] );
      ( "paths",
        [
          Alcotest.test_case "entries along path" `Quick
            test_entries_installed_along_path;
        ] );
      ( "state & retries",
        [
          Alcotest.test_case "conn state survives entry expiry" `Quick
            test_conn_state_survives_entry_expiry;
          Alcotest.test_case "retries on silent daemon" `Quick
            test_query_retries_on_silent_daemon;
          Alcotest.test_case "retry targets only the silent side" `Quick
            test_retry_resends_only_to_silent_side;
          Alcotest.test_case "retry recovers from loss" `Quick
            test_retry_recovers_from_transient_loss;
        ] );
      ( "signed responses",
        [
          Alcotest.test_case "spoof accepted without signing" `Quick
            test_spoofed_response_accepted_without_signing;
          Alcotest.test_case "spoof rejected with signing" `Quick
            test_spoofed_response_rejected_with_signing;
          Alcotest.test_case "valid signatures accepted" `Quick
            test_signed_responses_accepted_when_valid;
          Alcotest.test_case "cold exchange allocation" `Quick
            test_cold_exchange_alloc;
          Alcotest.test_case "forged answer under own key rejected" `Quick
            test_forged_answer_with_own_key_rejected;
          Alcotest.test_case "replayed answer rejected" `Quick
            test_replayed_answer_rejected;
          Alcotest.test_case "answer for another host rejected" `Quick
            test_answer_for_another_host_rejected;
          Alcotest.test_case "third-party req-sig verifies" `Quick
            test_third_party_req_sig_verifies;
        ] );
      ( "policy intercepts",
        [
          Alcotest.test_case "local answers from policy" `Quick
            test_policy_configured_local_answers;
          Alcotest.test_case "augment from policy" `Quick
            test_policy_configured_augment;
          Alcotest.test_case "intercept answer allocation, flat in covering lines"
            `Quick test_intercept_answer_alloc;
        ] );
      ( "precompile",
        [
          Alcotest.test_case "precompiled block bypasses controller" `Quick
            test_precompiled_block_never_reaches_controller;
          Alcotest.test_case "sync on policy change" `Quick
            test_precompiled_sync_on_policy_change;
          Alcotest.test_case "stops at informational quick" `Quick
            test_precompile_stops_at_informational_quick;
          Alcotest.test_case "expands tables and ranges" `Quick
            test_precompile_expands_tables_and_ranges;
          Alcotest.test_case "what stays reactive" `Quick
            test_precompile_keeps_reactive;
          Alcotest.test_case "quick drop spares ident++ answers" `Quick
            test_quick_drop_spares_answers;
          Alcotest.test_case "logged region stays reactive" `Quick
            test_logged_region_stays_reactive;
        ] );
      ( "robustness & monitoring",
        [
          Alcotest.test_case "total loss fails closed" `Quick
            test_total_loss_fails_closed;
          Alcotest.test_case "flow stats monitoring" `Quick
            test_flow_stats_monitoring;
        ] );
      ( "time-driven load",
        [
          Alcotest.test_case "poisson enterprise" `Quick
            test_poisson_driven_enterprise;
          Alcotest.test_case "tree cross-pod flow" `Quick
            test_tree_network_cross_pod_flow;
        ] );
      ( "audit & revoke",
        [
          Alcotest.test_case "audit records decisions" `Quick
            test_audit_records_decisions;
          Alcotest.test_case "revocation immediate" `Quick
            test_revocation_takes_immediate_effect;
          Alcotest.test_case "stale cache without flush" `Quick
            test_without_flush_cache_serves_stale_policy;
          Alcotest.test_case "revoking an absent file does nothing" `Quick
            test_revoke_absent_file_does_nothing;
          Alcotest.test_case "reinstalled exe reaches next answer" `Quick
            test_reinstalled_exe_reaches_next_answer;
          Alcotest.test_case "update flushes" `Quick test_update_file_flushes;
          Alcotest.test_case "flush is domain-scoped" `Quick
            test_flush_is_domain_scoped;
          Alcotest.test_case "revocation takes a same-instant install" `Quick
            test_revoke_takes_same_instant_install;
          Alcotest.test_case "flush takes a same-instant install" `Quick
            test_flush_takes_same_instant_install;
        ] );
      ( "interception",
        [
          Alcotest.test_case "augment admits" `Quick
            test_interception_augments_response;
          Alcotest.test_case "three-domain transit chain" `Quick
            test_three_domain_transit_chain;
          Alcotest.test_case "no augment blocks" `Quick
            test_interception_without_augment_blocks;
        ] );
    ]
