(* netsim: run a named simulation scenario end-to-end and print the
   event trace.

     netsim fig1          the paper's Figure-1 flow-setup sequence
     netsim linear        a 4-switch chain, one flow across it
     netsim branches      two ident++ domains collaborating (§4)

   Run with: dune exec bin/netsim.exe -- fig1 *)

open Cmdliner
module Net = Openflow.Network
module Topo = Openflow.Topology
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module PS = Identxx_core.Policy_store
module Fabric = Workload.Fabric

(* Daemon service time is measured on the simulated clock, so metric
   output is deterministic and cram-testable. *)
let sim_clock engine () = Sim.Time.to_float_s (Sim.Engine.now engine)

(* Continuous-monitoring state threaded through every scenario builder:
   the flight recorder (handed to each controller), the optional
   windowed health engine, and any hosts to silence. Health windows
   close on the simulated clock at a fixed schedule of [mon_ticks]
   pre-scheduled closes (a self-rescheduling tick would keep the
   event-driven sim alive forever), so runs with the same seed dump
   byte-identical health timelines whatever the shard count. *)
type mon = {
  mon_recorder : Obs.Recorder.t;
  mon_health : float option;
  mon_silence : string list;
  mon_ticks : int;
  mutable mon_engine : Obs.Health.t option;
}

(* Time [hosts]' daemons on the simulated clock, silence the ones
   asked for and start the health windows. *)
let mon_arm mon ~engine ~obs ~spans hosts =
  List.iter (fun h -> Identxx.Host.set_metrics h ~clock:(sim_clock engine) obs) hosts;
  List.iter
    (fun name ->
      match List.find_opt (fun h -> Identxx.Host.name h = name) hosts with
      | Some h ->
          Identxx.Daemon.set_behaviour (Identxx.Host.daemon h)
            Identxx.Daemon.Silent
      | None ->
          prerr_endline ("netsim: --silence: no host named " ^ name);
          exit 1)
    mon.mon_silence;
  match mon.mon_health with
  | None -> ()
  | Some interval ->
      let window = Obs.Window.create ~interval ~now:0. obs in
      let health =
        Obs.Health.create ~recorder:mon.mon_recorder ~spans ~registry:obs
          window
      in
      mon.mon_engine <- Some health;
      for k = 1 to mon.mon_ticks do
        let at = float_of_int k *. interval in
        Sim.Engine.schedule engine ~delay:(Sim.Time.of_float_s at) (fun () ->
            ignore (Obs.Health.force_step health ~now:at))
      done

(* With --proactive, give the compiled flow-mods (in flight on the
   control channel since the policy was loaded) time to land before the
   first packet: deployed switches get their table at connect time, long
   before traffic. Reactive runs keep injecting at t=0, preserving the
   pinned Figure-1 timeline. *)
let inject ~config ~engine f =
  if config.C.proactive then Sim.Engine.schedule engine ~delay:(Sim.Time.ms 1) f
  else f ()

(* Open one flow from [src]'s [exe] to [dst]'s port 80, send its first
   packet and run the scenario to the end. *)
let one_flow ?(exe = "/bin/app") ~config ~engine network ~src ~dst =
  let proc = Identxx.Host.run src ~user:"u" ~exe () in
  let flow =
    Identxx.Host.connect src ~proc ~dst:(Identxx.Host.ip dst) ~dst_port:80 ()
  in
  inject ~config ~engine (fun () ->
      Net.send_from_host network ~name:(Identxx.Host.name src)
        (Identxx.Host.first_packet src ~flow));
  Sim.Engine.run engine

let print_summary ?(controllers = []) network =
  Format.printf "@.=== trace ===@.%a" Sim.Trace.pp (Net.trace network);
  Format.printf "@.=== summary ===@.";
  Format.printf "packets delivered to hosts: %d@." (Net.delivered network);
  Format.printf "packets dropped:            %d@." (Net.dropped network);
  Format.printf "packet-ins:                 %d@." (Net.packet_ins network);
  List.iter
    (fun (name, c) ->
      let st = C.stats c in
      Format.printf
        "%s: flows=%d allowed=%d blocked=%d queries=%d responses=%d@." name
        st.C.flows_seen st.C.allowed st.C.blocked st.C.queries_sent
        st.C.responses_received;
      Format.printf "%s: query timeouts=%d retries sent=%d@." name
        st.C.query_timeouts st.C.query_retries_sent;
      if (C.config c).C.proactive then begin
        let tbl = C.proactive_table c in
        Format.printf
          "%s: proactive entries=%d installed-coverage=%.3f spills=%d%s@." name
          (List.length tbl.Compiler.entries)
          tbl.Compiler.installed_coverage
          (List.length tbl.Compiler.spills)
          (if tbl.Compiler.truncated then " (truncated)" else "")
      end;
      if Fastpath.enabled (C.fastpath c) then
        Format.printf
          "%s: fastpath decisions=%d attr-cache %d/%d (evict %d, inval %d) \
           decision-cache %d/%d (evict %d) breaker trips=%d fastpaths=%d@."
          name st.C.fastpath_decisions st.C.attr_cache_hits
          st.C.attr_cache_misses st.C.attr_cache_evictions
          st.C.attr_cache_invalidations st.C.decision_cache_hits
          st.C.decision_cache_misses st.C.decision_cache_evictions
          st.C.breaker_trips st.C.breaker_fastpaths;
      (* Wire exchanges, coalesced joins and flushes are functions of
         the (deterministic) event order, not the shard count — only the
         shard count itself varies here. *)
      Format.printf
        "%s: shards=%d wire-exchanges=%d coalesced=%d batch-flushes=%d@." name
        (C.shard_count c) (C.wire_exchanges c) (C.coalesced_queries c)
        (C.batch_flushes c))
    controllers

(* Machine-readable end-of-run report (same numbers as the summary), so
   scenario runs can be diffed or plotted without scraping the trace. *)
let write_json ~scenario ~file ~controllers network =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"scenario\": \"%s\",\n\
    \  \"delivered\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"packet_ins\": %d,\n\
    \  \"controllers\": [\n"
    scenario (Net.delivered network) (Net.dropped network)
    (Net.packet_ins network);
  List.iteri
    (fun i (name, c) ->
      let st = C.stats c in
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"flows_seen\": %d, \"allowed\": %d, \
         \"blocked\": %d,\n\
        \      \"queries_sent\": %d, \"responses_received\": %d, \
         \"query_timeouts\": %d, \"query_retries_sent\": %d,\n\
        \      \"fastpath_enabled\": %b, \"fastpath_decisions\": %d,\n\
        \      \"attr_cache_hits\": %d, \"attr_cache_misses\": %d, \
         \"attr_cache_evictions\": %d, \"attr_cache_invalidations\": %d,\n\
        \      \"decision_cache_hits\": %d, \"decision_cache_misses\": %d, \
         \"decision_cache_evictions\": %d,\n\
        \      \"breaker_trips\": %d, \"breaker_fastpaths\": %d }%s\n"
        name st.C.flows_seen st.C.allowed st.C.blocked st.C.queries_sent
        st.C.responses_received st.C.query_timeouts st.C.query_retries_sent
        (Fastpath.enabled (C.fastpath c))
        st.C.fastpath_decisions st.C.attr_cache_hits st.C.attr_cache_misses
        st.C.attr_cache_evictions st.C.attr_cache_invalidations
        st.C.decision_cache_hits st.C.decision_cache_misses
        st.C.decision_cache_evictions st.C.breaker_trips st.C.breaker_fastpaths
        (if i = List.length controllers - 1 then "" else ","))
    controllers;
  output_string oc "  ]\n}\n";
  close_out oc;
  Format.printf "wrote %s@." file

let fig1 ?extra_flow ~arm ~config ~obs ~spans ~mon () =
  let s =
    Deploy.simple_network ~config ~obs ~spans ~recorder:mon.mon_recorder ()
  in
  arm s.Deploy.network;
  mon_arm mon ~engine:s.Deploy.engine ~obs ~spans
    [ s.Deploy.client; s.Deploy.server ];
  PS.add_exn (C.policy s.controller) ~name:"00"
    "block all\npass all with eq(@src[name], firefox) keep state";
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  inject ~config ~engine:s.engine (fun () ->
      Net.send_from_host s.network ~name:"client"
        (Identxx.Host.first_packet s.client ~flow));
  (* A second client flow from EXE (not firefox ⇒ denied by the policy
     above): the deterministic deny for exercising always-on sampling
     of error traces. *)
  (match extra_flow with
  | None -> ()
  | Some exe ->
      let proc2 = Identxx.Host.run s.client ~user:"mallory" ~exe () in
      let flow2 =
        Identxx.Host.connect s.client ~proc:proc2
          ~dst:(Identxx.Host.ip s.server) ~dst_port:81 ()
      in
      Net.send_from_host s.network ~name:"client"
        (Identxx.Host.first_packet s.client ~flow:flow2));
  Sim.Engine.run s.engine;
  Format.printf "Figure 1: client -> switch -> controller -> ident++ -> install -> deliver@.";
  (s.network, [ ("controller", s.controller) ])

let linear ~arm ~config ~obs ~spans ~mon () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~obs ~spans ~recorder:mon.mon_recorder
      ~switches:4 ~hosts_per_switch:1 ()
  in
  arm network;
  mon_arm mon ~engine ~obs ~spans (Array.to_list hosts);
  PS.add_exn (C.policy controller) ~name:"00" "pass all";
  one_flow ~config ~engine network ~src:hosts.(0) ~dst:hosts.(3);
  Format.printf "linear: one flow across a 4-switch chain@.";
  (network, [ ("controller", controller) ])

let tree ~arm ~config ~obs ~spans ~mon () =
  let engine, network, controller, hosts =
    Deploy.tree_network ~config ~obs ~spans ~recorder:mon.mon_recorder ~depth:3
      ~fanout:2 ~hosts_per_edge:1 ()
  in
  arm network;
  mon_arm mon ~engine ~obs ~spans (Array.to_list hosts);
  PS.add_exn (C.policy controller) ~name:"00" "pass all";
  one_flow ~config ~engine network ~src:hosts.(0)
    ~dst:hosts.(Array.length hosts - 1);
  Format.printf "tree: cross-pod flow over a depth-3 binary tree (7 switches)@.";
  (network, [ ("controller", controller) ])

let branches ~arm ~config ~obs ~spans ~mon () =
  let { Deploy.engine; network; branch_a; branch_b; a1; b1 } =
    Deploy.branch_network ~config ~obs ~spans ~recorder:mon.mon_recorder
      ~policy_a:"block all\npass all with member(@src[name], @dst[branch-b-accepts])"
      ~policy_b:
        "pass all\n\
         intercept response to any augment { branch-b-accepts : \"{ firefox ssh }\" }"
      ()
  in
  arm network;
  mon_arm mon ~engine ~obs ~spans [ a1; b1 ];
  one_flow ~exe:"/usr/bin/firefox" ~config ~engine network ~src:a1 ~dst:b1;
  Format.printf "branches: two collaborating ident++ domains@.";
  (network, [ ("branch-a", branch_a); ("branch-b", branch_b) ])

(* Stand up a generated fabric (Workload.Fabric): one switch per
   topology dpid, one ident++ host per placement slot, one controller
   for the whole fabric. *)
let fabric_network ~config ~obs ~spans ~recorder (fab : Fabric.t) =
  let engine = Sim.Engine.create () in
  let network = Net.create ~engine ~topology:fab.Fabric.topology () in
  let controller = C.create ~config ~obs ~spans ~recorder ~network ~id:0 () in
  let hosts =
    Array.map
      (fun hs ->
        Identxx.Host.create ~name:hs.Fabric.hs_name ~mac:hs.Fabric.hs_mac
          ~ip:hs.Fabric.hs_ip ())
      fab.Fabric.hosts
  in
  Array.iter (fun h -> Deploy.attach_host network h) hosts;
  Deploy.watch_hosts controller hosts;
  (engine, network, controller, hosts)

(* A generated datacenter fabric (--topo, default fat-tree:k=4): print
   the deterministic shape and a sample precomputed route, then push
   one flow across the whole fabric — first host to last host, the
   longest generated path. *)
let fabric ~topo ~arm ~config ~obs ~spans ~mon () =
  let fab = Fabric.build topo in
  let engine, network, controller, hosts =
    fabric_network ~config ~obs ~spans ~recorder:mon.mon_recorder fab
  in
  arm network;
  let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
  mon_arm mon ~engine ~obs ~spans [ src; dst ];
  PS.add_exn (C.policy controller) ~name:"00" "pass all";
  Format.printf "%s@." (Fabric.describe fab);
  (match
     Topo.switch_path (Net.topology network) ~src:(Identxx.Host.name src)
       ~dst:(Identxx.Host.name dst)
   with
  | Some hops ->
      Format.printf "route %s -> %s: %s@." (Identxx.Host.name src)
        (Identxx.Host.name dst)
        (String.concat " -> "
           (List.map (fun (d, _, _) -> Printf.sprintf "s%d" d) hops))
  | None ->
      Format.printf "route %s -> %s: unreachable@." (Identxx.Host.name src)
        (Identxx.Host.name dst));
  one_flow ~config ~engine network ~src ~dst;
  Format.printf "fabric: one cross-fabric flow over %s@."
    (Fabric.spec_to_string fab.Fabric.spec);
  (network, [ ("controller", controller) ])

(* A deterministic concurrent flow burst: 16 hosts on a 4-switch
   chain, every other host opening a flow to host 0 at t=0. All the
   dst-end queries target host 0, so the 15 concurrent misses share one
   wire exchange — the scenario the sharded flow-setup engine exists
   for. With --topo the same convergent burst runs over a generated
   fabric instead. *)
let burst ?fab ~arm ~config ~obs ~spans ~mon () =
  let engine, network, controller, hosts =
    match fab with
    | None ->
        Deploy.linear_network ~config ~obs ~spans
          ~recorder:mon.mon_recorder ~switches:4 ~hosts_per_switch:4 ()
    | Some fab ->
        fabric_network ~config ~obs ~spans ~recorder:mon.mon_recorder
          (Fabric.build fab)
  in
  arm network;
  mon_arm mon ~engine ~obs ~spans (Array.to_list hosts);
  (* The policy reads both ends, so every flow asks the target too. *)
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[name], app) with eq(@dst[name], srv) \
     keep state";
  let target = hosts.(0) in
  (* Signed answers declare how far they hold: the target's listener
     answers alike for every new flow to port 80, so concurrent flows
     may share one exchange with it. *)
  Array.iter (fun h -> ignore (Deploy.sign_host controller h)) hosts;
  let www = Identxx.Host.run target ~user:"www" ~exe:"/bin/srv" () in
  Identxx.Host.listen target ~proc:www ~port:80 ();
  inject ~config ~engine (fun () ->
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
        hosts);
  Sim.Engine.run engine;
  Format.printf "burst: %d concurrent flows converging on one host@."
    (Array.length hosts - 1);
  (network, [ ("controller", controller) ])

(* Optionally capture every frame the scenario emits to a pcap file. *)
let with_capture pcap_path f =
  match pcap_path with
  | None -> f (fun _net -> ())
  | Some path ->
      let buf = Buffer.create 4096 in
      let writer = Netcore.Pcap.create_writer buf in
      let code = f (fun net -> Net.set_capture net (Some writer)) in
      let oc = open_out_bin path in
      Buffer.output_buffer oc buf;
      close_out oc;
      Format.printf "wrote %d frames to %s@." (Netcore.Pcap.packet_count writer) path;
      code

let () =
  let scenario =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("fig1", `Fig1); ("linear", `Linear); ("branches", `Branches);
                  ("tree", `Tree); ("burst", `Burst); ("fabric", `Fabric) ]))
          None
      & info [] ~docv:"SCENARIO"
          ~doc:"fig1, linear, branches, tree, burst or fabric")
  in
  let topo =
    Arg.(
      value
      & opt (some string) None
      & info [ "topo" ] ~docv:"SPEC"
          ~doc:"Generated fabric for the fabric and burst scenarios: \
                fat-tree:k=N (N even) or \
                leaf-spine:spines=N,leaves=N,hosts=N (see doc/TOPOLOGY.md). \
                The fabric scenario defaults to fat-tree:k=4.")
  in
  let pcap =
    Arg.(
      value
      & opt (some string) None
      & info [ "pcap" ] ~docv:"FILE" ~doc:"Write all emitted frames to a pcap file.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the end-of-run summary (delivery and controller \
                counters) to FILE as JSON.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"After the run, print the metrics registry as Prometheus text \
                exposition format and as a JSON snapshot (see \
                doc/OBSERVABILITY.md for the catalog).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the JSON metrics snapshot to FILE (readable with \
                identxx_ctl metrics).")
  in
  let spans_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"FILE"
          ~doc:"Enable flow-setup span collection and write the finished \
                spans to FILE as JSON.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Enable tracing and write finished spans to FILE as JSON \
                Lines (one span object per line); readable with identxx_ctl \
                trace.")
  in
  let trace_sample =
    Arg.(
      value & opt float 1.0
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:"Head-sampling rate in [0,1] (default 1: keep every trace). \
                Denied, timed-out and rejected flows are always kept.")
  in
  let extra_flow =
    Arg.(
      value
      & opt (some string) None
      & info [ "extra-flow" ] ~docv:"EXE"
          ~doc:"fig1 only: start a second client flow from EXE (any \
                non-firefox EXE is denied by the fig1 policy) — a \
                deterministic error trace.")
  in
  let proactive =
    Arg.(
      value & flag
      & info [ "proactive" ]
          ~doc:"Install the policy's whole static slice, bar the regions a \
                log rule may decide, as wildcard flow entries on every switch \
                (see identxx_ctl compile): statically-decided flows never cost \
                a packet-in. Off by default, matching the paper's reactive \
                exchange: only block quick drops are installed.")
  in
  let fp = Fastpath.default_config in
  let fastpath =
    Arg.(
      value & flag
      & info [ "fastpath" ]
          ~doc:"Enable the controller's flow-setup fast path (attribute and \
                decision caches, silent-host circuit breaker). Off by \
                default, matching the controller default.")
  in
  let attr_capacity =
    Arg.(
      value
      & opt int fp.Fastpath.attr_capacity
      & info [ "attr-capacity" ] ~docv:"N"
          ~doc:"Attribute-cache capacity (entries), with --fastpath.")
  in
  let attr_ttl =
    Arg.(
      value
      & opt float (Sim.Time.to_float_s fp.Fastpath.attr_ttl)
      & info [ "attr-ttl" ] ~docv:"SECONDS"
          ~doc:"Attribute-cache entry TTL, with --fastpath.")
  in
  let decision_capacity =
    Arg.(
      value
      & opt int fp.Fastpath.decision_capacity
      & info [ "decision-capacity" ] ~docv:"N"
          ~doc:"Decision-cache capacity (entries), with --fastpath.")
  in
  let breaker_threshold =
    Arg.(
      value
      & opt int fp.Fastpath.breaker_threshold
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:"Consecutive query timeouts before a host's circuit breaker \
                trips, with --fastpath.")
  in
  let breaker_backoff =
    Arg.(
      value
      & opt float (Sim.Time.to_float_s fp.Fastpath.breaker_backoff)
      & info [ "breaker-backoff" ] ~docv:"SECONDS"
          ~doc:"How long a tripped breaker stays open before a re-probe, \
                with --fastpath.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Partition flow setup across N (at least 1) shards with \
                query coalescing and batched installs (see DESIGN.md \
                \xc2\xa712). Shards are run queues only: counters, caches \
                and the --json report are the controller's, so the numbers \
                are shard-count invariant.")
  in
  let health =
    Arg.(
      value
      & opt (some float) None
      & info [ "health" ] ~docv:"SECONDS"
          ~doc:"Enable the windowed health engine with SECONDS-long windows \
                on the simulated clock: 64 window closes are scheduled up \
                front, each sampling the registry and evaluating the default \
                health rules (see doc/OBSERVABILITY.md). Fired events print \
                in a deterministic === health === section.")
  in
  let flight_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:"Enable the flight recorder and write its JSONL dump to FILE \
                (- for stdout) at end of run; readable with identxx_ctl \
                health. The dump reason is the last fired health rule, or \
                end-of-run when none fired.")
  in
  let silence =
    Arg.(
      value & opt_all string []
      & info [ "silence" ] ~docv:"HOST"
          ~doc:"Make HOST's ident++ daemon silent (never answers) — the \
                deterministic way to exercise query timeouts and breaker \
                trips. Repeatable.")
  in
  let run scenario topo pcap verbose json metrics metrics_json spans_file
      trace_out trace_sample extra_flow proactive fastpath attr_capacity
      attr_ttl decision_capacity breaker_threshold breaker_backoff shards
      health flight_out silence =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    if trace_sample < 0. || trace_sample > 1. then begin
      prerr_endline "netsim: --trace-sample must be in [0, 1]";
      exit 1
    end;
    if shards < 1 then begin
      prerr_endline "netsim: --shards must be >= 1";
      exit 1
    end;
    (match health with
    | Some s when s <= 0. ->
        prerr_endline "netsim: --health must be > 0";
        exit 1
    | _ -> ());
    let topo_spec =
      match topo with
      | None -> None
      | Some s -> (
          match Fabric.spec_of_string s with
          | Ok spec -> Some spec
          | Error e ->
              prerr_endline ("netsim: --topo: " ^ e);
              exit 1)
    in
    (match (scenario, topo_spec) with
    | (`Fig1 | `Linear | `Branches | `Tree), Some _ ->
        prerr_endline "netsim: --topo applies to the fabric and burst scenarios";
        exit 1
    | _ -> ());
    let obs = Obs.Registry.create () in
    let recorder =
      Obs.Recorder.create ~enabled:(Option.is_some flight_out) ()
    in
    let mon =
      {
        mon_recorder = recorder;
        mon_health = health;
        mon_silence = silence;
        mon_ticks = 64;
        mon_engine = None;
      }
    in
    let spans =
      Obs.Span.create
        ~enabled:(Option.is_some spans_file || Option.is_some trace_out)
        ()
    in
    Obs.Span.set_sample_rate spans trace_sample;
    let config =
      {
        C.default_config with
        C.proactive;
        C.fastpath =
          (if not fastpath then Fastpath.disabled
           else
             {
               fp with
               Fastpath.attr_capacity;
               attr_ttl = Sim.Time.of_float_s attr_ttl;
               decision_capacity;
               breaker_threshold;
               breaker_backoff = Sim.Time.of_float_s breaker_backoff;
             });
        C.shards = Some (C.sharded shards);
      }
    in
    with_capture pcap (fun arm ->
        (* The trace printed at the end is the network's hop log, which
           starts off: turn it on before the scenario's first hop. *)
        let arm net =
          Sim.Trace.set_enabled (Net.trace net) true;
          arm net
        in
        let name, build =
          match scenario with
          | `Fig1 -> ("fig1", fig1 ?extra_flow)
          | `Linear -> ("linear", linear)
          | `Branches -> ("branches", branches)
          | `Tree -> ("tree", tree)
          | `Burst -> ("burst", burst ?fab:topo_spec)
          | `Fabric ->
              let topo =
                Option.value topo_spec ~default:(Fabric.Fat_tree { k = 4 })
              in
              ("fabric", fabric ~topo)
        in
        let network, controllers = build ~arm ~config ~obs ~spans ~mon () in
        (* Network-level series are sampled from the simulator's own
           counters at snapshot time. *)
        Obs.Registry.counter_fn obs
          ~help:"Packets delivered to end hosts."
          "identxx_net_packets_delivered_total" (fun () ->
            Net.delivered network);
        Obs.Registry.counter_fn obs ~help:"Packets dropped by the fabric."
          "identxx_net_packets_dropped_total" (fun () -> Net.dropped network);
        Obs.Registry.counter_fn obs
          ~help:"Table-miss packets sent to a controller."
          "identxx_net_packet_ins_total" (fun () -> Net.packet_ins network);
        print_summary ~controllers network;
        (match mon.mon_engine with
        | None -> ()
        | Some h ->
            Format.printf "@.=== health ===@.";
            Format.printf "windows closed: %d@." (Obs.Health.windows_closed h);
            let evs = Obs.Health.events h in
            Format.printf "events fired: %d@." (List.length evs);
            List.iter
              (fun e ->
                Format.printf "  [w%d @%gs] %s%s value=%g threshold=%g@."
                  e.Obs.Health.e_window e.Obs.Health.e_at e.Obs.Health.e_rule
                  (match e.Obs.Health.e_labels with
                  | [] -> ""
                  | ls ->
                      "{"
                      ^ String.concat ","
                          (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
                      ^ "}")
                  e.Obs.Health.e_value e.Obs.Health.e_threshold)
              evs);
        Option.iter
          (fun file ->
            let reason =
              match mon.mon_engine with
              | Some h -> (
                  match List.rev (Obs.Health.events h) with
                  | e :: _ -> e.Obs.Health.e_rule
                  | [] -> "end-of-run")
              | None -> "end-of-run"
            in
            let at =
              Sim.Time.to_float_s (Sim.Engine.now (Net.engine network))
            in
            Obs.Recorder.dump_to ~reason ~at ~file recorder;
            if file <> "-" then
              Format.printf "wrote %d flight-recorder events to %s@."
                (Obs.Recorder.count recorder)
                file)
          flight_out;
        if metrics then begin
          Format.printf "@.=== metrics (prometheus) ===@.%s"
            (Obs.Export.prometheus obs);
          Format.printf "@.=== metrics (json) ===@.%s@."
            (Obs.Export.json_string obs)
        end;
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc (Obs.Export.json_string obs);
            output_char oc '\n';
            close_out oc;
            Format.printf "wrote %s@." file)
          metrics_json;
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc
              (Obs.Json.to_string ~pretty:true (Obs.Span.export spans));
            output_char oc '\n';
            close_out oc;
            Format.printf "wrote %d spans to %s@." (Obs.Span.count spans) file)
          spans_file;
        Option.iter
          (fun file ->
            let finished = Obs.Span.finished spans in
            let oc = open_out file in
            List.iter
              (fun sp ->
                output_string oc (Obs.Json.to_string (Obs.Span.to_json sp));
                output_char oc '\n')
              finished;
            close_out oc;
            Format.printf "wrote %d spans to %s (%d sampled out)@."
              (List.length finished) file
              (Obs.Span.sampled_out spans))
          trace_out;
        Option.iter
          (fun file -> write_json ~scenario:name ~file ~controllers network)
          json;
        0)
  in
  let cmd =
    Cmd.v
      (Cmd.info "netsim" ~doc:"Run a named ident++ simulation scenario")
      Term.(
        const run $ scenario $ topo $ pcap $ verbose $ json $ metrics
        $ metrics_json $ spans_file $ trace_out $ trace_sample $ extra_flow
        $ proactive $ fastpath $ attr_capacity $ attr_ttl $ decision_capacity
        $ breaker_threshold $ breaker_backoff $ shards $ health $ flight_out
        $ silence)
  in
  exit (Cmd.eval' cmd)
