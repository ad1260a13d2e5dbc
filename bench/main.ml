(* Benchmark harness: one Bechamel group per experiment in DESIGN.md's
   per-experiment index (E1, E6, E9-E13 are the performance-shaped ones;
   the decision matrices live in bin/experiments.exe).

   Prints ns/op estimated by OLS over the monotonic clock.
   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Netcore
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module PS = Identxx_core.Policy_store
module D = Identxx_core.Decision

let response flow pairs =
  Identxx.Response.make ~flow
    [ List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs ]

let flow ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.tcp ~src:(Ipv4.of_string src) ~dst:(Ipv4.of_string dst)
    ~src_port:sp ~dst_port:dp

(* --- E1: full simulated flow setup (Figure 1) ------------------------ *)

let bench_fig1 =
  (* Entries expire almost immediately so the flow table stays small and
     every iteration measures a fresh table-miss setup. *)
  let config =
    { C.default_config with C.entry_idle_timeout = Some (Sim.Time.us 1) }
  in
  let s = Deploy.simple_network ~config () in
  PS.add_exn (C.policy s.Deploy.controller) ~name:"00"
    "block all\npass all with eq(@src[name], firefox)";
  let proc =
    Identxx.Host.run s.Deploy.client ~user:"alice" ~exe:"/usr/bin/firefox" ()
  in
  let counter = ref 0 in
  Test.make ~name:"fig1/flow-setup-full-exchange"
    (Staged.stage (fun () ->
         incr counter;
         let fl =
           Identxx.Host.connect s.Deploy.client ~proc
             ~dst:(Identxx.Host.ip s.Deploy.server)
             ~src_port:(10000 + (!counter mod 50000))
             ~dst_port:80 ()
         in
         Openflow.Network.send_from_host s.Deploy.network ~name:"client"
           (Identxx.Host.first_packet s.Deploy.client ~flow:fl);
         Sim.Engine.run s.Deploy.engine;
         Identxx.Process_table.disconnect
           (Identxx.Host.processes s.Deploy.client)
           ~flow:fl))

(* --- fast path: warm-cache / breaker-open / post-reload flow setup ----- *)

(* The fastpath benches share one harness: a simple network with
   microsecond entry timeouts (so every iteration is a fresh table-miss)
   and ONE long-lived connection whose first packet is re-sent each
   iteration — the measured body is exactly the table-miss flow setup
   (packet-in, decide, install, deliver), with no per-iteration
   connect/disconnect bookkeeping. The cold member of the group runs the
   identical harness with the fast path disabled, so the warm/cold ratio
   isolates what the caches save. *)
let fastpath_network ?(observe = false) ?spans ?recorder ~fastpath () =
  let config =
    {
      C.default_config with
      C.entry_idle_timeout = Some (Sim.Time.us 1);
      C.require_signed_responses = true;
      C.fastpath = fastpath;
    }
  in
  let s = Deploy.simple_network ?spans ?recorder ~config () in
  (* Representative deployment config, so the cold exchange carries its
     genuine per-flow cost: both daemons sign their answers (§3.4) and
     carry an administrator configuration of realistic size — the
     attributes a site actually publishes (patch level, requirements
     program, inventory tags) — which the caches let warm flows skip
     re-shipping, re-verifying and re-decoding. *)
  Sim.Trace.set_enabled (Openflow.Network.trace s.Deploy.network) false;
  (* Metrics recording is on by default in every controller. The
     fastpath group measures with it off, so its numbers stay
     comparable across commits regardless of what the observability
     layer grows; the obs group re-enables it to price the recording
     in (spans stay at their default: disabled). *)
  if not observe then Obs.Registry.set_enabled (C.metrics s.Deploy.controller) false;
  let admin_config =
    String.concat "\n"
      ("os-patch : 8831"
      :: List.init 24 (fun i ->
             Printf.sprintf "site-attr-%02d : %s" i (String.make 48 'v')))
  in
  List.iter
    (fun (host, key_name) ->
      let key = Idcrypto.Sign.generate key_name in
      Idcrypto.Sign.register (C.keystore s.Deploy.controller) key;
      Identxx.Host.set_signing_key host (Some key);
      match
        Identxx.Daemon.load_config (Identxx.Host.daemon host) ~name:"00-admin"
          admin_config
      with
      | Ok () -> ()
      | Error e -> failwith e)
    [ (s.Deploy.client, "client-host"); (s.Deploy.server, "server-host") ];
  PS.add_exn (C.policy s.Deploy.controller) ~name:"00"
    "block all\npass all with eq(@src[name], firefox)";
  s

(* Sim time accumulates across iterations; a huge TTL and backoff keep
   cache entries and breaker state live for the whole run. *)
let fastpath_on =
  {
    Fastpath.default_config with
    Fastpath.attr_ttl = Sim.Time.s 1_000_000;
    breaker_backoff = Sim.Time.s 1_000_000;
  }

let flow_setup_iter s =
  let proc =
    Identxx.Host.run s.Deploy.client ~user:"alice" ~exe:"/usr/bin/firefox" ()
  in
  let fl =
    Identxx.Host.connect s.Deploy.client ~proc
      ~dst:(Identxx.Host.ip s.Deploy.server)
      ~dst_port:80 ()
  in
  let pkt = Identxx.Host.first_packet s.Deploy.client ~flow:fl in
  fun () ->
    Openflow.Network.send_from_host s.Deploy.network ~name:"client" pkt;
    Sim.Engine.run s.Deploy.engine

let bench_fastpath_cold =
  let s = fastpath_network ~fastpath:Fastpath.disabled () in
  let iter = flow_setup_iter s in
  Test.make ~name:"fastpath/flow-setup-cold-exchange" (Staged.stage iter)

let bench_fastpath_warm =
  let s = fastpath_network ~fastpath:fastpath_on () in
  let iter = flow_setup_iter s in
  (* One cold exchange warms both caches; every measured iteration is a
     pure attribute-cache + decision-cache hit. *)
  iter ();
  Test.make ~name:"fastpath/flow-setup-warm-cache" (Staged.stage iter)

let bench_fastpath_breaker_open =
  let s = fastpath_network ~fastpath:fastpath_on () in
  (* Both daemons silent: the breaker trips during setup, then every
     measured flow decides immediately with absent responses (§4's
     non-ident++-host fallback). *)
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon s.Deploy.client)
    Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon s.Deploy.server)
    Identxx.Daemon.Silent;
  let iter = flow_setup_iter s in
  for _ = 1 to fastpath_on.Fastpath.breaker_threshold do
    iter ()
  done;
  Test.make ~name:"fastpath/flow-setup-breaker-open" (Staged.stage iter)

let bench_fastpath_post_reload =
  let s = fastpath_network ~fastpath:fastpath_on () in
  let iter = flow_setup_iter s in
  iter ();
  (* Each iteration reloads the policy (epoch bump, decision cache
     flushed) and then sets up a flow: attributes stay warm, only the
     PF+=2 evaluation is redone. *)
  Test.make ~name:"fastpath/flow-setup-post-reload"
    (Staged.stage (fun () ->
         PS.add_exn
           (C.policy s.Deploy.controller)
           ~name:"00" "block all\npass all with eq(@src[name], firefox)";
         iter ()))

(* --- E9: decision latency vs ruleset size ---------------------------- *)

let ruleset n tail =
  String.concat "\n"
    (List.init n (fun i ->
         Printf.sprintf "%s from 172.16.%d.0/24 to any port %d"
           (if i mod 2 = 0 then "block" else "pass")
           (i mod 250) (1000 + i))
    @ [ tail ])

let decision_for text =
  let policy = PS.create () in
  PS.add_exn policy ~name:"00" text;
  D.create ~policy ()

let bench_decision_vs_rules =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let src = Some (response fl [ ("name", "firefox"); ("userID", "u1") ]) in
  Test.make_indexed ~name:"setup/decision-vs-rules" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let d =
        decision_for (ruleset n "pass all with eq(@src[name], firefox)")
      in
      let input = { D.flow = fl; src_response = src; dst_response = None } in
      Staged.stage (fun () -> ignore (D.allows d input)))

(* --- E10: switch datapath (cached forwarding) ------------------------ *)

let bench_flow_table =
  Test.make_indexed ~name:"datapath/flow-table-lookup" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let population = Workload.Population.create ~clients:250 ~servers:200 () in
      let tuples = Workload.Flowgen.distinct_tuples ~population ~count:n in
      let table = Openflow.Flow_table.create () in
      List.iter
        (fun ft ->
          Openflow.Flow_table.add table
            (Openflow.Flow_entry.make
               ~fields:(Openflow.Match_fields.of_five_tuple ft)
               [ Openflow.Action.Output 1 ]))
        tuples;
      (* Probe the median entry: cost of a wildcard-table scan. *)
      let probe = Packet.of_five_tuple (List.nth tuples (n / 2)) in
      Staged.stage (fun () ->
          ignore (Openflow.Flow_table.lookup table ~in_port:1 probe)))

(* Table upkeep on a filled table: install a timed entry, expire it,
   then install and strict-delete another. Each call leaves the table as
   it found it, so the cost per call is comparable across sizes. *)
let bench_flow_table_churn =
  Test.make_indexed ~name:"datapath/flow-table-churn" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let population = Workload.Population.create ~clients:250 ~servers:200 () in
      let tuples = Workload.Flowgen.distinct_tuples ~population ~count:(n + 2) in
      let entry ?idle_timeout ft =
        Openflow.Flow_entry.make ?idle_timeout
          ~fields:(Openflow.Match_fields.of_five_tuple ft)
          [ Openflow.Action.Output 1 ]
      in
      let table = Openflow.Flow_table.create () in
      List.iteri
        (fun i ft ->
          if i < n then
            Openflow.Flow_table.add table
              (entry ~idle_timeout:(Sim.Time.s 3600) ft))
        tuples;
      let timed = entry ~idle_timeout:(Sim.Time.ms 1) (List.nth tuples n) in
      let plain = entry (List.nth tuples (n + 1)) in
      Staged.stage (fun () ->
          Openflow.Flow_table.add table timed;
          ignore (Openflow.Flow_table.expire table ~now:(Sim.Time.ms 2));
          Openflow.Flow_table.add table plain;
          Openflow.Flow_table.remove table ~fields:plain.fields))

let bench_switch_process_hit =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  let ft = flow "10.0.0.1" "10.0.0.2" in
  Openflow.Flow_table.add (Openflow.Switch.table sw)
    (Openflow.Flow_entry.make
       ~fields:(Openflow.Match_fields.of_five_tuple ft)
       [ Openflow.Action.Output 2 ]);
  let pkt = Packet.of_five_tuple ft in
  Test.make ~name:"datapath/switch-process-cached"
    (Staged.stage (fun () ->
         ignore (Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 pkt)))

let bench_switch_process_with_timeouts =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  let ft = flow "10.0.0.1" "10.0.0.2" in
  Openflow.Flow_table.add (Openflow.Switch.table sw)
    (Openflow.Flow_entry.make ~idle_timeout:(Sim.Time.s 3600)
       ~fields:(Openflow.Match_fields.of_five_tuple ft)
       [ Openflow.Action.Output 2 ]);
  let pkt = Packet.of_five_tuple ft in
  Test.make ~name:"datapath/switch-process-idle-timeout"
    (Staged.stage (fun () ->
         ignore (Openflow.Switch.process sw ~now:(Sim.Time.ms 1) ~in_port:1 pkt)))

(* --- E11: PF+=2 evaluation throughput, quick ablation ----------------- *)

let bench_pf_eval =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let src = response fl [ ("name", "firefox"); ("userID", "u1") ] in
  let ctx = Pf.Eval.ctx ~src () in
  Test.make_indexed ~name:"pf/eval-last-match" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let env =
        match
          Pf.Env.of_string (ruleset n "pass all with eq(@src[name], firefox)")
        with
        | Ok e -> e
        | Error e -> failwith e
      in
      Staged.stage (fun () -> ignore (Pf.Eval.eval env ctx fl)))

let bench_pf_eval_quick =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let src = response fl [ ("name", "firefox"); ("userID", "u1") ] in
  let ctx = Pf.Eval.ctx ~src () in
  Test.make_indexed ~name:"pf/eval-quick-first" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let env =
        match
          Pf.Env.of_string
            ("pass quick all with eq(@src[name], firefox)\n" ^ ruleset n "block all")
        with
        | Ok e -> e
        | Error e -> failwith e
      in
      Staged.stage (fun () -> ignore (Pf.Eval.eval env ctx fl)))

let bench_pf_allowed =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let requirements =
    "block all pass from any to any port 80 with eq(@src[name], firefox)"
  in
  let src =
    response fl [ ("name", "firefox"); ("requirements", requirements) ]
  in
  let ctx = Pf.Eval.ctx ~src () in
  let env =
    match
      Pf.Env.of_string "block all\npass all with allowed(@src[requirements])"
    with
    | Ok e -> e
    | Error e -> failwith e
  in
  Test.make ~name:"pf/eval-allowed-cached"
    (Staged.stage (fun () -> ignore (Pf.Eval.eval env ctx fl)))

let bench_pf_parse =
  let text = ruleset 100 "pass all with eq(@src[name], firefox)" in
  Test.make ~name:"pf/parse-100-rules"
    (Staged.stage (fun () -> ignore (Pf.Parser.parse text)))

(* --- E11b: decision-diagram analysis (lib/analysis/fdd.mli) ----------- *)

(* analysis/fdd-lookup is the headline: the diagram answers the same
   question as pf/eval-last-match (what verdict does this flow get)
   with a five-node walk instead of a rule scan, so its per-op cost
   must stay flat as the ruleset grows. *)

let bench_env_of text =
  match Pf.Env.of_string text with Ok e -> e | Error e -> failwith e

let bench_fdd_compile =
  Test.make_indexed ~name:"analysis/fdd-compile" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let env = bench_env_of (ruleset n "pass all with eq(@src[name], firefox)") in
      Staged.stage (fun () -> ignore (Analysis.Fdd.compile env)))

let bench_fdd_lookup =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  Test.make_indexed ~name:"analysis/fdd-lookup" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let fdd =
        Analysis.Fdd.compile
          (bench_env_of (ruleset n "pass all with eq(@src[name], firefox)"))
      in
      Staged.stage (fun () -> ignore (Analysis.Fdd.lookup fdd fl)))

(* The Figure-2 deployment (admin header + vendor fragment), embedded
   inline because the bench binary reads no files. The "new" revision
   is a plausible operator edit: the update CDN moved and the vendor
   widened the update port — equiv must find a counterexample, diff
   must localize it. *)
let figure2_policy =
  {|table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
table <skype_update> { 123.123.123.0/24 }
block all
pass from <int_hosts> to !<int_hosts> keep state
pass all with eq(@src[name], skype) with eq(@dst[name], skype)
pass from any to <skype_update> port 80 with eq(@src[name], skype) keep state|}

let figure2_policy_edited =
  {|table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
table <skype_update> { 123.123.200.0/24 }
block all
pass from <int_hosts> to !<int_hosts> keep state
pass all with eq(@src[name], skype) with eq(@dst[name], skype)
pass from any to <skype_update> port 80:443 with eq(@src[name], skype) keep state|}

let bench_fdd_equiv =
  let a = Analysis.Fdd.compile (bench_env_of figure2_policy) in
  let b = Analysis.Fdd.compile (bench_env_of figure2_policy_edited) in
  Test.make ~name:"analysis/equiv-figure2"
    (Staged.stage (fun () -> ignore (Analysis.Fdd.equiv a b)))

let bench_fdd_diff =
  let a = Analysis.Fdd.compile (bench_env_of figure2_policy) in
  let b = Analysis.Fdd.compile (bench_env_of figure2_policy_edited) in
  Test.make ~name:"analysis/diff-figure2"
    (Staged.stage (fun () -> ignore (Analysis.Fdd.diff a b)))

(* --- the proactive flow-table compiler (lib/compiler) ----------------- *)

let bench_compile_table =
  Test.make_indexed ~name:"compile/table-compile" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let fdd =
        Analysis.Fdd.compile
          (bench_env_of (ruleset n "pass all with eq(@src[name], firefox)"))
      in
      Staged.stage (fun () -> ignore (Compiler.compile fdd)))

(* The steady-state recompile: the hash-consed node cache makes an
   edited policy cost only its changed regions, and delta emits the
   minimal flow-mod step. *)
let bench_compile_incremental =
  let cache = Compiler.create_cache () in
  let a = Analysis.Fdd.compile (bench_env_of figure2_policy) in
  let b = Analysis.Fdd.compile (bench_env_of figure2_policy_edited) in
  let old_ = Compiler.compile ~cache a in
  Test.make ~name:"compile/incremental-delta"
    (Staged.stage (fun () ->
         ignore (Compiler.delta ~old_ (Compiler.compile ~cache b))))

(* The counterpart of fig1/flow-setup-full-exchange with the static
   slice pushed into the switches: the flow hits a compiled wildcard
   entry and crosses the fabric with zero packet-ins (asserted in
   test/test_compiler.ml), so the measured cost is pure dataplane. *)
let bench_proactive_hit =
  let config = { C.default_config with C.proactive = true } in
  let s = Deploy.simple_network ~config () in
  PS.add_exn (C.policy s.Deploy.controller) ~name:"00" "pass all";
  (* let the compiled flow-mods land before traffic *)
  Sim.Engine.run s.Deploy.engine;
  let proc =
    Identxx.Host.run s.Deploy.client ~user:"alice" ~exe:"/usr/bin/firefox" ()
  in
  let counter = ref 0 in
  Test.make ~name:"fig1/flow-setup-proactive-hit"
    (Staged.stage (fun () ->
         incr counter;
         let fl =
           Identxx.Host.connect s.Deploy.client ~proc
             ~dst:(Identxx.Host.ip s.Deploy.server)
             ~src_port:(10000 + (!counter mod 50000))
             ~dst_port:80 ()
         in
         Openflow.Network.send_from_host s.Deploy.network ~name:"client"
           (Identxx.Host.first_packet s.Deploy.client ~flow:fl);
         Sim.Engine.run s.Deploy.engine;
         Identxx.Process_table.disconnect
           (Identxx.Host.processes s.Deploy.client)
           ~flow:fl))

(* --- E12: protocol and crypto costs ----------------------------------- *)

let bench_proto =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let r =
    Identxx.Response.make ~flow:fl
      (List.init 4 (fun s ->
           List.init 6 (fun i ->
               Identxx.Key_value.pair
                 (Printf.sprintf "key-%d-%d" s i)
                 (Printf.sprintf "value-%d-%d" s i))))
  in
  let encoded = Identxx.Response.encode r in
  let q = Identxx.Query.make ~flow:fl ~keys:[ "userID"; "name"; "exe-hash" ] in
  let qe = Identxx.Query.encode q in
  [
    Test.make ~name:"proto/query-encode"
      (Staged.stage (fun () -> ignore (Identxx.Query.encode q)));
    Test.make ~name:"proto/query-decode"
      (Staged.stage (fun () -> ignore (Identxx.Query.decode qe)));
    Test.make ~name:"proto/response-encode"
      (Staged.stage (fun () -> ignore (Identxx.Response.encode r)));
    Test.make ~name:"proto/response-decode"
      (Staged.stage (fun () -> ignore (Identxx.Response.decode encoded)));
  ]

let bench_crypto =
  let kp = Idcrypto.Sign.generate "bench" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let data = [ "hash"; "app"; "requirements text of moderate length" ] in
  let signature = Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret data in
  let one_kb = String.make 1024 'x' in
  [
    Test.make ~name:"crypto/sha256-1KiB"
      (Staged.stage (fun () -> ignore (Idcrypto.Sha256.digest one_kb)));
    Test.make ~name:"crypto/sign"
      (Staged.stage (fun () ->
           ignore (Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret data)));
    Test.make ~name:"crypto/verify"
      (Staged.stage (fun () ->
           ignore
             (Idcrypto.Sign.verify ks ~public:kp.Idcrypto.Sign.public ~signature
                data)));
  ]

(* --- wire packet encode/decode ----------------------------------------- *)

let bench_packet =
  let pkt =
    Packet.udp_datagram
      ~src:(Ipv4.of_string "10.0.0.1")
      ~dst:(Ipv4.of_string "10.0.0.2")
      ~src_port:4000 ~dst_port:5000 ~payload:(String.make 512 'p') ()
  in
  let wire = Packet.encode pkt in
  [
    Test.make ~name:"packet/encode-udp-512B"
      (Staged.stage (fun () -> ignore (Packet.encode pkt)));
    Test.make ~name:"packet/decode-udp-512B"
      (Staged.stage (fun () -> ignore (Packet.decode wire)));
  ]

(* --- E13: enforcement scoring over the mixed workload ------------------ *)

let bench_granularity =
  let population = Workload.Population.create ~clients:40 ~servers:8 () in
  let prng = Sim.Prng.create 7 in
  let flows =
    Workload.Flowgen.mixed
      ~intent:(Workload.Flowgen.intent_of_population population)
      ~prng ~population ~count:500 ()
  in
  let identxx =
    Baselines.Systems.identxx_exn
      ~policy:
        "table <lan> { 10.0.0.0/8 }\n\
         table <important> { 10.1.0.1 }\n\
         allowed = \"{ firefox ssh thunderbird skype }\"\n\
         block all\n\
         pass from <lan> to any with member(@src[name], $allowed)\n\
         block from any to <important> with eq(@src[name], skype)"
      ()
  in
  let vanilla =
    Baselines.Systems.vanilla_exn
      ~policy:
        "table <lan> { 10.0.0.0/8 }\n\
         block all\n\
         pass from <lan> to any port 80\n\
         pass from <lan> to any port 22\n\
         pass from <lan> to any port 25"
  in
  [
    Test.make ~name:"ablation/score-identxx-500flows"
      (Staged.stage (fun () ->
           ignore (Baselines.Enforcement.score identxx flows)));
    Test.make ~name:"ablation/score-vanilla-500flows"
      (Staged.stage (fun () ->
           ignore (Baselines.Enforcement.score vanilla flows)));
  ]

(* --- E6: collaboration round over the two-domain fabric ---------------- *)

let bench_collab =
  Test.make ~name:"collab/two-domain-exchange"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let topology = Openflow.Topology.create () in
         Openflow.Topology.add_switch topology 1;
         Openflow.Topology.add_switch topology 2;
         List.iter (Openflow.Topology.add_host topology) [ "a1"; "b1" ];
         Openflow.Topology.link topology
           (Openflow.Topology.Host "a1", 0)
           (Openflow.Topology.Sw 1, 1);
         Openflow.Topology.link topology
           (Openflow.Topology.Host "b1", 0)
           (Openflow.Topology.Sw 2, 1);
         Openflow.Topology.link topology
           (Openflow.Topology.Sw 1, 9)
           (Openflow.Topology.Sw 2, 9);
         let network = Openflow.Network.create ~engine ~topology () in
         let ca = C.create ~network ~id:0 () in
         let cb = C.create ~network ~id:1 () in
         Openflow.Network.assign_switch network 1 0;
         Openflow.Network.assign_switch network 2 1;
         PS.add_exn (C.policy ca) ~name:"00"
           "block all\npass all with member(@src[name], @dst[accepts])";
         PS.add_exn (C.policy cb) ~name:"00" "pass all";
         C.set_response_augment cb (fun _ ->
             [ Identxx.Key_value.pair "accepts" "{ firefox }" ]);
         let a1 =
           Identxx.Host.create ~name:"a1" ~mac:(Mac.of_int 0xa1)
             ~ip:(Ipv4.of_string "10.10.0.1") ()
         in
         let b1 =
           Identxx.Host.create ~name:"b1" ~mac:(Mac.of_int 0xb1)
             ~ip:(Ipv4.of_string "10.20.0.1") ()
         in
         List.iter (Deploy.attach_host network) [ a1; b1 ];
         let proc = Identxx.Host.run a1 ~user:"u" ~exe:"/usr/bin/firefox" () in
         let fl =
           Identxx.Host.connect a1 ~proc ~dst:(Identxx.Host.ip b1) ~dst_port:80 ()
         in
         Openflow.Network.send_from_host network ~name:"a1"
           (Identxx.Host.first_packet a1 ~flow:fl);
         Sim.Engine.run engine))

(* --- routing and state substrates --------------------------------------- *)

let bench_dijkstra =
  Test.make_indexed ~name:"topology/next-hop-linear" ~args:[ 8; 32; 64 ]
    (fun n ->
      let topology = Openflow.Topology.create () in
      for s = 1 to n do
        Openflow.Topology.add_switch topology s
      done;
      for s = 1 to n - 1 do
        Openflow.Topology.link topology
          (Openflow.Topology.Sw s, 1)
          (Openflow.Topology.Sw (s + 1), 0)
      done;
      Openflow.Topology.add_host topology "far";
      Openflow.Topology.link topology
        (Openflow.Topology.Host "far", 0)
        (Openflow.Topology.Sw n, 5);
      Staged.stage (fun () ->
          ignore (Openflow.Topology.next_hop topology ~from:1 ~dst_host:"far")))

(* Generated-fabric routing (BENCH_topo.json, doc/TOPOLOGY.md). The
   next-hop series scales a leaf-spine fabric by an order of magnitude
   in host count: a flat series is the tentpole claim — lookups hit the
   precomputed per-destination tables, they do not search the graph.
   The k=8 fat-tree members price topology churn: an incremental
   link-flap repair vs the full one-Dijkstra-per-destination rebuild,
   and the O(1) host attach/detach path. *)
let topo_leaf_spine ~hosts =
  Workload.Fabric.build
    (Workload.Fabric.Leaf_spine
       { spines = 4; leaves = max 1 (hosts / 8); hosts_per_leaf = 8 })

let topo_fat_tree_k8 () =
  (Workload.Fabric.build (Workload.Fabric.Fat_tree { k = 8 }))
    .Workload.Fabric.topology

(* Warm the routing tables (first lookup materializes them) so staged
   bodies measure steady state. *)
let warm_routes topology =
  match Openflow.Topology.hosts topology with
  | h :: _ -> ignore (Openflow.Topology.next_hop topology ~from:1 ~dst_host:h)
  | [] -> ()

let bench_next_hop =
  Test.make_indexed ~name:"topology/next-hop"
    ~args:[ 8; 32; 64; 256; 1024 ]
    (fun n ->
      let fab = topo_leaf_spine ~hosts:n in
      let topology = fab.Workload.Fabric.topology in
      let hosts = fab.Workload.Fabric.hosts in
      let dst_host = hosts.(Array.length hosts - 1).Workload.Fabric.hs_name in
      (* from the first leaf (dpid 5: spines are 1..4) to a host on the
         last leaf — a spine crossing at every size. *)
      ignore (Openflow.Topology.next_hop topology ~from:5 ~dst_host);
      Staged.stage (fun () ->
          ignore (Openflow.Topology.next_hop topology ~from:5 ~dst_host)))

(* Fat-tree k=8 dpids (doc/TOPOLOGY.md): aggregation 0 of pod 0 is 17,
   edge 0 of pod 0 is 49; their link is agg port 1 <-> edge port 5. *)
let bench_link_flap =
  let topology = topo_fat_tree_k8 () in
  warm_routes topology;
  Test.make ~name:"topology/link-flap-incremental-k8"
    (Staged.stage (fun () ->
         Openflow.Topology.unlink topology (Openflow.Topology.Sw 17, 1);
         Openflow.Topology.link topology ~latency:(Sim.Time.us 10)
           (Openflow.Topology.Sw 17, 1)
           (Openflow.Topology.Sw 49, 5)))

let bench_full_recompute =
  let topology = topo_fat_tree_k8 () in
  warm_routes topology;
  Test.make ~name:"topology/full-recompute-k8"
    (Staged.stage (fun () -> Openflow.Topology.recompute_routes topology))

let bench_host_attach =
  let topology = topo_fat_tree_k8 () in
  warm_routes topology;
  Test.make ~name:"topology/host-attach-detach-k8"
    (Staged.stage (fun () ->
         Openflow.Topology.add_host topology "bench-h";
         Openflow.Topology.link topology
           (Openflow.Topology.Host "bench-h", 0)
           (Openflow.Topology.Sw 49, 9);
         Openflow.Topology.remove_host topology "bench-h"))

let bench_conn_state =
  let cs = Identxx_core.Conn_state.create () in
  let population = Workload.Population.create ~clients:250 ~servers:40 () in
  let tuples = Workload.Flowgen.distinct_tuples ~population ~count:10_000 in
  List.iter (fun ft -> Identxx_core.Conn_state.note cs ~now:Sim.Time.zero ft) tuples;
  let probe = List.nth tuples 5_000 in
  Test.make ~name:"state/conn-state-permits-10k"
    (Staged.stage (fun () ->
         ignore
           (Identxx_core.Conn_state.permits cs ~now:Sim.Time.zero
              (Five_tuple.reverse probe))))

(* --- daemon answer path ------------------------------------------------ *)

let bench_daemon =
  let host =
    Identxx.Host.create ~name:"h" ~mac:(Mac.of_int 1)
      ~ip:(Ipv4.of_string "10.0.0.1") ()
  in
  Identxx.Host.install_exe host ~path:"/usr/bin/firefox" ~content:"ff-image";
  let proc = Identxx.Host.run host ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let fl =
    Identxx.Host.connect host ~proc
      ~dst:(Ipv4.of_string "10.0.0.2")
      ~dst_port:80 ()
  in
  Test.make ~name:"proto/daemon-answer"
    (Staged.stage (fun () ->
         ignore
           (Identxx.Daemon.answer (Identxx.Host.daemon host)
              ~peer:fl.Five_tuple.dst ~proto:fl.Five_tuple.proto
              ~src_port:fl.Five_tuple.src_port ~dst_port:fl.Five_tuple.dst_port
              ~keys:[])))

(* --- sharded flow-setup: concurrent burst ------------------------------ *)

(* The sharded engine's target workload: a burst of concurrent
   table-miss flows converging on one hot host. [shards = None] is the
   sequential baseline; [Some n] partitions flow setup across [n] run
   queues with query coalescing and batched installs. [service] > 0
   charges each shard a simulated per-message cost, so the run's
   makespan (Controller.shard_makespan) models n controller cores —
   the throughput series in BENCH_shard.json divides flows by it. *)
let shard_burst ?(coalesce = true) ?(service = Sim.Time.zero) ~shards ~flows
    () =
  let config =
    {
      C.default_config with
      (* Keep queue delay (flows x service on one shard) well under the
         timeout so the series measures throughput, not timeouts. *)
      C.query_timeout = Sim.Time.s 1;
      C.shards =
        Option.map
          (fun n ->
            { C.shard_count = n; shard_service = service; coalesce })
          shards;
    }
  in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:4 ~hosts_per_switch:4 ()
  in
  PS.add_exn (C.policy controller) ~name:"00" "pass all";
  let n_hosts = Array.length hosts in
  let target = hosts.(0) in
  let procs =
    Array.map (fun h -> Identxx.Host.run h ~user:"u" ~exe:"/bin/app" ()) hosts
  in
  for i = 0 to flows - 1 do
    let hi = 1 + (i mod (n_hosts - 1)) in
    let h = hosts.(hi) in
    let fl =
      Identxx.Host.connect h ~proc:procs.(hi) ~dst:(Identxx.Host.ip target)
        ~src_port:(10000 + (i / (n_hosts - 1)))
        ~dst_port:80 ()
    in
    Openflow.Network.send_from_host network ~name:(Identxx.Host.name h)
      (Identxx.Host.first_packet h ~flow:fl)
  done;
  Sim.Engine.run engine;
  controller

let bench_concurrent_burst =
  let mk name shards =
    Test.make ~name
      (Staged.stage (fun () -> ignore (shard_burst ~shards ~flows:256 ())))
  in
  [
    mk "setup/concurrent-burst-sequential" None;
    mk "setup/concurrent-burst-1shard" (Some 1);
    mk "setup/concurrent-burst-4shard" (Some 4);
  ]

(* --- observability ----------------------------------------------------- *)

(* Prices the metrics layer. The micro pairs pin the registry's two
   promises (O(1) enabled record, one-load-one-branch disabled record);
   the flow-setup member runs the exact fastpath/flow-setup-warm-cache
   harness with recording ON, so the delta against that bench is the
   end-to-end cost of observability on the hottest controller path —
   the acceptance bar is that the disabled path shows no measurable
   regression. *)
let bench_obs =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "bench_counter_total" in
  let h = Obs.Registry.histogram reg "bench_seconds" in
  let reg_off = Obs.Registry.create ~enabled:false () in
  let c_off = Obs.Registry.counter reg_off "bench_counter_total" in
  let h_off = Obs.Registry.histogram reg_off "bench_seconds" in
  let spans_off = Obs.Span.create ~enabled:false () in
  [
    Test.make ~name:"obs/counter-inc"
      (Staged.stage (fun () -> Obs.Registry.Counter.inc c));
    Test.make ~name:"obs/counter-inc-disabled"
      (Staged.stage (fun () -> Obs.Registry.Counter.inc c_off));
    Test.make ~name:"obs/histogram-observe"
      (Staged.stage (fun () -> Obs.Registry.Histogram.observe h 3.2e-4));
    Test.make ~name:"obs/histogram-observe-disabled"
      (Staged.stage (fun () -> Obs.Registry.Histogram.observe h_off 3.2e-4));
    Test.make ~name:"obs/span-start-finish-disabled"
      (Staged.stage (fun () ->
           let sp = Obs.Span.start spans_off ~at:0. "flow-setup" in
           Obs.Span.finish spans_off ~at:0. sp));
    Test.make ~name:"obs/snapshot-export-prometheus"
      (Staged.stage (fun () -> ignore (Obs.Export.prometheus reg)));
  ]

(* A 1000-series registry — the cardinality a real per-source /
   per-shard deployment reaches — prices the exporter and a window
   close (a full snapshot diff) at scale. *)
let bench_obs_scale =
  let reg = Obs.Registry.create () in
  for i = 0 to 499 do
    let labels = [ ("src", Printf.sprintf "10.0.%d.%d" (i / 250) (i mod 250)) ] in
    Obs.Registry.Counter.add
      (Obs.Registry.counter reg ~labels "bench_pkt_total")
      (i mod 7);
    Obs.Registry.Gauge.set (Obs.Registry.gauge reg ~labels "bench_depth")
      (float_of_int i)
  done;
  let window = Obs.Window.create ~interval:1e-9 ~now:0. reg in
  let now = ref 0. in
  let recorder = Obs.Recorder.create ~enabled:true () in
  [
    Test.make ~name:"obs/prometheus-export-1k-series"
      (Staged.stage (fun () -> ignore (Obs.Export.prometheus reg)));
    Test.make ~name:"obs/window-close-1k-series"
      (Staged.stage (fun () ->
           now := !now +. 1.;
           ignore (Obs.Window.close window ~now:!now)));
    Test.make ~name:"obs/recorder-record"
      (Staged.stage (fun () ->
           Obs.Recorder.record recorder ~at:0.
             ~attrs:[ ("flow", "tcp 10.0.0.1:50000 -> 10.0.0.2:80") ]
             "packet-in"));
  ]

let bench_obs_flow_setup =
  let s = fastpath_network ~observe:true ~fastpath:fastpath_on () in
  let iter = flow_setup_iter s in
  iter ();
  Test.make ~name:"obs/flow-setup-warm-metrics-on" (Staged.stage iter)

(* The continuous-monitoring overhead bar: the exact warm flow-setup
   harness with the flight recorder enabled and a health engine ticking
   per flow (windows close on their interval, so a tick is a float
   compare — the recorder events are the per-flow cost). Must land
   within 10% of obs/flow-setup-warm-metrics-on. *)
let bench_obs_flow_setup_health =
  let recorder = Obs.Recorder.create ~enabled:true () in
  let s = fastpath_network ~observe:true ~recorder ~fastpath:fastpath_on () in
  let obs = C.metrics s.Deploy.controller in
  let health =
    Obs.Health.create ~recorder ~registry:obs
      (Obs.Window.create ~interval:3600. ~now:0. obs)
  in
  let iter = flow_setup_iter s in
  iter ();
  Test.make ~name:"obs/flow-setup-warm-health-on"
    (Staged.stage (fun () ->
         iter ();
         ignore (Obs.Health.step health ~now:0.)))

(* --- tracing ----------------------------------------------------------- *)

(* Prices distributed tracing on the hottest path: the exact
   fastpath/flow-setup-warm-cache harness with a span collector that is
   disabled, head-sampling at 1%, and always-on. The off member must
   measure at the warm-cache baseline (a disabled collector hands out
   the shared null span — one load and one branch per call site); the
   deltas price root-span bookkeeping, trace-context derivation, and —
   on flows that miss the caches — propagating the context to the
   daemons and stitching their spans back in. *)
let bench_trace =
  let mk name ~enabled ~rate =
    let spans = Obs.Span.create ~enabled () in
    Obs.Span.set_sample_rate spans rate;
    let s = fastpath_network ~spans ~fastpath:fastpath_on () in
    let iter = flow_setup_iter s in
    iter ();
    Test.make ~name (Staged.stage iter)
  in
  [
    mk "trace/flow-setup-trace-off" ~enabled:false ~rate:1.0;
    mk "trace/flow-setup-trace-sampled-1pct" ~enabled:true ~rate:0.01;
    mk "trace/flow-setup-trace-always-on" ~enabled:true ~rate:1.0;
  ]

(* --- harness ----------------------------------------------------------- *)

let tests =
  Test.make_grouped ~name:"identxx"
    ([
       bench_fig1;
       bench_fastpath_cold;
       bench_fastpath_warm;
       bench_fastpath_breaker_open;
       bench_fastpath_post_reload;
       bench_decision_vs_rules;
       bench_flow_table;
       bench_flow_table_churn;
       bench_switch_process_hit;
       bench_switch_process_with_timeouts;
       bench_pf_eval;
       bench_pf_eval_quick;
       bench_pf_parse;
       bench_pf_allowed;
       bench_fdd_compile;
       bench_fdd_lookup;
       bench_fdd_equiv;
       bench_fdd_diff;
       bench_compile_table;
       bench_compile_incremental;
       bench_proactive_hit;
       bench_daemon;
       bench_collab;
       bench_dijkstra;
       bench_next_hop;
       bench_link_flap;
       bench_full_recompute;
       bench_host_attach;
       bench_conn_state;
       bench_obs_flow_setup;
       bench_obs_flow_setup_health;
     ]
    @ bench_concurrent_burst @ bench_obs @ bench_obs_scale @ bench_trace
    @ bench_proto
    @ bench_crypto @ bench_packet @ bench_granularity)

(* Run every benchmark body exactly once, untimed — `dune build
   @bench-smoke` uses this so bench code can't bit-rot outside the
   (slow) timed runs. *)
let run_smoke () =
  List.iter
    (fun elt ->
      let (Test.V { fn; kind; allocate; free }) = Test.Elt.fn elt in
      let fn = fn `Init in
      (match kind with
      | Test.Uniq ->
          let v = allocate () in
          ignore (fn (Test.Uniq.prj v));
          free v
      | Test.Multiple ->
          let v = allocate 1 in
          ignore (fn (Test.Multiple.prj v).(0));
          free v);
      Printf.printf "smoke: %s ok\n%!" (Test.Elt.name elt))
    (Test.elements tests);
  Printf.printf "all benchmark bodies ran once.\n"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Machine-readable results, one object per benchmark, so the perf
   trajectory can be diffed across commits (see bench/baseline.json). *)
let write_json file rows =
  let oc = open_out file in
  output_string oc "[\n";
  List.iteri
    (fun i (name, ns, runs) ->
      Printf.fprintf oc "  { \"name\": \"%s\", \"ns_per_op\": %s, \"runs\": %d }%s\n"
        (json_escape name)
        (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
        runs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

(* The sharded-engine series (BENCH_shard.json): a 10k-flow concurrent
   burst with a 1 us simulated per-message cost, across shard counts —
   throughput is flows divided by the parallel makespan, all on the
   simulated clock, so the numbers are deterministic — plus the
   coalescing series (the same hot-host burst with the connection table
   off vs on). *)
let run_shards_json file =
  let flows = 10_000 in
  let service = Sim.Time.us 1 in
  let series =
    List.map
      (fun n ->
        let c = shard_burst ~shards:(Some n) ~service ~flows () in
        let st = C.stats c in
        let makespan = Sim.Time.to_float_s (C.shard_makespan c) in
        Printf.printf
          "shards=%d makespan=%.6fs throughput=%.0f flows/s timeouts=%d\n%!" n
          makespan
          (float_of_int flows /. makespan)
          st.C.query_timeouts;
        (n, makespan, st))
      [ 1; 2; 4; 8 ]
  in
  let co_flows = 1_000 in
  let co_off = shard_burst ~shards:(Some 4) ~coalesce:false ~flows:co_flows () in
  let co_on = shard_burst ~shards:(Some 4) ~coalesce:true ~flows:co_flows () in
  let q_off = (C.stats co_off).C.queries_sent in
  let q_on = (C.stats co_on).C.queries_sent in
  Printf.printf "coalescing: %d wire queries without, %d with (%d absorbed)\n%!"
    q_off q_on
    (C.coalesced_queries co_on);
  let speedup n =
    match series with
    | (1, base, _) :: _ -> (
        match List.find_opt (fun (m, _, _) -> m = n) series with
        | Some (_, mk, _) -> base /. mk
        | None -> nan)
    | _ -> nan
  in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"workload\": \"concurrent-burst\",\n  \"flows\": %d,\n\
    \  \"service_us\": 1,\n  \"shards\": [\n"
    flows;
  List.iteri
    (fun i (n, makespan, (st : C.stats)) ->
      Printf.fprintf oc
        "    { \"shards\": %d, \"makespan_s\": %.6f, \
         \"throughput_flows_per_s\": %.0f,\n\
        \      \"flows_seen\": %d, \"query_timeouts\": %d }%s\n"
        n makespan
        (float_of_int flows /. makespan)
        st.C.flows_seen st.C.query_timeouts
        (if i = List.length series - 1 then "" else ","))
    series;
  Printf.fprintf oc
    "  ],\n  \"speedup_4_shards\": %.2f,\n  \"speedup_8_shards\": %.2f,\n\
    \  \"coalescing\": {\n    \"flows\": %d,\n\
    \    \"wire_queries_without\": %d,\n    \"wire_queries_with\": %d,\n\
    \    \"duplicates_absorbed\": %d,\n    \"wire_exchanges\": %d\n  }\n}\n"
    (speedup 4) (speedup 8) co_flows q_off q_on
    (C.coalesced_queries co_on)
    (C.wire_exchanges co_on);
  close_out oc;
  Printf.printf "wrote %s\n" file

(* The generated-fabric routing series (BENCH_topo.json): steady-state
   next-hop cost across an order of magnitude of hosts (flat = O(1)),
   plus the cost of repairing the routing state after a k=8 fat-tree
   link flap — incrementally vs from scratch — with the engine's own
   counters showing how much of the fabric each repair touched. *)
let run_topo_json file =
  let time_ns f iters =
    f ();
    let t0 = Monotonic_clock.get () in
    for _ = 1 to iters do
      f ()
    done;
    let t1 = Monotonic_clock.get () in
    (t1 -. t0) /. float_of_int iters
  in
  let sizes = [ 8; 32; 64; 256; 1024 ] in
  let next_hop_series =
    List.map
      (fun hosts ->
        let fab = topo_leaf_spine ~hosts in
        let topology = fab.Workload.Fabric.topology in
        let arr = fab.Workload.Fabric.hosts in
        let dst_host = arr.(Array.length arr - 1).Workload.Fabric.hs_name in
        let ns =
          time_ns
            (fun () ->
              ignore (Openflow.Topology.next_hop topology ~from:5 ~dst_host))
            200_000
        in
        Printf.printf "topology/next-hop hosts=%d %.1f ns/op\n%!" hosts ns;
        (hosts, ns))
      sizes
  in
  let topology = topo_fat_tree_k8 () in
  warm_routes topology;
  let flap () =
    Openflow.Topology.unlink topology (Openflow.Topology.Sw 17, 1);
    Openflow.Topology.link topology ~latency:(Sim.Time.us 10)
      (Openflow.Topology.Sw 17, 1)
      (Openflow.Topology.Sw 49, 5)
  in
  let incr_ns = time_ns flap 200 in
  let full_ns =
    time_ns (fun () -> Openflow.Topology.recompute_routes topology) 20
  in
  (* Deterministic repair-scope counters for one link-down + link-up. *)
  let s0 = Openflow.Topology.routing_stats topology in
  flap ();
  let s1 = Openflow.Topology.routing_stats topology in
  let recomputed =
    s1.Openflow.Routing.dests_recomputed - s0.Openflow.Routing.dests_recomputed
  in
  let skipped =
    s1.Openflow.Routing.dests_skipped - s0.Openflow.Routing.dests_skipped
  in
  let settled =
    s1.Openflow.Routing.nodes_settled - s0.Openflow.Routing.nodes_settled
  in
  Printf.printf
    "link-flap k=8: incremental %.1f us, full recompute %.1f us (%.1fx); per \
     flap: %d trees repaired, %d skipped, %d nodes settled\n\
     %!"
    (incr_ns /. 1e3) (full_ns /. 1e3) (full_ns /. incr_ns) recomputed skipped
    settled;
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"next_hop\": [\n";
  List.iteri
    (fun i (hosts, ns) ->
      Printf.fprintf oc "    { \"hosts\": %d, \"ns_per_op\": %.1f }%s\n" hosts
        ns
        (if i = List.length next_hop_series - 1 then "" else ","))
    next_hop_series;
  Printf.fprintf oc
    "  ],\n\
    \  \"link_flap_k8\": {\n\
    \    \"incremental_us\": %.1f,\n\
    \    \"full_recompute_us\": %.1f,\n\
    \    \"speedup\": %.1f,\n\
    \    \"per_flap_dests_recomputed\": %d,\n\
    \    \"per_flap_dests_skipped\": %d,\n\
    \    \"per_flap_nodes_settled\": %d\n\
    \  }\n\
     }\n"
    (incr_ns /. 1e3) (full_ns /. 1e3) (full_ns /. incr_ns) recomputed skipped
    settled;
  close_out oc;
  Printf.printf "wrote %s\n" file

let run_timed json_file =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.2) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        let runs =
          match Hashtbl.find_opt raw name with
          | Some b -> b.Benchmark.stats.Benchmark.samples
          | None -> 0
        in
        (name, ns, runs) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Printf.printf "%-55s %14s %8s\n" "benchmark" "ns/op" "runs";
  Printf.printf "%s\n" (String.make 80 '-');
  List.iter
    (fun (name, ns, runs) -> Printf.printf "%-55s %14.1f %8d\n" name ns runs)
    rows;
  Printf.printf "\n%d benchmarks completed.\n" (List.length rows);
  Option.iter (fun file -> write_json file rows) json_file

let () =
  let smoke = ref false
  and json_file = ref None
  and shards_file = ref None
  and topo_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--shards-json" :: file :: rest ->
        shards_file := Some file;
        parse rest
    | "--topo-json" :: file :: rest ->
        topo_file := Some file;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: main.exe [--smoke] [--json FILE] [--shards-json FILE] \
           [--topo-json FILE]\n";
        Printf.eprintf "unknown argument: %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke then run_smoke ()
  else
    match (!shards_file, !topo_file) with
    | Some file, _ -> run_shards_json file
    | None, Some file -> run_topo_json file
    | None, None -> run_timed !json_file
