(* Benchmark harness: one Bechamel group per experiment in DESIGN.md's
   per-experiment index (E1, E6, E9-E13 are the performance-shaped ones;
   the decision matrices live in bin/experiments.exe).

   Prints ns/op and minor words/op, each estimated by OLS (over the
   monotonic clock and the minor-heap allocation counter).
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
  (* Metrics recording is on by default in every controller. The
     fastpath group measures with it off, so its numbers stay
     comparable across commits regardless of what the observability
     layer grows; the obs group re-enables it to price the recording
     in (spans stay at their default: disabled). *)
  if not observe then Obs.Registry.set_enabled (C.metrics s.Deploy.controller) false;
  (* Representative deployment config, so the cold exchange carries its
     genuine per-flow cost: both daemons sign their answers (§3.4) and
     carry an administrator configuration of realistic size — the
     attributes a site actually publishes (patch level, requirements
     program, inventory tags) — which the caches let warm flows skip
     re-shipping, re-verifying and re-decoding. *)
  let admin_config =
    String.concat "\n"
      ("os-patch : 8831"
      :: List.init 24 (fun i ->
             Printf.sprintf "site-attr-%02d : %s" i (String.make 48 'v')))
  in
  List.iter
    (fun host ->
      ignore (Deploy.sign_host s.Deploy.controller host);
      match
        Identxx.Daemon.load_config (Identxx.Host.daemon host) ~name:"00-admin"
          admin_config
      with
      | Ok () -> ()
      | Error e -> failwith e)
    [ s.Deploy.client; s.Deploy.server ];
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
          Openflow.Flow_table.add table ~now:Sim.Time.zero
            (Openflow.Flow_entry.rule
               ~fields:(Openflow.Match_fields.of_five_tuple ft)
               [ Openflow.Action.Output 1 ]))
        tuples;
      (* Probe the median entry. Five-tuple-shaped entries live in
         per-tuple buckets, so this is the cost of the exact-match path;
         datapath/wildcard-lookup prices the wildcard scan. *)
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
        Openflow.Flow_entry.rule ?idle_timeout
          ~fields:(Openflow.Match_fields.of_five_tuple ft)
          [ Openflow.Action.Output 1 ]
      in
      let table = Openflow.Flow_table.create () in
      List.iteri
        (fun i ft ->
          if i < n then
            Openflow.Flow_table.add table ~now:Sim.Time.zero
              (entry ~idle_timeout:(Sim.Time.s 3600) ft))
        tuples;
      let timed = entry ~idle_timeout:(Sim.Time.ms 1) (List.nth tuples n) in
      let plain = entry (List.nth tuples (n + 1)) in
      Staged.stage (fun () ->
          Openflow.Flow_table.add table ~now:Sim.Time.zero timed;
          ignore (Openflow.Flow_table.expire table ~now:(Sim.Time.ms 2));
          Openflow.Flow_table.add table ~now:Sim.Time.zero plain;
          Openflow.Flow_table.remove table ~priority:plain.priority
            ~fields:plain.fields))

(* [n] wildcard entries at distinct priorities, each on its own /24
   destination (10.1.1.0/24, 10.1.2.0/24, ...): the shape of a compiled
   proactive table, whose entries all live in the table's ordered
   wildcard band. *)
let wildcard_dst i = Ipv4.of_octets 10 (1 + (i / 256)) (i mod 256) 0

let add_wildcards table n =
  for i = 1 to n do
    Openflow.Flow_table.add table ~now:Sim.Time.zero
      (Openflow.Flow_entry.rule ~priority:(100 + i)
         ~fields:
           {
             Openflow.Match_fields.any with
             nw_dst = Some (Prefix.make (wildcard_dst i) 24);
           }
         [ Openflow.Action.Output 1 ])
  done

let wildcard_table n =
  let table = Openflow.Flow_table.create () in
  add_wildcards table n;
  table

(* A lookup that matches the median wildcard: it scans past the n/2
   entries of higher priority first. *)
let bench_wildcard_lookup =
  Test.make_indexed ~name:"datapath/wildcard-lookup" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let table = wildcard_table n in
      let i = (n / 2) + 1 in
      let probe =
        Packet.tcp_syn ~src:(Ipv4.of_string "10.0.0.1")
          ~dst:(Ipv4.succ (wildcard_dst i))
          ~src_port:40000 ~dst_port:80 ()
      in
      (match Openflow.Flow_table.lookup table ~in_port:1 probe with
      | Some e when e.rule.priority = 100 + i -> ()
      | _ -> failwith "datapath/wildcard-lookup: probe misses the median entry");
      Staged.stage (fun () ->
          ignore (Openflow.Flow_table.lookup table ~in_port:1 probe)))

(* A proactive flow-mod pair in the middle of a wildcard table: add an
   entry, then strict-delete it, leaving the table as it was. The delete
   names the entry's priority, so it prices an O(log w + r) search of
   that priority's run plus the memmove that closes the gap. *)
let bench_wildcard_churn =
  Test.make_indexed ~name:"datapath/wildcard-churn" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let table = wildcard_table n in
      let fields =
        {
          Openflow.Match_fields.any with
          nw_src = Some (Prefix.of_string "10.2.0.0/24");
        }
      in
      let priority = 100 + (n / 2) in
      let e =
        Openflow.Flow_entry.rule ~priority ~fields [ Openflow.Action.Output 2 ]
      in
      Staged.stage (fun () ->
          Openflow.Flow_table.add table ~now:Sim.Time.zero e;
          Openflow.Flow_table.remove table ~priority ~fields))

(* The same pair as a switch receives it: [Switch.apply] of a prebuilt
   add, then of its strict delete, on a switch whose table 0 holds [n]
   wildcards. The add's words are the entry the table keeps, which holds
   the flow-mod's rule itself. *)
let bench_flow_mod_apply =
  Test.make_indexed ~name:"datapath/flow-mod-apply" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
      add_wildcards (Openflow.Switch.table sw) n;
      let fields =
        {
          Openflow.Match_fields.any with
          nw_src = Some (Prefix.of_string "10.2.0.0/24");
        }
      in
      let priority = 100 + (n / 2) in
      let add =
        Openflow.Message.add_flow ~priority ~fields [ Openflow.Action.Output 2 ]
      and del = Openflow.Message.delete_strict ~table_id:0 ~priority ~fields in
      Staged.stage (fun () ->
          ignore (Openflow.Switch.apply sw ~now:Sim.Time.zero add);
          ignore (Openflow.Switch.apply sw ~now:Sim.Time.zero del)))

let bench_switch_process_hit =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  let ft = flow "10.0.0.1" "10.0.0.2" in
  Openflow.Flow_table.add (Openflow.Switch.table sw) ~now:Sim.Time.zero
    (Openflow.Flow_entry.rule
       ~fields:(Openflow.Match_fields.of_five_tuple ft)
       [ Openflow.Action.Output 2 ]);
  let pkt = Packet.of_five_tuple ft in
  Test.make ~name:"datapath/switch-process-cached"
    (Staged.stage (fun () ->
         ignore (Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 pkt)))

let bench_switch_process_with_timeouts =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  let ft = flow "10.0.0.1" "10.0.0.2" in
  Openflow.Flow_table.add (Openflow.Switch.table sw) ~now:Sim.Time.zero
    (Openflow.Flow_entry.rule ~idle_timeout:(Sim.Time.s 3600)
       ~fields:(Openflow.Match_fields.of_five_tuple ft)
       [ Openflow.Action.Output 2 ]);
  let pkt = Packet.of_five_tuple ft in
  Test.make ~name:"datapath/switch-process-idle-timeout"
    (Staged.stage (fun () ->
         ignore (Openflow.Switch.process sw ~now:(Sim.Time.ms 1) ~in_port:1 pkt)))

(* --- simulator event queue ---------------------------------------------- *)

(* One schedule plus one dispatch on an engine that keeps [n] events
   pending, one nanosecond apart: each call queues an event behind the
   last and dispatches the first, so the queue stays at [n]. The words
   per call are the event's own record. *)
let bench_schedule_dispatch =
  Test.make_indexed ~name:"sim/schedule-dispatch" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let engine = Sim.Engine.create () in
      let noop () = () in
      for i = 1 to n do
        Sim.Engine.schedule engine ~delay:(Sim.Time.ns i) noop
      done;
      Staged.stage (fun () ->
          Sim.Engine.schedule engine ~delay:(Sim.Time.ns n) noop;
          ignore (Sim.Engine.step engine)))

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

(* The §1 enterprise policy (perfbench's enterprise-steady) through
   [Decision.decide], the controller's decision step: one op decides a
   flow whose source runs an approved app and one whose source does
   not. *)
let bench_pf_decide_enterprise =
  let store = PS.create () in
  PS.add_exn store ~name:"00"
    "table <fileserver> { 10.0.0.100 }\n\
     allowed = \"{ firefox ssh thunderbird skype }\"\n\
     block all\n\
     pass all with member(@src[name], $allowed) keep state\n\
     block log from any to <fileserver> with eq(@src[name], skype)";
  let d = D.create ~policy:store () in
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let input app =
    { D.flow = fl; src_response = Some (response fl [ ("name", app) ]); dst_response = None }
  in
  let member = input "firefox" and non_member = input "dropbox" in
  Test.make ~name:"pf/decide-enterprise"
    (Staged.stage (fun () ->
         ignore (D.decide d member);
         ignore (D.decide d non_member)))

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

(* A one-rule edit after [n] unchanged rules, recompiled from the steps
   of the policy before it: only the edited rule is applied. Against
   analysis/fdd-compile at the same [n], the difference is the
   unchanged prefix. The edited rule's source block lies outside every
   prior rule's, so its path crosses only the source node's splits.
   The edit leaves the [with] inputs alone, so the recompiles share one
   finalization memo, which holds the edited diagram after the first
   run: the row reads the fold, the edited rule's application and the
   memo's hit. (An edit that adds or drops a conditional rule
   finalizes the whole diagram afresh.) *)
let bench_fdd_recompile_edit =
  Test.make_indexed ~name:"analysis/fdd-recompile-edit" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let base = bench_env_of (ruleset n "pass from 10.9.0.0/16 to any port 53") in
      let edited = bench_env_of (ruleset n "block from 10.9.0.0/16 to any port 53") in
      let _, steps = Analysis.Fdd.recompile Analysis.Fdd.no_steps base in
      Staged.stage (fun () -> ignore (Analysis.Fdd.recompile steps edited)))

let bench_fdd_lookup =
  let fl = flow "10.0.0.1" "10.1.0.1" in
  Test.make_indexed ~name:"analysis/fdd-lookup" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let fdd =
        Analysis.Fdd.compile
          (bench_env_of (ruleset n "pass all with eq(@src[name], firefox)"))
      in
      Staged.stage (fun () -> ignore (Analysis.Fdd.lookup fdd fl)))

(* The deep lint (shadowing, conflicts, fallthrough) over the same
   rulesets, and over a five-rule policy whose one table holds 64 /24s:
   that table shape is where per-rule flow-space unions get large. *)
let bench_decls_of text =
  match Pf.Parser.parse text with Ok d -> d | Error e -> failwith e

let bench_check_deep =
  Test.make_indexed ~name:"analysis/check-deep" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let decls =
        bench_decls_of (ruleset n "pass all with eq(@src[name], firefox)")
      in
      Staged.stage (fun () -> ignore (Analysis.Check.run decls)))

let bench_check_deep_table =
  Test.make_indexed ~name:"analysis/check-deep-table" ~args:[ 64 ] (fun n ->
      let lan =
        String.concat " "
          (List.init n (fun i -> Printf.sprintf "10.%d.%d.0/24" i (7 * i mod 256)))
      in
      let decls =
        bench_decls_of
          (Printf.sprintf
             "table <lan> { %s }\n\
              block all\n\
              pass from <lan> to <lan> port 1000:2000\n\
              block from any to <lan> port 22\n\
              pass from <lan> to any\n\
              block from <lan> to <lan>"
             lan)
      in
      Staged.stage (fun () -> ignore (Analysis.Check.run decls)))

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

(* The steady-state reload, as a controller runs it: a one-rule edit
   after [n] untouched rules, and back again, each compiled with the
   cache of the compile before it, which numbers it after the table
   before it, and diffed into the minimal flow-mod step. Each run
   re-plans the edited rule's path alone: the source node, whose parts
   the untouched rules' /24s make, and the nodes below it. The entries
   under plans the edit left alone are the last table's, so the row's
   words per op against [n] are that node's parts and the table's
   slots. The diagrams are compiled beforehand;
   analysis/fdd-recompile-edit prices their recompile. *)
let bench_compile_incremental =
  Test.make_indexed ~name:"compile/incremental-delta" ~args:[ 10; 100; 1000 ]
    (fun n ->
      let diagram tail = Analysis.Fdd.compile (bench_env_of (ruleset n tail)) in
      let revisions =
        [|
          diagram "pass from 10.9.0.0/16 to any port 53";
          diagram "block from 10.9.0.0/16 to any port 53";
        |]
      in
      let cache = Compiler.create_cache () in
      let installed = ref (Compiler.compile ~cache revisions.(0)) and next = ref 1 in
      Staged.stage (fun () ->
          let cur = Compiler.compile ~cache revisions.(!next) in
          ignore (Compiler.delta ~old_:!installed cur);
          installed := cur;
          next := 1 - !next))

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

(* One proactive policy reload on a 13-switch tree with 18 hosts: the
   edits file flips between two revisions, and each run compiles,
   numbers, diffs and lowers the change and lets the switches apply
   its flow-mods (the allocation gate in test/test_compiler.ml measures
   one such reload). *)
let bench_proactive_reload =
  let config = { C.default_config with C.proactive = true } in
  let engine, _, controller, _ =
    Deploy.tree_network ~config ~depth:3 ~fanout:3 ~hosts_per_edge:2 ()
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80\n\
     pass proto tcp from 10.0.2.0/24 to any port 22";
  let edits =
    [|
      "pass proto tcp from 10.0.2.0/24 to 10.0.1.0/24 port 25";
      "pass proto tcp from 10.0.1.0/24 to 10.0.2.0/24 port 25\n\
       block proto tcp from 10.0.2.0/24 to 10.0.1.0/24 port 443";
    |]
  in
  let counter = ref 0 in
  Test.make ~name:"proactive/reload"
    (Staged.stage (fun () ->
         incr counter;
         PS.add_exn (C.policy controller) ~name:"50" edits.(!counter land 1);
         Sim.Engine.run engine))

(* A first packet in hardware under a compiled table: table 0's
   wildcard pass entry jumps to table 1, whose /32 route for the
   destination (one of 16) forwards it. *)
let bench_proactive_table_hit =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  let install msg = ignore (Openflow.Switch.apply sw ~now:Sim.Time.zero msg) in
  install
    (Openflow.Message.add_flow ~priority:0x6000
       ~fields:
         {
           Openflow.Match_fields.any with
           nw_proto = Some Proto.Tcp;
           tp_dst = Some 80;
         }
       [ Openflow.Action.Goto_table 1 ]);
  for h = 1 to 16 do
    install
      (Openflow.Message.add_flow ~table_id:1
         ~fields:
           {
             Openflow.Match_fields.any with
             nw_dst = Some (Prefix.host (Ipv4.of_octets 10 0 0 h));
           }
         [ Openflow.Action.Output (1 + (h land 1)) ])
  done;
  let pkt = Packet.of_five_tuple (flow "10.0.0.1" "10.0.0.2") in
  Test.make ~name:"proactive/hit"
    (Staged.stage (fun () ->
         ignore (Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 pkt)))

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
  (* A signed answer of the size the daemons send: built-in pairs, app
     config, a runtime pair and a 25-pair administrator config, four
     sections and ~1.8 KB covered by the signature. *)
  let kp = Idcrypto.Sign.generate "bench-host" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let answer =
    let kv = Identxx.Key_value.pair in
    Identxx.Response.make ~flow:fl
      [
        [
          kv "userID" "alice"; kv "groupID" "staff,dev"; kv "pid" "4242";
          kv "exe-path" "/usr/bin/firefox"; kv "name" "firefox";
          kv "app-name" "firefox";
          kv "exe-hash" (Idcrypto.Sha256.hexdigest "firefox-binary");
        ];
        [ kv "version" "91.0"; kv "requirements" "pass from any to any port 443" ];
        [ kv "url" "https://example.com/" ];
        kv "os-patch" "8831"
        :: List.init 24 (fun i ->
               kv (Printf.sprintf "site-attr-%02d" i) (String.make 48 'v'));
      ]
  in
  let host = Ipv4.of_string "10.0.0.1" and peer = Ipv4.of_string "10.1.0.1" in
  let sign () =
    Identxx.Signed.sign ~keypair:kp ~host ~peer ~nonce:"5eed0123456789ab" answer
  in
  let signed = sign () in
  (* A controller's query as it sends one: the plan's hint lines,
     rendered once, and a nonce drawn into the payload; the daemon
     decodes what it sent. *)
  let hints = Identxx.Query.hints [ "userID"; "name"; "exe-hash" ] in
  let nonce = Some (Sim.Prng.create 1) in
  let send () = Identxx.Query.write hints ~flow:fl ~nonce ~trace:None in
  let qe = Identxx.Query.encode (send ()) in
  [
    Test.make ~name:"proto/query-encode"
      (Staged.stage (fun () -> ignore (send ())));
    Test.make ~name:"proto/query-decode"
      (Staged.stage (fun () -> ignore (Identxx.Query.decode qe)));
    Test.make ~name:"proto/response-encode"
      (Staged.stage (fun () -> ignore (Identxx.Response.encode r)));
    Test.make ~name:"proto/response-decode"
      (Staged.stage (fun () -> ignore (Identxx.Response.decode encoded)));
    Test.make ~name:"proto/response-sign"
      (Staged.stage (fun () -> ignore (sign ())));
    (* Cold: re-registering the signer empties its verified-section
       cache, so every section tag is computed (the row includes
       preparing the key). Warm: the section tags were verified before,
       and only the binding tag is computed. *)
    Test.make ~name:"proto/response-verify-cold"
      (Staged.stage (fun () ->
           Idcrypto.Sign.register ks kp;
           ignore (Identxx.Signed.verify ks signed)));
    Test.make ~name:"proto/response-verify-warm"
      (Staged.stage (fun () -> ignore (Identxx.Signed.verify ks signed)));
    (* The readers of that answer, each alone: one [@src[key]] value, the
       audit summary's keys, the values a decision-cache key reads (the
       hints above), and the signature section. *)
    Test.make ~name:"proto/response-latest"
      (Staged.stage (fun () ->
           ignore (Identxx.Response.latest signed Identxx.Key_value.app_name)));
    Test.make ~name:"proto/response-latest-slices"
      (let keys = Identxx_core.Audit.interesting_keys in
       let found = Array.make (List.length keys) Identxx.Slice.none in
       Staged.stage (fun () -> Identxx.Response.latest_slices signed keys found));
    Test.make ~name:"proto/response-fold-values"
      (let count n _ _ len = n + len in
       let fold key = Identxx.Response.fold_values signed key count 0 in
       Staged.stage (fun () -> ignore (fold "userID" + fold "name" + fold "exe-hash")));
    Test.make ~name:"proto/response-signature"
      (Staged.stage (fun () -> ignore (Identxx.Signed.signature signed)));
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

(* --- five-tuple hashing ---------------------------------------------------- *)

(* Every exact-match flow-table lookup, controller pending-table
   operation and shard choice hashes a five-tuple. *)
let bench_five_tuple_hash =
  let ft =
    Five_tuple.tcp ~src:(Ipv4.of_string "10.0.0.1") ~dst:(Ipv4.of_string "10.1.0.1")
      ~src_port:40000 ~dst_port:443
  in
  Test.make ~name:"netcore/five-tuple-hash"
    (Staged.stage (fun () -> ignore (Five_tuple.hash ft)))

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

(* The network is built once; each run sends one new flow (a fresh
   source port) from a1 to b1 whose entries expire almost at once, so
   every run times one collaboration round: A's query to b1, branch B's
   augment of the answer in transit, and A's decision on it. *)
let bench_collab =
  let config =
    { C.default_config with C.entry_idle_timeout = Some (Sim.Time.us 1) }
  in
  let { Deploy.engine; network; a1; b1; _ } =
    Deploy.branch_network ~config
      ~policy_a:"block all\npass all with member(@src[name], @dst[accepts])"
      ~policy_b:
        "pass all\nintercept response to any augment { accepts : \"{ firefox }\" }"
      ()
  in
  let proc = Identxx.Host.run a1 ~user:"u" ~exe:"/usr/bin/firefox" () in
  let counter = ref 0 in
  Test.make ~name:"collab/two-domain-exchange"
    (Staged.stage (fun () ->
         incr counter;
         let fl =
           Identxx.Host.connect a1 ~proc ~dst:(Identxx.Host.ip b1)
             ~src_port:(10000 + (!counter mod 50000))
             ~dst_port:80 ()
         in
         Openflow.Network.send_from_host network ~name:"a1"
           (Identxx.Host.first_packet a1 ~flow:fl);
         Sim.Engine.run engine;
         Identxx.Process_table.disconnect (Identxx.Host.processes a1) ~flow:fl))

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

(* The keep-state check a table miss makes, against 10,000 noted flows:
   [permits] on the reverse of a noted flow (a hit, found the second
   way) and on a flow never noted (a miss, probed both ways). The flows
   are built beforehand, so the row reads what [permits] allocates: 0
   words, where the Hashtbl lookups built the reverse and an option. *)
let bench_conn_state_permits =
  let cs = Identxx_core.Conn_state.create () in
  let population = Workload.Population.create ~clients:250 ~servers:40 () in
  let tuples =
    Array.of_list (Workload.Flowgen.distinct_tuples ~population ~count:10_001)
  in
  for i = 0 to 9_999 do
    Identxx_core.Conn_state.note cs ~now:Sim.Time.zero tuples.(i)
  done;
  let hit = Five_tuple.reverse tuples.(5_000) and miss = tuples.(10_000) in
  Test.make ~name:"core/conn-state-permits"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Identxx_core.Conn_state.permits cs ~now:Sim.Time.zero hit));
         ignore
           (Sys.opaque_identity (Identxx_core.Conn_state.permits cs ~now:Sim.Time.zero miss))))

(* Every decision writes one audit entry. The same processes' summaries
   recur, so after the first record an entry shares both summaries,
   found by hashing and comparing the answers' values where they sit,
   and the matched rule. Once the ring has grown to its capacity a
   record writes one row in place: 0 words, where an entry, its list
   cell and the amortised trims read 26.9. *)
let bench_audit_record =
  let audit = Identxx_core.Audit.create () in
  let fl = flow "10.0.0.1" "10.1.0.1" in
  let src =
    Some
      (response fl
         [ ("userID", "alice"); ("groupID", "staff"); ("name", "firefox") ])
  and dst =
    Some (response fl [ ("userID", "www"); ("groupID", "daemon"); ("name", "httpd") ])
  in
  let verdict =
    D.decide_exn
      (decision_for "block all\npass all with eq(@src[name], firefox)")
      { D.flow = fl; src_response = src; dst_response = None }
  in
  Test.make ~name:"core/audit-record"
    (Staged.stage (fun () ->
         Identxx_core.Audit.record audit ~at:Sim.Time.zero ~flow:fl ~verdict
           ~src ~dst))

(* The front end's pending-table probe: the two lookups
   [Controller.names_pending] makes for each daemon answer, against [n]
   flows pending at once (silent daemons, a far-off timeout). Each call
   probes one pending flow and one that is not, so both lookups of a
   miss and the second of a hit are priced; flat in [n], 0 words. *)
let bench_pending_probe =
  Test.make_indexed ~name:"core/pending-probe" ~args:[ 10; 1000 ] (fun n ->
      let config = { C.default_config with C.query_timeout = Sim.Time.s 1000 } in
      let s = Deploy.simple_network ~config () in
      PS.add_exn (C.policy s.Deploy.controller) ~name:"00"
        "block all\npass all with eq(@src[name], firefox) with eq(@dst[name], httpd)";
      List.iter
        (fun h ->
          Identxx.Daemon.set_behaviour (Identxx.Host.daemon h) Identxx.Daemon.Silent)
        [ s.Deploy.client; s.Deploy.server ];
      let client = Identxx.Host.ip s.Deploy.client
      and server = Identxx.Host.ip s.Deploy.server in
      let flow i =
        Five_tuple.tcp ~src:client ~dst:server ~src_port:(10000 + i) ~dst_port:80
      in
      for i = 0 to n - 1 do
        Openflow.Network.send_from_host s.Deploy.network ~name:"client"
          (Identxx.Host.first_packet s.Deploy.client ~flow:(flow i))
      done;
      Sim.Engine.run ~until:(Sim.Time.s 1) s.Deploy.engine;
      if C.pending_count s.Deploy.controller <> n then
        failwith "core/pending-probe: flows not pending";
      let hit = response (flow (n / 2)) [] and miss = response (flow n) [] in
      Staged.stage (fun () ->
          ignore
            (C.names_pending s.Deploy.controller ~from_ip:server ~to_ip:client hit);
          ignore
            (C.names_pending s.Deploy.controller ~from_ip:server ~to_ip:client miss)))

(* --- daemon answer path ------------------------------------------------ *)

let bench_daemon =
  let host =
    Identxx.Host.create ~name:"h" ~mac:(Mac.of_int 1)
      ~ip:(Ipv4.of_string "10.0.0.1") ()
  in
  Identxx.Host.install_exe host ~path:"/usr/bin/firefox" ~content:"ff-image";
  (* A signing daemon with the administrator config the deployments
     carry, timed warm: its static sections were tagged by the first
     answer, so each timed answer computes only its binding tag. *)
  Identxx.Host.set_signing_key host (Some (Idcrypto.Sign.generate "h-host"));
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon host) ~name:"00-admin"
       (String.concat "\n"
          ("os-patch : 8831"
          :: List.init 24 (fun i ->
                 Printf.sprintf "site-attr-%02d : %s" i (String.make 48 'v'))))
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let proc = Identxx.Host.run host ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let fl =
    Identxx.Host.connect host ~proc
      ~dst:(Ipv4.of_string "10.0.0.2")
      ~dst_port:80 ()
  in
  (* The query as the host's daemon reads it: decoded once, answered
     where it sits. *)
  let query = Identxx.Query.make ~nonce:"5eed0123456789ab" ~flow:fl [] in
  let answer () =
    Identxx.Daemon.respond (Identxx.Host.daemon host) ~peer:fl.Five_tuple.dst query
  in
  ignore (answer ());
  Test.make ~name:"proto/daemon-answer"
    (Staged.stage (fun () -> ignore (answer ())))

(* --- sharded flow-setup: concurrent burst ------------------------------ *)

(* The sharded engine's target workload: a burst of concurrent
   table-miss flows converging on one hot host, with flow setup across
   [shards] run queues. When the host [signed] its answers, its
   listener's queries join one exchange; an unsigned host is asked once
   per flow. [service] > 0 charges each shard a simulated per-message
   cost, so the run's makespan (Controller.shard_makespan) models n
   controller cores — the throughput series in BENCH_shard.json divides
   flows by it. *)
let shard_burst ?(service = Sim.Time.zero) ?(signed = true) ~shards ~flows () =
  let config =
    {
      C.default_config with
      (* Keep queue delay (flows x service on one shard) well under the
         timeout so the series measures throughput, not timeouts. *)
      C.query_timeout = Sim.Time.s 1;
      C.shards = Some (C.sharded ~service shards);
    }
  in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config ~switches:4 ~hosts_per_switch:4 ()
  in
  (* The policy reads both ends. A signed target's answers declare its
     listener's sections socket scope, so concurrent queries to it may
     share one exchange. *)
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass all with eq(@src[name], app) with eq(@dst[name], srv)";
  let n_hosts = Array.length hosts in
  let target = hosts.(0) in
  if signed then ignore (Deploy.sign_host controller target);
  Identxx.Host.listen target
    ~proc:(Identxx.Host.run target ~user:"www" ~exe:"/bin/srv" ())
    ~port:80 ();
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
    mk "setup/concurrent-burst-1shard" 1;
    mk "setup/concurrent-burst-4shard" 4;
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
       bench_wildcard_lookup;
       bench_wildcard_churn;
       bench_flow_mod_apply;
       bench_switch_process_hit;
       bench_switch_process_with_timeouts;
       bench_schedule_dispatch;
       bench_pf_eval;
       bench_pf_eval_quick;
       bench_pf_parse;
       bench_pf_allowed;
       bench_pf_decide_enterprise;
       bench_fdd_compile;
       bench_fdd_recompile_edit;
       bench_fdd_lookup;
       bench_fdd_equiv;
       bench_fdd_diff;
       bench_check_deep;
       bench_check_deep_table;
       bench_compile_table;
       bench_compile_incremental;
       bench_proactive_reload;
       bench_proactive_table_hit;
       bench_proactive_hit;
       bench_daemon;
       bench_five_tuple_hash;
       bench_collab;
       bench_dijkstra;
       bench_next_hop;
       bench_link_flap;
       bench_full_recompute;
       bench_host_attach;
       bench_conn_state_permits;
       bench_audit_record;
       bench_pending_probe;
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

(* Machine-readable results, one object per benchmark, so the perf
   trajectory can be diffed across commits (see bench/baseline.json). *)
let write_json file rows =
  let oc = open_out file in
  output_string oc "[\n";
  List.iteri
    (fun i (name, ns, words, runs) ->
      let num x = if Float.is_nan x then "null" else Printf.sprintf "%.1f" x in
      Printf.fprintf oc
        "  { \"name\": %s, \"ns_per_op\": %s, \"words_per_op\": %s, \
         \"runs\": %d }%s\n"
        (Obs.Json.to_string (Obs.Json.Str name))
        (num ns) (num words) runs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

(* The sharded-engine series (BENCH_shard.json): a 10k-flow concurrent
   burst with a 1 us simulated per-message cost, across shard counts —
   throughput is flows divided by the parallel makespan, all on the
   simulated clock, so the numbers are deterministic — plus the
   coalescing series (the same hot-host burst on 4 shards with a target
   that does not sign, so no query joins another, and with one that
   does). *)
let run_shards_json file =
  let flows = 10_000 in
  let service = Sim.Time.us 1 in
  let series =
    List.map
      (fun n ->
        let c = shard_burst ~shards:n ~service ~flows () in
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
  let co_off = shard_burst ~signed:false ~shards:4 ~flows:co_flows () in
  let co_on = shard_burst ~shards:4 ~flows:co_flows () in
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

(* Minor words allocated. Bechamel's [Instance.minor_allocated] reads
   [Gc.quick_stat], whose count OCaml 5 updates only at a minor
   collection; [Gc.minor_words] is exact. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let run_timed json_file =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  (* No [Gc.compact] before each sample: over a heap that holds every
     fixture it costs more than the quota, and a short body then gets a
     handful of samples instead of hundreds. *)
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.2) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ clock; minor_words ] tests in
  let per_op instance =
    let results = Analyze.all ols instance raw in
    fun name ->
      match Option.map Analyze.OLS.estimates (Hashtbl.find_opt results name) with
      | Some (Some (e :: _)) -> e
      | Some (Some [] | None) | None -> nan
  in
  let ns = per_op clock and wpo = per_op minor_words in
  let rows =
    Hashtbl.fold
      (fun name (b : Benchmark.t) acc ->
        (name, ns name, wpo name, b.Benchmark.stats.Benchmark.samples) :: acc)
      raw []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
  in
  Printf.printf "%-55s %14s %10s %8s\n" "benchmark" "ns/op" "words/op" "runs";
  Printf.printf "%s\n" (String.make 90 '-');
  List.iter
    (fun (name, ns, words, runs) ->
      Printf.printf "%-55s %14.1f %10.1f %8d\n" name ns words runs)
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
