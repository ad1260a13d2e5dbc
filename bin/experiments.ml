(* experiments: print every table EXPERIMENTS.md carries between
   `<!-- experiments: ID -->` markers.

   The paper (WREN'09) is a design paper with no measured numbers; its
   artifacts are Figures 1-8 plus the qualitative claims of §4-§6. Each
   experiment below reproduces one of those artifacts as an executable
   decision matrix or a simulated characteristic of the system. The
   expected qualitative shape is stated next to each table.

   Everything printed is decided by the simulator and the decision code,
   so the output is the same bytes on every run: test/experiments.t pins
   it, and doclint check 8 keeps EXPERIMENTS.md's blocks equal to it.
   Wall-clock costs are bench/main.exe's rows, not this binary's.

   Run with: dune exec bin/experiments.exe *)

open Netcore
module Net = Openflow.Network
module Topo = Openflow.Topology
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module PS = Identxx_core.Policy_store
module D = Identxx_core.Decision
module E = Baselines.Enforcement
module FI = Baselines.Flow_info

let section title =
  Printf.printf "\n## %s\n\n" title

let row fmt = Printf.printf fmt

(* Helpers ----------------------------------------------------------- *)

let response flow pairs =
  Identxx.Response.make ~flow
    [ List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs ]

let decision_of policy_text =
  let policy = PS.create () in
  PS.add_exn policy ~name:"00" policy_text;
  D.create ~policy ()

let flow ?(proto = Proto.Tcp) ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.make ~src:(Ipv4.of_string src) ~dst:(Ipv4.of_string dst)
    ~proto ~src_port:sp ~dst_port:dp

(* Measure the simulated time from a host sending a flow's first packet
   to the data packet's delivery at the destination host. *)
let measure_setup_latency ?(config = C.default_config) ~policy_text ~app () =
  let s = Deploy.simple_network ~config () in
  PS.add_exn (C.policy s.controller) ~name:"00" policy_text;
  let delivery = ref None in
  Deploy.attach_host_with s.network s.server ~rx:(fun pkt ->
      match Packet.five_tuple pkt with
      | Some ft when ft.Five_tuple.dst_port = 80 && !delivery = None ->
          delivery := Some (Sim.Engine.now s.engine)
      | _ -> ());
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:app () in
  let fl =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  let t0 = Sim.Engine.now s.engine in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow:fl);
  Sim.Engine.run s.engine;
  let first =
    Option.map (fun t -> Sim.Time.to_float_us (Sim.Time.sub t t0)) !delivery
  in
  (* Second packet of the same flow rides the installed entries. *)
  delivery := None;
  let t1 = Sim.Engine.now s.engine in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow:fl);
  Sim.Engine.run s.engine;
  let second =
    Option.map (fun t -> Sim.Time.to_float_us (Sim.Time.sub t t1)) !delivery
  in
  (first, second)

let fus = function None -> "(dropped)" | Some v -> Printf.sprintf "%.1f" v

(* E1: Figure 1 flow-setup sequence ----------------------------------- *)

let e1 () =
  section "E1 (Figure 1): flow setup sequence and latency";
  print_endline
    "Paper claim: the first packet of a flow detours via the controller and\n\
     the ident++ query exchange; subsequent packets are switched at line\n\
     rate from the flow-table cache.";
  let first, second =
    measure_setup_latency
      ~policy_text:"block all\npass all with eq(@src[name], firefox)"
      ~app:"/usr/bin/firefox" ()
  in
  row "| packet                | latency (simulated us) |\n";
  row "|-----------------------|------------------------|\n";
  row "| first (setup + query) | %s |\n" (fus first);
  row "| second (cached)       | %s |\n" (fus second);
  match (first, second) with
  | Some f, Some s when f > s *. 5.0 ->
      print_endline "\nShape holds: setup >> cached forwarding."
  | _ -> print_endline "\n** UNEXPECTED: setup not dominated by exchange **"

(* E2: Figure 2+3 skype policy ---------------------------------------- *)

let fig2_policy =
  "table <server> { 192.168.1.1 }\n\
   table <lan> { 192.168.0.0/24 }\n\
   table <int_hosts> { <lan> <server> }\n\
   table <skype_update> { 123.123.123.0/24 }\n\
   allowed = \"{ http ssh }\"\n\
   block all\n\
   pass from <int_hosts> to !<int_hosts> keep state\n\
   pass from <int_hosts> to <int_hosts> with member(@src[name], $allowed) keep state\n\
   pass all with eq(@src[name], skype) with eq(@dst[name], skype)\n\
   pass from any to <skype_update> port 80 with eq(@src[name], skype) keep state\n\
   block all with eq(@src[name], skype) with lt(@src[version], 200)\n\
   block from any to <server> with eq(@src[name], skype)"

let e2 () =
  section "E2 (Figures 2-3): the skype policy decision matrix";
  let d = decision_of fig2_policy in
  let cases =
    [
      ("skype->skype (c2c)", flow ~dp:33000 "192.168.0.10" "192.168.0.11",
       [ ("name", "skype"); ("version", "210") ],
       [ ("name", "skype"); ("version", "210") ], true);
      ("skype->update:80", flow ~dp:80 "192.168.0.10" "123.123.123.5",
       [ ("name", "skype"); ("version", "210") ], [], true);
      ("skype->server", flow ~dp:80 "192.168.0.10" "192.168.1.1",
       [ ("name", "skype"); ("version", "210") ], [], false);
      ("old skype (v150)", flow ~dp:33000 "192.168.0.10" "192.168.0.11",
       [ ("name", "skype"); ("version", "150") ],
       [ ("name", "skype"); ("version", "210") ], false);
      ("http->server", flow ~dp:80 "192.168.0.10" "192.168.1.1",
       [ ("name", "http") ], [], true);
      ("telnet->server", flow ~dp:23 "192.168.0.10" "192.168.1.1",
       [ ("name", "telnet") ], [], false);
      ("lan->internet", flow ~dp:443 "192.168.0.10" "8.8.8.8",
       [ ("name", "firefox") ], [], true);
      ("internet->lan", flow ~dp:80 "8.8.8.8" "192.168.0.10",
       [], [], false);
    ]
  in
  row "| flow | expected | decided | ok |\n|---|---|---|---|\n";
  List.iter
    (fun (name, fl, src, dst, expect) ->
      let input =
        {
          D.flow = fl;
          src_response = (if src = [] then None else Some (response fl src));
          dst_response = (if dst = [] then None else Some (response fl dst));
        }
      in
      let got = D.allows d input in
      row "| %s | %s | %s | %s |\n" name
        (if expect then "pass" else "block")
        (if got then "pass" else "block")
        (if got = expect then "yes" else "**NO**"))
    cases

(* E3/E4: delegation with signatures ---------------------------------- *)

let e3_e4 () =
  section "E3-E4 (Figures 4-7): authenticated delegation (allowed + verify)";
  let kp = Idcrypto.Sign.generate "research" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let requirements =
    "block all pass all with eq(@src[name], research-app) with eq(@dst[name], \
     research-app)"
  in
  let exe_hash = Idcrypto.Sha256.hexdigest "research-app-image" in
  let good_sig =
    Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret
      [ exe_hash; "research-app"; requirements ]
  in
  let policy =
    Printf.sprintf
      "dict <pubkeys> { research : %s }\n\
       block all\n\
       pass all with allowed(@dst[requirements]) with verify(@dst[req-sig], \
       @pubkeys[research], @dst[exe-hash], @dst[app-name], @dst[requirements])"
      kp.Idcrypto.Sign.public
  in
  let store = PS.create () in
  PS.add_exn store ~name:"00" policy;
  let d = D.create ~keystore:ks ~policy:store () in
  let case name ~reqs ~signature ~src_app ~dst_app ~expect =
    let fl = flow ~dp:7777 "10.0.0.1" "10.0.0.2" in
    let input =
      {
        D.flow = fl;
        src_response = Some (response fl [ ("name", src_app); ("app-name", src_app) ]);
        dst_response =
          Some
            (response fl
               [
                 ("name", dst_app); ("app-name", dst_app);
                 ("exe-hash", exe_hash); ("requirements", reqs);
                 ("req-sig", signature);
               ]);
      }
    in
    let got = D.allows d input in
    row "| %s | %s | %s | %s |\n" name
      (if expect then "pass" else "block")
      (if got then "pass" else "block")
      (if got = expect then "yes" else "**NO**")
  in
  row "| scenario | expected | decided | ok |\n|---|---|---|---|\n";
  case "signed requirements, conforming flow" ~reqs:requirements ~signature:good_sig
    ~src_app:"research-app" ~dst_app:"research-app" ~expect:true;
  case "signed requirements, non-conforming flow" ~reqs:requirements
    ~signature:good_sig ~src_app:"nc" ~dst_app:"research-app" ~expect:false;
  case "tampered requirements (signature mismatch)" ~reqs:"pass all" ~signature:good_sig
    ~src_app:"research-app" ~dst_app:"research-app" ~expect:false;
  case "forged signature" ~reqs:requirements ~signature:(String.make 64 '0')
    ~src_app:"research-app" ~dst_app:"research-app" ~expect:false

(* E5: Figure 8 / Conficker ------------------------------------------- *)

let fig8_policy =
  "table <lan> { 10.0.0.0/8 }\n\
   block all\n\
   pass from <lan> with eq(@src[userID], system) to <lan> with \
   eq(@dst[userID], system) with eq(@dst[name], Server) with \
   includes(@dst[os-patch], MS08-067)"

let e5 () =
  section "E5 (Figure 8): user/application rules stop a Conficker-style scan";
  let population = Workload.Population.create ~clients:30 ~servers:5 () in
  let identxx = Baselines.Systems.identxx_exn ~policy:fig8_policy () in
  let vanilla =
    Baselines.Systems.vanilla_exn
      ~policy:"table <lan> { 10.0.0.0/8 }\nblock all\npass from <lan> to <lan> port 445"
  in
  let compromised = (Workload.Population.clients population).(0) in
  let scan =
    Workload.Attack.worm_scan ~from:compromised
      ~targets:(Workload.Population.all population) ()
  in
  let si = E.score identxx scan and sv = E.score vanilla scan in
  row "| system | scan probes admitted |\n|---|---|\n";
  row "| ident++ (Figure 8 policy) | %d / %d |\n" si.E.admitted si.E.total;
  row "| vanilla port filter (`pass from <lan> to <lan> port 445`) | %d / %d |\n" sv.E.admitted sv.E.total;
  print_endline
    "\nShape: the port filter admits the whole scan; ident++ admits none\n\
     (the worm's flows are not from the system user with a patched target).";
  (* Ablation: where does the scan die? Reactive denial caching still
     costs one controller round per probe; the compiled drop for a
     `block quick` kills the scan in the dataplane. *)
  let run_scan ~policy =
    let s = Deploy.simple_network () in
    PS.add_exn (C.policy s.Deploy.controller) ~name:"00" policy;
    Sim.Engine.run s.Deploy.engine;
    let before = Net.packet_ins s.Deploy.network in
    let proc = Identxx.Host.run s.Deploy.client ~user:"worm" ~exe:"/bin/worm" () in
    for i = 0 to 29 do
      let fl =
        Identxx.Host.connect s.Deploy.client ~proc
          ~dst:(Identxx.Host.ip s.Deploy.server) ~src_port:(30000 + i)
          ~dst_port:445 ()
      in
      Net.send_from_host s.Deploy.network ~name:"client"
        (Identxx.Host.first_packet s.Deploy.client ~flow:fl);
      Sim.Engine.run s.Deploy.engine
    done;
    float_of_int (Net.packet_ins s.Deploy.network - before) /. 30.0
  in
  let reactive =
    run_scan ~policy:"block from any to any port 445\npass all"
  in
  let proactive =
    run_scan ~policy:"block quick from any to any port 445\npass all"
  in
  row "\n| enforcement of the 445-block | packet-ins per scan probe |\n|---|---|\n";
  row "| reactive (denial caching) | %.2f |\n" reactive;
  row "| compiled `block quick` (dataplane drop entry) | %.2f |\n" proactive;
  print_endline
    "\nShape: compiled quick-block drops stop the scan at line rate with zero\n\
     controller involvement; reactive denial caching pays one decision per\n\
     distinct probe flow."

(* E6: network collaboration over a bottleneck ------------------------ *)

let e6 () =
  section "E6 (S4 network collaboration): filtering before the bottleneck";
  let run ~collaborate =
    let engine = Sim.Engine.create () in
    let topology = Topo.create () in
    Topo.add_switch topology 1;
    Topo.add_switch topology 2;
    List.iter (Topo.add_host topology) [ "a1"; "b1" ];
    Topo.link topology (Topo.Host "a1", 0) (Topo.Sw 1, 1);
    Topo.link topology (Topo.Host "b1", 0) (Topo.Sw 2, 1);
    Topo.link topology ~latency:(Sim.Time.ms 2) (Topo.Sw 1, 9) (Topo.Sw 2, 9);
    let network = Net.create ~engine ~topology () in
    let ca = C.create ~network ~id:0 () in
    let cb = C.create ~network ~id:1 () in
    Net.assign_switch network 1 0;
    Net.assign_switch network 2 1;
    if collaborate then begin
      (* A drops what B advertises it will not accept. *)
      PS.add_exn (C.policy ca) ~name:"00"
        "block all\npass all with member(@src[name], @dst[branch-b-accepts])";
      C.set_response_augment cb (fun _ ->
          [ Identxx.Key_value.pair "branch-b-accepts" "{ firefox }" ])
    end
    else
      (* Without collaboration A forwards everything; B drops at its edge. *)
      PS.add_exn (C.policy ca) ~name:"00" "pass all";
    PS.add_exn (C.policy cb) ~name:"00"
      "block all\npass all with eq(@src[name], firefox)";
    let a1 =
      Identxx.Host.create ~name:"a1" ~mac:(Mac.of_int 0xa1)
        ~ip:(Ipv4.of_string "10.10.0.1") ()
    in
    let b1 =
      Identxx.Host.create ~name:"b1" ~mac:(Mac.of_int 0xb1)
        ~ip:(Ipv4.of_string "10.20.0.1") ()
    in
    List.iter (Deploy.attach_host network) [ a1; b1 ];
    (* 5 firefox flows (wanted) and 15 telnet flows (unwanted), several
       packets each. *)
    let send exe dp n =
      let proc = Identxx.Host.run a1 ~user:"u" ~exe () in
      let fl = Identxx.Host.connect a1 ~proc ~dst:(Identxx.Host.ip b1) ~dst_port:dp () in
      for _ = 1 to n do
        Net.send_from_host network ~name:"a1" (Identxx.Host.first_packet a1 ~flow:fl);
        Sim.Engine.run engine
      done
    in
    for _ = 1 to 5 do send "/usr/bin/firefox" 80 4 done;
    for _ = 1 to 15 do send "/usr/bin/telnet" 23 4 done;
    Net.egress_packets network ~node:(Topo.Sw 1) ~port:9
  in
  let with_collab = run ~collaborate:true in
  let without = run ~collaborate:false in
  row "| mode | packets over the bottleneck |\n|---|---|\n";
  row "| without collaboration (B drops at its own edge) | %d |\n" without;
  row "| with collaboration (A drops before the link) | %d |\n" with_collab;
  Printf.printf
    "\nShape: collaboration keeps refused traffic off the inter-branch link\n\
     (%d < %d).\n"
    with_collab without

(* E7: incremental deployment ----------------------------------------- *)

let e7 () =
  section "E7 (S4 incremental benefit): partial deployments";
  (* Daemon-only: a server distinguishes two users behind one address. *)
  let shared =
    Identxx.Host.create ~name:"shared" ~mac:(Mac.of_int 1)
      ~ip:(Ipv4.of_string "10.0.0.1") ()
  in
  let server_ip = Ipv4.of_string "10.0.0.99" in
  let user_of flow =
    let q = Identxx.Query.make ~flow ~keys:[ Identxx.Key_value.user_id ] in
    let pkt =
      Identxx.Wire.query_packet ~to_ip:flow.Five_tuple.src
        ~from_ip:flow.Five_tuple.dst q
    in
    match Identxx.Host.handle_packet shared pkt with
    | Some reply -> (
        match Identxx.Wire.classify reply with
        | Identxx.Wire.Response { response; _ } ->
            Option.value ~default:"?"
              (Identxx.Response.latest response Identxx.Key_value.user_id)
        | _ -> "?")
    | None -> "?"
  in
  let alice = Identxx.Host.run shared ~user:"alice" ~exe:"/usr/bin/irc" () in
  let bob = Identxx.Host.run shared ~user:"bob" ~exe:"/usr/bin/irc" () in
  let fa = Identxx.Host.connect shared ~proc:alice ~dst:server_ip ~dst_port:6667 () in
  let fb = Identxx.Host.connect shared ~proc:bob ~dst:server_ip ~dst_port:6667 () in
  row "| deployment | capability | result |\n|---|---|---|\n";
  row
    "| daemons only | two users on one shared address distinguished by the \
     server querying port 783 | %s / %s |\n"
    (user_of fa) (user_of fb);
  (* Controller-only: asset-class enforcement without daemons. *)
  let s = Deploy.simple_network () in
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.Deploy.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.Deploy.server) Identxx.Daemon.Silent;
  C.set_local_answers s.Deploy.controller (fun ip ->
      if Ipv4.equal ip (Identxx.Host.ip s.Deploy.client) then
        Some [ Identxx.Key_value.pair "asset-class" "kiosk" ]
      else Some [ Identxx.Key_value.pair "asset-class" "payroll" ]);
  PS.add_exn (C.policy s.Deploy.controller) ~name:"00"
    "block all with eq(@src[asset-class], kiosk) with eq(@dst[asset-class], payroll)";
  let proc = Identxx.Host.run s.Deploy.client ~user:"kiosk" ~exe:"/bin/b" () in
  let fl =
    Identxx.Host.connect s.Deploy.client ~proc
      ~dst:(Identxx.Host.ip s.Deploy.server) ~dst_port:443 ()
  in
  Net.send_from_host s.Deploy.network ~name:"client"
    (Identxx.Host.first_packet s.Deploy.client ~flow:fl);
  Sim.Engine.run s.Deploy.engine;
  let st = C.stats s.Deploy.controller in
  row
    "| controllers only | kiosk->payroll blocked without daemons, the \
     controller answering from its asset DB | blocked=%d, local answers=%d, \
     wire queries=%d |\n"
    st.C.blocked st.C.queries_answered_locally st.C.queries_sent

(* E8: security comparison (S5) --------------------------------------- *)

let e8 () =
  section "E8 (S5): damage from compromising each component";
  let population = Workload.Population.create ~clients:10 ~servers:3 () in
  let n = Array.length (Workload.Population.all population) in
  let total_pairs = n * (n - 1) in
  let identxx_policy =
    "table <lan> { 10.0.0.0/8 }\n\
     block all\n\
     pass from <lan> with eq(@src[userID], system) to <lan> with \
     eq(@dst[userID], system)"
  in
  let ethane_policy =
    "table <lan> { 10.0.0.0/8 }\n\
     block all\n\
     pass from <lan> with eq(@src[userID], system) to <lan> with \
     eq(@dst[userID], system)"
  in
  let vanilla_policy =
    "table <lan> { 10.0.0.0/8 }\nblock all\npass from <lan> to <lan> port 445"
  in
  let claim =
    [
      Identxx.Key_value.pair "userID" "system";
      Identxx.Key_value.pair "name" "Server";
      Identxx.Key_value.pair "app-name" "Server";
    ]
  in
  let systems =
    [
      ("vanilla", Baselines.Systems.vanilla_exn ~policy:vanilla_policy);
      ("ethane", Baselines.Systems.ethane_exn ~policy:ethane_policy);
      ("distributed", Baselines.Systems.distributed_exn ~policy:identxx_policy);
      ("identxx", Baselines.Systems.identxx_exn ~attacker_claim:claim ~policy:identxx_policy ());
    ]
  in
  let compromised_host = (Workload.Population.clients population).(0) in
  row "| system | honest network | one compromised end-host |\n|---|---|---|\n";
  List.iter
    (fun (name, enf) ->
      let honest =
        Workload.Attack.reachable_pairs enf ~population ~compromised:[] ()
      in
      let with_compromise =
        Workload.Attack.reachable_pairs enf ~population
          ~compromised:[ compromised_host.Workload.Population.ip ]
          ()
      in
      row "| %s | %d / %d pairs | %d / %d pairs |\n" name honest total_pairs
        with_compromise total_pairs)
    systems;
  print_endline
    "\nQualitative rows (S5.1-S5.2): a compromised controller disables all\n\
     protection in both ident++ and vanilla deployments (same blast radius);\n\
     a compromised switch unprotects exactly the traffic it carries.\n\
     Shape: vanilla admits every 445 pair regardless; ident++/ethane admit\n\
     only system<->system pairs when honest; a lying daemon inflates ident++'s\n\
     reachable set toward the attacker's claim (S5.3) while Ethane's\n\
     network-authenticated bindings are unaffected (S5.4)."

(* E9: setup latency vs deployment mode ------------------------------- *)

let e9 () =
  section "E9: flow-setup latency by query mode (protocol cost)";
  (* The controller asks only the ends a flow's verdict can read, so
     each mode is a policy. *)
  let policy_src = "block all\npass all with eq(@src[name], firefox)" in
  let policy_both = policy_src ^ "\nblock all with eq(@dst[quarantined], yes)" in
  let modes =
    [
      ("query both ends", policy_both);
      ("query source only", policy_src);
      ("no queries (Ethane-like)", "pass all");
    ]
  in
  row "| mode (what the policy reads) | first packet (us) | cached packet (us) |\n|---|---|---|\n";
  List.iter
    (fun (name, policy_text) ->
      let first, second =
        measure_setup_latency ~policy_text ~app:"/usr/bin/firefox" ()
      in
      row "| %s | %s | %s |\n" name (fus first) (fus second))
    modes;
  print_endline
    "\nShape: the ident++ exchange adds one query/response round-trip to\n\
     setup (both ends are queried in parallel, so both ends cost what the\n\
     source alone does); a policy that reads no end asks nobody, and\n\
     setup is just the packet-in/flow-mod detour. The cached path is\n\
     identical across modes.";
  (* Timeout case: a silent daemon delays the decision to the timeout.
     The policy reads both ends, so both silent daemons are asked. *)
  let config = C.default_config in
  let s = Deploy.simple_network ~config () in
  PS.add_exn (C.policy s.Deploy.controller) ~name:"00" policy_both;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.Deploy.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.Deploy.server) Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.Deploy.client ~user:"u" ~exe:"/bin/a" () in
  let fl =
    Identxx.Host.connect s.Deploy.client ~proc
      ~dst:(Identxx.Host.ip s.Deploy.server) ~dst_port:80 ()
  in
  let t0 = Sim.Engine.now s.Deploy.engine in
  Net.send_from_host s.Deploy.network ~name:"client"
    (Identxx.Host.first_packet s.Deploy.client ~flow:fl);
  Sim.Engine.run s.Deploy.engine;
  let elapsed = Sim.Time.to_float_ms (Sim.Time.sub (Sim.Engine.now s.Deploy.engine) t0) in
  Printf.printf
    "\nSilent daemons: decision deferred to the %.1f ms query timeout \
     (elapsed %.1f ms).\n"
    (Sim.Time.to_float_ms C.default_config.C.query_timeout)
    elapsed;
  (* Setup latency vs path length: queries go to the edges, entries are
     installed along the whole path. *)
  row "\n| switches on path | first packet (us) | cached packet (us) |\n|---|---|---|\n";
  List.iter
    (fun n ->
      let engine, network, controller, hosts =
        Deploy.linear_network ~switches:n ~hosts_per_switch:2 ()
      in
      PS.add_exn (C.policy controller) ~name:"00"
        "block all\npass all with eq(@src[name], a)";
      let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
      let delivery = ref None in
      Deploy.attach_host_with network dst ~rx:(fun pkt ->
          match Packet.five_tuple pkt with
          | Some ft when ft.Five_tuple.dst_port = 80 && !delivery = None ->
              delivery := Some (Sim.Engine.now engine)
          | _ -> ());
      let proc = Identxx.Host.run src ~user:"u" ~exe:"/bin/a" () in
      let fl =
        Identxx.Host.connect src ~proc ~dst:(Identxx.Host.ip dst) ~dst_port:80 ()
      in
      let t0 = Sim.Engine.now engine in
      Net.send_from_host network ~name:(Identxx.Host.name src)
        (Identxx.Host.first_packet src ~flow:fl);
      Sim.Engine.run engine;
      let first =
        Option.map (fun t -> Sim.Time.to_float_us (Sim.Time.sub t t0)) !delivery
      in
      delivery := None;
      let t1 = Sim.Engine.now engine in
      Net.send_from_host network ~name:(Identxx.Host.name src)
        (Identxx.Host.first_packet src ~flow:fl);
      Sim.Engine.run engine;
      let second =
        Option.map (fun t -> Sim.Time.to_float_us (Sim.Time.sub t t1)) !delivery
      in
      row "| %d | %s | %s |\n" n (fus first) (fus second))
    [ 1; 2; 4; 8 ];
  print_endline
    "\nShape: cached latency grows linearly with hops; setup grows more\n\
     slowly than per-hop decisions would (the exchange happens once, at\n\
     the ingress controller, and entries install along the path in\n\
     parallel)."

(* E10: datapath cache sweep ------------------------------------------ *)

let e10 () =
  section "E10: cached datapath vs table-miss rate";
  row "| packets per flow | packet-ins per packet | mean delivery latency (us) |\n|---|---|---|\n";
  List.iter
    (fun k ->
      let s = Deploy.simple_network () in
      PS.add_exn (C.policy s.Deploy.controller) ~name:"00" "pass all";
      let latency_sum = ref 0.0 and delivered = ref 0 in
      let sent = ref 0 in
      let t_send = ref Sim.Time.zero in
      Deploy.attach_host_with s.Deploy.network s.Deploy.server ~rx:(fun pkt ->
          match Packet.five_tuple pkt with
          | Some ft when ft.Five_tuple.dst_port = 80 ->
              latency_sum :=
                !latency_sum
                +. Sim.Time.to_float_us
                     (Sim.Time.sub (Sim.Engine.now s.Deploy.engine) !t_send);
              incr delivered
          | _ -> ());
      for f = 0 to 19 do
        let proc = Identxx.Host.run s.Deploy.client ~user:"u" ~exe:"/bin/a" () in
        let fl =
          Identxx.Host.connect s.Deploy.client ~proc
            ~dst:(Identxx.Host.ip s.Deploy.server) ~src_port:(20000 + f)
            ~dst_port:80 ()
        in
        for _ = 1 to k do
          t_send := Sim.Engine.now s.Deploy.engine;
          incr sent;
          Net.send_from_host s.Deploy.network ~name:"client"
            (Identxx.Host.first_packet s.Deploy.client ~flow:fl);
          Sim.Engine.run s.Deploy.engine
        done
      done;
      row "| %d | %.3f | %.1f |\n" k
        (float_of_int (Net.packet_ins s.Deploy.network) /. float_of_int !sent)
        (!latency_sum /. float_of_int !delivered))
    [ 1; 2; 5; 10; 50 ];
  print_endline
    "\nShape: packet-in rate ~ 1/k; mean latency converges to the pure\n\
     forwarding latency as the cache absorbs the flow."

(* E12: response size ------------------------------------------------- *)

let e12 () =
  section "E12: ident++ response size vs sections";
  let fl = flow "10.0.0.1" "10.1.0.1" in
  row "| sections | response bytes |\n|---|---|\n";
  List.iter
    (fun n ->
      let r =
        Identxx.Response.make ~flow:fl
          (List.init n (fun s ->
               List.init 6 (fun i ->
                   Identxx.Key_value.pair
                     (Printf.sprintf "key-%d-%d" s i)
                     (Printf.sprintf "value-%d-%d" s i))))
      in
      row "| %d | %d |\n" n (String.length (Identxx.Response.encode r)))
    [ 1; 2; 4; 8 ];
  print_endline
    "\nShape: linear in sections; even 8 sections (7 augmenting\n\
     controllers) fit one packet."

(* E13: policy granularity (the S1 motivating example) ----------------- *)

let e13 () =
  section "E13 (S1): principal-based vs port-based policy on a mixed workload";
  let population = Workload.Population.create ~clients:40 ~servers:8 () in
  let prng = Sim.Prng.create 42 in
  let intent = Workload.Flowgen.intent_of_population population in
  let flows =
    Workload.Flowgen.mixed ~intent ~prng ~population ~count:2000 ()
  in
  let identxx_policy =
    "table <lan> { 10.0.0.0/8 }\n\
     table <important> { 10.1.0.1 }\n\
     allowed = \"{ firefox ssh thunderbird skype }\"\n\
     block all\n\
     pass from <lan> to any with member(@src[name], $allowed)\n\
     block from any to <important> with eq(@src[name], skype)"
  in
  let vanilla_policy =
    "table <lan> { 10.0.0.0/8 }\n\
     block all\n\
     pass from <lan> to any port 80\n\
     pass from <lan> to any port 22\n\
     pass from <lan> to any port 25"
  in
  let ethane_policy =
    "table <lan> { 10.0.0.0/8 }\n\
     block all\n\
     pass from <lan> with member(@src[groupID], staff) to any"
  in
  let systems =
    [
      ("identxx", Baselines.Systems.identxx_exn ~policy:identxx_policy ());
      ("vanilla", Baselines.Systems.vanilla_exn ~policy:vanilla_policy);
      ("ethane", Baselines.Systems.ethane_exn ~policy:ethane_policy);
      ("distributed", Baselines.Systems.distributed_exn ~policy:vanilla_policy);
    ]
  in
  row "| system | false allows | false denies | accuracy |\n|---|---|---|---|\n";
  List.iter
    (fun (name, enf) ->
      let s = E.score enf flows in
      row "| %s | %d | %d | %.3f |\n" name s.E.false_allows s.E.false_denies
        (E.accuracy s))
    systems;
  print_endline
    "\nShape: only ident++ can separate skype-on-port-80 from web-on-port-80\n\
     (the S1 motivating example), so it has the fewest intent violations."

let () =
  print_endline "# ident++ experiment tables";
  print_endline
    "(regenerate with: dune exec bin/experiments.exe; see EXPERIMENTS.md)";
  e1 ();
  e2 ();
  e3_e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e12 ();
  e13 ();
  print_endline "\nAll experiment tables regenerated."
