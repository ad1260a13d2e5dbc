open Netcore
module Net = Openflow.Network
module Topo = Openflow.Topology

let attach_host_with network host ~rx =
  let name = Identxx.Host.name host in
  Net.attach_host network ~name ~mac:(Identxx.Host.mac host)
    ~ip:(Identxx.Host.ip host) ~rx:(fun pkt ->
      (match Identxx.Host.handle_packet host pkt with
      | Some response -> Net.send_from_host network ~name response
      | None -> ());
      rx pkt)

let attach_host network host = attach_host_with network host ~rx:(fun _ -> ())

(* Fast-path invalidation (DESIGN.md, "Flow-setup fast path"): any
   daemon-side change event — login/logout (process spawn/exit),
   configuration reload, run-time pairs — drops the host's cached
   attributes at the controller. In a real deployment the daemon would
   push a change notification over its TCP session; in the simulator the
   hook is a direct call. *)
let watch_host controller host =
  let ip = Identxx.Host.ip host in
  Identxx.Daemon.on_change
    (Identxx.Host.daemon host)
    (fun () -> Controller.note_host_changed controller ip)

let watch_hosts controller hosts =
  Array.iter (fun h -> watch_host controller h) hosts

let sign_host ?seed controller host =
  let key = Idcrypto.Sign.generate ?seed (Identxx.Host.name host ^ "-host") in
  Idcrypto.Sign.register_for (Controller.keystore controller) key
    ~hosts:[ Ipv4.to_string (Identxx.Host.ip host) ];
  Identxx.Host.set_signing_key host (Some key);
  key

type branches = {
  engine : Sim.Engine.t;
  network : Net.t;
  branch_a : Controller.t;
  branch_b : Controller.t;
  a1 : Identxx.Host.t;
  b1 : Identxx.Host.t;
}

type simple = {
  engine : Sim.Engine.t;
  topology : Openflow.Topology.t;
  network : Net.t;
  controller : Controller.t;
  client : Identxx.Host.t;
  server : Identxx.Host.t;
}

let simple_network ?config ?obs ?spans ?recorder ?(client_ip = Ipv4.of_string "10.0.0.1")
    ?(server_ip = Ipv4.of_string "10.0.0.2") () =
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Topo.add_host topology "client";
  Topo.add_host topology "server";
  Topo.link topology (Topo.Host "client", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "server", 0) (Topo.Sw 1, 2);
  let network = Net.create ~engine ~topology () in
  let controller = Controller.create ?config ?obs ?spans ?recorder ~network ~id:0 () in
  let client =
    Identxx.Host.create ~name:"client" ~mac:(Mac.of_int 0x0a0001) ~ip:client_ip ()
  in
  let server =
    Identxx.Host.create ~name:"server" ~mac:(Mac.of_int 0x0a0002) ~ip:server_ip ()
  in
  attach_host network client;
  attach_host network server;
  watch_host controller client;
  watch_host controller server;
  { engine; topology; network; controller; client; server }

let branch_network ?config ?obs ?spans ?recorder ~policy_a ~policy_b () =
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Topo.add_switch topology 2;
  List.iter (Topo.add_host topology) [ "a1"; "b1" ];
  Topo.link topology (Topo.Host "a1", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "b1", 0) (Topo.Sw 2, 1);
  Topo.link topology ~latency:(Sim.Time.ms 2) (Topo.Sw 1, 9) (Topo.Sw 2, 9);
  let network = Net.create ~engine ~topology () in
  let create id = Controller.create ?config ?obs ?spans ?recorder ~network ~id () in
  let branch_a = create 0 in
  let branch_b = create 1 in
  Net.assign_switch network 1 0;
  Net.assign_switch network 2 1;
  (* The policies go in before the hosts attach: a proactive controller
     then queues its compiled table ahead of the routes an attach
     re-syncs. *)
  Policy_store.add_exn (Controller.policy branch_a) ~name:"00" policy_a;
  Policy_store.add_exn (Controller.policy branch_b) ~name:"00" policy_b;
  let host name mac ip =
    Identxx.Host.create ~name ~mac:(Mac.of_int mac) ~ip:(Ipv4.of_string ip) ()
  in
  let a1 = host "a1" 0xa1 "10.10.0.1" and b1 = host "b1" 0xb1 "10.20.0.1" in
  attach_host network a1;
  attach_host network b1;
  { engine; network; branch_a; branch_b; a1; b1 }

let tree_network ?config ?obs ?spans ?recorder ~depth ~fanout ~hosts_per_edge () =
  if depth < 1 || depth > 6 then invalid_arg "Deploy.tree_network: bad depth";
  if fanout < 1 || fanout > 16 then invalid_arg "Deploy.tree_network: bad fanout";
  if hosts_per_edge < 1 || hosts_per_edge > 100 then
    invalid_arg "Deploy.tree_network: bad hosts_per_edge";
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  (* Build switches level by level; dpids assigned in BFS order from 1.
     Port 0 faces the parent; ports 1..fanout face children; host ports
     start at 100. *)
  let next_dpid = ref 0 in
  let fresh () =
    incr next_dpid;
    Topo.add_switch topology !next_dpid;
    !next_dpid
  in
  let leaves = ref [] in
  let rec build level =
    let sw = fresh () in
    if level = depth then leaves := sw :: !leaves
    else
      for child = 1 to fanout do
        let c = build (level + 1) in
        Topo.link topology (Topo.Sw sw, child) (Topo.Sw c, 0)
      done;
    sw
  in
  ignore (build 1);
  let leaves = List.rev !leaves in
  let hosts = ref [] in
  List.iteri
    (fun li leaf ->
      for h = 1 to hosts_per_edge do
        let name = Printf.sprintf "t%d-%d" leaf h in
        Topo.add_host topology name;
        Topo.link topology (Topo.Host name, 0) (Topo.Sw leaf, 99 + h);
        let ip = Ipv4.of_octets 10 (li / 250) (li mod 250) h in
        let mac = Mac.of_int ((leaf lsl 8) lor h) in
        hosts := Identxx.Host.create ~name ~mac ~ip () :: !hosts
      done)
    leaves;
  let network = Net.create ~engine ~topology () in
  let controller = Controller.create ?config ?obs ?spans ?recorder ~network ~id:0 () in
  let hosts = Array.of_list (List.rev !hosts) in
  Array.iter (fun h -> attach_host network h) hosts;
  watch_hosts controller hosts;
  (engine, network, controller, hosts)

let linear_network ?config ?obs ?spans ?recorder ~switches ~hosts_per_switch () =
  if switches < 1 || switches > 250 then
    invalid_arg "Deploy.linear_network: switches out of range";
  if hosts_per_switch < 0 || hosts_per_switch > 250 then
    invalid_arg "Deploy.linear_network: hosts_per_switch out of range";
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  for s = 1 to switches do
    Topo.add_switch topology s
  done;
  (* Port 0 links to the previous switch, port 1 to the next; hosts hang
     off ports 10, 11, … *)
  for s = 1 to switches - 1 do
    Topo.link topology (Topo.Sw s, 1) (Topo.Sw (s + 1), 0)
  done;
  let hosts = ref [] in
  for s = 1 to switches do
    for h = 1 to hosts_per_switch do
      let name = Printf.sprintf "h%d-%d" s h in
      Topo.add_host topology name;
      Topo.link topology (Topo.Host name, 0) (Topo.Sw s, 9 + h);
      let ip = Ipv4.of_octets 10 0 s h in
      let mac = Mac.of_int ((s lsl 8) lor h) in
      hosts := Identxx.Host.create ~name ~mac ~ip () :: !hosts
    done
  done;
  let network = Net.create ~engine ~topology () in
  let controller = Controller.create ?config ?obs ?spans ?recorder ~network ~id:0 () in
  let hosts = Array.of_list (List.rev !hosts) in
  Array.iter (fun h -> attach_host network h) hosts;
  watch_hosts controller hosts;
  (engine, network, controller, hosts)
