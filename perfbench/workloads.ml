(* The three workloads. Each is a function of the seed alone: the seed
   draws the network's link latencies and the whole open-loop arrival
   schedule before anything runs; who runs which app and proactive-churn's
   change script are fixed. The harness in main.ml only plays back what
   is generated here. *)

open Netcore
module C = Identxx_core.Controller
module PS = Identxx_core.Policy_store
module Deploy = Identxx_core.Deploy
module Net = Openflow.Network
module Topo = Openflow.Topology
module Pop = Workload.Population

type proc_plan = { user : string; groups : string list; app : Pop.app }

type host_plan = {
  name : string;
  ip : Ipv4.t;
  mac : Mac.t;
  pod : int;  (** Fat-tree pod (second address octet); 0 on the campus. *)
  procs : proc_plan array;  (** Client processes. *)
  serves : bool;  (** Runs one listener per catalog port. *)
}

type change =
  | Edit of string  (** New content of the edits policy file. *)
  | Link_down of Topo.link
  | Link_up of Topo.link

type arrival = {
  due : Sim.Time.t;
  src : int;  (** Host index. *)
  proc : int;  (** Index into the source host's client processes. *)
  dst : int;
  dst_port : int;
}

type t = {
  name : string;
  topology : unit -> Topo.t;  (** A fresh copy for every set-up. *)
  hosts : host_plan array;
  config : C.config;
  policy : (string * string) list;
  arrivals : arrival array;  (** Sorted by due time. *)
  changes : (Sim.Time.t * change) list;  (** Sorted by time. *)
  warmup_end : Sim.Time.t;  (** Arrivals due later are timed. *)
}

let edits_file = "50-edits"
let catalog = Array.of_list Pop.catalog
let exe_of (app : Pop.app) = "/usr/bin/" ^ app.Pop.app_name
let is_timed w (a : arrival) = Sim.Time.(a.due > w.warmup_end)

(* A host's client processes: the first runs as the host's own user, the
   others as other members of the population (a shared machine), each
   with an app drawn from the catalog. *)
let client_procs prng (clients : Pop.host array) i ~count =
  Array.init count (fun p ->
      let owner = clients.((i + (p * 7)) mod Array.length clients) in
      let app = Sim.Prng.pick prng catalog in
      { user = owner.Pop.user; groups = owner.Pop.groups; app })

(* Who runs what is the same for every seed, so seeds differ in their
   traffic, not in how much work a flow costs. *)
let fixed_plan () = Sim.Prng.create 2009

(* One core switch carrying the servers and [access] access switches with
   [per_access] clients each. Every link's latency is 10us plus up to 1us
   drawn from the seed, so simulated latencies differ between seeds
   instead of landing on the same few path sums. *)
let campus prng ~access ~per_access ~servers ~procs =
  let pop = Pop.create ~clients:(access * per_access) ~servers () in
  let clients = Pop.clients pop in
  let nc = Array.length clients in
  let latency () = Sim.Time.ns (10_000 + Sim.Prng.int prng 1_000) in
  let uplinks = Array.init access (fun _ -> latency ()) in
  let apps = fixed_plan () in
  let client i (h : Pop.host) =
    let procs = client_procs apps clients i ~count:procs in
    { name = h.Pop.name; ip = h.Pop.ip; mac = Mac.of_int (0x0a0001 + i);
      pod = 0; procs; serves = false }
  in
  let server s (h : Pop.host) =
    { name = h.Pop.name; ip = h.Pop.ip; mac = Mac.of_int (0x0b0001 + s);
      pod = 0; procs = [||]; serves = true }
  in
  let hosts =
    Array.append (Array.mapi client clients) (Array.mapi server (Pop.servers pop))
  in
  let host_links = Array.map (fun _ -> latency ()) hosts in
  let topology () =
    let topo = Topo.create () in
    Topo.add_switch topo 1;
    for a = 1 to access do
      Topo.add_switch topo (1 + a);
      Topo.link topo ~latency:uplinks.(a - 1) (Topo.Sw (1 + a), 1) (Topo.Sw 1, a)
    done;
    Array.iteri
      (fun i (hp : host_plan) ->
        let sw, port =
          if i < nc then (2 + (i / per_access), 10 + (i mod per_access))
          else (1, 100 + i - nc)
        in
        Topo.add_host topo hp.name;
        Topo.link topo ~latency:host_links.(i) (Topo.Host hp.name, 0) (Topo.Sw sw, port))
      hosts;
    topo
  in
  (pop, hosts, topology)

(* The §1 enterprise policy (as in examples/enterprise.ml): approved apps
   through member(), skype kept off the file server, keep state. *)
let enterprise_policy pop =
  [
    ( "00-site",
      Printf.sprintf
        "table <fileserver> { %s }\n\
         allowed = \"{ firefox ssh thunderbird skype }\"\n\
         block all\n\
         pass all with member(@src[name], $allowed) keep state\n\
         block log from any to <fileserver> with eq(@src[name], skype)"
        (Ipv4.to_string (Pop.important_server pop).Pop.ip) );
  ]

(* A client flow on the campus: a random client process talks to a
   Zipf-popular server, or (with probability [peer_share]) to another
   client, on its app's port. *)
let campus_arrival prng (hosts : host_plan array) ~clients ~servers ~peer_share
    due =
  let src = Sim.Prng.int prng clients in
  let proc = Sim.Prng.int prng (Array.length hosts.(src).procs) in
  let dst =
    if Sim.Prng.float prng 1.0 < peer_share then
      (src + 1 + Sim.Prng.int prng (clients - 1)) mod clients
    else clients + Workload.Flowgen.zipf_pick prng ~n:servers
  in
  { due; src; proc; dst; dst_port = hosts.(src).procs.(proc).app.Pop.app_port }

let poisson prng ~rate ~until pick =
  let rec go t acc =
    let t = t +. Sim.Prng.exponential prng ~mean:(1. /. rate) in
    if t >= until then Array.of_list (List.rev acc)
    else
      let a = pick (Sim.Time.of_float_s t) in
      go t (a :: acc)
  in
  go 0. []

(* enterprise-steady: the paper's cold Figure-1 exchange on every flow.
   25 flows/s against the 30 s idle timeout holds the core switch at
   about a thousand resident entries (keep state installs both
   directions); the 40 s warm-up reaches that occupancy before timing. *)
let enterprise_steady seed =
  let prng = Sim.Prng.create seed in
  let clients = 36 and servers = 4 in
  let pop, hosts, topology = campus prng ~access:3 ~per_access:12 ~servers ~procs:4 in
  let warmup = 40. and timed = 80. in
  let arrivals =
    poisson prng ~rate:25. ~until:(warmup +. timed)
      (campus_arrival prng hosts ~clients ~servers ~peer_share:0.25)
  in
  {
    name = "enterprise-steady";
    topology;
    hosts;
    config = { C.default_config with C.require_signed_responses = true };
    policy = enterprise_policy pop;
    arrivals;
    changes = [];
    warmup_end = Sim.Time.of_float_s warmup;
  }

(* hot-host-burst: bursts of concurrent table misses converging on a few
   Zipf-hot servers from many multi-process clients, under the settings an
   operator would pick for such load: two shards with coalescing, and the
   fast path. Bursts are 40 s apart, longer than the 30 s idle timeout, so
   tables drain between them. *)
let hot_host_burst seed =
  let prng = Sim.Prng.create seed in
  let clients = 48 and servers = 6 in
  let pop, hosts, topology = campus prng ~access:4 ~per_access:12 ~servers ~procs:5 in
  let spacing = 40. and size = 150 and warm = 10 and timed = 40 in
  let bursts =
    List.init (warm + timed) (fun b ->
        let t = ref (spacing *. float_of_int (b + 1)) in
        Array.init size (fun _ ->
            t := !t +. Sim.Prng.exponential prng ~mean:4e-6;
            campus_arrival prng hosts ~clients ~servers ~peer_share:0.
              (Sim.Time.of_float_s !t)))
  in
  {
    name = "hot-host-burst";
    topology;
    hosts;
    config =
      {
        C.default_config with
        C.require_signed_responses = true;
        fastpath = Fastpath.default_config;
        shards = Some (C.sharded 2);
      };
    policy = enterprise_policy pop;
    arrivals = Array.concat bursts;
    changes = [];
    warmup_end = Sim.Time.of_float_s (spacing *. (float_of_int warm +. 0.5));
  }

(* proactive-churn: a k=4 fat-tree whose static policy slice is compiled
   into every switch, so most flows never reach the controller; port 7777
   is the reactive residue that needs ident++ answers. There is no keep
   state: keep-state demotion would turn compiled entries back into
   punts. Every 200 ms of simulated time the edits file is replaced and
   compiled as a delta; every 4 s a switch-to-switch link goes down for
   1 s. The change script is the same for every seed (only the flows and
   the link latency follow the seed), so every run does the same write
   work. *)
let churn_policy =
  [
    ( "00-site",
      "research = \"{ research-app }\"\n\
       block all\n\
       pass proto tcp from any to any port 80\n\
       pass proto tcp from 10.0.0.0/15 to any port 443\n\
       pass proto tcp from 10.2.0.0/16 to any port 22\n\
       pass proto tcp from any to 10.3.0.0/16 port 25\n\
       pass proto tcp from any to any port 7777 with member(@src[name], $research)"
    );
  ]

let proactive_churn seed =
  let prng = Sim.Prng.create seed in
  let pods = 4 in
  let latency = Sim.Time.ns (10_000 + Sim.Prng.int prng 200) in
  let spec = Workload.Fabric.Fat_tree { k = pods } in
  let layout = Workload.Fabric.build ~latency spec in
  let specs = layout.Workload.Fabric.hosts in
  let clients = Pop.clients (Pop.create ~clients:(Array.length specs) ~servers:1 ()) in
  let apps = fixed_plan () in
  let hosts =
    Array.mapi
      (fun i (hs : Workload.Fabric.host_spec) ->
        let _, pod, _, _ = Ipv4.to_octets hs.Workload.Fabric.hs_ip in
        let procs = client_procs apps clients i ~count:3 in
        { name = hs.hs_name; ip = hs.hs_ip; mac = hs.hs_mac; pod; procs; serves = true })
      specs
  in
  let n = Array.length hosts in
  let ports = [| 80; 80; 80; 80; 443; 443; 22; 25; 23; 8080; 8443; 7777 |] in
  let warmup = 2. and timed = 6. in
  let until = warmup +. timed in
  let arrivals =
    poisson prng ~rate:500. ~until (fun due ->
        let src = Sim.Prng.int prng n in
        let rec other () =
          let d = Sim.Prng.int prng n in
          if hosts.(d).pod = hosts.(src).pod then other () else d
        in
        let dst = other () in
        let proc = Sim.Prng.int prng (Array.length hosts.(src).procs) in
        let dst_port = Sim.Prng.pick prng ports in
        { due; src; proc; dst; dst_port })
  in
  let script = fixed_plan () in
  let edit () =
    let rule _ =
      let action = if Sim.Prng.bool script then "pass" else "block" in
      let a = Sim.Prng.int script pods in
      let b = Sim.Prng.int script pods in
      let port = Sim.Prng.pick script [| 8080; 8443; 22; 25 |] in
      Printf.sprintf "%s proto tcp from 10.%d.0.0/16 to 10.%d.0.0/16 port %d" action
        a b port
    in
    String.concat "\n" (List.init (1 + Sim.Prng.int script 3) rule)
  in
  let edits =
    List.init
      (int_of_float (until /. 0.2))
      (fun i -> (Sim.Time.of_float_s (0.1 +. (0.2 *. float_of_int i)), Edit (edit ())))
  in
  let fabric_links =
    Array.of_list
      (List.filter
         (fun (l : Topo.link) ->
           match (l.Topo.a.Topo.node, l.Topo.b.Topo.node) with
           | Topo.Sw _, Topo.Sw _ -> true
           | _ -> false)
         (Topo.links layout.Workload.Fabric.topology))
  in
  let flaps =
    List.concat
      (List.init
         (int_of_float (until /. 4.))
         (fun j ->
           let l = Sim.Prng.pick script fabric_links in
           let t = 2. +. (4. *. float_of_int j) in
           [ (Sim.Time.of_float_s t, Link_down l); (Sim.Time.of_float_s (t +. 1.), Link_up l) ]))
  in
  {
    name = "proactive-churn";
    topology = (fun () -> (Workload.Fabric.build ~latency spec).Workload.Fabric.topology);
    hosts;
    config =
      { C.default_config with C.proactive = true; require_signed_responses = true };
    policy = churn_policy;
    arrivals;
    changes = List.stable_sort (fun (a, _) (b, _) -> Sim.Time.compare a b) (edits @ flaps);
    warmup_end = Sim.Time.of_float_s warmup;
  }

let of_name = function
  | "enterprise-steady" -> Some enterprise_steady
  | "hot-host-burst" -> Some hot_host_burst
  | "proactive-churn" -> Some proactive_churn
  | _ -> None

(* --- standing a workload's deployment up ------------------------------ *)

type site = {
  engine : Sim.Engine.t;
  network : Net.t;
  controller : C.t;
  hosts : Identxx.Host.t array;
  procs : Identxx.Process_table.process array array;
      (** Client processes, indexed like {!host_plan.procs}. *)
}

(* The administrator configuration every daemon carries, of realistic
   size: a patch level and two dozen site attributes. *)
let admin_config =
  String.concat "\n"
    ("os-patch : 8831"
    :: List.init 24 (fun i -> Printf.sprintf "site-attr-%02d : %s" i (String.make 48 'v')))

let services =
  List.sort_uniq compare (List.map (fun (a : Pop.app) -> a.Pop.app_port) Pop.catalog)

(* Topology, controller at its configured settings, hosts attached by
   [attach] (whose third argument is the host index) and watched as
   {!Deploy} does, per-host signing keys registered at the controller,
   daemon configs, processes, listeners, and finally the policy, whose
   load triggers any proactive compile and install. *)
let deploy w ~attach =
  let engine = Sim.Engine.create () in
  let network = Net.create ~engine ~topology:(w.topology ()) () in
  let controller = C.create ~config:w.config ~network ~id:0 () in
  let hosts =
    Array.mapi
      (fun i (hp : host_plan) ->
        let host = Identxx.Host.create ~name:hp.name ~mac:hp.mac ~ip:hp.ip () in
        attach network host i;
        Deploy.watch_host controller host;
        host)
      w.hosts
  in
  let procs =
    Array.mapi
      (fun i (hp : host_plan) ->
        let host = hosts.(i) in
        let key = Idcrypto.Sign.generate (hp.name ^ "-daemon") in
        Idcrypto.Sign.register (C.keystore controller) key;
        Identxx.Host.set_signing_key host (Some key);
        (match
           Identxx.Daemon.load_config (Identxx.Host.daemon host) ~name:"00-admin"
             admin_config
         with
        | Ok () -> ()
        | Error e -> failwith e);
        Array.iter
          (fun (app : Pop.app) ->
            Identxx.Host.install_exe host ~path:(exe_of app)
              ~content:("ELF " ^ app.Pop.app_name ^ " 210"))
          catalog;
        if hp.serves then
          List.iter
            (fun port ->
              let proc =
                Identxx.Host.run host ~user:"system" ~groups:[ "services" ]
                  ~exe:(Printf.sprintf "/usr/sbin/svc-%d" port) ()
              in
              Identxx.Host.listen host ~proc ~port ())
            services;
        Array.map
          (fun (p : proc_plan) ->
            Identxx.Host.run host ~user:p.user ~groups:p.groups ~exe:(exe_of p.app) ())
          hp.procs)
      w.hosts
  in
  List.iter (fun (name, text) -> PS.add_exn (C.policy controller) ~name text) w.policy;
  { engine; network; controller; hosts; procs }
