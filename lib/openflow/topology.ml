type node = Sw of Message.switch_id | Host of string
type endpoint = { node : node; port : int }
type link = { a : endpoint; b : endpoint; latency : Sim.Time.t }

module Node_map = Map.Make (struct
  type t = node

  let compare = Stdlib.compare
end)

(* A node's port, as a wiring key. *)
type port_key = { mutable k_node : node; mutable k_port : int }

module Wiring = Hashtbl.Make (struct
  type t = port_key

  let equal a b = a.k_port = b.k_port && a.k_node = b.k_node
  let hash = Hashtbl.hash
end)

type t = {
  mutable nodes : unit Node_map.t;
  mutable hosts : string list option;
      (* The host nodes in [nodes]' order, built by the first read after
         they change, so reads across link changes get the same list. *)
  mutable links : link list;
  (* (node, port) -> far endpoint + latency, both directions. *)
  wiring : (endpoint * Sim.Time.t) Wiring.t;
  probe : port_key;
      (* The key every lookup fills in, so finding a port's far end
         builds nothing. Never stored: [link] stores keys of its own. *)
  (* node -> its wired ports, sorted ascending — O(degree) [ports_of]
     instead of a scan of the whole wiring table. *)
  ports : (node, int list) Hashtbl.t;
  mutable epoch : int;
  (* All-pairs next-hop state over the switch graph, materialized on
     the first route lookup and updated incrementally by every
     subsequent mutation (see Routing). *)
  mutable routing : Routing.t option;
  mutable hooks : (unit -> unit) list;  (* in registration order *)
  attachments : (string, endpoint) Hashtbl.t;
      (* host -> its primary attachment, kept by [link] and [unlink] *)
}

let create () =
  {
    nodes = Node_map.empty;
    hosts = None;
    links = [];
    wiring = Wiring.create 64;
    probe = { k_node = Host ""; k_port = 0 };
    ports = Hashtbl.create 64;
    epoch = 0;
    routing = None;
    hooks = [];
    attachments = Hashtbl.create 64;
  }

let epoch t = t.epoch
let on_change t f = t.hooks <- t.hooks @ [ f ]

(* Every mutation ends here, after the routing state has caught up, so
   a hook reads the new routes. *)
let touch t =
  t.epoch <- t.epoch + 1;
  List.iter (fun f -> f ()) t.hooks

let add_node t n =
  if Node_map.mem n t.nodes then
    invalid_arg "Topology: duplicate node";
  t.nodes <- Node_map.add n () t.nodes

let add_switch t dpid =
  add_node t (Sw dpid);
  Option.iter (fun r -> Routing.add_switch r dpid) t.routing;
  touch t

let add_host t name =
  add_node t (Host name);
  t.hosts <- None;
  touch t

let node_to_string = function
  | Sw d -> Printf.sprintf "s%d" d
  | Host h -> h

let probe t node port =
  t.probe.k_node <- node;
  t.probe.k_port <- port;
  t.probe

let wire t node port = Wiring.find t.wiring (probe t node port)

let wire_opt t node port =
  match wire t node port with w -> Some w | exception Not_found -> None

let ports_of t node = match Hashtbl.find t.ports node with ps -> ps | exception Not_found -> []

let add_port t node port =
  let rec ins = function
    | [] -> [ port ]
    | p :: tl when p < port -> p :: ins tl
    | rest -> port :: rest
  in
  Hashtbl.replace t.ports node (ins (ports_of t node))

let drop_port t node port =
  Hashtbl.replace t.ports node (List.filter (( <> ) port) (ports_of t node))

(* A host's primary attachment is its lowest-numbered port, which the
   sorted ports list puts first. *)
let refresh_attachment t = function
  | Sw _ -> ()
  | Host name as n -> (
      match ports_of t n with
      | port :: _ -> (
          match wire_opt t n port with
          | Some (({ node = Sw _; _ } as ep), _) ->
              Hashtbl.replace t.attachments name ep
          | Some _ | None -> Hashtbl.remove t.attachments name)
      | [] -> Hashtbl.remove t.attachments name)

(* Link latencies weight the shortest-path computation; clamp to at
   least 1ns so parent chains strictly descend and stay loop-free even
   under zero-latency links. *)
let weight_of latency = max 1 (Sim.Time.to_ns latency)

let link t ?(latency = Sim.Time.us 10) (na, pa) (nb, pb) =
  if not (Node_map.mem na t.nodes) then
    invalid_arg ("Topology.link: unknown node " ^ node_to_string na);
  if not (Node_map.mem nb t.nodes) then
    invalid_arg ("Topology.link: unknown node " ^ node_to_string nb);
  if Wiring.mem t.wiring (probe t na pa) then
    invalid_arg
      (Printf.sprintf "Topology.link: %s port %d already wired"
         (node_to_string na) pa);
  if Wiring.mem t.wiring (probe t nb pb) then
    invalid_arg
      (Printf.sprintf "Topology.link: %s port %d already wired"
         (node_to_string nb) pb);
  let a = { node = na; port = pa } and b = { node = nb; port = pb } in
  t.links <- { a; b; latency } :: t.links;
  Wiring.replace t.wiring { k_node = na; k_port = pa } (b, latency);
  Wiring.replace t.wiring { k_node = nb; k_port = pb } (a, latency);
  add_port t na pa;
  add_port t nb pb;
  refresh_attachment t na;
  refresh_attachment t nb;
  (match (t.routing, na, nb) with
  | Some r, Sw u, Sw v ->
      Routing.link_up r (u, pa) (v, pb) ~weight:(weight_of latency)
  | _ -> ());
  touch t

let unlink t (n, p) =
  match wire_opt t n p with
  | None ->
      invalid_arg
        (Printf.sprintf "Topology.unlink: %s port %d is not wired"
           (node_to_string n) p)
  | Some (far, _) ->
      Wiring.remove t.wiring (probe t n p);
      Wiring.remove t.wiring (probe t far.node far.port);
      drop_port t n p;
      drop_port t far.node far.port;
      refresh_attachment t n;
      refresh_attachment t far.node;
      t.links <-
        List.filter
          (fun l ->
            not
              ((l.a.node = n && l.a.port = p)
              || (l.b.node = n && l.b.port = p)))
          t.links;
      (match (t.routing, n, far.node) with
      | Some r, Sw u, Sw v -> Routing.link_down r (u, p) (v, far.port)
      | _ -> ());
      touch t

let remove_host t name =
  let n = Host name in
  if not (Node_map.mem n t.nodes) then
    invalid_arg ("Topology.remove_host: unknown host " ^ name);
  List.iter (fun p -> unlink t (n, p)) (ports_of t n);
  Hashtbl.remove t.ports n;
  t.nodes <- Node_map.remove n t.nodes;
  t.hosts <- None;
  touch t

let switches t =
  Node_map.fold
    (fun n () acc -> match n with Sw d -> d :: acc | Host _ -> acc)
    t.nodes []
  |> List.rev

let hosts t =
  match t.hosts with
  | Some hosts -> hosts
  | None ->
      let hosts =
        Node_map.fold
          (fun n () acc -> match n with Host h -> h :: acc | Sw _ -> acc)
          t.nodes []
        |> List.rev
      in
      t.hosts <- Some hosts;
      hosts

let links t = List.rev t.links

let peer t node port = Option.map fst (wire_opt t node port)

let host_attachment t name = Hashtbl.find_opt t.attachments name

let ensure_routing t =
  match t.routing with
  | Some r -> r
  | None ->
      let r = Routing.create () in
      Node_map.iter
        (fun n () -> match n with Sw d -> Routing.add_switch r d | Host _ -> ())
        t.nodes;
      List.iter
        (fun l ->
          match (l.a.node, l.b.node) with
          | Sw u, Sw v ->
              Routing.load_link r (u, l.a.port) (v, l.b.port)
                ~weight:(weight_of l.latency)
          | _ -> ())
        t.links;
      Routing.recompute r;
      t.routing <- Some r;
      r

let recompute_routes t = Routing.recompute (ensure_routing t)
let routing_stats t = Routing.stats (ensure_routing t)

let next_hop_port t ~from ~dst_host =
  match Hashtbl.find t.attachments dst_host with
  | exception Not_found -> -1
  | { node = Sw d; port } when d = from -> port
  | { node = Sw d; _ } -> (
      match Routing.next_exn (ensure_routing t) ~src:from ~dst:d with
      | port, _ -> port
      | exception Not_found -> -1)
  | { node = Host _; _ } -> -1

let next_hop t ~from ~dst_host =
  match next_hop_port t ~from ~dst_host with -1 -> None | port -> Some port

let sw_of ep = match ep.node with Sw d -> d | Host _ -> assert false

(* Whether the next-hop chain from [cur] reaches [dst] within [limit]
   steps. *)
let rec reaches r cur dst limit =
  cur = dst
  || limit > 0
     &&
     match Routing.next_exn r ~src:cur ~dst with
     | _, via -> reaches r via dst (limit - 1)
     | exception Not_found -> false

let rec walk r cur dst last_port f a =
  if cur = dst then f a cur last_port
  else
    let out, via = Routing.next_exn r ~src:cur ~dst in
    f a cur out;
    walk r via dst last_port f a

let iter_path t ~src ~dst f x =
  src <> dst
  &&
  match (Hashtbl.find t.attachments src, Hashtbl.find t.attachments dst) with
  | a, b ->
      let a_sw = sw_of a and b_sw = sw_of b in
      if a_sw = b_sw then begin
        f x a_sw b.port;
        true
      end
      else
        let r = ensure_routing t in
        reaches r a_sw b_sw (Routing.switch_count r)
        && begin
             walk r a_sw b_sw b.port f x;
             true
           end
  | exception Not_found -> false

(* Each hop's ingress port is the far end of the previous hop's output. *)
let switch_path t ~src ~dst =
  if src = dst then Some []
  else
    let hops = ref [] in
    let in_port =
      ref (match host_attachment t src with Some a -> a.port | None -> 0)
    in
    let add () dpid out =
      hops := (dpid, !in_port, out) :: !hops;
      Option.iter (fun far -> in_port := far.port) (peer t (Sw dpid) out)
    in
    if iter_path t ~src ~dst add () then Some (List.rev !hops) else None
