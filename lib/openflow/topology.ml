type node = Sw of Message.switch_id | Host of string
type endpoint = { node : node; port : int }
type link = { a : endpoint; b : endpoint; latency : Sim.Time.t }

module Node_map = Map.Make (struct
  type t = node

  let compare = Stdlib.compare
end)

type t = {
  mutable nodes : unit Node_map.t;
  mutable links : link list;
  (* (node, port) -> far endpoint + latency, both directions. *)
  wiring : (node * int, endpoint * Sim.Time.t) Hashtbl.t;
  (* node -> its wired ports, sorted ascending — O(degree) [ports_of]
     instead of a scan of the whole wiring table. *)
  ports : (node, int list) Hashtbl.t;
  mutable epoch : int;
  (* All-pairs next-hop state over the switch graph, materialized on
     the first route lookup and updated incrementally by every
     subsequent mutation (see Routing). *)
  mutable routing : Routing.t option;
  mutable hooks : (unit -> unit) list;  (* in registration order *)
}

let create () =
  {
    nodes = Node_map.empty;
    links = [];
    wiring = Hashtbl.create 64;
    ports = Hashtbl.create 64;
    epoch = 0;
    routing = None;
    hooks = [];
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
  touch t

let node_to_string = function
  | Sw d -> Printf.sprintf "s%d" d
  | Host h -> h

let ports_of t node = Option.value ~default:[] (Hashtbl.find_opt t.ports node)

let add_port t node port =
  let rec ins = function
    | [] -> [ port ]
    | p :: tl when p < port -> p :: ins tl
    | rest -> port :: rest
  in
  Hashtbl.replace t.ports node (ins (ports_of t node))

let drop_port t node port =
  Hashtbl.replace t.ports node (List.filter (( <> ) port) (ports_of t node))

(* Link latencies weight the shortest-path computation; clamp to at
   least 1ns so parent chains strictly descend and stay loop-free even
   under zero-latency links. *)
let weight_of latency = max 1 (Sim.Time.to_ns latency)

let link t ?(latency = Sim.Time.us 10) (na, pa) (nb, pb) =
  if not (Node_map.mem na t.nodes) then
    invalid_arg ("Topology.link: unknown node " ^ node_to_string na);
  if not (Node_map.mem nb t.nodes) then
    invalid_arg ("Topology.link: unknown node " ^ node_to_string nb);
  if Hashtbl.mem t.wiring (na, pa) then
    invalid_arg
      (Printf.sprintf "Topology.link: %s port %d already wired"
         (node_to_string na) pa);
  if Hashtbl.mem t.wiring (nb, pb) then
    invalid_arg
      (Printf.sprintf "Topology.link: %s port %d already wired"
         (node_to_string nb) pb);
  let a = { node = na; port = pa } and b = { node = nb; port = pb } in
  t.links <- { a; b; latency } :: t.links;
  Hashtbl.replace t.wiring (na, pa) (b, latency);
  Hashtbl.replace t.wiring (nb, pb) (a, latency);
  add_port t na pa;
  add_port t nb pb;
  (match (t.routing, na, nb) with
  | Some r, Sw u, Sw v ->
      Routing.link_up r (u, pa) (v, pb) ~weight:(weight_of latency)
  | _ -> ());
  touch t

let unlink t (n, p) =
  match Hashtbl.find_opt t.wiring (n, p) with
  | None ->
      invalid_arg
        (Printf.sprintf "Topology.unlink: %s port %d is not wired"
           (node_to_string n) p)
  | Some (far, _) ->
      Hashtbl.remove t.wiring (n, p);
      Hashtbl.remove t.wiring (far.node, far.port);
      drop_port t n p;
      drop_port t far.node far.port;
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
  touch t

let switches t =
  Node_map.fold
    (fun n () acc -> match n with Sw d -> d :: acc | Host _ -> acc)
    t.nodes []
  |> List.rev

let hosts t =
  Node_map.fold
    (fun n () acc -> match n with Host h -> h :: acc | Sw _ -> acc)
    t.nodes []
  |> List.rev

let links t = List.rev t.links

let peer t node port =
  Option.map fst (Hashtbl.find_opt t.wiring (node, port))

let wire t node port = Hashtbl.find_opt t.wiring (node, port)

let host_attachment t name =
  (* The ports list is sorted, so a multihomed host's primary
     attachment is its lowest-numbered port. *)
  match ports_of t (Host name) with
  | [] -> None
  | port :: _ -> (
      match Hashtbl.find_opt t.wiring (Host name, port) with
      | Some (ep, _) -> ( match ep.node with Sw _ -> Some ep | Host _ -> None)
      | None -> None)

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

let next_hop t ~from ~dst_host =
  match host_attachment t dst_host with
  | None -> None
  | Some ep -> (
      match ep.node with
      | Sw d when d = from -> Some ep.port
      | Sw d -> Routing.next_hop_port (ensure_routing t) ~src:from ~dst:d
      | Host _ -> None)

let switch_path t ~src ~dst =
  if src = dst then Some []
  else
    match (host_attachment t src, host_attachment t dst) with
    | Some a, Some b -> (
        let sw_of ep =
          match ep.node with Sw d -> d | Host _ -> assert false
        in
        let a_sw = sw_of a and b_sw = sw_of b in
        if a_sw = b_sw then Some [ (a_sw, a.port, b.port) ]
        else
          let r = ensure_routing t in
          let limit = Routing.switch_count r in
          let rec walk cur in_port steps acc =
            if steps > limit then None
            else if cur = b_sw then
              Some (List.rev ((cur, in_port, b.port) :: acc))
            else
              match Routing.next_hop_port r ~src:cur ~dst:b_sw with
              | None -> None
              | Some out -> (
                  match peer t (Sw cur) out with
                  | Some far ->
                      walk
                        (match far.node with
                        | Sw d -> d
                        | Host _ -> assert false)
                        far.port (steps + 1)
                        ((cur, in_port, out) :: acc)
                  | None -> None)
          in
          walk a_sw a.port 0 [])
    | _ -> None

let pp ppf t =
  Format.fprintf ppf "topology: %d switches, %d hosts, %d links@."
    (List.length (switches t))
    (List.length (hosts t))
    (List.length t.links);
  List.iter
    (fun l ->
      Format.fprintf ppf "  %s:%d <-> %s:%d (%a)@." (node_to_string l.a.node)
        l.a.port (node_to_string l.b.node) l.b.port Sim.Time.pp l.latency)
    (links t)
