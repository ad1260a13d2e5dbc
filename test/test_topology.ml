(* Tests for the precomputed routing state (lib/openflow/routing.ml,
   doc/TOPOLOGY.md) and the generated fabrics (lib/workload/fabric.ml).

   The load-bearing property: after ANY sequence of link up/down and
   host attach/detach events, [Topology.next_hop] must agree with a
   from-scratch Dijkstra oracle on every (switch, host) pair. The
   incremental engine repairs only the trees a flap touched, so the
   oracle is what keeps "skipped" from quietly meaning "stale". Routes
   are compared by cost, not by port choice, so the check is robust to
   equal-cost tie-breaks. *)

module Topo = Openflow.Topology
module Fabric = Workload.Fabric

let check = Alcotest.check
let fail = Alcotest.fail
let weight lat = max 1 (Sim.Time.to_ns lat)

(* --- from-scratch Dijkstra oracle over Topology.links ----------------- *)

(* Distances from every switch to [dst_sw], over Sw-Sw links only
   (hosts do not transit), naive O(V^2) — independent of the
   incremental engine by construction. *)
let oracle_dists topology ~dst_sw =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (l : Topo.link) ->
      match (l.Topo.a.Topo.node, l.Topo.b.Topo.node) with
      | Topo.Sw x, Topo.Sw y ->
          let w = weight l.Topo.latency in
          Hashtbl.add adj x (y, w);
          Hashtbl.add adj y (x, w)
      | _ -> ())
    (Topo.links topology);
  let dist = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  Hashtbl.replace dist dst_sw 0;
  let switches = Topo.switches topology in
  let rec settle () =
    let best =
      List.fold_left
        (fun acc s ->
          if Hashtbl.mem visited s then acc
          else
            match (Hashtbl.find_opt dist s, acc) with
            | None, _ -> acc
            | Some d, None -> Some (s, d)
            | Some d, Some (_, bd) -> if d < bd then Some (s, d) else acc)
        None switches
    in
    match best with
    | None -> ()
    | Some (u, du) ->
        Hashtbl.replace visited u ();
        List.iter
          (fun (v, w) ->
            match Hashtbl.find_opt dist v with
            | Some d when d <= du + w -> ()
            | _ -> Hashtbl.replace dist v (du + w))
          (Hashtbl.find_all adj u);
        settle ()
  in
  settle ();
  dist

(* Walk the next_hop chain from [from] toward [dst_host], accumulating
   Sw-Sw link weights; the walk must terminate at the host and cost
   exactly the oracle distance (or both must say unreachable). *)
let check_route topology ~from ~dst_host ~expected =
  let rec walk cur acc steps =
    if steps > 1_000 then fail "next_hop walk did not terminate (loop?)"
    else
      match Topo.next_hop topology ~from:cur ~dst_host with
      | None -> None
      | Some port -> (
          match Topo.wire topology (Topo.Sw cur) port with
          | exception Not_found -> fail "next_hop points at an unwired port"
          | { Topo.node = Topo.Host h; _ }, _ ->
              if h = dst_host then Some acc
              else fail ("next_hop walked into wrong host " ^ h)
          | { Topo.node = Topo.Sw nxt; _ }, lat ->
              walk nxt (acc + weight lat) (steps + 1))
  in
  let label = Printf.sprintf "s%d -> %s" from dst_host in
  match (walk from 0 0, expected) with
  | None, None -> ()
  | Some cost, Some d -> check Alcotest.int (label ^ " cost") d cost
  | Some _, None -> fail (label ^ ": routed where oracle says unreachable")
  | None, Some _ -> fail (label ^ ": unreachable where oracle says routable")

(* Every (switch, host) pair against the oracle. *)
let check_all_pairs topology =
  List.iter
    (fun dst_host ->
      match Topo.host_attachment topology dst_host with
      | None -> ()
      | Some att ->
          let dst_sw =
            match att.Topo.node with
            | Topo.Sw d -> d
            | Topo.Host _ -> fail "host attachment is not a switch"
          in
          let dists = oracle_dists topology ~dst_sw in
          List.iter
            (fun s ->
              check_route topology ~from:s ~dst_host
                ~expected:(Hashtbl.find_opt dists s))
            (Topo.switches topology))
    (Topo.hosts topology)

(* --- the property: random event churn vs the oracle ------------------- *)

let sw_sw_links topology =
  List.filter
    (fun (l : Topo.link) ->
      match (l.Topo.a.Topo.node, l.Topo.b.Topo.node) with
      | Topo.Sw _, Topo.Sw _ -> true
      | _ -> false)
    (Topo.links topology)

let churn_property ~spec ~seed ~events () =
  let prng = Sim.Prng.create seed in
  let fab = Fabric.build spec in
  let topology = fab.Fabric.topology in
  check_all_pairs topology;
  let downed = ref [] in
  let fresh = ref 0 in
  for _ = 1 to events do
    (match Sim.Prng.int prng 4 with
    | 0 -> (
        (* link-down: a random switch-switch link *)
        match sw_sw_links topology with
        | [] -> ()
        | ls ->
            let l = Sim.Prng.pick_list prng ls in
            Topo.unlink topology (l.Topo.a.Topo.node, l.Topo.a.Topo.port);
            downed := l :: !downed)
    | 1 -> (
        (* link-up: restore the most recently downed link *)
        match !downed with
        | [] -> ()
        | l :: rest ->
            downed := rest;
            Topo.link topology ~latency:l.Topo.latency
              (l.Topo.a.Topo.node, l.Topo.a.Topo.port)
              (l.Topo.b.Topo.node, l.Topo.b.Topo.port))
    | 2 -> (
        (* host detach *)
        match Topo.hosts topology with
        | [] -> ()
        | hs -> Topo.remove_host topology (Sim.Prng.pick_list prng hs))
    | _ ->
        (* host attach on a fresh high port of a random switch *)
        incr fresh;
        let name = Printf.sprintf "x%d" !fresh in
        let sw = Sim.Prng.pick_list prng (Topo.switches topology) in
        Topo.add_host topology name;
        Topo.link topology (Topo.Host name, 0) (Topo.Sw sw, 100 + !fresh));
    check_all_pairs topology
  done

let test_churn_fat_tree () =
  List.iter
    (fun seed -> churn_property ~spec:(Fabric.Fat_tree { k = 4 }) ~seed ~events:12 ())
    [ 1; 2; 3 ]

let test_churn_leaf_spine () =
  List.iter
    (fun seed ->
      churn_property
        ~spec:(Fabric.Leaf_spine { spines = 2; leaves = 3; hosts_per_leaf = 2 })
        ~seed ~events:12 ())
    [ 7; 8; 9 ]

(* Partition: a single-spine leaf-spine loses a leaf's only uplink;
   cross-leaf pairs must go unreachable (None), same-leaf delivery must
   survive, and restoring the uplink must restore the routes. *)
let test_partition () =
  let fab =
    Fabric.build (Fabric.Leaf_spine { spines = 1; leaves = 2; hosts_per_leaf = 2 })
  in
  let topology = fab.Fabric.topology in
  (* spine is dpid 1, leaves are 2 and 3; leaf uplink port is hosts+1 *)
  check_all_pairs topology;
  (* leaf 3's uplink to the lone spine is port hosts+1 = 3 *)
  check Alcotest.(option int) "cross-leaf before" (Some 3)
    (Topo.next_hop topology ~from:3 ~dst_host:"h0-0");
  Topo.unlink topology (Topo.Sw 2, 3);
  check Alcotest.(option int) "cross-leaf down" None
    (Topo.next_hop topology ~from:3 ~dst_host:"h0-0");
  check Alcotest.(option int) "spine to stranded leaf down" None
    (Topo.next_hop topology ~from:1 ~dst_host:"h0-1");
  check Alcotest.bool "same-leaf still routes" true
    (Topo.next_hop topology ~from:2 ~dst_host:"h0-0" <> None);
  check_all_pairs topology;
  Topo.link topology ~latency:(Sim.Time.us 10) (Topo.Sw 2, 3) (Topo.Sw 1, 1);
  check Alcotest.bool "cross-leaf restored" true
    (Topo.next_hop topology ~from:3 ~dst_host:"h0-0" <> None);
  check_all_pairs topology

(* --- unit tests -------------------------------------------------------- *)

let test_ports_of () =
  let fab = Fabric.build (Fabric.Fat_tree { k = 4 }) in
  let topology = fab.Fabric.topology in
  (* edge 0 of pod 0 is dpid 13: ports 1-2 face hosts, 3-4 face aggs *)
  check
    Alcotest.(list int)
    "edge ports sorted" [ 1; 2; 3; 4 ]
    (Topo.ports_of topology (Topo.Sw 13));
  check
    Alcotest.(list int)
    "host has one port" [ 0 ]
    (Topo.ports_of topology (Topo.Host "h0-0-0"));
  check Alcotest.(list int) "unknown node has none" []
    (Topo.ports_of topology (Topo.Sw 999))

let test_unlink_errors () =
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Alcotest.check_raises "unwired port"
    (Invalid_argument "Topology.unlink: s1 port 7 is not wired") (fun () ->
      Topo.unlink topology (Topo.Sw 1, 7))

let test_epoch_bumps () =
  let topology = Topo.create () in
  let e0 = Topo.epoch topology in
  Topo.add_switch topology 1;
  Topo.add_switch topology 2;
  Topo.add_host topology "h";
  let e1 = Topo.epoch topology in
  check Alcotest.bool "adds bump" true (e1 > e0);
  Topo.link topology (Topo.Sw 1, 1) (Topo.Sw 2, 1);
  Topo.link topology (Topo.Host "h", 0) (Topo.Sw 2, 2);
  let e2 = Topo.epoch topology in
  check Alcotest.bool "links bump" true (e2 > e1);
  Topo.unlink topology (Topo.Sw 1, 1);
  Topo.remove_host topology "h";
  check Alcotest.bool "removals bump" true (Topo.epoch topology > e2)

(* A k=4 flap must repair some trees and skip the rest — the stats
   prove the incremental path ran instead of a full rebuild. *)
let test_incremental_stats () =
  let fab = Fabric.build (Fabric.Fat_tree { k = 4 }) in
  let topology = fab.Fabric.topology in
  ignore (Topo.next_hop topology ~from:1 ~dst_host:"h0-0-0");
  let s0 = Topo.routing_stats topology in
  Topo.unlink topology (Topo.Sw 5, 1);
  Topo.link topology ~latency:(Sim.Time.us 10) (Topo.Sw 5, 1) (Topo.Sw 13, 3);
  let s1 = Topo.routing_stats topology in
  check Alcotest.int "no full recompute"
    s0.Openflow.Routing.full_recomputes s1.Openflow.Routing.full_recomputes;
  check Alcotest.int "two link events"
    (s0.Openflow.Routing.link_events + 2)
    s1.Openflow.Routing.link_events;
  check Alcotest.bool "some trees skipped" true
    (s1.Openflow.Routing.dests_skipped > s0.Openflow.Routing.dests_skipped);
  check_all_pairs topology

(* Host attach/detach must not touch any routing tree. *)
let test_host_attach_o1 () =
  let fab = Fabric.build (Fabric.Fat_tree { k = 4 }) in
  let topology = fab.Fabric.topology in
  ignore (Topo.next_hop topology ~from:1 ~dst_host:"h0-0-0");
  let s0 = Topo.routing_stats topology in
  Topo.add_host topology "extra";
  Topo.link topology (Topo.Host "extra", 0) (Topo.Sw 13, 9);
  check Alcotest.bool "new host routable" true
    (Topo.next_hop topology ~from:1 ~dst_host:"extra" <> None);
  Topo.remove_host topology "extra";
  let s1 = Topo.routing_stats topology in
  check Alcotest.int "no nodes settled" s0.Openflow.Routing.nodes_settled
    s1.Openflow.Routing.nodes_settled;
  check Alcotest.int "no trees recomputed"
    s0.Openflow.Routing.dests_recomputed s1.Openflow.Routing.dests_recomputed

let test_switch_path_same_switch () =
  let fab = Fabric.build (Fabric.Fat_tree { k = 4 }) in
  let topology = fab.Fabric.topology in
  (* h0-0-0 and h0-0-1 share edge 13 on ports 1 and 2 *)
  match Topo.switch_path topology ~src:"h0-0-0" ~dst:"h0-0-1" with
  | Some [ (dpid, in_port, out_port) ] ->
      check Alcotest.int "shared edge" 13 dpid;
      check Alcotest.int "in from src" 1 in_port;
      check Alcotest.int "out to dst" 2 out_port
  | Some hops ->
      fail (Printf.sprintf "expected 1 hop, got %d" (List.length hops))
  | None -> fail "same-switch pair unreachable"

let test_generator_shapes () =
  let ft = Fabric.build (Fabric.Fat_tree { k = 4 }) in
  check Alcotest.int "k=4 switches" 20
    (List.length (Topo.switches ft.Fabric.topology));
  check Alcotest.int "k=4 hosts" 16 (Array.length ft.Fabric.hosts);
  check Alcotest.int "k=4 links" 48
    (List.length (Topo.links ft.Fabric.topology));
  let ls =
    Fabric.build (Fabric.Leaf_spine { spines = 4; leaves = 8; hosts_per_leaf = 16 })
  in
  check Alcotest.int "leaf-spine switches" 12
    (List.length (Topo.switches ls.Fabric.topology));
  check Alcotest.int "leaf-spine hosts" 128 (Array.length ls.Fabric.hosts);
  check Alcotest.bool "invalid spec rejected" true
    (Result.is_error (Fabric.validate (Fabric.Fat_tree { k = 5 })));
  check Alcotest.bool "round-trips" true
    (Fabric.spec_of_string (Fabric.spec_to_string ft.Fabric.spec)
    = Ok ft.Fabric.spec)

let () =
  Alcotest.run "topology"
    [
      ( "routing-oracle",
        [
          Alcotest.test_case "churn on fat-tree k=4" `Quick test_churn_fat_tree;
          Alcotest.test_case "churn on leaf-spine" `Quick test_churn_leaf_spine;
          Alcotest.test_case "partition and heal" `Quick test_partition;
        ] );
      ( "topology-units",
        [
          Alcotest.test_case "ports_of per node" `Quick test_ports_of;
          Alcotest.test_case "unlink errors" `Quick test_unlink_errors;
          Alcotest.test_case "epoch bumps" `Quick test_epoch_bumps;
          Alcotest.test_case "incremental stats" `Quick test_incremental_stats;
          Alcotest.test_case "host attach is O(1)" `Quick test_host_attach_o1;
          Alcotest.test_case "switch_path same switch" `Quick
            test_switch_path_same_switch;
          Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
        ] );
    ]
