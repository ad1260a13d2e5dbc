(* One shortest-path tree per destination switch, maintained
   incrementally. Trees point *toward* the destination: parent.(u) is
   (out_port at u, neighbour switch) on a shortest path from u to the
   destination. Weights are positive integers (nanoseconds), so parent
   chains strictly decrease in distance and are loop-free by
   construction. *)

(* Adjacency entry at a node: (port here, peer, port at peer, weight).
   Kept sorted by local port so relaxation order — and therefore
   tie-breaking between equal-cost paths — is a deterministic function
   of the wiring, not of hash order. *)
type edge = { e_port : int; e_peer : int; e_peer_port : int; e_w : int }

type tree = {
  dist : (int, int) Hashtbl.t;
  (* node -> (out_port at node, via switch) *)
  parent : (int, int * int) Hashtbl.t;
}

type stats = {
  full_recomputes : int;
  link_events : int;
  dests_recomputed : int;
  dests_skipped : int;
  nodes_settled : int;
}

type t = {
  adj : (int, edge list) Hashtbl.t;
  trees : (int, tree) Hashtbl.t;
  mutable s_full : int;
  mutable s_events : int;
  mutable s_dests_recomputed : int;
  mutable s_dests_skipped : int;
  mutable s_nodes_settled : int;
}

let create () =
  {
    adj = Hashtbl.create 64;
    trees = Hashtbl.create 64;
    s_full = 0;
    s_events = 0;
    s_dests_recomputed = 0;
    s_dests_skipped = 0;
    s_nodes_settled = 0;
  }

let switch_count t = Hashtbl.length t.adj

let stats t =
  {
    full_recomputes = t.s_full;
    link_events = t.s_events;
    dests_recomputed = t.s_dests_recomputed;
    dests_skipped = t.s_dests_skipped;
    nodes_settled = t.s_nodes_settled;
  }

let edges t n = Option.value ~default:[] (Hashtbl.find_opt t.adj n)

let singleton_tree d =
  let dist = Hashtbl.create 8 and parent = Hashtbl.create 8 in
  Hashtbl.replace dist d 0;
  { dist; parent }

let add_switch t d =
  if not (Hashtbl.mem t.adj d) then begin
    Hashtbl.replace t.adj d [];
    Hashtbl.replace t.trees d (singleton_tree d)
  end

let insert_edge t n e =
  let rec ins = function
    | [] -> [ e ]
    | hd :: tl when hd.e_port < e.e_port -> hd :: ins tl
    | rest -> e :: rest
  in
  Hashtbl.replace t.adj n (ins (edges t n))

let remove_edge t n ~port ~peer =
  Hashtbl.replace t.adj n
    (List.filter
       (fun e -> not (e.e_port = port && e.e_peer = peer))
       (edges t n))

let load_link t (u, pu) (v, pv) ~weight =
  if weight <= 0 then invalid_arg "Routing.load_link: weight must be positive";
  add_switch t u;
  add_switch t v;
  insert_edge t u { e_port = pu; e_peer = v; e_peer_port = pv; e_w = weight };
  insert_edge t v { e_port = pv; e_peer = u; e_peer_port = pu; e_w = weight }

(* The fillers of the Dijkstra queues' unused cells: [(node, via)] in
   {!dijkstra}, [(node, (port, via))] in {!cascade}. *)
let no_root = (-1, None)
let no_candidate = (-1, (-1, -1))

(* Full Dijkstra toward destination [d]. Relaxing the edge u -> v
   (u nearer the destination) sets v's next hop to u through the port
   at v that faces u. *)
let dijkstra t d =
  let tree = singleton_tree d in
  let pq = Sim.Heap.create no_root in
  Sim.Heap.push pq ~key:0 (d, None);
  let rec loop () =
    match Sim.Heap.pop pq with
    | None -> ()
    | Some (k, (u, via)) ->
        let known =
          match Hashtbl.find_opt tree.dist u with
          | Some kd -> k > kd || (k = kd && u <> d)
          | None -> false
        in
        if not known then begin
          Hashtbl.replace tree.dist u k;
          Option.iter (fun p -> Hashtbl.replace tree.parent u p) via;
          List.iter
            (fun e ->
              let nd = k + e.e_w in
              match Hashtbl.find_opt tree.dist e.e_peer with
              | Some cur when cur <= nd -> ()
              | _ ->
                  Sim.Heap.push pq ~key:nd
                    (e.e_peer, Some (e.e_peer_port, u)))
            (edges t u)
        end;
        loop ()
  in
  loop ();
  tree

let recompute t =
  t.s_full <- t.s_full + 1;
  Hashtbl.reset t.trees;
  Hashtbl.iter (fun d _ -> Hashtbl.replace t.trees d (dijkstra t d)) t.adj

(* Relaxation cascade after an improvement (link-up, or the repair
   phase of link-down): settle the cheapest pending candidate, then
   offer improvements to its neighbours. [admit] restricts which nodes
   may be touched (the affected set during link-down repair). *)
let cascade t tree pq ~admit =
  let rec loop () =
    match Sim.Heap.pop pq with
    | None -> ()
    | Some (k, (u, (port, via))) ->
        let better =
          match Hashtbl.find_opt tree.dist u with
          | Some cur -> k < cur
          | None -> true
        in
        if better && admit u then begin
          Hashtbl.replace tree.dist u k;
          Hashtbl.replace tree.parent u (port, via);
          t.s_nodes_settled <- t.s_nodes_settled + 1;
          List.iter
            (fun e ->
              let nd = k + e.e_w in
              if admit e.e_peer then
                match Hashtbl.find_opt tree.dist e.e_peer with
                | Some cur when cur <= nd -> ()
                | _ -> Sim.Heap.push pq ~key:nd (e.e_peer, (e.e_peer_port, u)))
            (edges t u)
        end;
        loop ()
  in
  loop ()

let link_up t (u, pu) (v, pv) ~weight =
  load_link t (u, pu) (v, pv) ~weight;
  t.s_events <- t.s_events + 1;
  Hashtbl.iter
    (fun _d tree ->
      let du = Hashtbl.find_opt tree.dist u
      and dv = Hashtbl.find_opt tree.dist v in
      let improves cur far =
        match far with
        | None -> None
        | Some df -> (
            let nd = df + weight in
            match cur with Some dc when dc <= nd -> None | _ -> Some nd)
      in
      let pq = Sim.Heap.create no_candidate in
      (match improves du dv with
      | Some nd -> Sim.Heap.push pq ~key:nd (u, (pu, v))
      | None -> ());
      (match improves dv du with
      | Some nd -> Sim.Heap.push pq ~key:nd (v, (pv, u))
      | None -> ());
      if Sim.Heap.is_empty pq then
        t.s_dests_skipped <- t.s_dests_skipped + 1
      else begin
        t.s_dests_recomputed <- t.s_dests_recomputed + 1;
        cascade t tree pq ~admit:(fun _ -> true)
      end)
    t.trees

let link_down t (u, pu) (v, pv) =
  remove_edge t u ~port:pu ~peer:v;
  remove_edge t v ~port:pv ~peer:u;
  t.s_events <- t.s_events + 1;
  Hashtbl.iter
    (fun _d tree ->
      let used n port via =
        match Hashtbl.find_opt tree.parent n with
        | Some (p, w) -> p = port && w = via
        | None -> false
      in
      (* Weights are strictly positive, so at most one endpoint can
         route over the other: the orphaned side of the broken tree
         edge. *)
      let root =
        if used u pu v then Some u else if used v pv u then Some v else None
      in
      match root with
      | None ->
          (* The tree never crossed this link; distances can only grow
             on a removal, so the whole tree is still optimal. *)
          t.s_dests_skipped <- t.s_dests_skipped + 1
      | Some root ->
          t.s_dests_recomputed <- t.s_dests_recomputed + 1;
          (* Everything that reached the destination through [root] is
             orphaned with it: collect the reverse-tree subtree. *)
          let children = Hashtbl.create 16 in
          Hashtbl.iter
            (fun child (_port, via) ->
              Hashtbl.replace children via
                (child :: Option.value ~default:[] (Hashtbl.find_opt children via)))
            tree.parent;
          let affected = Hashtbl.create 16 in
          let rec collect n =
            if not (Hashtbl.mem affected n) then begin
              Hashtbl.replace affected n ();
              List.iter collect
                (Option.value ~default:[] (Hashtbl.find_opt children n))
            end
          in
          collect root;
          Hashtbl.iter
            (fun n () ->
              Hashtbl.remove tree.dist n;
              Hashtbl.remove tree.parent n)
            affected;
          (* Re-attach the orphaned region through its boundary: seed
             the queue with every edge from a still-valid node into the
             region, then run Dijkstra restricted to the region. Nodes
             no path reaches stay absent (= unreachable). *)
          let pq = Sim.Heap.create no_candidate in
          Hashtbl.iter
            (fun a () ->
              List.iter
                (fun e ->
                  match Hashtbl.find_opt tree.dist e.e_peer with
                  | Some dn ->
                      Sim.Heap.push pq ~key:(dn + e.e_w) (a, (e.e_port, e.e_peer))
                  | None -> ())
                (edges t a))
            affected;
          cascade t tree pq ~admit:(Hashtbl.mem affected))
    t.trees

let next_exn t ~src ~dst = Hashtbl.find (Hashtbl.find t.trees dst).parent src
