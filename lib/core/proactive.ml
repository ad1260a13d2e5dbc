open Netcore
module Msg = Openflow.Message
module Topo = Openflow.Topology
module Space = Analysis.Fdd.Space

let src = Logs.Src.create "identxx.proactive" ~doc:"ident++ proactive tables"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  mutable table : Compiler.table; (* The abstract compiled table installed. *)
  mutable state : Space.t * Space.t;
      (* (forward, reverse) spaces of keep-state pass rules at last
         sync: pass entries overlapping the forward space and block
         entries overlapping the reverse space were installed as punts,
         and a change in either forces a full reinstall. *)
  cache : Compiler.cache;
  routes : (Msg.switch_id, (Ipv4.t * int) list) Hashtbl.t;
      (* Per switch, the table-1 routes sent: host address, port. *)
  recompiles : Obs.Registry.Counter.t;
  delta_add : Obs.Registry.Counter.t;
  delta_del : Obs.Registry.Counter.t;
  recompile_time : Obs.Registry.Histogram.t;
}

let empty_table =
  {
    Compiler.entries = [];
    spills = [];
    static_coverage = 0.0;
    installed_coverage = 0.0;
    truncated = false;
  }

let create reg ~labels =
  let delta op =
    Obs.Registry.counter reg
      ~help:"Abstract entries in emitted flow-mod deltas, by operation."
      ~labels:(labels @ [ ("op", op) ])
      "identxx_compiler_delta_entries_total"
  in
  let t =
    {
      table = empty_table;
      state = (Space.empty, Space.empty);
      cache = Compiler.create_cache ();
      routes = Hashtbl.create 16;
      recompiles =
        Obs.Registry.counter reg
          ~help:"Proactive table recompilations (policy epochs compiled)."
          ~labels "identxx_compiler_recompiles_total";
      delta_add = delta "add";
      delta_del = delta "del";
      recompile_time =
        Obs.Registry.histogram reg
          ~help:"Processor time to recompile and diff the proactive table."
          ~labels "identxx_compiler_recompile_seconds";
    }
  in
  Obs.Registry.gauge_fn reg
    ~help:"Abstract entries in the installed proactive table." ~labels
    "identxx_compiler_entries" (fun () ->
      float_of_int (List.length t.table.Compiler.entries));
  Obs.Registry.gauge_fn reg ~help:"Branches spilled back to the reactive path."
    ~labels "identxx_compiler_spilled_regions" (fun () ->
      float_of_int (List.length t.table.Compiler.spills));
  Obs.Registry.gauge_fn reg
    ~help:"Flow-space volume decided by installed static entries." ~labels
    "identxx_compiler_installed_coverage" (fun () ->
      t.table.Compiler.installed_coverage);
  t

let table t = t.table

(* The compiled band sits below reactive entries; this guard sits at the
   very top of it. ident++ queries and responses must stay
   controller-mediated — a wildcard pass entry must never deliver an
   exchange packet straight to a host, past the interception points. *)
let guard_priority = 0x7fff

(* The guards' add messages, the same values for every switch and
   every reload. *)
let guards =
  List.map
    (fun fields ->
      Msg.add_flow ~priority:guard_priority ~cookie:Compiler.proactive_cookie
        ~fields [ Openflow.Action.To_controller ])
    [
      {
        Openflow.Match_fields.any with
        nw_proto = Some Proto.Tcp;
        tp_dst = Some Identxx.Wire.port;
      };
      {
        Openflow.Match_fields.any with
        nw_proto = Some Proto.Tcp;
        tp_src = Some Identxx.Wire.port;
      };
    ]

(* The guards stand while a compiled table does. *)
let guards_of (tbl : Compiler.table) = if tbl.Compiler.entries = [] then [] else guards

(* Table 1 forwards by destination: one /32 route per reachable
   attached host on each switch, out of the port toward it. Compiled
   pass entries jump there, so a policy reload never touches it, and a
   topology change touches nothing else: the controller runs this after
   every one, and it re-sends the routes whose port changed and deletes
   those of hosts no longer reachable. *)
let route_priority = 0x8000
let route_fields ip = { Openflow.Match_fields.any with nw_dst = Some (Prefix.host ip) }

let sync_routes t topo hosts dpid =
  let old = Option.value ~default:[] (Hashtbl.find_opt t.routes dpid) in
  let cur =
    List.filter_map
      (fun (host, ip) ->
        Topo.next_hop topo ~from:dpid ~dst_host:host
        |> Option.map (fun port -> (ip, port)))
      hosts
  in
  Hashtbl.replace t.routes dpid cur;
  (* Its deletes before its adds. *)
  Array.of_list
    (List.filter_map
       (fun (ip, _) ->
         if List.mem_assoc ip cur then None
         else
           Some
             (Msg.delete_strict ~table_id:1 ~priority:route_priority
                ~fields:(route_fields ip)))
       old
    @ List.filter_map
        (fun (ip, port) ->
          if List.assoc_opt ip old = Some port then None
          else
            Some
              (Msg.add_flow ~table_id:1 ~priority:route_priority
                 ~cookie:Compiler.proactive_cookie ~fields:(route_fields ip)
                 [ Openflow.Action.Output port ]))
        cur)

(* The (forward, reverse) flow spaces of the keep-state pass rules,
   over-approximated. State matching precedes the ruleset: a pass entry
   meeting the forward space must punt (the controller records the
   state), and a drop meeting the reverse space must not sit above the
   replies keep state admits. *)
let state_spaces env =
  let space = Space.of_rule ~lookup:(Pf.Env.table env) in
  List.fold_left
    (fun (fwd, rev) (r : Pf.Ast.rule) ->
      if r.Pf.Ast.keep_state && r.Pf.Ast.action = Pf.Ast.Pass then
        ( Space.union fwd (space r),
          Space.union rev
            (space { r with Pf.Ast.from_ = r.Pf.Ast.to_; to_ = r.Pf.Ast.from_ }) )
      else (fwd, rev))
    (Space.empty, Space.empty) (Pf.Env.rules env)

(* Whether an entry's match meets a state space. Most policies keep no
   state: the empty space answers without building the box. *)
let meets_state space (m : Openflow.Match_fields.t) =
  let field level f = function
    | None -> (0, Analysis.Fdd.dim_top.(level))
    | Some v -> f v
  in
  let point v = (v, v) in
  let prefix p = (Ipv4.to_int (Prefix.first p), Ipv4.to_int (Prefix.last p)) in
  (not (Space.is_empty space))
  && Space.overlaps_box space
       [|
         field 0 (fun p -> point (Proto.to_int p)) m.Openflow.Match_fields.nw_proto;
         field 1 prefix m.Openflow.Match_fields.nw_src;
         field 2 prefix m.Openflow.Match_fields.nw_dst;
         field 3 point m.Openflow.Match_fields.tp_src;
         field 4 point m.Openflow.Match_fields.tp_dst;
       |]

(* The add message of one abstract entry, the same on every switch. A
   pass entry jumps to table 1, which forwards by destination; traffic
   toward a host no route reaches misses there and punts, which is the
   reactive behaviour. Block entries drop in hardware unless their
   space overlaps the keep-state reverse space, and pass entries punt
   where they overlap the keep-state forward space (see
   [state_spaces]). *)
let entry_add ~state:(state_fwd, state_rev) (e : Compiler.entry) =
  let fields = e.Compiler.e_fields in
  let punt = [ Openflow.Action.To_controller ] in
  Msg.add_flow ~priority:e.Compiler.e_priority ~cookie:Compiler.proactive_cookie
    ~fields
    (match e.Compiler.e_decision with
    | Compiler.Punt -> punt
    | Compiler.Decide Pf.Ast.Block ->
        if meets_state state_rev fields then punt else Openflow.Action.drop
    | Compiler.Decide Pf.Ast.Pass when meets_state state_fwd fields -> punt
    | Compiler.Decide Pf.Ast.Pass -> [ Openflow.Action.Goto_table 1 ])

let sync t ~proactive plan =
  let t0 = Sys.time () in
  let fdd, state =
    match (Query_plan.env plan, Query_plan.diagram plan) with
    | Ok env, Some fdd ->
        (Some (Compiler.offload ~proactive env fdd), state_spaces env)
    | _ -> (None, (Space.empty, Space.empty))
  in
  let cur =
    match fdd with
    | Some fdd -> Compiler.compile ~cache:t.cache fdd
    (* Unresolvable policy: install nothing, every flow goes to the
       controller, which fails closed per rule evaluation. *)
    | None -> empty_table
  in
  let d =
    if
      not
        (Space.equal (fst t.state) (fst state)
        && Space.equal (snd t.state) (snd state))
    then
      (* Same abstract entry, different lowering: start over. *)
      { Compiler.d_add = cur.Compiler.entries; d_del = t.table.Compiler.entries }
    else Compiler.delta ~old_:t.table cur
  in
  (* Each entry is lowered once, and the same message values go to
     every switch. *)
  let msgs =
    List.map
      (fun (e : Compiler.entry) ->
        Msg.delete_strict ~table_id:0 ~priority:e.Compiler.e_priority
          ~fields:e.Compiler.e_fields)
      d.Compiler.d_del
    @ List.map (entry_add ~state) d.Compiler.d_add
  in
  (* Only a flush deletes the guards, and it re-adds them from the
     view: they go out when the view's table turns non-empty. *)
  let msgs = if t.table.Compiler.entries = [] then msgs @ guards_of cur else msgs in
  Obs.Registry.Counter.inc t.recompiles;
  Obs.Registry.Counter.add t.delta_add (List.length d.Compiler.d_add);
  Obs.Registry.Counter.add t.delta_del (List.length d.Compiler.d_del);
  Obs.Registry.Histogram.observe t.recompile_time (Sys.time () -. t0);
  Log.debug (fun m ->
      m "proactive sync: %d entries (%+d/-%d), coverage %.3f"
        (List.length cur.Compiler.entries)
        (List.length d.Compiler.d_add)
        (List.length d.Compiler.d_del)
        cur.Compiler.installed_coverage);
  t.table <- cur;
  t.state <- state;
  Array.of_list msgs

(* The deletes, a barrier, then the compiled entries and guards the
   deletes took, re-added from the view. *)
let reinstall t fields =
  let taken = function
    | Msg.Flow_mod { rule; _ } ->
        List.exists (fun f -> Openflow.Match_fields.covers f rule.fields) fields
    | _ -> false
  in
  let view = List.map (entry_add ~state:t.state) t.table.Compiler.entries @ guards_of t.table in
  Array.of_list
    (List.map (fun fields -> Msg.delete_flow ~fields) fields
    @ (Msg.Barrier :: List.filter taken view))
