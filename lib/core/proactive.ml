open Netcore
module Msg = Openflow.Message
module Topo = Openflow.Topology
module Space = Analysis.Fdd.Space

let src = Logs.Src.create "identxx.proactive" ~doc:"ident++ proactive tables"

module Log = (val Logs.src_log src : Logs.LOG)

(* One switch's table-1 routes as sent: to host [i] of [r_addrs], out of
   port [r_ports.(i)], or none (-1). [r_spare] takes the next sync's
   ports, and the two swap. *)
type routes = {
  mutable r_addrs : Ipv4.t array;
  mutable r_ports : int array;
  mutable r_spare : int array;
}

type t = {
  mutable table : Compiler.table; (* The abstract compiled table installed. *)
  mutable state : Space.t * Space.t;
      (* (forward, reverse) spaces of keep-state pass rules at last
         sync: pass entries overlapping the forward space and block
         entries overlapping the reverse space were installed as punts,
         and a change in either forces a full reinstall. *)
  cache : Compiler.cache;
  mutable hosts : (string * Ipv4.t) list;
  mutable names : string array;
  mutable addrs : Ipv4.t array;
  mutable distinct : bool;
      (* The host list the routes were last synced against, its names
         and addresses in order, and whether no address repeats. *)
  routes : (Msg.switch_id, routes) Hashtbl.t;
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
      hosts = [];
      names = [||];
      addrs = [||];
      distinct = true;
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

let rec same_hosts names addrs i = function
  | [] -> i = Array.length names
  | (name, ip) :: rest ->
      i < Array.length names
      && String.equal name names.(i)
      && Ipv4.equal ip addrs.(i)
      && same_hosts names addrs (i + 1) rest

let set_hosts t hosts =
  if not (same_hosts t.names t.addrs 0 hosts) then begin
    t.names <- Array.of_list (List.map fst hosts);
    t.addrs <- Array.of_list (List.map snd hosts);
    t.distinct <-
      List.compare_length_with (List.sort_uniq Ipv4.compare (List.map snd hosts))
        (Array.length t.addrs)
      = 0
  end;
  t.hosts <- hosts

(* The port of the first route in [addrs], [ports] to [ip], or -1:
   when [aligned] (no address repeats, and the two lists are one), the
   route of host [i], whose address is [ip]. *)
let route_port ~aligned addrs ports i ip =
  if aligned then ports.(i)
  else begin
    let k = ref 0 and p = ref (-1) in
    while !p < 0 && !k < Array.length addrs do
      if Ipv4.equal addrs.(!k) ip then p := ports.(!k);
      incr k
    done;
    !p
  end

(* Whether the route [r] sent to its host [i] is gone from [cur]. *)
let gone t r cur ~aligned i =
  r.r_ports.(i) >= 0 && route_port ~aligned t.addrs cur i r.r_addrs.(i) < 0

(* Whether host [i]'s route in [cur] is one [r] did not send. *)
let moved t r cur ~aligned i =
  cur.(i) >= 0 && route_port ~aligned r.r_addrs r.r_ports i t.addrs.(i) <> cur.(i)

let sync_routes t topo hosts dpid =
  if hosts != t.hosts then set_hosts t hosts;
  let r =
    match Hashtbl.find t.routes dpid with
    | r -> r
    | exception Not_found ->
        let r = { r_addrs = [||]; r_ports = [||]; r_spare = [||] } in
        Hashtbl.replace t.routes dpid r;
        r
  in
  let n = Array.length t.addrs and m = Array.length r.r_addrs in
  if Array.length r.r_spare <> n then r.r_spare <- Array.make n (-1);
  let cur = r.r_spare in
  for i = 0 to n - 1 do
    cur.(i) <- Topo.next_hop_port topo ~from:dpid ~dst_host:t.names.(i)
  done;
  let aligned = t.distinct && r.r_addrs == t.addrs in
  let count = ref 0 in
  for i = 0 to m - 1 do
    if gone t r cur ~aligned i then incr count
  done;
  for i = 0 to n - 1 do
    if moved t r cur ~aligned i then incr count
  done;
  (* Its deletes before its adds. *)
  let msgs = Array.make !count Msg.Barrier and k = ref 0 in
  for i = 0 to m - 1 do
    if gone t r cur ~aligned i then begin
      msgs.(!k) <-
        Msg.delete_strict ~table_id:1 ~priority:route_priority
          ~fields:(route_fields r.r_addrs.(i));
      incr k
    end
  done;
  for i = 0 to n - 1 do
    if moved t r cur ~aligned i then begin
      msgs.(!k) <-
        Msg.add_flow ~table_id:1 ~priority:route_priority ~cookie:Compiler.proactive_cookie
          ~fields:(route_fields t.addrs.(i))
          [ Openflow.Action.Output cur.(i) ];
      incr k
    end
  done;
  r.r_spare <- r.r_ports;
  r.r_ports <- cur;
  r.r_addrs <- t.addrs;
  msgs

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
