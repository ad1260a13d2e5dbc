open Netcore

type forward_decision = Forward of int list | Send_to_controller | Dropped

type t = {
  dpid : Message.switch_id;
  ports : int list;
  tables : Flow_table.t array;
  forwards : forward_decision array;
      (* [Forward [p]] at [p], for 0 up to the highest port: what a hit
         on a single output returns, and its list what a packet-out to
         [p] emits on, built once. *)
}

let create ?capacity ~dpid ~ports () =
  let tables = [| Flow_table.create ?capacity (); Flow_table.create () |] in
  let top = List.fold_left Int.max (-1) ports in
  let forwards = Array.init (top + 1) (fun p -> Forward [ p ]) in
  { dpid; ports; tables; forwards }

let table ?(id = 0) t = t.tables.(id)

let forward t p =
  if p >= 0 && p < Array.length t.forwards then t.forwards.(p)
  else Forward [ p ]

let resolve_list t ~in_port actions =
  if Action.is_drop actions then Dropped
  else if List.exists (function Action.To_controller -> true | _ -> false) actions
  then Send_to_controller
  else
    let ports =
      List.concat_map
        (function
          | Action.Output p -> [ p ]
          | Action.Flood -> List.filter (fun p -> p <> in_port) t.ports
          | Action.To_controller | Action.Drop | Action.Goto_table _ -> [])
        actions
    in
    if ports = [] then Dropped else Forward (List.sort_uniq Int.compare ports)

(* A single output, the entry controllers install on a path, needs no
   merging. *)
let resolve_actions t ~in_port actions =
  match actions with
  | [ Action.Output p ] -> forward t p
  | _ -> resolve_list t ~in_port actions

(* Look the packet up in table [id] and in the later tables its
   entries jump to; a miss in any of them punts. *)
let rec run t ~now ~in_port pkt id =
  let table = t.tables.(id) in
  ignore (Flow_table.expire table ~now);
  let entry = Flow_table.lookup_flow table ~in_port pkt in
  if entry == Flow_table.miss then Send_to_controller
  else begin
    Flow_entry.hit entry ~now ~size:(Packet.size pkt);
    match entry.rule.actions with
    | [ Action.Goto_table next ] when next > id -> run t ~now ~in_port pkt next
    | actions -> resolve_actions t ~in_port actions
  end

let process t ~now ~in_port pkt = run t ~now ~in_port pkt 0

type apply_result =
  | Nothing
  | Emit of int list * Packet.t
  | Reply of Message.to_controller

let apply t ~now msg =
  match msg with
  | Message.Barrier -> Nothing
  | Message.Flow_mod { command; table_id; rule } -> (
      let table = t.tables.(table_id) in
      match command with
      | Message.Add ->
          Flow_table.add table ~now rule;
          Nothing
      | Message.Delete ->
          Flow_table.remove_matching table ~fields:rule.fields;
          Nothing
      | Message.Delete_strict ->
          Flow_table.remove table ~priority:rule.priority ~fields:rule.fields;
          Nothing)
  | Message.Stats_request { xid } ->
      let flows =
        List.map
          (fun (e : Flow_entry.t) ->
            {
              Message.st_fields = e.rule.fields;
              st_priority = e.rule.priority;
              st_packets = e.packets;
              st_bytes = e.bytes;
              st_age = Sim.Time.sub now e.installed_at;
            })
          (Flow_table.entries (table t))
      in
      Reply
        (Message.Stats_reply
           {
             Message.st_dpid = t.dpid;
             st_xid = xid;
             st_flows = flows;
             st_lookups = Flow_table.hits (table t) + Flow_table.misses (table t);
             st_matched = Flow_table.hits (table t);
           })
  | Message.Packet_out po -> (
      match po.out_port with
      | `Port p -> (
          match forward t p with
          | Forward ports -> Emit (ports, po.out_packet)
          | Send_to_controller | Dropped -> Nothing)
      | `Flood -> Emit (t.ports, po.out_packet)
      | `Table -> (
          (* Run through the table with a pseudo ingress port of 0. *)
          match process t ~now ~in_port:0 po.out_packet with
          | Forward ports -> Emit (ports, po.out_packet)
          | Send_to_controller | Dropped -> Nothing))
