open Netcore

type switch_id = int

type packet_in = {
  dpid : switch_id;
  in_port : int;
  reason : [ `No_match | `Action ];
  packet : Packet.t;
}

type flow_mod_command = Add | Delete | Delete_strict

type packet_out = {
  out_packet : Packet.t;
  out_port : [ `Port of int | `Flood | `Table ];
}

type flow_stat = {
  st_fields : Match_fields.t;
  st_priority : int;
  st_packets : int;
  st_bytes : int;
  st_age : Sim.Time.t;
}

type stats_reply = {
  st_dpid : switch_id;
  st_xid : int;
  st_flows : flow_stat list;
  st_lookups : int;
  st_matched : int;
}

type to_controller = Packet_in of packet_in | Stats_reply of stats_reply

type to_switch =
  | Flow_mod of {
      command : flow_mod_command;
      table_id : int;
      rule : Flow_entry.rule;
    }
  | Packet_out of packet_out
  | Stats_request of { xid : int }
  | Barrier

let add_flow ?(table_id = 0) ?priority ?idle_timeout ?hard_timeout ?cookie ~fields
    actions =
  let rule = Flow_entry.rule ?priority ?idle_timeout ?hard_timeout ?cookie ~fields actions in
  Flow_mod { command = Add; table_id; rule }

let delete command ~table_id ~priority ~fields =
  let rule =
    { Flow_entry.fields; priority; actions = []; idle_timeout = None; hard_timeout = None;
      cookie = 0 }
  in
  Flow_mod { command; table_id; rule }

let delete_flow ~fields = delete Delete ~table_id:0 ~priority:0 ~fields
let delete_strict ~table_id ~priority ~fields = delete Delete_strict ~table_id ~priority ~fields

let pp_to_controller ppf = function
  | Packet_in p ->
      Format.fprintf ppf "packet-in dpid=%d port=%d %a" p.dpid p.in_port
        Packet.pp p.packet
  | Stats_reply r ->
      Format.fprintf ppf "stats-reply dpid=%d xid=%d flows=%d lookups=%d matched=%d"
        r.st_dpid r.st_xid (List.length r.st_flows) r.st_lookups r.st_matched

let pp_to_switch ppf = function
  | Flow_mod { command; table_id; rule } ->
      let cmd =
        match command with
        | Add -> "add"
        | Delete -> "del"
        | Delete_strict -> "del-strict"
      in
      let table = if table_id = 0 then "" else Printf.sprintf " table=%d" table_id in
      Format.fprintf ppf "flow-mod %s%s prio=%d %a -> %a" cmd table rule.priority
        Match_fields.pp rule.fields Action.pp_list rule.actions
  | Packet_out po ->
      let dest =
        match po.out_port with
        | `Port p -> string_of_int p
        | `Flood -> "flood"
        | `Table -> "table"
      in
      Format.fprintf ppf "packet-out port=%s %a" dest Packet.pp po.out_packet
  | Stats_request { xid } -> Format.fprintf ppf "stats-request xid=%d" xid
  | Barrier -> Format.pp_print_string ppf "barrier"
