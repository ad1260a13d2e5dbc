(** Control-channel messages between switches and the controller,
    modelled on the OpenFlow 1.0 message set the paper relies on. *)

open Netcore

type switch_id = int
(** Datapath identifier. *)

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
      (** [`Table] runs the packet through the flow table. *)
}

type flow_stat = {
  st_fields : Match_fields.t;
  st_priority : int;
  st_packets : int;
  st_bytes : int;
  st_age : Sim.Time.t;  (** Time since installation. *)
}

type stats_reply = {
  st_dpid : switch_id;
  st_xid : int;  (** Echoes the request's transaction id. *)
  st_flows : flow_stat list;
  st_lookups : int;  (** Table lookup count (hits + misses). *)
  st_matched : int;  (** Table hit count. *)
}

type to_controller = Packet_in of packet_in | Stats_reply of stats_reply

type to_switch =
  | Flow_mod of {
      command : flow_mod_command;
      table_id : int;  (** 0 or 1; always 0 for a [Delete]. *)
      rule : Flow_entry.rule;
          (** What an [Add] installs, kept by reference in the table
              ({!Flow_table.add}). A delete reads only its fields and
              priority. *)
    }
  | Packet_out of packet_out
  | Stats_request of { xid : int }
  | Barrier

val add_flow :
  ?table_id:int ->
  ?priority:int ->
  ?idle_timeout:Sim.Time.t ->
  ?hard_timeout:Sim.Time.t ->
  ?cookie:int ->
  fields:Match_fields.t ->
  Action.t list ->
  to_switch

(** Table 0 by default. *)

val delete_flow : fields:Match_fields.t -> to_switch
(** OpenFlow [DELETE] in table 0: deletes every entry there that
    [fields] covers ({!Match_fields.covers}). Table 1 holds routes,
    which only strict deletes remove. *)

val delete_strict : table_id:int -> priority:int -> fields:Match_fields.t -> to_switch
(** OpenFlow [DELETE_STRICT]: deletes only the entry with exactly these
    fields and this priority in this table. Entries with the same fields
    at other priorities stay (see {!Flow_table.remove}). *)

val pp_to_controller : Format.formatter -> to_controller -> unit
val pp_to_switch : Format.formatter -> to_switch -> unit
