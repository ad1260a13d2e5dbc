open Netcore

type controller_id = int

module Ip_tbl = Hashtbl.Make (Ipv4)

type egress = { mutable packets : int }

(* What a node emits through: its node value, built once, and its
   egress counters by port, so a frame finds its counters without a
   key built for it. *)
type emitter = { e_node : Topology.node; e_egress : (int, egress) Hashtbl.t }

let emitter node = { e_node = node; e_egress = Hashtbl.create 8 }

type host_state = {
  h_name : string;
  h_mac : Mac.t;
  h_ip : Ipv4.t;
  h_rx : Packet.t -> unit;
  h_out : emitter;
}

type switch_state = { sw : Switch.t; sw_out : emitter }

type t = {
  engine : Sim.Engine.t;
  topology : Topology.t;
  ctrl_latency : Sim.Time.t;
  switches : (Message.switch_id, switch_state) Hashtbl.t;
  hosts : (string, host_state) Hashtbl.t;
  host_of_ip : string Ip_tbl.t;
  controllers : (controller_id, Message.to_controller -> unit) Hashtbl.t;
  domains : (Message.switch_id, controller_id) Hashtbl.t; (* assigned owners *)
  members : (controller_id, Message.switch_id list) Hashtbl.t;
      (* Each domain's switches, ascending; {!assign_switch} keeps it. *)
  trace : Sim.Trace.t;
  mutable delivered : int;
  mutable dropped : int;
  mutable packet_ins : int;
  mutable capture : Pcap.writer option;
  mutable loss_rate : float;
  mutable loss_prng : Sim.Prng.t;
}

(* The fabric's events, each one block with its payload inline. *)
type Sim.Engine.event +=
  | Frame of { net : t; at : Topology.endpoint; pkt : Packet.t }
      (* A frame reaching the far end of a link. *)
  | To_controller of {
      ctrl : Message.to_controller -> unit;
      msg : Message.to_controller;
    }  (* A packet-in or a reply, for the switch's controller. *)
  | To_switch of {
      net : t;
      dpid : Message.switch_id;
      msgs : Message.to_switch array;
    }  (* One batch of controller messages, applied in order. *)

let ports_of_switch topology dpid = Topology.ports_of topology (Topology.Sw dpid)

let create ?(ctrl_latency = Sim.Time.us 50) ?table_capacity ~engine ~topology
    () =
  let t =
    {
      engine;
      topology;
      ctrl_latency;
      switches = Hashtbl.create 16;
      hosts = Hashtbl.create 16;
      host_of_ip = Ip_tbl.create 16;
      controllers = Hashtbl.create 4;
      domains = Hashtbl.create 16;
      members = Hashtbl.create 4;
      trace = Sim.Trace.create ();
      delivered = 0;
      dropped = 0;
      packet_ins = 0;
      capture = None;
      loss_rate = 0.0;
      loss_prng = Sim.Prng.create 1;
    }
  in
  List.iter
    (fun dpid ->
      Hashtbl.replace t.switches dpid
        {
          sw =
            Switch.create ?capacity:table_capacity ~dpid
              ~ports:(ports_of_switch topology dpid) ();
          sw_out = emitter (Topology.Sw dpid);
        })
    (Topology.switches topology);
  Hashtbl.replace t.members 0 (List.sort Int.compare (Topology.switches topology));
  t

let engine t = t.engine
let topology t = t.topology
let switch t dpid = (Hashtbl.find t.switches dpid).sw
let trace t = t.trace

let register_controller t ~id f = Hashtbl.replace t.controllers id f
let owner t dpid = Option.value ~default:0 (Hashtbl.find_opt t.domains dpid)

let switches_in_domain t cid =
  Option.value ~default:[] (Hashtbl.find_opt t.members cid)

let assign_switch t dpid cid =
  if Hashtbl.mem t.switches dpid then begin
    let from = owner t dpid in
    Hashtbl.replace t.members from
      (List.filter (fun d -> d <> dpid) (switches_in_domain t from));
    Hashtbl.replace t.members cid
      (List.merge Int.compare [ dpid ] (switches_in_domain t cid))
  end;
  Hashtbl.replace t.domains dpid cid

let controller_of t dpid = Hashtbl.find_opt t.controllers (owner t dpid)

(* The hop log is off unless a reader turns it on. Every call site tests
   [Sim.Trace.enabled] before building its arguments, so a disabled log
   costs one load and one branch per hop and formats nothing. *)
let record_actor t actor fmt =
  Format.kasprintf
    (fun msg -> Sim.Trace.record t.trace ~at:(Sim.Engine.now t.engine) ~actor msg)
    fmt

let bump_egress out port =
  match Hashtbl.find out.e_egress port with
  | e -> e.packets <- e.packets + 1
  | exception Not_found -> Hashtbl.add out.e_egress port { packets = 1 }

(* Forward declaration cycle: emitting out a port leads to arrival at the
   peer, which for a switch re-enters processing. *)
let rec emit t out ~port pkt =
  if t.loss_rate > 0.0 && Sim.Prng.float t.loss_prng 1.0 < t.loss_rate then begin
    t.dropped <- t.dropped + 1;
    if Sim.Trace.enabled t.trace then
      record_actor t
        (Topology.node_to_string out.e_node)
        "drop (loss) %a" Packet.pp pkt
  end
  else emit_frame t out ~port pkt

and emit_frame t out ~port pkt =
  bump_egress out port;
  (match t.capture with
  | Some w ->
      Pcap.write_packet w
        ~ts_us:(Sim.Time.to_ns (Sim.Engine.now t.engine) / 1000)
        pkt
  | None -> ());
  match Topology.wire t.topology out.e_node port with
  | exception Not_found ->
      t.dropped <- t.dropped + 1;
      if Sim.Trace.enabled t.trace then
        record_actor t
          (Topology.node_to_string out.e_node)
          "drop: port %d unwired" port
  | far, latency ->
      Sim.Engine.schedule_event t.engine ~delay:latency
        (Frame { net = t; at = far; pkt })

and arrive t ~(at : Topology.endpoint) pkt =
  match at.node with
  | Topology.Host name -> (
      match Hashtbl.find_opt t.hosts name with
      | None ->
          t.dropped <- t.dropped + 1;
          if Sim.Trace.enabled t.trace then
            record_actor t name "drop: host has no receive callback"
      | Some h ->
          t.delivered <- t.delivered + 1;
          if Sim.Trace.enabled t.trace then
            record_actor t name "rx %a" Packet.pp pkt;
          h.h_rx pkt)
  | Topology.Sw dpid -> switch_rx t dpid ~in_port:at.port pkt

and switch_rx t dpid ~in_port pkt =
  let st = Hashtbl.find t.switches dpid in
  match Switch.process st.sw ~now:(Sim.Engine.now t.engine) ~in_port pkt with
  | Switch.Forward ports -> emit_all t st.sw_out pkt ports
  | Switch.Dropped ->
      t.dropped <- t.dropped + 1;
      if Sim.Trace.enabled t.trace then
        record_actor t
          (Topology.node_to_string st.sw_out.e_node)
          "drop (policy) %a" Packet.pp pkt
  | Switch.Send_to_controller -> (
      match controller_of t dpid with
      | None ->
          t.dropped <- t.dropped + 1;
          if Sim.Trace.enabled t.trace then
            record_actor t
              (Topology.node_to_string st.sw_out.e_node)
              "drop: table miss and no controller"
      | Some ctrl ->
          t.packet_ins <- t.packet_ins + 1;
          if Sim.Trace.enabled t.trace then
            record_actor t
              (Topology.node_to_string st.sw_out.e_node)
              "packet-in -> controller %a" Packet.pp pkt;
          Sim.Engine.schedule_event t.engine ~delay:t.ctrl_latency
            (To_controller
               {
                 ctrl;
                 msg =
                   Message.Packet_in
                     { Message.dpid; in_port; reason = `No_match; packet = pkt };
               }))

and emit_all t out pkt = function
  | [] -> ()
  | port :: rest ->
      emit t out ~port pkt;
      emit_all t out pkt rest

(* A controller message arriving at switch [dpid]. *)
let apply t dpid msg =
  let st = Hashtbl.find t.switches dpid in
  match Switch.apply st.sw ~now:(Sim.Engine.now t.engine) msg with
  | Switch.Nothing -> ()
  | Switch.Emit (ports, pkt) -> emit_all t st.sw_out pkt ports
  | Switch.Reply reply -> (
      match controller_of t dpid with
      | None -> ()
      | Some ctrl ->
          if Sim.Trace.enabled t.trace then
            record_actor t
              (Topology.node_to_string st.sw_out.e_node)
              "%a" Message.pp_to_controller reply;
          Sim.Engine.schedule_event t.engine ~delay:t.ctrl_latency
            (To_controller { ctrl; msg = reply }))

let send_batch t dpid msgs =
  if Array.length msgs > 0 then begin
    if Sim.Trace.enabled t.trace then
      Array.iter
        (record_actor t "controller" "-> s%d %a" dpid Message.pp_to_switch)
        msgs;
    Sim.Engine.schedule_event t.engine ~delay:t.ctrl_latency
      (To_switch { net = t; dpid; msgs })
  end

(* The fabric's dispatcher: runs its events, and names the channel each
   travels on. *)
let () =
  Sim.Engine.register
    ~run:(function
      | Frame f ->
          arrive f.net ~at:f.at f.pkt;
          Sim.Engine.Ran
      | To_controller c ->
          c.ctrl c.msg;
          Sim.Engine.Ran
      | To_switch s ->
          for i = 0 to Array.length s.msgs - 1 do
            apply s.net s.dpid s.msgs.(i)
          done;
          Sim.Engine.Ran
      | _ -> Sim.Engine.Unknown)
    ~channel:(function
      | Frame { at; _ } ->
          Some
            (Sim.Engine.Link
               { node = Topology.node_to_string at.node; port = at.port })
      | To_controller { msg = Message.Packet_in { Message.dpid; _ }; _ }
      | To_controller
          { msg = Message.Stats_reply { Message.st_dpid = dpid; _ }; _ } ->
          Some (Sim.Engine.Switch_to_controller dpid)
      | To_switch { dpid; _ } -> Some (Sim.Engine.Controller_to_switch dpid)
      | _ -> None)

let attach_host t ~name ~mac ~ip ~rx =
  (match Topology.host_attachment t.topology name with
  | None -> invalid_arg ("Network.attach_host: " ^ name ^ " is not wired")
  | Some _ -> ());
  (* A re-attached host may have moved to a new address. *)
  (match Hashtbl.find_opt t.hosts name with
  | Some old when Ip_tbl.find_opt t.host_of_ip old.h_ip = Some name ->
      Ip_tbl.remove t.host_of_ip old.h_ip
  | Some _ | None -> ());
  let h_out =
    match Hashtbl.find_opt t.hosts name with
    | Some old -> old.h_out
    | None -> emitter (Topology.Host name)
  in
  Hashtbl.replace t.hosts name { h_name = name; h_mac = mac; h_ip = ip; h_rx = rx; h_out };
  Ip_tbl.replace t.host_of_ip ip name;
  Topology.touch t.topology

let host_state t name =
  try Hashtbl.find t.hosts name
  with Not_found -> invalid_arg ("Network: unknown host " ^ name)

let host_ip t name = (host_state t name).h_ip

let host_by_ip t ip = Ip_tbl.find_opt t.host_of_ip ip

let iter_path t ~src ~dst f a =
  match (Ip_tbl.find t.host_of_ip src, Ip_tbl.find t.host_of_ip dst) with
  | src, dst -> Topology.iter_path t.topology ~src ~dst f a
  | exception Not_found -> false

let send_from_host t ~name pkt =
  let h = host_state t name in
  if Sim.Trace.enabled t.trace then
    record_actor t name "tx %a" Packet.pp pkt;
  (* The host's single NIC is port 0 on the host node by convention of the
     topology builder; emit resolves the actual wiring. *)
  let port =
    match Topology.ports_of t.topology h.h_out.e_node with
    | port :: _ -> port
    | [] -> 0
  in
  emit t h.h_out ~port pkt

let set_capture t w = t.capture <- w

let set_loss t ?prng ~rate () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Network.set_loss: bad rate";
  t.loss_rate <- rate;
  match prng with Some p -> t.loss_prng <- p | None -> ()

let delivered t = t.delivered
let dropped t = t.dropped
let packet_ins t = t.packet_ins

let egress_packets t ~node ~port =
  let out =
    match node with
    | Topology.Sw dpid -> Option.map (fun st -> st.sw_out) (Hashtbl.find_opt t.switches dpid)
    | Topology.Host name -> Option.map (fun h -> h.h_out) (Hashtbl.find_opt t.hosts name)
  in
  match Option.bind out (fun out -> Hashtbl.find_opt out.e_egress port) with
  | Some e -> e.packets
  | None -> 0
