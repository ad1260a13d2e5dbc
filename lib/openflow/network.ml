open Netcore

type controller_id = int

module Ip_tbl = Hashtbl.Make (Ipv4)

type host_state = {
  h_name : string;
  h_mac : Mac.t;
  h_ip : Ipv4.t;
  h_rx : Packet.t -> unit;
}

type t = {
  engine : Sim.Engine.t;
  topology : Topology.t;
  ctrl_latency : Sim.Time.t;
  switches : (Message.switch_id, Switch.t) Hashtbl.t;
  hosts : (string, host_state) Hashtbl.t;
  host_of_ip : string Ip_tbl.t;
  controllers : (controller_id, Message.to_controller -> unit) Hashtbl.t;
  domains : (Message.switch_id, controller_id) Hashtbl.t;
  trace : Sim.Trace.t;
  egress : (Topology.node * int, int * int) Hashtbl.t; (* packets, bytes *)
  mutable delivered : int;
  mutable dropped : int;
  mutable packet_ins : int;
  mutable capture : Pcap.writer option;
  mutable loss_rate : float;
  mutable loss_prng : Sim.Prng.t;
}

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
      trace = Sim.Trace.create ();
      egress = Hashtbl.create 64;
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
        (Switch.create ?capacity:table_capacity ~dpid
           ~ports:(ports_of_switch topology dpid) ()))
    (Topology.switches topology);
  t

let engine t = t.engine
let topology t = t.topology
let switch t dpid = Hashtbl.find t.switches dpid
let trace t = t.trace

let register_controller t ~id f = Hashtbl.replace t.controllers id f
let assign_switch t dpid cid = Hashtbl.replace t.domains dpid cid

let switches_in_domain t cid =
  Hashtbl.fold
    (fun dpid _ acc ->
      let owner = Option.value ~default:0 (Hashtbl.find_opt t.domains dpid) in
      if owner = cid then dpid :: acc else acc)
    t.switches []
  |> List.sort Int.compare

let controller_of t dpid =
  let cid = Option.value ~default:0 (Hashtbl.find_opt t.domains dpid) in
  Hashtbl.find_opt t.controllers cid

(* Formatting an event string costs more than the rest of a packet hop,
   so skip it entirely when tracing is off (benchmarks disable it). *)
let record t fmt =
  if Sim.Trace.enabled t.trace then
    Format.kasprintf
      (fun msg ->
        (* actor is embedded in the message by callers via %s prefix *)
        Sim.Trace.record t.trace ~at:(Sim.Engine.now t.engine) ~actor:"" msg)
      fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let record_actor t actor fmt =
  if Sim.Trace.enabled t.trace then
    Format.kasprintf
      (fun msg ->
        Sim.Trace.record t.trace ~at:(Sim.Engine.now t.engine) ~actor msg)
      fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let bump_egress t node port size =
  let key = (node, port) in
  let p, b = Option.value ~default:(0, 0) (Hashtbl.find_opt t.egress key) in
  Hashtbl.replace t.egress key (p + 1, b + size)

(* Forward declaration cycle: emitting out a port leads to arrival at the
   peer, which for a switch re-enters processing. *)
let rec emit t ~from_node ~port pkt =
  if t.loss_rate > 0.0 && Sim.Prng.float t.loss_prng 1.0 < t.loss_rate then begin
    t.dropped <- t.dropped + 1;
    record_actor t
      (Topology.node_to_string from_node)
      "drop (loss) %a" Packet.pp pkt
  end
  else emit_frame t ~from_node ~port pkt

and emit_frame t ~from_node ~port pkt =
  bump_egress t from_node port (Packet.size pkt);
  (match t.capture with
  | Some w ->
      Pcap.write_packet w
        ~ts_us:(Sim.Time.to_ns (Sim.Engine.now t.engine) / 1000)
        pkt
  | None -> ());
  match Topology.wire t.topology from_node port with
  | None ->
      t.dropped <- t.dropped + 1;
      record_actor t
        (Topology.node_to_string from_node)
        "drop: port %d unwired" port
  | Some (far, latency) ->
      Sim.Engine.schedule t.engine ~delay:latency (fun () ->
          arrive t ~at:far pkt)

and arrive t ~(at : Topology.endpoint) pkt =
  match at.node with
  | Topology.Host name -> (
      match Hashtbl.find_opt t.hosts name with
      | None ->
          t.dropped <- t.dropped + 1;
          record_actor t name "drop: host has no receive callback"
      | Some h ->
          t.delivered <- t.delivered + 1;
          record_actor t name "rx %a" Packet.pp pkt;
          h.h_rx pkt)
  | Topology.Sw dpid -> switch_rx t dpid ~in_port:at.port pkt

and switch_rx t dpid ~in_port pkt =
  let sw = Hashtbl.find t.switches dpid in
  match Switch.process sw ~now:(Sim.Engine.now t.engine) ~in_port pkt with
  | Switch.Forward ports ->
      List.iter (fun p -> emit t ~from_node:(Topology.Sw dpid) ~port:p pkt) ports
  | Switch.Dropped ->
      t.dropped <- t.dropped + 1;
      record_actor t
        (Topology.node_to_string (Topology.Sw dpid))
        "drop (policy) %a" Packet.pp pkt
  | Switch.Send_to_controller -> (
      match controller_of t dpid with
      | None ->
          t.dropped <- t.dropped + 1;
          record_actor t
            (Topology.node_to_string (Topology.Sw dpid))
            "drop: table miss and no controller"
      | Some ctrl ->
          t.packet_ins <- t.packet_ins + 1;
          record_actor t
            (Topology.node_to_string (Topology.Sw dpid))
            "packet-in -> controller %a" Packet.pp pkt;
          Sim.Engine.schedule t.engine ~delay:t.ctrl_latency (fun () ->
              ctrl
                (Message.Packet_in
                   { Message.dpid; in_port; reason = `No_match; packet = pkt })))

let send_to_switch t dpid msg =
  record_actor t "controller" "-> s%d %a" dpid Message.pp_to_switch msg;
  Sim.Engine.schedule t.engine ~delay:t.ctrl_latency (fun () ->
      let sw = Hashtbl.find t.switches dpid in
      match Switch.apply sw ~now:(Sim.Engine.now t.engine) msg with
      | Switch.Nothing -> ()
      | Switch.Emit (ports, pkt) ->
          List.iter
            (fun p -> emit t ~from_node:(Topology.Sw dpid) ~port:p pkt)
            ports
      | Switch.Reply reply -> (
          match controller_of t dpid with
          | None -> ()
          | Some ctrl ->
              record_actor t
                (Topology.node_to_string (Topology.Sw dpid))
                "%a" Message.pp_to_controller reply;
              Sim.Engine.schedule t.engine ~delay:t.ctrl_latency (fun () ->
                  ctrl reply)))

let attach_host t ~name ~mac ~ip ~rx =
  (match Topology.host_attachment t.topology name with
  | None -> invalid_arg ("Network.attach_host: " ^ name ^ " is not wired")
  | Some _ -> ());
  (* A re-attached host may have moved to a new address. *)
  (match Hashtbl.find_opt t.hosts name with
  | Some old when Ip_tbl.find_opt t.host_of_ip old.h_ip = Some name ->
      Ip_tbl.remove t.host_of_ip old.h_ip
  | Some _ | None -> ());
  Hashtbl.replace t.hosts name { h_name = name; h_mac = mac; h_ip = ip; h_rx = rx };
  Ip_tbl.replace t.host_of_ip ip name

let host_state t name =
  match Hashtbl.find_opt t.hosts name with
  | Some h -> h
  | None -> invalid_arg ("Network: unknown host " ^ name)

let host_mac t name = (host_state t name).h_mac
let host_ip t name = (host_state t name).h_ip

let host_by_ip t ip = Ip_tbl.find_opt t.host_of_ip ip

let send_from_host t ~name pkt =
  let _ = host_state t name in
  record_actor t name "tx %a" Packet.pp pkt;
  (* The host's single NIC is port 0 on the host node by convention of the
     topology builder; emit resolves the actual wiring. *)
  let host_node = Topology.Host name in
  let port =
    match Topology.ports_of t.topology host_node with
    | port :: _ -> port
    | [] -> 0
  in
  emit t ~from_node:host_node ~port pkt

let set_capture t w = t.capture <- w

let set_loss t ?prng ~rate () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Network.set_loss: bad rate";
  t.loss_rate <- rate;
  match prng with Some p -> t.loss_prng <- p | None -> ()

let delivered t = t.delivered
let dropped t = t.dropped
let packet_ins t = t.packet_ins

let egress_packets t ~node ~port =
  fst (Option.value ~default:(0, 0) (Hashtbl.find_opt t.egress (node, port)))

let egress_bytes t ~node ~port =
  snd (Option.value ~default:(0, 0) (Hashtbl.find_opt t.egress (node, port)))

let _ = record
