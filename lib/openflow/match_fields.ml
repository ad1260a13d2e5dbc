open Netcore

type t = {
  in_port : int option;
  dl_src : Mac.t option;
  dl_dst : Mac.t option;
  dl_type : Ethertype.t option;
  dl_vlan : Vlan.t option;
  nw_src : Prefix.t option;
  nw_dst : Prefix.t option;
  nw_proto : Proto.t option;
  tp_src : int option;
  tp_dst : int option;
}

let any =
  {
    in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_type = None;
    dl_vlan = None;
    nw_src = None;
    nw_dst = None;
    nw_proto = None;
    tp_src = None;
    tp_dst = None;
  }

let ethertype_of_packet (pkt : Packet.t) =
  match pkt.eth_payload with
  | Packet.Ip _ -> Ethertype.Ipv4
  | Packet.Raw_eth (et, _) -> et

(* Shared by every match [of_five_tuple] builds. *)
let some_ipv4 = Some Ethertype.Ipv4
let some_tcp = Some Proto.Tcp
let some_udp = Some Proto.Udp
let some_icmp = Some Proto.Icmp

let some_proto = function
  | Proto.Tcp -> some_tcp
  | Proto.Udp -> some_udp
  | Proto.Icmp -> some_icmp
  | Proto.Other _ as p -> Some p

let exact ~nw_src ~nw_dst ~proto ~src_port ~dst_port =
  {
    any with
    dl_type = some_ipv4;
    nw_src;
    nw_dst;
    nw_proto = some_proto proto;
    tp_src = Some src_port;
    tp_dst = Some dst_port;
  }

let of_five_tuple (ft : Five_tuple.t) =
  exact
    ~nw_src:(Some (Prefix.host ft.src))
    ~nw_dst:(Some (Prefix.host ft.dst))
    ~proto:ft.proto ~src_port:ft.src_port ~dst_port:ft.dst_port

let field_matches field value ~eq =
  match field with None -> true | Some f -> eq f value

let ports t ~src_port ~dst_port =
  field_matches t.tp_src src_port ~eq:Int.equal
  && field_matches t.tp_dst dst_port ~eq:Int.equal

(* The network fields against the packet's own, its ports as
   {!Packet.five_tuple} reads them (0 for ICMP and raw IP). A wild field
   reads nothing of the packet. *)
let matches_ip t (ip : Packet.ipv4) =
  (match t.nw_src with None -> true | Some p -> Prefix.mem ip.ip_src p)
  && (match t.nw_dst with None -> true | Some p -> Prefix.mem ip.ip_dst p)
  && (match t.nw_proto with
     | None -> true
     | Some p -> Proto.equal p (Packet.ip_proto ip.payload))
  && ((t.tp_src = None && t.tp_dst = None)
     ||
     match ip.payload with
     | Packet.Tcp tcp -> ports t ~src_port:tcp.tcp_src ~dst_port:tcp.tcp_dst
     | Packet.Udp udp -> ports t ~src_port:udp.udp_src ~dst_port:udp.udp_dst
     | Packet.Icmp _ | Packet.Raw_ip _ -> ports t ~src_port:0 ~dst_port:0)

let matches_flow t ~in_port (pkt : Packet.t) =
  field_matches t.in_port in_port ~eq:Int.equal
  && field_matches t.dl_src pkt.eth_src ~eq:Mac.equal
  && field_matches t.dl_dst pkt.eth_dst ~eq:Mac.equal
  && field_matches t.dl_type (ethertype_of_packet pkt) ~eq:Ethertype.equal
  && field_matches t.dl_vlan pkt.vlan ~eq:Vlan.equal
  &&
  match pkt.eth_payload with
  | Packet.Ip ip -> matches_ip t ip
  | Packet.Raw_eth _ ->
      (* Non-IP packets only match when all network fields are wild. *)
      t.nw_src = None && t.nw_dst = None && t.nw_proto = None
      && t.tp_src = None && t.tp_dst = None

let covers_field general specific ~eq =
  match (general, specific) with
  | None, _ -> true
  | Some _, None -> false
  | Some g, Some s -> eq g s

let covers_prefix general specific =
  match (general, specific) with
  | None, _ -> true
  | Some _, None -> false
  | Some g, Some s -> Prefix.subset s g

let covers general specific =
  covers_field general.in_port specific.in_port ~eq:Int.equal
  && covers_field general.dl_src specific.dl_src ~eq:Mac.equal
  && covers_field general.dl_dst specific.dl_dst ~eq:Mac.equal
  && covers_field general.dl_type specific.dl_type ~eq:Ethertype.equal
  && covers_field general.dl_vlan specific.dl_vlan ~eq:Vlan.equal
  && covers_prefix general.nw_src specific.nw_src
  && covers_prefix general.nw_dst specific.nw_dst
  && covers_field general.nw_proto specific.nw_proto ~eq:Proto.equal
  && covers_field general.tp_src specific.tp_src ~eq:Int.equal
  && covers_field general.tp_dst specific.tp_dst ~eq:Int.equal

let equal a b = compare a b = 0

let pp ppf t =
  let field name pp_v = function
    | None -> None
    | Some v -> Some (Format.asprintf "%s=%a" name pp_v v)
  in
  let pp_int ppf = Format.fprintf ppf "%d" in
  let parts =
    List.filter_map Fun.id
      [
        field "in_port" pp_int t.in_port;
        field "dl_src" Mac.pp t.dl_src;
        field "dl_dst" Mac.pp t.dl_dst;
        field "dl_type" Ethertype.pp t.dl_type;
        field "dl_vlan" Vlan.pp t.dl_vlan;
        field "nw_src" Prefix.pp t.nw_src;
        field "nw_dst" Prefix.pp t.nw_dst;
        field "nw_proto" Proto.pp t.nw_proto;
        field "tp_src" pp_int t.tp_src;
        field "tp_dst" pp_int t.tp_dst;
      ]
  in
  match parts with
  | [] -> Format.pp_print_string ppf "{any}"
  | _ -> Format.fprintf ppf "{%s}" (String.concat " " parts)
