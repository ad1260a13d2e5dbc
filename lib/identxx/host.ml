open Netcore

type t = {
  name : string;
  mac : Mac.t;
  ip : Ipv4.t;
  processes : Process_table.t;
  daemon : Daemon.t;
  exes : (string, string) Hashtbl.t; (* path -> image bytes *)
  hashes : (string, string) Hashtbl.t; (* path -> hex sha256 *)
  mutable next_ephemeral : int;
}

let create ?(behaviour = Daemon.Honest) ~name ~mac ~ip () =
  let processes = Process_table.create () in
  let hashes = Hashtbl.create 8 in
  let daemon =
    Daemon.create ~behaviour ~ip ~processes
      ~exe_hash:(fun path -> Hashtbl.find_opt hashes path)
      ()
  in
  {
    name;
    mac;
    ip;
    processes;
    daemon;
    exes = Hashtbl.create 8;
    hashes;
    next_ephemeral = 50000;
  }

let name t = t.name
let mac t = t.mac
let ip t = t.ip
let daemon t = t.daemon
let set_signing_key t k = Daemon.set_signing_key t.daemon k

let set_metrics t ?clock reg =
  Daemon.set_metrics t.daemon ?clock ~labels:[ ("host", t.name) ] reg
let processes t = t.processes

let install_exe t ~path ~content =
  Hashtbl.replace t.exes path content;
  Hashtbl.replace t.hashes path (Idcrypto.Sha256.hexdigest content);
  Daemon.notify_change t.daemon

let exe_hash t ~path = Hashtbl.find_opt t.hashes path

let run t ?pid ?isolated ~user ?groups ~exe () =
  let groups = Option.value ~default:[ user ] groups in
  Process_table.spawn t.processes ?pid ?isolated ~user ~groups ~exe ()

let connect t ~(proc : Process_table.process) ~dst ?src_port ~dst_port
    ?(proto = Proto.Tcp) () =
  let src_port =
    match src_port with
    | Some p -> p
    | None ->
        let p = t.next_ephemeral in
        t.next_ephemeral <- (if p >= 65535 then 50000 else p + 1);
        p
  in
  let flow = Five_tuple.make ~src:t.ip ~dst ~proto ~src_port ~dst_port in
  Process_table.connect t.processes ~pid:proc.pid ~flow;
  flow

let listen t ~(proc : Process_table.process) ~port ?(proto = Proto.Tcp) () =
  Process_table.listen t.processes ~pid:proc.pid ~proto ~port

let handle_packet t pkt =
  (* Decoded by hand rather than through {!Wire.classify} so the decode
     step itself can be timed as the first daemon-side trace span. *)
  match pkt.Packet.eth_payload with
  | Packet.Ip { ip_src = from_ip; ip_dst = to_ip; payload = Packet.Tcp tcp; _ }
    when tcp.Packet.tcp_dst = Wire.port && Ipv4.equal to_ip t.ip -> (
      let clock = Daemon.clock t.daemon in
      let d0 = clock () in
      match Query.decode tcp.Packet.tcp_payload with
      | Error _ -> None
      | Ok query -> (
          let d1 = clock () in
          (* Only a traced query reports its decode. *)
          let decode = if query.Query.trace_at = Slice.none then None else Some (d0, d1) in
          match Daemon.respond ?decode t.daemon ~peer:from_ip query with
          | None -> None
          | Some (response, _role) ->
              Some
                (Wire.response_packet ~to_ip:from_ip ~from_ip:t.ip
                   ~dst_port:tcp.Packet.tcp_src response)))
  | _ -> None

let first_packet t ~flow = Packet.of_five_tuple ~eth_src:t.mac flow
