type tcp_flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let flags_none =
  { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }

let flags_syn = { flags_none with syn = true }
let flags_psh_ack = { flags_none with ack = true; psh = true }

type tcp = {
  tcp_src : int;
  tcp_dst : int;
  seq : int32;
  ack_no : int32;
  flags : tcp_flags;
  window : int;
  tcp_payload : string;
}

type udp = { udp_src : int; udp_dst : int; udp_payload : string }
type icmp = { icmp_type : int; icmp_code : int; icmp_payload : string }

type ip_payload =
  | Tcp of tcp
  | Udp of udp
  | Icmp of icmp
  | Raw_ip of Proto.t * string

type ipv4 = { ip_src : Ipv4.t; ip_dst : Ipv4.t; ttl : int; payload : ip_payload }

type eth_payload = Ip of ipv4 | Raw_eth of Ethertype.t * string

type t = {
  eth_src : Mac.t;
  eth_dst : Mac.t;
  vlan : Vlan.t;
  eth_payload : eth_payload;
}

let tcp_syn ?(eth_src = Mac.zero) ?(eth_dst = Mac.zero) ?(vlan = Vlan.untagged)
    ~src ~dst ~src_port ~dst_port () =
  {
    eth_src;
    eth_dst;
    vlan;
    eth_payload =
      Ip
        {
          ip_src = src;
          ip_dst = dst;
          ttl = 64;
          payload =
            Tcp
              {
                tcp_src = src_port;
                tcp_dst = dst_port;
                seq = 0l;
                ack_no = 0l;
                flags = flags_syn;
                window = 65535;
                tcp_payload = "";
              };
        };
  }

let udp_datagram ?(eth_src = Mac.zero) ?(eth_dst = Mac.zero)
    ?(vlan = Vlan.untagged) ~src ~dst ~src_port ~dst_port ~payload () =
  {
    eth_src;
    eth_dst;
    vlan;
    eth_payload =
      Ip
        {
          ip_src = src;
          ip_dst = dst;
          ttl = 64;
          payload = Udp { udp_src = src_port; udp_dst = dst_port; udp_payload = payload };
        };
  }

(* [eth_src] is passed on as given, so a caller's MAC costs no copy of
   the frame. *)
let of_five_tuple ?eth_src ?(payload = "") (ft : Five_tuple.t) =
  match ft.proto with
  | Proto.Tcp ->
      let pkt =
        tcp_syn ?eth_src ~src:ft.src ~dst:ft.dst ~src_port:ft.src_port
          ~dst_port:ft.dst_port ()
      in
      if payload = "" then pkt
      else
        (match pkt.eth_payload with
        | Ip ({ payload = Tcp tcp; _ } as ip) ->
            { pkt with eth_payload = Ip { ip with payload = Tcp { tcp with tcp_payload = payload } } }
        | _ -> pkt)
  | Proto.Udp ->
      udp_datagram ?eth_src ~src:ft.src ~dst:ft.dst ~src_port:ft.src_port
        ~dst_port:ft.dst_port ~payload ()
  | Proto.Icmp ->
      (* A well-formed echo request, so the wire form round-trips. *)
      {
        eth_src = Option.value eth_src ~default:Mac.zero;
        eth_dst = Mac.zero;
        vlan = Vlan.untagged;
        eth_payload =
          Ip
            {
              ip_src = ft.src;
              ip_dst = ft.dst;
              ttl = 64;
              payload = Icmp { icmp_type = 8; icmp_code = 0; icmp_payload = payload };
            };
      }
  | proto ->
      {
        eth_src = Option.value eth_src ~default:Mac.zero;
        eth_dst = Mac.zero;
        vlan = Vlan.untagged;
        eth_payload =
          Ip { ip_src = ft.src; ip_dst = ft.dst; ttl = 64; payload = Raw_ip (proto, payload) };
      }

let ip_proto = function
  | Tcp _ -> Proto.Tcp
  | Udp _ -> Proto.Udp
  | Icmp _ -> Proto.Icmp
  | Raw_ip (p, _) -> p

let ip_five_tuple ip ~src_port ~dst_port =
  Some
    (Five_tuple.make ~src:ip.ip_src ~dst:ip.ip_dst ~proto:(ip_proto ip.payload)
       ~src_port ~dst_port)

(* Each payload passes its ports straight on: a port pair bound by a
   [match] would be boxed. *)
let five_tuple t =
  match t.eth_payload with
  | Raw_eth _ -> None
  | Ip ({ payload = Tcp tcp; _ } as ip) ->
      ip_five_tuple ip ~src_port:tcp.tcp_src ~dst_port:tcp.tcp_dst
  | Ip ({ payload = Udp udp; _ } as ip) ->
      ip_five_tuple ip ~src_port:udp.udp_src ~dst_port:udp.udp_dst
  | Ip ({ payload = Icmp _ | Raw_ip _; _ } as ip) ->
      ip_five_tuple ip ~src_port:0 ~dst_port:0

(* --- encoding --- *)

let set16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let set32 b off v =
  let v = Int32.to_int v land 0xffff_ffff in
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let flags_byte f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor (if f.ack then 16 else 0)
  lor if f.urg then 32 else 0

let encode_tcp tcp =
  let len = 20 + String.length tcp.tcp_payload in
  let b = Bytes.make len '\000' in
  set16 b 0 tcp.tcp_src;
  set16 b 2 tcp.tcp_dst;
  set32 b 4 tcp.seq;
  set32 b 8 tcp.ack_no;
  Bytes.set b 12 (Char.chr (5 lsl 4));
  Bytes.set b 13 (Char.chr (flags_byte tcp.flags));
  set16 b 14 tcp.window;
  Bytes.blit_string tcp.tcp_payload 0 b 20 (String.length tcp.tcp_payload);
  b

let encode_udp udp =
  let len = 8 + String.length udp.udp_payload in
  let b = Bytes.make len '\000' in
  set16 b 0 udp.udp_src;
  set16 b 2 udp.udp_dst;
  set16 b 4 len;
  Bytes.blit_string udp.udp_payload 0 b 8 (String.length udp.udp_payload);
  b

let encode_icmp icmp =
  let len = 4 + String.length icmp.icmp_payload in
  let b = Bytes.make len '\000' in
  Bytes.set b 0 (Char.chr (icmp.icmp_type land 0xff));
  Bytes.set b 1 (Char.chr (icmp.icmp_code land 0xff));
  Bytes.blit_string icmp.icmp_payload 0 b 4 (String.length icmp.icmp_payload);
  (* ICMP checksum covers the whole message. *)
  let csum = Checksum.finish (Checksum.sum (Bytes.unsafe_to_string b) 0 len) in
  set16 b 2 csum;
  b

(* Pseudo-header one's-complement sum for TCP/UDP checksums. *)
let pseudo_sum ~src ~dst ~proto ~len =
  let s = Ipv4.to_int src and d = Ipv4.to_int dst in
  Checksum.add
    (Checksum.add (Checksum.add (s lsr 16) (s land 0xffff))
       (Checksum.add (d lsr 16) (d land 0xffff)))
    (Checksum.add (Proto.to_int proto) len)

let encode_ip ip =
  let proto = ip_proto ip.payload in
  let body =
    match ip.payload with
    | Tcp tcp ->
        let b = encode_tcp tcp in
        let len = Bytes.length b in
        let sum =
          Checksum.add
            (pseudo_sum ~src:ip.ip_src ~dst:ip.ip_dst ~proto ~len)
            (Checksum.sum (Bytes.unsafe_to_string b) 0 len)
        in
        set16 b 16 (Checksum.finish sum);
        b
    | Udp udp ->
        let b = encode_udp udp in
        let len = Bytes.length b in
        let sum =
          Checksum.add
            (pseudo_sum ~src:ip.ip_src ~dst:ip.ip_dst ~proto ~len)
            (Checksum.sum (Bytes.unsafe_to_string b) 0 len)
        in
        let csum = Checksum.finish sum in
        (* RFC 768: a computed zero checksum is transmitted as 0xffff. *)
        set16 b 6 (if csum = 0 then 0xffff else csum);
        b
    | Icmp icmp -> encode_icmp icmp
    | Raw_ip (_, s) -> Bytes.of_string s
  in
  let total = 20 + Bytes.length body in
  let b = Bytes.make total '\000' in
  Bytes.set b 0 (Char.chr ((4 lsl 4) lor 5));
  set16 b 2 total;
  Bytes.set b 8 (Char.chr (ip.ttl land 0xff));
  Bytes.set b 9 (Char.chr (Proto.to_int proto));
  Ipv4.write_bytes ip.ip_src b 12;
  Ipv4.write_bytes ip.ip_dst b 16;
  let hsum = Checksum.finish (Checksum.sum (Bytes.unsafe_to_string b) 0 20) in
  set16 b 10 hsum;
  Bytes.blit body 0 b 20 (Bytes.length body);
  b

let encode t =
  let payload, ethertype =
    match t.eth_payload with
    | Ip ip -> (encode_ip ip, Ethertype.Ipv4)
    | Raw_eth (et, s) -> (Bytes.of_string s, et)
  in
  let tag_len = if Vlan.is_tagged t.vlan then 4 else 0 in
  let total = 14 + tag_len + Bytes.length payload in
  let b = Bytes.make total '\000' in
  Mac.write_bytes t.eth_dst b 0;
  Mac.write_bytes t.eth_src b 6;
  (match Vlan.id t.vlan with
  | Some vid ->
      set16 b 12 (Ethertype.to_int Ethertype.Vlan_tagged);
      set16 b 14 vid;
      set16 b 16 (Ethertype.to_int ethertype)
  | None -> set16 b 12 (Ethertype.to_int ethertype));
  Bytes.blit payload 0 b (14 + tag_len) (Bytes.length payload);
  Bytes.unsafe_to_string b

(* --- decoding --- *)

let ( let* ) = Result.bind

let get16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let get32 s off =
  Int32.logor
    (Int32.shift_left (Int32.of_int (get16 s off)) 16)
    (Int32.of_int (get16 s (off + 2)))

let need s off n what =
  if off + n > String.length s then Error (what ^ ": truncated") else Ok ()

let decode_tcp ~check ~src ~dst s off len =
  let* () = need s off 20 "tcp" in
  if len < 20 then Error "tcp: bad length"
  else
    let data_off = (Char.code s.[off + 12] lsr 4) * 4 in
    if data_off < 20 || data_off > len then Error "tcp: bad data offset"
    else begin
      let* () =
        if not check then Ok ()
        else
          let sum =
            Checksum.add
              (pseudo_sum ~src ~dst ~proto:Proto.Tcp ~len)
              (Checksum.sum s off len)
          in
          if Checksum.finish sum = 0 then Ok () else Error "tcp: bad checksum"
      in
      let fb = Char.code s.[off + 13] in
      Ok
        (Tcp
           {
             tcp_src = get16 s off;
             tcp_dst = get16 s (off + 2);
             seq = get32 s (off + 4);
             ack_no = get32 s (off + 8);
             flags =
               {
                 fin = fb land 1 <> 0;
                 syn = fb land 2 <> 0;
                 rst = fb land 4 <> 0;
                 psh = fb land 8 <> 0;
                 ack = fb land 16 <> 0;
                 urg = fb land 32 <> 0;
               };
             window = get16 s (off + 14);
             tcp_payload = String.sub s (off + data_off) (len - data_off);
           })
    end

let decode_udp ~check ~src ~dst s off len =
  let* () = need s off 8 "udp" in
  let ulen = get16 s (off + 4) in
  if ulen < 8 || ulen > len then Error "udp: bad length"
  else
    let* () =
      if (not check) || get16 s (off + 6) = 0 then Ok ()
      else
        let sum =
          Checksum.add
            (pseudo_sum ~src ~dst ~proto:Proto.Udp ~len:ulen)
            (Checksum.sum s off ulen)
        in
        if Checksum.finish sum = 0 then Ok () else Error "udp: bad checksum"
    in
    Ok
      (Udp
         {
           udp_src = get16 s off;
           udp_dst = get16 s (off + 2);
           udp_payload = String.sub s (off + 8) (ulen - 8);
         })

let decode_icmp ~check s off len =
  let* () = need s off 4 "icmp" in
  let* () =
    if not check then Ok ()
    else if Checksum.finish (Checksum.sum s off len) = 0 then Ok ()
    else Error "icmp: bad checksum"
  in
  Ok
    (Icmp
       {
         icmp_type = Char.code s.[off];
         icmp_code = Char.code s.[off + 1];
         icmp_payload = String.sub s (off + 4) (len - 4);
       })

let decode_ip ~check s off =
  let* () = need s off 20 "ipv4" in
  let vihl = Char.code s.[off] in
  if vihl lsr 4 <> 4 then Error "ipv4: not version 4"
  else
    let ihl = (vihl land 0xf) * 4 in
    if ihl < 20 then Error "ipv4: bad header length"
    else
      let* () = need s off ihl "ipv4 options" in
      let total = get16 s (off + 2) in
      if total < ihl || off + total > String.length s then
        Error "ipv4: bad total length"
      else
        let* () =
          if not check then Ok ()
          else if Checksum.finish (Checksum.sum s off ihl) = 0 then Ok ()
          else Error "ipv4: bad header checksum"
        in
        let src = Ipv4.of_bytes s (off + 12) in
        let dst = Ipv4.of_bytes s (off + 16) in
        let proto = Proto.of_int (Char.code s.[off + 9]) in
        let body_off = off + ihl in
        let body_len = total - ihl in
        let* payload =
          match proto with
          | Proto.Tcp -> decode_tcp ~check ~src ~dst s body_off body_len
          | Proto.Udp -> decode_udp ~check ~src ~dst s body_off body_len
          | Proto.Icmp -> decode_icmp ~check s body_off body_len
          | p -> Ok (Raw_ip (p, String.sub s body_off body_len))
        in
        Ok (Ip { ip_src = src; ip_dst = dst; ttl = Char.code s.[off + 8]; payload })

let decode ?(check = true) s =
  let* () = need s 0 14 "ethernet" in
  let eth_dst = Mac.of_bytes s 0 in
  let eth_src = Mac.of_bytes s 6 in
  let ethertype0 = get16 s 12 in
  let* vlan, ethertype, off =
    if ethertype0 = Ethertype.to_int Ethertype.Vlan_tagged then
      let* () = need s 14 4 "vlan tag" in
      Ok (Vlan.of_id (get16 s 14 land 0xfff), get16 s 16, 18)
    else Ok (Vlan.untagged, ethertype0, 14)
  in
  let* eth_payload =
    if ethertype = Ethertype.to_int Ethertype.Ipv4 then decode_ip ~check s off
    else
      Ok
        (Raw_eth
           (Ethertype.of_int ethertype, String.sub s off (String.length s - off)))
  in
  Ok { eth_src; eth_dst; vlan; eth_payload }

(* The encoded length, from header sizes and payload lengths alone:
   what [encode] would produce, without producing it. *)
let size t =
  let body =
    match t.eth_payload with
    | Raw_eth (_, s) -> String.length s
    | Ip ip ->
        20
        +
        (match ip.payload with
        | Tcp tcp -> 20 + String.length tcp.tcp_payload
        | Udp udp -> 8 + String.length udp.udp_payload
        | Icmp icmp -> 4 + String.length icmp.icmp_payload
        | Raw_ip (_, s) -> String.length s)
  in
  14 + (if Vlan.is_tagged t.vlan then 4 else 0) + body

let pp ppf t =
  match five_tuple t with
  | Some ft ->
      Format.fprintf ppf "[%a -> %a vlan:%a %a]" Mac.pp t.eth_src Mac.pp
        t.eth_dst Vlan.pp t.vlan Five_tuple.pp ft
  | None ->
      Format.fprintf ppf "[%a -> %a vlan:%a non-ip]" Mac.pp t.eth_src Mac.pp
        t.eth_dst Vlan.pp t.vlan
