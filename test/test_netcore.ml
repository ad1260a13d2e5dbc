(* Unit and property tests for the netcore substrate: addresses,
   prefixes, 5-tuples, checksums and wire-format packet codecs. *)

open Netcore

let check = Alcotest.check

(* --- Mac --- *)

let test_mac_string_roundtrip () =
  let cases = [ "00:11:22:33:44:55"; "ff:ff:ff:ff:ff:ff"; "00:00:00:00:00:00"; "de:ad:be:ef:01:02" ] in
  List.iter
    (fun s -> check Alcotest.string s s (Mac.to_string (Mac.of_string s)))
    cases

let test_mac_case_insensitive () =
  check Alcotest.bool "upper equals lower" true
    (Mac.equal (Mac.of_string "DE:AD:BE:EF:01:02") (Mac.of_string "de:ad:be:ef:01:02"))

let test_mac_bad_strings () =
  List.iter
    (fun s ->
      check Alcotest.bool ("rejects " ^ s) true (Mac.of_string_opt s = None))
    [ ""; "00:11:22:33:44"; "00:11:22:33:44:5g"; "001122334455"; "00-11-22-33-44-55" ]

let test_mac_bytes_roundtrip () =
  let m = Mac.of_string "0a:1b:2c:3d:4e:5f" in
  let b = Bytes.create 6 in
  Mac.write_bytes m b 0;
  check Alcotest.bool "bytes roundtrip" true
    (Mac.equal m (Mac.of_bytes (Bytes.to_string b) 0))

let test_mac_flags () =
  check Alcotest.bool "broadcast" true (Mac.is_broadcast Mac.broadcast);
  check Alcotest.bool "broadcast is multicast" true (Mac.is_multicast Mac.broadcast);
  check Alcotest.bool "unicast" false (Mac.is_multicast (Mac.of_string "00:11:22:33:44:55"));
  check Alcotest.bool "multicast bit" true (Mac.is_multicast (Mac.of_string "01:00:5e:00:00:01"))

(* --- Ipv4 --- *)

let test_ipv4_string_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string s s (Ipv4.to_string (Ipv4.of_string s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "192.168.1.254"; "1.2.3.4" ]

let test_ipv4_bad_strings () =
  List.iter
    (fun s ->
      check Alcotest.bool ("rejects " ^ s) true (Ipv4.of_string_opt s = None))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1..2.3"; "a.b.c.d"; "1.2.3.4 "; "1.2.3.0400" ]

let test_ipv4_octets () =
  let a = Ipv4.of_octets 10 20 30 40 in
  check Alcotest.string "octets" "10.20.30.40" (Ipv4.to_string a);
  let w, x, y, z = Ipv4.to_octets a in
  check Alcotest.(list int) "to_octets" [ 10; 20; 30; 40 ] [ w; x; y; z ]

let test_ipv4_succ_wraps () =
  check Alcotest.string "wrap" "0.0.0.0" (Ipv4.to_string (Ipv4.succ Ipv4.broadcast));
  check Alcotest.string "succ" "10.0.0.2" (Ipv4.to_string (Ipv4.succ (Ipv4.of_string "10.0.0.1")))

let test_ipv4_classification () =
  check Alcotest.bool "224/4 multicast" true (Ipv4.is_multicast (Ipv4.of_string "239.1.2.3"));
  check Alcotest.bool "unicast" false (Ipv4.is_multicast (Ipv4.of_string "8.8.8.8"));
  List.iter
    (fun (s, expect) ->
      check Alcotest.bool ("private " ^ s) expect (Ipv4.is_private (Ipv4.of_string s)))
    [ ("10.1.2.3", true); ("172.16.0.1", true); ("172.31.255.255", true);
      ("172.32.0.1", false); ("192.168.9.9", true); ("8.8.8.8", false) ]

(* --- Prefix --- *)

let test_prefix_parse_and_canonical () =
  let p = Prefix.of_string "192.168.1.77/24" in
  check Alcotest.string "canonicalized" "192.168.1.0/24" (Prefix.to_string p);
  check Alcotest.int "length" 24 (Prefix.length p);
  let host = Prefix.of_string "10.0.0.1" in
  check Alcotest.int "bare address is /32" 32 (Prefix.length host)

let test_prefix_membership () =
  let p = Prefix.of_string "10.1.0.0/16" in
  check Alcotest.bool "inside" true (Prefix.mem (Ipv4.of_string "10.1.255.3") p);
  check Alcotest.bool "outside" false (Prefix.mem (Ipv4.of_string "10.2.0.1") p);
  check Alcotest.bool "all matches everything" true
    (Prefix.mem (Ipv4.of_string "203.0.113.9") Prefix.all)

let test_prefix_subset_overlap () =
  let p24 = Prefix.of_string "10.1.1.0/24" in
  let p16 = Prefix.of_string "10.1.0.0/16" in
  let other = Prefix.of_string "10.2.0.0/16" in
  check Alcotest.bool "/24 subset of /16" true (Prefix.subset p24 p16);
  check Alcotest.bool "/16 not subset of /24" false (Prefix.subset p16 p24);
  (* Two prefixes overlap exactly when one holds the other. *)
  check Alcotest.bool "overlap" true (Prefix.subset p24 p16 || Prefix.subset p16 p24);
  check Alcotest.bool "disjoint" false (Prefix.subset p24 other || Prefix.subset other p24)

let test_prefix_bounds () =
  let p = Prefix.of_string "10.1.1.0/30" in
  check Alcotest.string "first" "10.1.1.0" (Ipv4.to_string (Prefix.first p));
  check Alcotest.string "last" "10.1.1.3" (Ipv4.to_string (Prefix.last p));
  check Alcotest.int "size" 4 (Prefix.size p);
  check Alcotest.int "hosts enumerates size" 4 (List.length (List.of_seq (Prefix.hosts p)))

let test_prefix_bad () =
  List.iter
    (fun s -> check Alcotest.bool ("rejects " ^ s) true (Prefix.of_string_opt s = None))
    [ "10.0.0.0/33"; "10.0.0.0/-1"; "10.0.0.0/"; "10.0.0.0/x"; "300.0.0.0/8" ]

(* --- Proto / Vlan / Ethertype --- *)

let test_proto_roundtrip () =
  List.iter
    (fun p ->
      check Alcotest.int (Proto.to_string p) (Proto.to_int p)
        (Proto.to_int (Proto.of_string (Proto.to_string p))))
    [ Proto.Tcp; Proto.Udp; Proto.Icmp; Proto.Other 89 ];
  check Alcotest.bool "case insensitive" true (Proto.equal (Proto.of_string "TCP") Proto.Tcp);
  check Alcotest.bool "rejects 256" true (Proto.of_string_opt "256" = None)

let test_vlan () =
  check Alcotest.bool "untagged" false (Vlan.is_tagged Vlan.untagged);
  check Alcotest.(option int) "id of tagged" (Some 42) (Vlan.id (Vlan.of_id 42));
  check Alcotest.(option int) "id of untagged" None (Vlan.id Vlan.untagged);
  Alcotest.check_raises "4096 rejected" (Invalid_argument "Vlan.of_id: out of range")
    (fun () -> ignore (Vlan.of_id 4096))

let test_ethertype () =
  check Alcotest.int "ipv4" 0x0800 (Ethertype.to_int Ethertype.Ipv4);
  check Alcotest.bool "roundtrip arp" true
    (Ethertype.equal Ethertype.Arp (Ethertype.of_int 0x0806))

(* --- Five_tuple --- *)

let test_five_tuple_reverse_involution () =
  let ft =
    Five_tuple.tcp ~src:(Ipv4.of_string "1.2.3.4") ~dst:(Ipv4.of_string "5.6.7.8")
      ~src_port:1000 ~dst_port:80
  in
  check Alcotest.bool "reverse twice is identity" true
    (Five_tuple.equal ft (Five_tuple.reverse (Five_tuple.reverse ft)));
  let r = Five_tuple.reverse ft in
  check Alcotest.int "ports swapped" 80 r.Five_tuple.src_port

let test_five_tuple_rejects_bad_port () =
  Alcotest.check_raises "port 70000" (Invalid_argument "Five_tuple: port out of range")
    (fun () ->
      ignore
        (Five_tuple.tcp ~src:Ipv4.any ~dst:Ipv4.any ~src_port:70000 ~dst_port:80))

(* A flow is what an IP header carries: no protocol number past a
   byte, and no [Other] on a named protocol's number, which would pack
   and compare as the named one. The byte's other numbers are flows. *)
let test_five_tuple_rejects_odd_protocols () =
  let flow proto =
    Five_tuple.make ~src:Ipv4.any ~dst:Ipv4.any ~proto ~src_port:1 ~dst_port:2
  in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "Other %d" n)
        (Invalid_argument "Five_tuple: protocol out of range")
        (fun () -> ignore (flow (Proto.Other n))))
    [ 300; -1; 256; 1; 6; 17 ];
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "Other %d" n)
        n
        (Proto.to_int (flow (Proto.Other n)).Five_tuple.proto))
    [ 0; 47; 255 ]

(* Every exact-match table lookup and shard choice hashes a five-tuple,
   so hashing one allocates nothing. *)
let test_five_tuple_hash_alloc () =
  let ft =
    Five_tuple.tcp ~src:(Ipv4.of_string "1.2.3.4") ~dst:(Ipv4.of_string "5.6.7.8")
      ~src_port:1000 ~dst_port:80
  in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Five_tuple.hash ft))
  done;
  check (Alcotest.float 0.) "no words per hash" 0. (Gc.minor_words () -. before)

(* --- Checksum --- *)

let test_checksum_rfc1071_example () =
  (* RFC 1071 example bytes: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d. *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "rfc1071" 0x220d (Checksum.of_string data)

let test_checksum_odd_length () =
  (* Trailing byte padded on the right. *)
  let even = Checksum.of_string "\x12\x34\x56\x00" in
  let odd = Checksum.of_string "\x12\x34\x56" in
  check Alcotest.int "odd = even with zero pad" even odd

let test_checksum_verify_self () =
  (* A buffer with its own checksum embedded sums to 0xffff. *)
  let b = Bytes.of_string "\x45\x00\x00\x1c\x00\x00\x00\x00\x40\x06\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let c = Checksum.finish (Checksum.sum (Bytes.to_string b) 0 20) in
  Bytes.set b 10 (Char.chr (c lsr 8));
  Bytes.set b 11 (Char.chr (c land 0xff));
  check Alcotest.bool "valid" true (Checksum.valid (Bytes.to_string b))

(* --- Packet codec --- *)

let decode_ok s =
  match Packet.decode s with
  | Ok p -> p
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_packet_tcp_roundtrip () =
  let pkt =
    Packet.tcp_syn ~eth_src:(Mac.of_int 0x1) ~eth_dst:(Mac.of_int 0x2)
      ~src:(Ipv4.of_string "10.0.0.1") ~dst:(Ipv4.of_string "10.0.0.2")
      ~src_port:5000 ~dst_port:80 ()
  in
  let decoded = decode_ok (Packet.encode pkt) in
  check Alcotest.bool "tcp roundtrip" true (pkt = decoded)

let test_packet_udp_roundtrip () =
  let pkt =
    Packet.udp_datagram ~src:(Ipv4.of_string "10.0.0.1")
      ~dst:(Ipv4.of_string "10.0.0.2") ~src_port:53 ~dst_port:5353
      ~payload:"hello dns" ()
  in
  check Alcotest.bool "udp roundtrip" true
    (pkt = decode_ok (Packet.encode pkt))

let test_packet_vlan_roundtrip () =
  let pkt =
    Packet.tcp_syn ~vlan:(Vlan.of_id 100) ~src:(Ipv4.of_string "10.0.0.1")
      ~dst:(Ipv4.of_string "10.0.0.2") ~src_port:1234 ~dst_port:443 ()
  in
  let decoded = decode_ok (Packet.encode pkt) in
  check Alcotest.(option int) "vlan preserved" (Some 100) (Vlan.id decoded.Packet.vlan)

let test_packet_corrupt_checksum_rejected () =
  let pkt =
    Packet.tcp_syn ~src:(Ipv4.of_string "10.0.0.1") ~dst:(Ipv4.of_string "10.0.0.2")
      ~src_port:5000 ~dst_port:80 ()
  in
  let wire = Bytes.of_string (Packet.encode pkt) in
  (* Flip a bit in the IP source address. *)
  Bytes.set wire 27 (Char.chr (Char.code (Bytes.get wire 27) lxor 1));
  (match Packet.decode (Bytes.to_string wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted packet decoded with check on");
  match Packet.decode ~check:false (Bytes.to_string wire) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "check:false should tolerate wrong checksum: %s" e

let test_packet_truncated_rejected () =
  let pkt =
    Packet.tcp_syn ~src:(Ipv4.of_string "10.0.0.1") ~dst:(Ipv4.of_string "10.0.0.2")
      ~src_port:5000 ~dst_port:80 ()
  in
  let wire = Packet.encode pkt in
  for len = 0 to min 30 (String.length wire - 1) do
    match Packet.decode (String.sub wire 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
  done

let test_packet_five_tuple_extraction () =
  let ft =
    Five_tuple.udp ~src:(Ipv4.of_string "1.1.1.1") ~dst:(Ipv4.of_string "2.2.2.2")
      ~src_port:999 ~dst_port:53
  in
  let pkt = Packet.of_five_tuple ft in
  check Alcotest.(option string) "five tuple preserved"
    (Some (Five_tuple.to_string ft))
    (Option.map Five_tuple.to_string (Packet.five_tuple pkt))

let test_packet_non_ip () =
  let pkt =
    {
      Packet.eth_src = Mac.of_int 1;
      eth_dst = Mac.broadcast;
      vlan = Vlan.untagged;
      eth_payload = Packet.Raw_eth (Ethertype.Arp, "arp-body");
    }
  in
  let decoded = decode_ok (Packet.encode pkt) in
  check Alcotest.bool "non-ip roundtrip" true (pkt = decoded);
  check Alcotest.bool "no five tuple" true (Packet.five_tuple decoded = None)

(* --- Pcap --- *)

let test_pcap_roundtrip () =
  let buf = Buffer.create 256 in
  let w = Pcap.create_writer buf in
  let p1 =
    Packet.tcp_syn ~src:(Ipv4.of_string "10.0.0.1") ~dst:(Ipv4.of_string "10.0.0.2")
      ~src_port:1000 ~dst_port:80 ()
  in
  let p2 =
    Packet.udp_datagram ~src:(Ipv4.of_string "10.0.0.2")
      ~dst:(Ipv4.of_string "10.0.0.1") ~src_port:53 ~dst_port:999 ~payload:"x" ()
  in
  Pcap.write_packet w ~ts_us:100 p1;
  Pcap.write_packet w ~ts_us:2_000_500 p2;
  check Alcotest.int "two records" 2 (Pcap.packet_count w);
  match Pcap.parse (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok [ r1; r2 ] ->
      check Alcotest.int "ts1" 100 r1.Pcap.ts_us;
      check Alcotest.int "ts2" 2_000_500 r2.Pcap.ts_us;
      check Alcotest.bool "frame 1 re-decodes" true
        (match Packet.decode r1.Pcap.frame with
        | Ok p -> p = p1
        | Error _ -> false);
      check Alcotest.bool "frame 2 re-decodes" true
        (match Packet.decode r2.Pcap.frame with
        | Ok p -> p = p2
        | Error _ -> false)
  | Ok _ -> Alcotest.fail "expected two records"

let test_pcap_header_bytes () =
  let buf = Buffer.create 64 in
  ignore (Pcap.create_writer buf);
  let h = Buffer.contents buf in
  check Alcotest.int "24-byte header" 24 (String.length h);
  (* Little-endian magic. *)
  check Alcotest.string "magic" "\xd4\xc3\xb2\xa1" (String.sub h 0 4);
  (* Network = Ethernet (1). *)
  check Alcotest.int "linktype" 1 (Char.code h.[20])

let test_pcap_snaplen_truncates () =
  let buf = Buffer.create 64 in
  let w = Pcap.create_writer ~snaplen:20 buf in
  Pcap.write_bytes w ~ts_us:0 (String.make 100 'z');
  match Pcap.parse (Buffer.contents buf) with
  | Ok [ r ] ->
      check Alcotest.int "captured 20" 20 (String.length r.Pcap.frame);
      check Alcotest.int "orig 100" 100 r.Pcap.orig_len
  | _ -> Alcotest.fail "expected one record"

let test_pcap_rejects_garbage () =
  (match Pcap.parse "short" with Error _ -> () | Ok _ -> Alcotest.fail "short accepted");
  match Pcap.parse (String.make 24 '\x00') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

(* --- property tests --- *)

let gen_ip = QCheck.Gen.map Ipv4.of_int (QCheck.Gen.int_bound 0xffff_ffff)
let gen_port = QCheck.Gen.int_bound 0xffff

let gen_payload =
  QCheck.Gen.map (fun n -> String.make n 'x') (QCheck.Gen.int_bound 200)

let gen_packet =
  QCheck.Gen.(
    let* src = gen_ip in
    let* dst = gen_ip in
    let* sp = gen_port in
    let* dp = gen_port in
    let* payload = gen_payload in
    let* kind = int_bound 2 in
    match kind with
    | 0 ->
        return
          (Packet.udp_datagram ~src ~dst ~src_port:sp ~dst_port:dp ~payload ())
    | 1 -> return (Packet.tcp_syn ~src ~dst ~src_port:sp ~dst_port:dp ())
    | _ ->
        return
          (Packet.of_five_tuple
             (Five_tuple.make ~src ~dst ~proto:Proto.Icmp ~src_port:0 ~dst_port:0)))

let arb_packet =
  QCheck.make gen_packet ~print:(fun p -> Format.asprintf "%a" Packet.pp p)

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet encode/decode roundtrip" ~count:300 arb_packet
    (fun pkt ->
      match Packet.decode (Packet.encode pkt) with
      | Ok decoded -> pkt = decoded
      | Error _ -> false)

let prop_checksums_validate =
  QCheck.Test.make ~name:"encoded packets carry valid checksums" ~count:300
    arb_packet (fun pkt ->
      match Packet.decode ~check:true (Packet.encode pkt) with
      | Ok _ -> true
      | Error _ -> false)

(* Every frame shape, tagged or not, with payloads from empty to past
   the ~1.8 KB of a signed ident++ answer. *)
let gen_any_frame =
  QCheck.Gen.(
    let* src = gen_ip in
    let* dst = gen_ip in
    let* sp = gen_port in
    let* dp = gen_port in
    let* payload =
      map (fun n -> String.make n 'p')
        (oneof [ return 0; int_bound 64; int_range 1800 2400 ])
    in
    let* vlan = oneof [ return Vlan.untagged; map Vlan.of_id (int_bound 4095) ] in
    let ip_payload =
      oneofl
        [
          Packet.Tcp
            {
              tcp_src = sp;
              tcp_dst = dp;
              seq = 7l;
              ack_no = 0l;
              flags = Packet.flags_psh_ack;
              window = 512;
              tcp_payload = payload;
            };
          Packet.Udp { udp_src = sp; udp_dst = dp; udp_payload = payload };
          Packet.Icmp { icmp_type = 8; icmp_code = 0; icmp_payload = payload };
          Packet.Raw_ip (Proto.Other 47, payload);
        ]
    in
    let* eth_payload =
      oneof
        [
          map
            (fun payload ->
              Packet.Ip { ip_src = src; ip_dst = dst; ttl = 64; payload })
            ip_payload;
          map
            (fun et -> Packet.Raw_eth (et, payload))
            (oneofl [ Ethertype.Arp; Ethertype.Other 0x88cc ]);
        ]
    in
    return
      { Packet.eth_src = Mac.of_int 1; eth_dst = Mac.of_int 2; vlan; eth_payload })

let prop_size_is_encoded_length =
  QCheck.Test.make ~name:"packet size is the encoded length" ~count:500
    (QCheck.make gen_any_frame ~print:(fun p ->
         Format.asprintf "%a (%d bytes encoded)" Packet.pp p
           (String.length (Packet.encode p))))
    (fun pkt -> Packet.size pkt = String.length (Packet.encode pkt))

let gen_prefix =
  QCheck.Gen.(
    let* ip = gen_ip in
    let* len = int_bound 32 in
    return (Prefix.make ip len))

let prop_prefix_mem_first_last =
  QCheck.Test.make ~name:"prefix contains its first and last address"
    ~count:300
    (QCheck.make gen_prefix ~print:Prefix.to_string)
    (fun p -> Prefix.mem (Prefix.first p) p && Prefix.mem (Prefix.last p) p)

let prop_prefix_subset_reflexive =
  QCheck.Test.make ~name:"prefix subset is reflexive" ~count:300
    (QCheck.make gen_prefix ~print:Prefix.to_string)
    (fun p -> Prefix.subset p p)

let prop_ipv4_string_roundtrip =
  QCheck.Test.make ~name:"ipv4 string roundtrip" ~count:500
    (QCheck.make gen_ip ~print:Ipv4.to_string) (fun a ->
      Ipv4.equal a (Ipv4.of_string (Ipv4.to_string a)))

(* Five-tuples at the edges of every field: every protocol a flow can
   carry (each [Proto.Other] number in [0, 255] that no named protocol
   has), ports 0 and 65535, addresses up to 2^32 - 1. *)
let gen_five_tuple =
  QCheck.Gen.(
    let edge_port = oneof [ return 0; return 0xffff; gen_port ] in
    let* src = oneof [ gen_ip; return (Ipv4.of_int 0xffff_ffff); return Ipv4.any ] in
    let* dst = gen_ip in
    let* proto =
      oneof
        [
          oneofl Proto.[ Icmp; Tcp; Udp ];
          map Proto.of_int (int_bound 255);
        ]
    in
    let* src_port = edge_port in
    let* dst_port = edge_port in
    return (Five_tuple.make ~src ~dst ~proto ~src_port ~dst_port))

let prop_five_tuple_hash_is_runtime_hash =
  QCheck.Test.make ~name:"five-tuple hash is Hashtbl.hash of its fields"
    ~count:2000
    (QCheck.make gen_five_tuple ~print:(fun (t : Five_tuple.t) ->
         Printf.sprintf "%s (proto %d)" (Five_tuple.to_string t)
           (Proto.to_int t.proto)))
    (fun t ->
      Five_tuple.hash t
      = Hashtbl.hash
          ( Ipv4.to_int t.src,
            Ipv4.to_int t.dst,
            Proto.to_int t.proto,
            t.src_port,
            t.dst_port ))

(* [hash_ints] over any ints, not only a flow's: it replays the
   runtime's hash of the int tuple whatever the ints. *)
let prop_hash_ints_is_runtime_hash =
  QCheck.Test.make ~name:"hash_ints is Hashtbl.hash of any five ints"
    ~count:2000
    QCheck.(tup5 int int int int int)
    (fun (src, dst, proto, src_port, dst_port) ->
      Five_tuple.hash_ints ~src ~dst ~proto ~src_port ~dst_port
      = Hashtbl.hash (src, dst, proto, src_port, dst_port))

(* [is_text_sub] against strings near an address's text: the text itself,
   another address's, and the text with one character changed, dropped
   or added. *)
let prop_ipv4_is_text =
  QCheck.Test.make ~name:"ipv4 is_text is equality with to_string" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         let* a = gen_ip in
         let text = Ipv4.to_string a in
         let* pos = int_bound (String.length text) in
         let* c = oneof [ char_range '0' '9'; return '.'; return '0'; char ] in
         let* s =
           oneof
             [
               return text;
               map Ipv4.to_string gen_ip;
               return (String.sub text 0 pos);
               return
                 (String.sub text 0 pos ^ String.make 1 c
                 ^ String.sub text pos (String.length text - pos));
               return
                 (String.mapi (fun i x -> if i = pos then c else x) text);
             ]
         in
         return (a, s))
       ~print:(fun (a, s) -> Printf.sprintf "%s vs %S" (Ipv4.to_string a) s))
    (fun (a, s) ->
      Ipv4.is_text_sub a ("<" ^ s ^ ">") 1 (String.length s + 1)
      = String.equal s (Ipv4.to_string a))

let prop_mac_string_roundtrip =
  QCheck.Test.make ~name:"mac string roundtrip" ~count:500
    (QCheck.make
       (QCheck.Gen.map Mac.of_int (QCheck.Gen.int_bound ((1 lsl 48) - 1)))
       ~print:Mac.to_string)
    (fun m -> Mac.equal m (Mac.of_string (Mac.to_string m)))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "netcore"
    [
      ( "mac",
        [
          Alcotest.test_case "string roundtrip" `Quick test_mac_string_roundtrip;
          Alcotest.test_case "case insensitive" `Quick test_mac_case_insensitive;
          Alcotest.test_case "bad strings" `Quick test_mac_bad_strings;
          Alcotest.test_case "bytes roundtrip" `Quick test_mac_bytes_roundtrip;
          Alcotest.test_case "flags" `Quick test_mac_flags;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "string roundtrip" `Quick test_ipv4_string_roundtrip;
          Alcotest.test_case "bad strings" `Quick test_ipv4_bad_strings;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "succ wraps" `Quick test_ipv4_succ_wraps;
          Alcotest.test_case "classification" `Quick test_ipv4_classification;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "parse and canonical" `Quick test_prefix_parse_and_canonical;
          Alcotest.test_case "membership" `Quick test_prefix_membership;
          Alcotest.test_case "subset/overlap" `Quick test_prefix_subset_overlap;
          Alcotest.test_case "bounds" `Quick test_prefix_bounds;
          Alcotest.test_case "bad inputs" `Quick test_prefix_bad;
        ] );
      ( "scalars",
        [
          Alcotest.test_case "proto" `Quick test_proto_roundtrip;
          Alcotest.test_case "vlan" `Quick test_vlan;
          Alcotest.test_case "ethertype" `Quick test_ethertype;
        ] );
      ( "five_tuple",
        [
          Alcotest.test_case "reverse involution" `Quick
            test_five_tuple_reverse_involution;
          Alcotest.test_case "rejects bad port" `Quick
            test_five_tuple_rejects_bad_port;
          Alcotest.test_case "rejects odd protocols" `Quick
            test_five_tuple_rejects_odd_protocols;
          Alcotest.test_case "hash allocates nothing" `Quick
            test_five_tuple_hash_alloc;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          Alcotest.test_case "verify self" `Quick test_checksum_verify_self;
        ] );
      ( "packet",
        [
          Alcotest.test_case "tcp roundtrip" `Quick test_packet_tcp_roundtrip;
          Alcotest.test_case "udp roundtrip" `Quick test_packet_udp_roundtrip;
          Alcotest.test_case "vlan roundtrip" `Quick test_packet_vlan_roundtrip;
          Alcotest.test_case "corrupt checksum rejected" `Quick
            test_packet_corrupt_checksum_rejected;
          Alcotest.test_case "truncation rejected" `Quick
            test_packet_truncated_rejected;
          Alcotest.test_case "five tuple extraction" `Quick
            test_packet_five_tuple_extraction;
          Alcotest.test_case "non-ip frames" `Quick test_packet_non_ip;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "header bytes" `Quick test_pcap_header_bytes;
          Alcotest.test_case "snaplen truncates" `Quick test_pcap_snaplen_truncates;
          Alcotest.test_case "rejects garbage" `Quick test_pcap_rejects_garbage;
        ] );
      ( "properties",
        qc
          [
            prop_packet_roundtrip;
            prop_checksums_validate;
            prop_size_is_encoded_length;
            prop_prefix_mem_first_last;
            prop_prefix_subset_reflexive;
            prop_ipv4_string_roundtrip;
            prop_mac_string_roundtrip;
            prop_five_tuple_hash_is_runtime_hash;
            prop_hash_ints_is_runtime_hash;
            prop_ipv4_is_text;
          ] );
    ]
