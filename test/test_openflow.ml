(* Tests for the OpenFlow substrate: match semantics, flow tables
   (priority, timeouts, capacity), switch processing, topology routing
   and the network fabric. *)

open Netcore
module MF = Openflow.Match_fields
module FT = Openflow.Flow_table
module FE = Openflow.Flow_entry
module Topo = Openflow.Topology

let check = Alcotest.check
let ip = Ipv4.of_string

let pkt ?(src = "10.0.0.1") ?(dst = "10.0.0.2") ?(sp = 1000) ?(dp = 80) () =
  Packet.tcp_syn ~src:(ip src) ~dst:(ip dst) ~src_port:sp ~dst_port:dp ()

(* --- Match_fields --- *)

let test_any_matches_everything () =
  check Alcotest.bool "ip packet" true (MF.matches MF.any ~in_port:3 (pkt ()));
  let non_ip =
    {
      Packet.eth_src = Mac.zero;
      eth_dst = Mac.zero;
      vlan = Vlan.untagged;
      eth_payload = Packet.Raw_eth (Ethertype.Arp, "x");
    }
  in
  check Alcotest.bool "non-ip packet" true (MF.matches MF.any ~in_port:0 non_ip)

let test_exact_match_roundtrip () =
  let p = pkt () in
  let m = MF.exact ~in_port:7 p in
  check Alcotest.bool "matches itself" true (MF.matches m ~in_port:7 p);
  check Alcotest.bool "wrong port" false (MF.matches m ~in_port:8 p);
  check Alcotest.bool "is exact" true (MF.is_exact m);
  check Alcotest.int "no wildcards" 0 (MF.wildcard_count m)

let test_five_tuple_match_ignores_l2 () =
  let p = pkt () in
  let m =
    MF.of_five_tuple (Option.get (Packet.five_tuple p))
  in
  let p2 = { p with Packet.eth_src = Mac.of_int 99 } in
  check Alcotest.bool "different mac still matches" true
    (MF.matches m ~in_port:5 p2)

let test_prefix_wildcard_match () =
  let m = { MF.any with MF.nw_src = Some (Prefix.of_string "10.0.0.0/24") } in
  check Alcotest.bool "in prefix" true (MF.matches m ~in_port:0 (pkt ~src:"10.0.0.77" ()));
  check Alcotest.bool "out of prefix" false (MF.matches m ~in_port:0 (pkt ~src:"10.0.1.77" ()))

let test_network_fields_block_non_ip () =
  let m = { MF.any with MF.nw_proto = Some Proto.Tcp } in
  let non_ip =
    {
      Packet.eth_src = Mac.zero;
      eth_dst = Mac.zero;
      vlan = Vlan.untagged;
      eth_payload = Packet.Raw_eth (Ethertype.Arp, "x");
    }
  in
  check Alcotest.bool "non-ip does not match nw field" false
    (MF.matches m ~in_port:0 non_ip)

let test_covers () =
  let wide = { MF.any with MF.nw_src = Some (Prefix.of_string "10.0.0.0/8") } in
  let narrow = { MF.any with MF.nw_src = Some (Prefix.of_string "10.1.0.0/16") } in
  check Alcotest.bool "wide covers narrow" true (MF.covers wide narrow);
  check Alcotest.bool "narrow does not cover wide" false (MF.covers narrow wide);
  check Alcotest.bool "any covers all" true (MF.covers MF.any narrow)

(* --- Flow_table --- *)

let entry ?(priority = 0x8000) ?idle ?hard ?(installed = Sim.Time.zero) fields
    actions =
  FE.make ~priority ?idle_timeout:idle ?hard_timeout:hard
    ~installed_at:installed ~fields actions

let test_table_priority_wins () =
  let t = FT.create () in
  FT.add t (entry ~priority:10 MF.any [ Openflow.Action.Output 1 ]);
  FT.add t
    (entry ~priority:20
       { MF.any with MF.tp_dst = Some 80 }
       [ Openflow.Action.Output 2 ]);
  match FT.lookup t ~in_port:0 (pkt ~dp:80 ()) with
  | Some e -> check Alcotest.int "high priority entry" 20 e.FE.priority
  | None -> Alcotest.fail "expected a match"

let test_table_replace_same_match () =
  let t = FT.create () in
  FT.add t (entry MF.any [ Openflow.Action.Output 1 ]);
  FT.add t (entry MF.any [ Openflow.Action.Output 2 ]);
  check Alcotest.int "replaced, not duplicated" 1 (FT.size t);
  match FT.lookup t ~in_port:0 (pkt ()) with
  | Some e ->
      check Alcotest.(list int) "new actions" [ 2 ]
        (Openflow.Action.output_ports e.FE.actions)
  | None -> Alcotest.fail "expected a match"

let test_table_idle_timeout () =
  let t = FT.create () in
  FT.add t (entry ~idle:(Sim.Time.ms 10) MF.any [ Openflow.Action.Output 1 ]);
  check Alcotest.int "before timeout" 0 (FT.expire t ~now:(Sim.Time.ms 5));
  check Alcotest.int "after timeout" 1 (FT.expire t ~now:(Sim.Time.ms 20));
  check Alcotest.int "empty" 0 (FT.size t)

let test_table_idle_refreshes_on_hit () =
  let t = FT.create () in
  FT.add t (entry ~idle:(Sim.Time.ms 10) MF.any [ Openflow.Action.Output 1 ]);
  (match FT.lookup t ~in_port:0 (pkt ()) with
  | Some e -> FE.hit e ~now:(Sim.Time.ms 8) ~size:100
  | None -> Alcotest.fail "expected match");
  check Alcotest.int "hit extended life" 0 (FT.expire t ~now:(Sim.Time.ms 15));
  check Alcotest.int "eventually expires" 1 (FT.expire t ~now:(Sim.Time.ms 30))

let test_table_hard_timeout () =
  let t = FT.create () in
  FT.add t (entry ~hard:(Sim.Time.ms 10) MF.any [ Openflow.Action.Output 1 ]);
  (match FT.lookup t ~in_port:0 (pkt ()) with
  | Some e -> FE.hit e ~now:(Sim.Time.ms 9) ~size:1
  | None -> Alcotest.fail "expected match");
  check Alcotest.int "hard timeout ignores hits" 1 (FT.expire t ~now:(Sim.Time.ms 11))

let test_table_capacity_evicts_lru () =
  let t = FT.create ~capacity:2 () in
  let m dp = { MF.any with MF.tp_dst = Some dp } in
  FT.add t (entry (m 80) [ Openflow.Action.Output 1 ]);
  FT.add t (entry (m 443) [ Openflow.Action.Output 2 ]);
  (* Touch the :80 entry so :443 is least recently used. *)
  (match FT.lookup t ~in_port:0 (pkt ~dp:80 ()) with
  | Some e -> FE.hit e ~now:(Sim.Time.ms 5) ~size:1
  | None -> Alcotest.fail "expected match");
  FT.add t (entry (m 22) [ Openflow.Action.Output 3 ]);
  check Alcotest.int "capacity respected" 2 (FT.size t);
  check Alcotest.bool ":443 evicted" true
    (FT.lookup t ~in_port:0 (pkt ~dp:443 ()) = None);
  check Alcotest.bool ":80 kept" true
    (FT.lookup t ~in_port:0 (pkt ~dp:80 ()) <> None)

let test_table_wildcard_delete () =
  let t = FT.create () in
  let m p = { MF.any with MF.nw_src = Some (Prefix.of_string p) } in
  FT.add t (entry (m "10.1.0.0/16") [ Openflow.Action.Output 1 ]);
  FT.add t (entry (m "10.2.0.0/16") [ Openflow.Action.Output 2 ]);
  FT.remove_matching t ~fields:(m "10.0.0.0/8");
  check Alcotest.int "both covered entries removed" 0 (FT.size t)

let test_table_miss_counting () =
  let t = FT.create () in
  ignore (FT.lookup t ~in_port:0 (pkt ()));
  FT.add t (entry MF.any [ Openflow.Action.Output 1 ]);
  ignore (FT.lookup t ~in_port:0 (pkt ()));
  check Alcotest.int "one miss" 1 (FT.misses t);
  check Alcotest.int "one hit" 1 (FT.hits t)

(* Allocation and footprint gates. Both measures are deterministic:
   the same code path allocates the same words on every run. *)
let tuple_fields i =
  MF.of_five_tuple
    (Five_tuple.tcp ~src:(Ipv4.of_int (0x0a000000 + i)) ~dst:(ip "10.9.9.9")
       ~src_port:1000 ~dst_port:80)

(* Minor words per add + expire + strict delete on a table pre-filled
   with [n] long-lived five-tuple entries. *)
let churn_words n =
  let out = [ Openflow.Action.Output 1 ] in
  let t = FT.create () in
  for i = 1 to n do
    FT.add t (entry ~idle:(Sim.Time.s 3600) (tuple_fields i) out)
  done;
  let timed = entry ~idle:(Sim.Time.ms 1) (tuple_fields (-1)) out in
  let plain = entry (tuple_fields (-2)) out in
  let rounds = 1000 in
  let expired = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    FT.add t timed;
    expired := !expired + FT.expire t ~now:(Sim.Time.ms 2);
    FT.add t plain;
    FT.remove t ~fields:plain.FE.fields
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  check Alcotest.int "every round expired its entry" rounds !expired;
  check Alcotest.int "prefill intact" n (FT.size t);
  words

let test_table_churn_alloc_flat () =
  let small = churn_words 10 and large = churn_words 1000 in
  if large > 2.0 *. small then
    Alcotest.failf "%.0f words/op at 1000 entries vs %.0f at 10" large small

let test_table_replace_footprint () =
  let fresh () =
    entry ~idle:(Sim.Time.s 30) (tuple_fields 1) [ Openflow.Action.Output 1 ]
  in
  let once = FT.create () in
  FT.add once (fresh ());
  let churned = FT.create () in
  for _ = 1 to 10_000 do
    FT.add churned (fresh ())
  done;
  check Alcotest.int "one live entry" 1 (FT.size churned);
  (* Each leaked heap slot would hold at least 9 words, so a leak shows
     as ~90k words; 512 leaves room for stale cells of the heap array. *)
  let words t = Obj.reachable_words (Obj.repr t) in
  if words churned > words once + 512 then
    Alcotest.failf "%d words after 10000 re-adds vs %d after one"
      (words churned) (words once)

(* Reference model: the table semantics against a naive list scan. *)
let prop_table_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (let* prio = int_range 1 100 in
         let* dp = int_range 0 3 in
         let* src_oct = int_range 0 3 in
         return (prio, dp, src_oct)))
  in
  QCheck.Test.make ~name:"flow table agrees with naive reference" ~count:200
    (QCheck.make gen) (fun specs ->
      let t = FT.create () in
      let mk (prio, dp, src_oct) =
        entry ~priority:prio
          {
            MF.any with
            MF.tp_dst = Some (80 + dp);
            MF.nw_src = Some (Prefix.of_string (Printf.sprintf "10.0.%d.0/24" src_oct));
          }
          [ Openflow.Action.Output prio ]
      in
      let entries = List.map mk specs in
      List.iter (FT.add t) entries;
      let probe = pkt ~src:"10.0.1.5" ~dp:81 () in
      let expected =
        (* Highest priority among matching; ties -> latest added. *)
        List.fold_left
          (fun acc (e : FE.t) ->
            if MF.matches e.FE.fields ~in_port:0 probe then
              match acc with
              | None -> Some e
              | Some (best : FE.t) ->
                  if e.FE.priority > best.FE.priority then Some e else acc
            else acc)
          None
          (* Scan in add order; replace on >= priority prefers later adds. *)
          (List.filter
             (fun (e : FE.t) ->
               (* mirror replacement of identical (fields, priority) *)
               let later_identical =
                 List.exists
                   (fun (e' : FE.t) ->
                     e' != e && e'.FE.priority = e.FE.priority
                     && MF.equal e'.FE.fields e.FE.fields
                     &&
                     (* e' added after e? approximate by physical order *)
                     let rec after = function
                       | [] -> false
                       | x :: rest -> if x == e then List.memq e' rest else after rest
                     in
                     after entries)
                   entries
               in
               not later_identical)
             entries)
      in
      let got = FT.lookup t ~in_port:0 probe in
      match (expected, got) with
      | None, None -> true
      | Some e, Some g -> e.FE.priority = g.FE.priority
      | _ -> false)

(* --- Switch --- *)

let test_switch_miss_goes_to_controller () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] () in
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()) with
  | Openflow.Switch.Send_to_controller -> ()
  | _ -> Alcotest.fail "miss must go to controller"

let test_switch_forwards_on_hit () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] () in
  FT.add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Output 2 ]);
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()) with
  | Openflow.Switch.Forward [ 2 ] -> ()
  | _ -> Alcotest.fail "expected forward to port 2"

let test_switch_flood_excludes_ingress () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] () in
  FT.add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Flood ]);
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:2 (pkt ()) with
  | Openflow.Switch.Forward ports ->
      check Alcotest.(list int) "floods others" [ 1; 3 ] ports
  | _ -> Alcotest.fail "expected flood"

let test_switch_drop () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  FT.add (Openflow.Switch.table sw) (entry MF.any Openflow.Action.drop);
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()) with
  | Openflow.Switch.Dropped -> ()
  | _ -> Alcotest.fail "expected drop"

let test_switch_flow_mod_and_counters () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  ignore
    (Openflow.Switch.apply sw ~now:Sim.Time.zero
       (Openflow.Message.add_flow ~fields:MF.any [ Openflow.Action.Output 2 ]));
  ignore (Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()));
  match FT.entries (Openflow.Switch.table sw) with
  | [ e ] ->
      check Alcotest.int "packet counter" 1 e.FE.packets;
      check Alcotest.bool "byte counter" true (e.FE.bytes > 0)
  | _ -> Alcotest.fail "expected one entry"

let test_switch_packet_out_table () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  FT.add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Output 2 ]);
  match
    Openflow.Switch.apply sw ~now:Sim.Time.zero
      (Openflow.Message.Packet_out { Openflow.Message.out_packet = pkt (); out_port = `Table })
  with
  | Openflow.Switch.Emit ([ 2 ], _) -> ()
  | _ -> Alcotest.fail "expected table-directed packet-out to port 2"

let test_switch_stats_snapshot () =
  let sw = Openflow.Switch.create ~dpid:7 ~ports:[ 1; 2 ] () in
  FT.add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Output 2 ]);
  (* Two packets hit the entry, one lookup total count check. *)
  ignore (Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()));
  ignore (Openflow.Switch.process sw ~now:(Sim.Time.ms 1) ~in_port:1 (pkt ()));
  match
    Openflow.Switch.apply sw ~now:(Sim.Time.ms 2)
      (Openflow.Message.Stats_request { xid = 42 })
  with
  | Openflow.Switch.Reply (Openflow.Message.Stats_reply r) ->
      check Alcotest.int "dpid" 7 r.Openflow.Message.st_dpid;
      check Alcotest.int "xid echoed" 42 r.Openflow.Message.st_xid;
      check Alcotest.int "lookups" 2 r.Openflow.Message.st_lookups;
      check Alcotest.int "matched" 2 r.Openflow.Message.st_matched;
      (match r.Openflow.Message.st_flows with
      | [ st ] ->
          check Alcotest.int "entry packets" 2 st.Openflow.Message.st_packets;
          check Alcotest.bool "entry bytes" true (st.Openflow.Message.st_bytes > 0);
          check Alcotest.int "age" 2_000_000
            (Sim.Time.to_ns st.Openflow.Message.st_age)
      | _ -> Alcotest.fail "expected one flow stat")
  | _ -> Alcotest.fail "expected a stats reply"

(* --- Topology --- *)

let diamond () =
  (* h1 - s1 - s2 - h2, plus a slow alternative s1 - s3 - s2. *)
  let t = Topo.create () in
  List.iter (Topo.add_switch t) [ 1; 2; 3 ];
  List.iter (Topo.add_host t) [ "h1"; "h2" ];
  Topo.link t (Topo.Host "h1", 0) (Topo.Sw 1, 1);
  Topo.link t (Topo.Host "h2", 0) (Topo.Sw 2, 1);
  Topo.link t ~latency:(Sim.Time.us 10) (Topo.Sw 1, 2) (Topo.Sw 2, 2);
  Topo.link t ~latency:(Sim.Time.ms 10) (Topo.Sw 1, 3) (Topo.Sw 3, 1);
  Topo.link t ~latency:(Sim.Time.ms 10) (Topo.Sw 3, 2) (Topo.Sw 2, 3);
  t

let test_topology_shortest_path () =
  let t = diamond () in
  match Topo.switch_path t ~src:"h1" ~dst:"h2" with
  | Some [ (1, 1, 2); (2, 2, 1) ] -> ()
  | Some hops ->
      Alcotest.failf "unexpected path: %s"
        (String.concat ";"
           (List.map (fun (d, i, o) -> Printf.sprintf "(%d,%d,%d)" d i o) hops))
  | None -> Alcotest.fail "no path"

let test_topology_next_hop () =
  let t = diamond () in
  check Alcotest.(option int) "next hop from s1 to h2" (Some 2)
    (Topo.next_hop t ~from:1 ~dst_host:"h2");
  check Alcotest.(option int) "next hop from s3 to h2" (Some 2)
    (Topo.next_hop t ~from:3 ~dst_host:"h2")

let test_topology_unreachable () =
  let t = Topo.create () in
  Topo.add_host t "isolated";
  Topo.add_host t "other";
  Topo.add_switch t 1;
  Topo.link t (Topo.Host "other", 0) (Topo.Sw 1, 1);
  check Alcotest.bool "no path to isolated host" true
    (Topo.switch_path t ~src:"other" ~dst:"isolated" = None)

let test_topology_rejects_double_wiring () =
  let t = Topo.create () in
  Topo.add_switch t 1;
  Topo.add_host t "h";
  Topo.link t (Topo.Host "h", 0) (Topo.Sw 1, 1);
  (try
     Topo.link t (Topo.Host "h", 0) (Topo.Sw 1, 2);
     Alcotest.fail "double wiring accepted"
   with Invalid_argument _ -> ());
  check Alcotest.bool "host attachment found" true
    (Topo.host_attachment t "h" <> None)

let test_topology_hosts_do_not_transit () =
  (* h-in-the-middle must not be used as a transit node. *)
  let t = Topo.create () in
  List.iter (Topo.add_switch t) [ 1; 2 ];
  List.iter (Topo.add_host t) [ "a"; "m"; "b" ];
  Topo.link t (Topo.Host "a", 0) (Topo.Sw 1, 1);
  Topo.link t (Topo.Host "b", 0) (Topo.Sw 2, 1);
  (* "m" is dual-homed to both switches; switches are NOT linked. *)
  Topo.link t (Topo.Host "m", 0) (Topo.Sw 1, 2);
  Topo.link t (Topo.Host "m", 1) (Topo.Sw 2, 2);
  check Alcotest.bool "no path through a host" true
    (Topo.switch_path t ~src:"a" ~dst:"b" = None)

(* --- Network fabric --- *)

let test_network_delivers_with_latency () =
  let engine = Sim.Engine.create () in
  let t = Topo.create () in
  Topo.add_switch t 1;
  List.iter (Topo.add_host t) [ "h1"; "h2" ];
  Topo.link t ~latency:(Sim.Time.us 100) (Topo.Host "h1", 0) (Topo.Sw 1, 1);
  Topo.link t ~latency:(Sim.Time.us 100) (Topo.Host "h2", 0) (Topo.Sw 1, 2);
  let net = Openflow.Network.create ~engine ~topology:t () in
  (* Pre-install forwarding so no controller is needed. *)
  ignore
    (Openflow.Switch.apply
       (Openflow.Network.switch net 1)
       ~now:Sim.Time.zero
       (Openflow.Message.add_flow ~fields:MF.any [ Openflow.Action.Output 2 ]));
  let received_at = ref None in
  Openflow.Network.attach_host net ~name:"h1" ~mac:(Mac.of_int 1) ~ip:(ip "10.0.0.1")
    ~rx:(fun _ -> ());
  Openflow.Network.attach_host net ~name:"h2" ~mac:(Mac.of_int 2) ~ip:(ip "10.0.0.2")
    ~rx:(fun _ -> received_at := Some (Sim.Engine.now engine));
  Openflow.Network.send_from_host net ~name:"h1" (pkt ());
  Sim.Engine.run engine;
  match !received_at with
  | Some at -> check Alcotest.int "two links of latency" 200_000 (Sim.Time.to_ns at)
  | None -> Alcotest.fail "packet not delivered"

let test_network_egress_accounting () =
  let engine = Sim.Engine.create () in
  let t = Topo.create () in
  Topo.add_switch t 1;
  List.iter (Topo.add_host t) [ "h1"; "h2" ];
  Topo.link t (Topo.Host "h1", 0) (Topo.Sw 1, 1);
  Topo.link t (Topo.Host "h2", 0) (Topo.Sw 1, 2);
  let net = Openflow.Network.create ~engine ~topology:t () in
  ignore
    (Openflow.Switch.apply
       (Openflow.Network.switch net 1)
       ~now:Sim.Time.zero
       (Openflow.Message.add_flow ~fields:MF.any [ Openflow.Action.Output 2 ]));
  Openflow.Network.attach_host net ~name:"h1" ~mac:(Mac.of_int 1) ~ip:(ip "10.0.0.1")
    ~rx:(fun _ -> ());
  Openflow.Network.attach_host net ~name:"h2" ~mac:(Mac.of_int 2) ~ip:(ip "10.0.0.2")
    ~rx:(fun _ -> ());
  for _ = 1 to 3 do
    Openflow.Network.send_from_host net ~name:"h1" (pkt ())
  done;
  Sim.Engine.run engine;
  check Alcotest.int "egress packets at s1:2" 3
    (Openflow.Network.egress_packets net ~node:(Topo.Sw 1) ~port:2);
  check Alcotest.int "delivered" 3 (Openflow.Network.delivered net)

let test_network_host_by_ip () =
  let engine = Sim.Engine.create () in
  let t = Topo.create () in
  Topo.add_switch t 1;
  List.iter (Topo.add_host t) [ "h1"; "h2" ];
  Topo.link t (Topo.Host "h1", 0) (Topo.Sw 1, 1);
  Topo.link t (Topo.Host "h2", 0) (Topo.Sw 1, 2);
  let net = Openflow.Network.create ~engine ~topology:t () in
  let attach name addr =
    Openflow.Network.attach_host net ~name ~mac:(Mac.of_int 1) ~ip:(ip addr)
      ~rx:(fun _ -> ())
  in
  let owner addr = Openflow.Network.host_by_ip net (ip addr) in
  let name = Alcotest.(option string) in
  attach "h1" "10.0.0.1";
  attach "h2" "10.0.0.2";
  check name "h1 by address" (Some "h1") (owner "10.0.0.1");
  check name "unknown address" None (owner "10.0.0.9");
  (* Re-attaching h1 under a new address retires the old one. *)
  attach "h1" "10.0.0.3";
  check name "old address gone" None (owner "10.0.0.1");
  check name "new address" (Some "h1") (owner "10.0.0.3");
  check name "h2 untouched" (Some "h2") (owner "10.0.0.2")

(* Mixed indexable/wildcard entries: the hash fast path must agree with
   a naive highest-priority scan on random tables and probes. *)
let prop_fast_path_agrees_with_naive =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 25)
           (let* indexable = bool in
            let* prio = int_range 1 50 in
            let* a = int_range 1 4 in
            let* b = int_range 1 4 in
            let* dp = int_range 80 83 in
            return (indexable, prio, a, b, dp)))
        (pair (int_range 1 4) (pair (int_range 1 4) (int_range 80 83))))
  in
  QCheck.Test.make ~name:"fast path agrees with naive scan" ~count:400
    (QCheck.make gen) (fun (specs, (pa, (pb, pdp))) ->
      let t = FT.create () in
      let mk (indexable, prio, a, b, dp) =
        let fields =
          if indexable then
            MF.of_five_tuple
              (Five_tuple.tcp
                 ~src:(ip (Printf.sprintf "10.0.0.%d" a))
                 ~dst:(ip (Printf.sprintf "10.0.1.%d" b))
                 ~src_port:1000 ~dst_port:dp)
          else
            {
              MF.any with
              MF.nw_src = Some (Prefix.of_string (Printf.sprintf "10.0.0.%d/32" a));
              MF.tp_dst = Some dp;
            }
        in
        entry ~priority:prio fields [ Openflow.Action.Output prio ]
      in
      List.iter (fun spec -> FT.add t (mk spec)) specs;
      let probe =
        pkt
          ~src:(Printf.sprintf "10.0.0.%d" pa)
          ~dst:(Printf.sprintf "10.0.1.%d" pb)
          ~sp:1000 ~dp:pdp ()
      in
      let naive =
        List.find_opt
          (fun (e : FE.t) -> MF.matches e.FE.fields ~in_port:0 probe)
          (FT.entries t)
      in
      let got = FT.lookup t ~in_port:0 probe in
      match (naive, got) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false)

(* Stateful model test: random interleavings of add / strict delete /
   wildcard delete / expire / lookup against a naive reference, with
   and without a capacity bound. After every operation the table's
   size, its entries in order and its capacity victims must equal the
   model's. Pins priority order, the recency tie-break, idle and hard
   expiry, and least-recently-hit eviction. *)
module Model = struct
  type entry = {
    fields : MF.t;
    priority : int;
    tag : int;
    mutable last_hit : int; (* ns *)
    installed : int;
    idle : int option;
    hard : int option;
  }

  type t = {
    capacity : int option;
    mutable entries : entry list; (* newest first per priority *)
    mutable evicted : int list; (* victim tags, newest first *)
  }

  let create ?capacity () = { capacity; entries = []; evicted = [] }

  (* Least recently hit; the first in table order wins ties. *)
  let evict_lru t =
    match t.entries with
    | [] -> ()
    | first :: _ ->
        let victim =
          List.fold_left
            (fun acc e -> if e.last_hit < acc.last_hit then e else acc)
            first t.entries
        in
        t.entries <- List.filter (fun e -> e != victim) t.entries;
        t.evicted <- victim.tag :: t.evicted

  let add t e =
    t.entries <-
      List.filter
        (fun x -> not (x.priority = e.priority && MF.equal x.fields e.fields))
        t.entries;
    (match t.capacity with
    | Some cap when List.length t.entries >= cap -> evict_lru t
    | _ -> ());
    let rec insert = function
      | [] -> [ e ]
      | x :: rest as l ->
          if e.priority >= x.priority then e :: l else x :: insert rest
    in
    t.entries <- insert t.entries

  let remove t fields =
    t.entries <- List.filter (fun x -> not (MF.equal x.fields fields)) t.entries

  let remove_matching t fields =
    t.entries <- List.filter (fun x -> not (MF.covers fields x.fields)) t.entries

  let expired e ~now =
    (match e.idle with Some i -> now > e.last_hit + i | None -> false)
    || match e.hard with Some h -> now > e.installed + h | None -> false

  let expire t ~now =
    t.entries <- List.filter (fun e -> not (expired e ~now)) t.entries

  let lookup t ~now pkt =
    expire t ~now;
    List.find_opt (fun e -> MF.matches e.fields ~in_port:0 pkt) t.entries
end

type op =
  | Op_add of bool * int * int * int * int option * int option
      (* indexable, prio, a, dp, idle_ms, hard_ms *)
  | Op_remove of bool * int * int
  | Op_remove_matching of int option * int option (* a, dp; None is wild *)
  | Op_expire of int (* advance ms *)
  | Op_lookup of int * int

let gen_op =
  QCheck.Gen.(
    let* kind = int_bound 12 in
    let* indexable = bool in
    let* prio = int_range 1 4 in
    let* a = int_range 1 3 in
    let* dp = int_range 80 82 in
    if kind < 4 then
      let* idle = option (int_range 1 20) in
      let* hard = option ~ratio:0.3 (int_range 1 30) in
      return (Op_add (indexable, prio, a, dp, idle, hard))
    else if kind < 5 then return (Op_remove (indexable, a, dp))
    else if kind < 6 then
      let* wild_a = bool in
      let* wild_dp = bool in
      return
        (Op_remove_matching
           ( (if wild_a then None else Some a),
             if wild_dp then None else Some dp ))
    else if kind < 9 then
      let* adv = int_range 1 8 in
      return (Op_expire adv)
    else return (Op_lookup (a, dp)))

let fields_of ~indexable ~a ~dp =
  if indexable then
    MF.of_five_tuple
      (Five_tuple.tcp
         ~src:(ip (Printf.sprintf "10.0.0.%d" a))
         ~dst:(ip "10.0.9.9") ~src_port:1000 ~dst_port:dp)
  else
    {
      MF.any with
      MF.nw_src = Some (Prefix.of_string (Printf.sprintf "10.0.0.%d/32" a));
      MF.tp_dst = Some dp;
    }

let ms_to_ns = Option.map (fun m -> m * 1_000_000)

let prop_table_stateful_model =
  QCheck.Test.make ~name:"flow table agrees with model under mutation"
    ~count:400
    (QCheck.make
       QCheck.Gen.(
         pair
           (option ~ratio:0.4 (int_range 1 5))
           (list_size (int_range 1 50) gen_op)))
    (fun (capacity, ops) ->
      let table = FT.create ?capacity () in
      let model = Model.create ?capacity () in
      let evicted = ref [] in
      FT.set_on_evict table (fun e -> evicted := e.FE.cookie :: !evicted);
      let now = ref 0 in
      let tag = ref 0 in
      let step op =
        match op with
        | Op_add (indexable, prio, a, dp, idle_ms, hard_ms) ->
            incr tag;
            let fields = fields_of ~indexable ~a ~dp in
            let to_time = Option.map Sim.Time.ms in
            FT.add table
              (FE.make ~priority:prio ?idle_timeout:(to_time idle_ms)
                 ?hard_timeout:(to_time hard_ms)
                 ~installed_at:(Sim.Time.ms !now) ~cookie:!tag ~fields
                 [ Openflow.Action.Output 1 ]);
            Model.add model
              {
                Model.fields;
                priority = prio;
                tag = !tag;
                last_hit = !now * 1_000_000;
                installed = !now * 1_000_000;
                idle = ms_to_ns idle_ms;
                hard = ms_to_ns hard_ms;
              };
            true
        | Op_remove (indexable, a, dp) ->
            let fields = fields_of ~indexable ~a ~dp in
            FT.remove table ~fields;
            Model.remove model fields;
            true
        | Op_remove_matching (a, dp) ->
            let fields =
              {
                MF.any with
                MF.nw_src =
                  Option.map
                    (fun a -> Prefix.of_string (Printf.sprintf "10.0.0.%d/32" a))
                    a;
                MF.tp_dst = dp;
              }
            in
            FT.remove_matching table ~fields;
            Model.remove_matching model fields;
            true
        | Op_expire adv ->
            now := !now + adv;
            ignore (FT.expire table ~now:(Sim.Time.ms !now));
            Model.expire model ~now:(!now * 1_000_000);
            true
        | Op_lookup (a, dp) ->
            let probe =
              pkt ~src:(Printf.sprintf "10.0.0.%d" a) ~dst:"10.0.9.9"
                ~sp:1000 ~dp ()
            in
            ignore (FT.expire table ~now:(Sim.Time.ms !now));
            let got = FT.lookup table ~in_port:0 probe in
            let want = Model.lookup model ~now:(!now * 1_000_000) probe in
            (* Compare by cookie/tag identity. On a hit, update both
               models' idle timers the way the switch would. *)
            (match got with
            | Some e -> FE.hit e ~now:(Sim.Time.ms !now) ~size:1
            | None -> ());
            (match want with
            | Some m -> m.Model.last_hit <- !now * 1_000_000
            | None -> ());
            (match (got, want) with
            | None, None -> true
            | Some e, Some m -> e.FE.cookie = m.Model.tag
            | _ -> false)
      in
      List.for_all
        (fun op ->
          step op
          && FT.size table = List.length model.Model.entries
          && List.map (fun e -> e.FE.cookie) (FT.entries table)
             = List.map (fun m -> m.Model.tag) model.Model.entries
          && !evicted = model.Model.evicted)
        ops)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "openflow"
    [
      ( "match",
        [
          Alcotest.test_case "any matches everything" `Quick test_any_matches_everything;
          Alcotest.test_case "exact roundtrip" `Quick test_exact_match_roundtrip;
          Alcotest.test_case "five-tuple ignores l2" `Quick
            test_five_tuple_match_ignores_l2;
          Alcotest.test_case "prefix wildcard" `Quick test_prefix_wildcard_match;
          Alcotest.test_case "nw fields block non-ip" `Quick
            test_network_fields_block_non_ip;
          Alcotest.test_case "covers" `Quick test_covers;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "priority wins" `Quick test_table_priority_wins;
          Alcotest.test_case "replace same match" `Quick test_table_replace_same_match;
          Alcotest.test_case "idle timeout" `Quick test_table_idle_timeout;
          Alcotest.test_case "idle refreshes on hit" `Quick
            test_table_idle_refreshes_on_hit;
          Alcotest.test_case "hard timeout" `Quick test_table_hard_timeout;
          Alcotest.test_case "capacity evicts lru" `Quick
            test_table_capacity_evicts_lru;
          Alcotest.test_case "wildcard delete" `Quick test_table_wildcard_delete;
          Alcotest.test_case "miss counting" `Quick test_table_miss_counting;
          Alcotest.test_case "churn allocation flat in size" `Quick
            test_table_churn_alloc_flat;
          Alcotest.test_case "replace footprint bounded" `Quick
            test_table_replace_footprint;
        ] );
      ( "switch",
        [
          Alcotest.test_case "miss to controller" `Quick
            test_switch_miss_goes_to_controller;
          Alcotest.test_case "forwards on hit" `Quick test_switch_forwards_on_hit;
          Alcotest.test_case "flood excludes ingress" `Quick
            test_switch_flood_excludes_ingress;
          Alcotest.test_case "drop" `Quick test_switch_drop;
          Alcotest.test_case "flow-mod and counters" `Quick
            test_switch_flow_mod_and_counters;
          Alcotest.test_case "packet-out via table" `Quick
            test_switch_packet_out_table;
          Alcotest.test_case "stats snapshot" `Quick test_switch_stats_snapshot;
        ] );
      ( "topology",
        [
          Alcotest.test_case "shortest path" `Quick test_topology_shortest_path;
          Alcotest.test_case "next hop" `Quick test_topology_next_hop;
          Alcotest.test_case "unreachable" `Quick test_topology_unreachable;
          Alcotest.test_case "rejects double wiring" `Quick
            test_topology_rejects_double_wiring;
          Alcotest.test_case "hosts do not transit" `Quick
            test_topology_hosts_do_not_transit;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivers with latency" `Quick
            test_network_delivers_with_latency;
          Alcotest.test_case "egress accounting" `Quick
            test_network_egress_accounting;
          Alcotest.test_case "host by ip" `Quick test_network_host_by_ip;
        ] );
      ( "properties",
        qc
          [
            prop_table_matches_reference;
            prop_fast_path_agrees_with_naive;
            prop_table_stateful_model;
          ] );
    ]
