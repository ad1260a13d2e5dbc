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

let matches m ~in_port pkt = MF.matches_flow m ~in_port pkt

let test_any_matches_everything () =
  check Alcotest.bool "ip packet" true (matches MF.any ~in_port:3 (pkt ()));
  let non_ip =
    {
      Packet.eth_src = Mac.zero;
      eth_dst = Mac.zero;
      vlan = Vlan.untagged;
      eth_payload = Packet.Raw_eth (Ethertype.Arp, "x");
    }
  in
  check Alcotest.bool "non-ip packet" true (matches MF.any ~in_port:0 non_ip)

let test_five_tuple_match_ignores_l2 () =
  let p = pkt () in
  let m =
    MF.of_five_tuple (Option.get (Packet.five_tuple p))
  in
  let p2 = { p with Packet.eth_src = Mac.of_int 99 } in
  check Alcotest.bool "different mac still matches" true
    (matches m ~in_port:5 p2)

let test_prefix_wildcard_match () =
  let m = { MF.any with MF.nw_src = Some (Prefix.of_string "10.0.0.0/24") } in
  check Alcotest.bool "in prefix" true (matches m ~in_port:0 (pkt ~src:"10.0.0.77" ()));
  check Alcotest.bool "out of prefix" false (matches m ~in_port:0 (pkt ~src:"10.0.1.77" ()))

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
    (matches m ~in_port:0 non_ip)

let test_covers () =
  let wide = { MF.any with MF.nw_src = Some (Prefix.of_string "10.0.0.0/8") } in
  let narrow = { MF.any with MF.nw_src = Some (Prefix.of_string "10.1.0.0/16") } in
  check Alcotest.bool "wide covers narrow" true (MF.covers wide narrow);
  check Alcotest.bool "narrow does not cover wide" false (MF.covers narrow wide);
  check Alcotest.bool "any covers all" true (MF.covers MF.any narrow)

(* --- Flow_table --- *)

let entry ?(priority = 0x8000) ?idle ?hard fields actions =
  FE.rule ~priority ?idle_timeout:idle ?hard_timeout:hard ~fields actions

(* Install [rule] at time zero. *)
let add t rule = FT.add t ~now:Sim.Time.zero rule

let test_table_priority_wins () =
  let t = FT.create () in
  add t (entry ~priority:10 MF.any [ Openflow.Action.Output 1 ]);
  add t
    (entry ~priority:20
       { MF.any with MF.tp_dst = Some 80 }
       [ Openflow.Action.Output 2 ]);
  match FT.lookup t ~in_port:0 (pkt ~dp:80 ()) with
  | Some e -> check Alcotest.int "high priority entry" 20 e.FE.rule.priority
  | None -> Alcotest.fail "expected a match"

let test_table_replace_same_match () =
  let t = FT.create () in
  add t (entry MF.any [ Openflow.Action.Output 1 ]);
  add t (entry MF.any [ Openflow.Action.Output 2 ]);
  check Alcotest.int "replaced, not duplicated" 1 (FT.size t);
  match FT.lookup t ~in_port:0 (pkt ()) with
  | Some e ->
      check Alcotest.(list int) "new actions" [ 2 ]
        (Openflow.Action.output_ports e.FE.rule.actions)
  | None -> Alcotest.fail "expected a match"

let test_table_idle_timeout () =
  let t = FT.create () in
  add t (entry ~idle:(Sim.Time.ms 10) MF.any [ Openflow.Action.Output 1 ]);
  check Alcotest.int "before timeout" 0 (FT.expire t ~now:(Sim.Time.ms 5));
  check Alcotest.int "after timeout" 1 (FT.expire t ~now:(Sim.Time.ms 20));
  check Alcotest.int "empty" 0 (FT.size t)

let test_table_idle_refreshes_on_hit () =
  let t = FT.create () in
  add t (entry ~idle:(Sim.Time.ms 10) MF.any [ Openflow.Action.Output 1 ]);
  (match FT.lookup t ~in_port:0 (pkt ()) with
  | Some e -> FE.hit e ~now:(Sim.Time.ms 8) ~size:100
  | None -> Alcotest.fail "expected match");
  check Alcotest.int "hit extended life" 0 (FT.expire t ~now:(Sim.Time.ms 15));
  check Alcotest.int "eventually expires" 1 (FT.expire t ~now:(Sim.Time.ms 30))

let test_table_hard_timeout () =
  let t = FT.create () in
  add t (entry ~hard:(Sim.Time.ms 10) MF.any [ Openflow.Action.Output 1 ]);
  (match FT.lookup t ~in_port:0 (pkt ()) with
  | Some e -> FE.hit e ~now:(Sim.Time.ms 9) ~size:1
  | None -> Alcotest.fail "expected match");
  check Alcotest.int "hard timeout ignores hits" 1 (FT.expire t ~now:(Sim.Time.ms 11))

let test_table_capacity_evicts_lru () =
  let t = FT.create ~capacity:2 () in
  let m dp = { MF.any with MF.tp_dst = Some dp } in
  add t (entry (m 80) [ Openflow.Action.Output 1 ]);
  add t (entry (m 443) [ Openflow.Action.Output 2 ]);
  (* Touch the :80 entry so :443 is least recently used. *)
  (match FT.lookup t ~in_port:0 (pkt ~dp:80 ()) with
  | Some e -> FE.hit e ~now:(Sim.Time.ms 5) ~size:1
  | None -> Alcotest.fail "expected match");
  add t (entry (m 22) [ Openflow.Action.Output 3 ]);
  check Alcotest.int "capacity respected" 2 (FT.size t);
  check Alcotest.bool ":443 evicted" true
    (FT.lookup t ~in_port:0 (pkt ~dp:443 ()) = None);
  check Alcotest.bool ":80 kept" true
    (FT.lookup t ~in_port:0 (pkt ~dp:80 ()) <> None)

let test_table_wildcard_delete () =
  let t = FT.create () in
  let m p = { MF.any with MF.nw_src = Some (Prefix.of_string p) } in
  add t (entry (m "10.1.0.0/16") [ Openflow.Action.Output 1 ]);
  add t (entry (m "10.2.0.0/16") [ Openflow.Action.Output 2 ]);
  FT.remove_matching t ~fields:(m "10.0.0.0/8");
  check Alcotest.int "both covered entries removed" 0 (FT.size t)

let test_table_miss_counting () =
  let t = FT.create () in
  ignore (FT.lookup t ~in_port:0 (pkt ()));
  add t (entry MF.any [ Openflow.Action.Output 1 ]);
  ignore (FT.lookup t ~in_port:0 (pkt ()));
  check Alcotest.int "one miss" 1 (FT.misses t);
  check Alcotest.int "one hit" 1 (FT.hits t)

(* Allocation and footprint gates. Both measures are deterministic:
   the same code path allocates the same words on every run. *)
let tuple_fields i =
  MF.of_five_tuple
    (Five_tuple.tcp ~src:(Ipv4.of_int (0x0a000000 + i)) ~dst:(ip "10.9.9.9")
       ~src_port:1000 ~dst_port:80)

(* Minor words per add + expire + strict delete of prebuilt rules on a
   table pre-filled with [n] long-lived five-tuple entries. *)
let churn_words n =
  let out = [ Openflow.Action.Output 1 ] in
  let t = FT.create () in
  for i = 1 to n do
    add t (entry ~idle:(Sim.Time.s 3600) (tuple_fields i) out)
  done;
  let timed = entry ~idle:(Sim.Time.ms 1) (tuple_fields (-1)) out in
  let plain = entry (tuple_fields (-2)) out in
  let rounds = 1000 in
  let expired = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    add t timed;
    expired := !expired + FT.expire t ~now:(Sim.Time.ms 2);
    add t plain;
    FT.remove t ~priority:plain.FE.priority ~fields:plain.FE.fields
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  check Alcotest.int "every round expired its entry" rounds !expired;
  check Alcotest.int "prefill intact" n (FT.size t);
  words

let test_table_churn_alloc_flat () =
  let small = churn_words 10 and large = churn_words 1000 in
  if large > 2.0 *. small then
    Alcotest.failf "%.0f words/op at 1000 entries vs %.0f at 10" large small

(* [n] wildcard entries at distinct priorities, each on its own /24
   destination (10.1.1.0/24, 10.1.2.0/24, ...): the shape of a compiled
   proactive table. *)
let wildcard_table n =
  let t = FT.create () in
  for i = 1 to n do
    add t
      (entry ~priority:(100 + i)
         {
           MF.any with
           MF.nw_dst =
             Some
               (Prefix.make (Ipv4.of_octets 10 (1 + (i / 256)) (i mod 256) 0) 24);
         }
         [ Openflow.Action.Output 1 ])
  done;
  t

(* Minor words per [op ()], after a warm-up call. *)
let words_per_op op =
  op ();
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    op ()
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

(* A prebuilt wildcard rule's add and its strict delete, in the middle
   of a table of [n] wildcards. *)
let wildcard_churn_words n =
  let t = wildcard_table n in
  let r =
    entry ~priority:(100 + (n / 2))
      { MF.any with MF.nw_src = Some (Prefix.of_string "10.2.0.0/24") }
      [ Openflow.Action.Output 2 ]
  in
  let words =
    words_per_op (fun () ->
        add t r;
        FT.remove t ~priority:r.FE.priority ~fields:r.FE.fields)
  in
  check Alcotest.int "table back to its prefill" n (FT.size t);
  words

let test_wildcard_churn_alloc_flat () =
  let small = wildcard_churn_words 10 and large = wildcard_churn_words 1000 in
  if large > small +. 4.0 then
    Alcotest.failf "%.0f words/op at 1000 wildcards vs %.0f at 10" large small

(* A lookup that scans [n] wildcards, none of which matches. *)
let wildcard_miss_words n =
  let t = wildcard_table n in
  let p = pkt ~dst:"10.9.9.9" () in
  words_per_op (fun () -> ignore (FT.lookup t ~in_port:0 p))

let test_wildcard_lookup_alloc_flat () =
  let small = wildcard_miss_words 10 and large = wildcard_miss_words 1000 in
  if large > small +. 4.0 then
    Alcotest.failf "%.0f words per lookup past 1000 wildcards vs %.0f past 10"
      large small

let test_table_replace_footprint () =
  let fresh () =
    entry ~idle:(Sim.Time.s 30) (tuple_fields 1) [ Openflow.Action.Output 1 ]
  in
  let once = FT.create () in
  add once (fresh ());
  let churned = FT.create () in
  for _ = 1 to 10_000 do
    add churned (fresh ())
  done;
  check Alcotest.int "one live entry" 1 (FT.size churned);
  (* Each leaked heap slot would hold at least 9 words, so a leak shows
     as ~90k words; 512 leaves room for stale cells of the heap array. *)
  let words t = Obj.reachable_words (Obj.repr t) in
  if words churned > words once + 512 then
    Alcotest.failf "%d words after 10000 re-adds vs %d after one"
      (words churned) (words once)

(* Minor words per exact-match add, two ways. [fill] adds [n] distinct
   untimed five-tuple entries to a fresh table, so the chain array's
   growth is amortised in. [churn] adds a fresh timed five-tuple entry
   to a table of [n] long-lived ones and strict-deletes it again, after
   a warm-up. Rules are built beforehand: only the table's own words
   count, the installed entry among them. *)
let exact_add_words n =
  let out = [ Openflow.Action.Output 1 ] in
  let fresh = Array.init n (fun i -> entry (tuple_fields i) out) in
  let t = FT.create () in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    add t fresh.(i)
  done;
  let fill = (Gc.minor_words () -. before) /. float_of_int n in
  check Alcotest.int "every entry installed" n (FT.size t);
  let rounds = 1000 in
  let timed =
    Array.init rounds (fun i ->
        entry ~idle:(Sim.Time.s 3600) (tuple_fields (n + i)) out)
  in
  let t = FT.create () in
  for i = 0 to n - 1 do
    add t (entry ~idle:(Sim.Time.s 3600) (tuple_fields i) out)
  done;
  let churn () =
    for i = 0 to rounds - 1 do
      let e = timed.(i) in
      add t e;
      FT.remove t ~priority:e.FE.priority ~fields:e.FE.fields
    done
  in
  churn ();
  let before = Gc.minor_words () in
  churn ();
  let churn = (Gc.minor_words () -. before) /. float_of_int rounds in
  check Alcotest.int "table back to its prefill" n (FT.size t);
  (fill, churn)

(* An exact-match add allocates its 9-word entry, which keeps the rule
   by reference, and, amortised, the chain array's growth; no key, no
   node, no boxed heap entry, no copy of the rule. Measured: fill
   9.0-10.0 and churn 9.0 words from 10 to 1,000 entries; the budget
   keeps the 3 words of headroom it had. While a 5-word slot wrapped an
   entry its caller built, the table's own part was 5.0-6.0; with a
   hash table of per-tuple buckets and a heap of boxed entries it was
   17.0-17.8 and 31.5-36.5. *)
let test_exact_add_alloc () =
  List.iter
    (fun n ->
      let fill, churn = exact_add_words n in
      if fill > 13.0 || churn > 13.0 then
        Alcotest.failf "%d entries: %.1f words per add on fill, %.1f on churn"
          n fill churn)
    [ 10; 100; 1000 ]

(* What a table holds beyond the rules it installed, their fields and
   their actions: the entries, the chain array and the expiry heap.
   Measured: 12.6 words per entry at 2,000 timed five-tuple rules, the
   9-word entry and 3.6 of array cells; the budget keeps the 1.4 words
   of headroom it had. An entry and its 7-word rule keep the 16 words
   that a 5-word slot and the 11-word entry it wrapped did (8.6 beyond
   the entries). A hash table of per-tuple buckets, each keyed by a
   5-tuple built for it, and a heap of boxed entries held 22.5 beyond
   the entries. *)
let test_exact_footprint () =
  let out = [ Openflow.Action.Output 1 ] in
  let n = 2000 in
  let rules =
    Array.init n (fun i -> entry ~idle:(Sim.Time.s 3600) (tuple_fields i) out)
  in
  let t = FT.create () in
  Array.iter (add t) rules;
  let own =
    Obj.reachable_words (Obj.repr (t, rules))
    - Obj.reachable_words (Obj.repr rules)
  in
  let per_entry = float_of_int own /. float_of_int n in
  if per_entry > 14.0 then
    Alcotest.failf "%.1f words per entry beyond the rules" per_entry

(* h1 - s1 = s2 - h2 with forwarding installed through the control
   channel, on a default network: no controller, hop log left off.
   With [goto], each switch forwards the way a compiled pass entry
   does: table 0 jumps to table 1, whose /32 route for h2 outputs. *)
let two_switch_network ?(goto = false) () =
  let engine = Sim.Engine.create () in
  let t = Topo.create () in
  List.iter (Topo.add_switch t) [ 1; 2 ];
  List.iter (Topo.add_host t) [ "h1"; "h2" ];
  Topo.link t (Topo.Host "h1", 0) (Topo.Sw 1, 1);
  Topo.link t (Topo.Sw 1, 2) (Topo.Sw 2, 2);
  Topo.link t (Topo.Host "h2", 0) (Topo.Sw 2, 1);
  let net = Openflow.Network.create ~engine ~topology:t () in
  List.iter
    (fun (dpid, port) ->
      let send msg = Openflow.Network.send_batch net dpid [| msg |] in
      if goto then begin
        send
          (Openflow.Message.add_flow ~fields:MF.any [ Openflow.Action.Goto_table 1 ]);
        send
          (Openflow.Message.add_flow ~table_id:1
             ~fields:{ MF.any with MF.nw_dst = Some (Prefix.of_string "10.0.0.2/32") }
             [ Openflow.Action.Output port ])
      end
      else
        send (Openflow.Message.add_flow ~fields:MF.any [ Openflow.Action.Output port ]))
    [ (1, 2); (2, 1) ];
  List.iter
    (fun (name, addr) ->
      Openflow.Network.attach_host net ~name ~mac:(Mac.of_int 1) ~ip:(ip addr)
        ~rx:(fun _ -> ()))
    [ ("h1", "10.0.0.1"); ("h2", "10.0.0.2") ];
  Sim.Engine.run engine;
  (engine, net)

(* A packet forwarded through installed entries allocates only for its
   own hops: the events. Each switch hashes and matches the packet's own
   fields and builds no 5-tuple. Measured: 17 words per packet, each of
   its three frames one 5-word event; the budget keeps the six words of
   headroom it had. It was 37 while each switch built the packet's
   5-tuple (8 words with its option), 52
   while each frame was a closure and the record holding it, 56 while
   each table hit came back boxed in an option, 82 while each scheduled event also boxed a
   4-word heap entry, each table lookup boxed its hit twice and each
   single-output hit built its own [Forward [p]]; 97 while each emitted frame built a (node, port)
   key and an option to find the far end of its link; 112 while each
   emitted frame also built such a key to find its egress counters and
   each switch emission boxed its node; 199 while the 5-tuple was built
   through a boxed port pair, a single output went through
   [concat_map] and [sort_uniq] and each frame boxed new egress
   counters; 221 while each table expiry built a closure and a table of
   wildcards hashed the 5-tuple into its empty exact-match index; 251
   before that. It was 394 when the two table hits each sized the
   packet by encoding it and every wildcard tested rebuilt the 5-tuple,
   so the budget catches a return of either. Against that 394, leaving
   the hop-log sites unguarded read 414 with the log off, so the budget
   also catches a format closure built for a log nobody reads;
   recording the log read 2574. *)
let forward_words ?goto () =
  let engine, net = two_switch_network ?goto () in
  let p = pkt () in
  let forward () =
    Openflow.Network.send_from_host net ~name:"h1" p;
    Sim.Engine.run engine
  in
  for _ = 1 to 10 do
    forward ()
  done;
  let rounds = 1000 in
  let delivered = Openflow.Network.delivered net in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    forward ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  check Alcotest.int "every packet delivered" (delivered + rounds)
    (Openflow.Network.delivered net);
  (engine, net, forward, words)

let test_network_forward_alloc () =
  let _, net, forward, words = forward_words () in
  if words > 23.0 then Alcotest.failf "%.0f minor words per packet" words;
  let trace = Openflow.Network.trace net in
  check Alcotest.int "hop log stays empty" 0
    (List.length (Sim.Trace.entries trace));
  (* Turning the log on mid-run records the next packet's hops. *)
  Sim.Trace.set_enabled trace true;
  forward ();
  let hops =
    List.map
      (fun (e : Sim.Trace.entry) ->
        (e.actor, String.sub e.event 0 (min 2 (String.length e.event))))
      (Sim.Trace.entries trace)
  in
  check
    Alcotest.(list (pair string string))
    "sent, then delivered"
    [ ("h1", "tx"); ("h2", "rx") ]
    hops

(* The same packet under a compiled pass entry: each switch looks it up
   in table 0 and then in table 1. A lookup reads the packet's fields
   and a hit comes back unboxed, so the second lookup allocates
   nothing. Measured: 17 words, the forwarded packet's 17 (37 over 37
   while each switch built the packet's 5-tuple once, 52 over 52
   while each frame was a closure; 60 over 56
   while each hit came back in an option, 90 over 82 while each lookup
   boxed its hit twice; 105 over 97 before the far end of a link was
   found without building a key). *)
let test_network_goto_alloc () =
  let _, _, _, one = forward_words () in
  let _, _, _, two = forward_words ~goto:true () in
  if two > one then
    Alcotest.failf "%.0f minor words per packet through two tables, %.0f through one"
      two one

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
      List.iter (add t) entries;
      let probe = pkt ~src:"10.0.1.5" ~dp:81 () in
      let expected =
        (* Highest priority among matching; ties -> latest added. *)
        List.fold_left
          (fun acc (e : FE.rule) ->
            if matches e.FE.fields ~in_port:0 probe then
              match acc with
              | None -> Some e
              | Some (best : FE.rule) ->
                  if e.FE.priority > best.FE.priority then Some e else acc
            else acc)
          None
          (* Scan in add order; replace on >= priority prefers later adds. *)
          (List.filter
             (fun (e : FE.rule) ->
               (* mirror replacement of identical (fields, priority) *)
               let later_identical =
                 List.exists
                   (fun (e' : FE.rule) ->
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
      | Some e, Some g -> e.FE.priority = g.FE.rule.priority
      | _ -> false)

(* --- Switch --- *)

let test_switch_miss_goes_to_controller () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] () in
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()) with
  | Openflow.Switch.Send_to_controller -> ()
  | _ -> Alcotest.fail "miss must go to controller"

let test_switch_forwards_on_hit () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] () in
  add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Output 2 ]);
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:1 (pkt ()) with
  | Openflow.Switch.Forward [ 2 ] -> ()
  | _ -> Alcotest.fail "expected forward to port 2"

let test_switch_flood_excludes_ingress () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] () in
  add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Flood ]);
  match Openflow.Switch.process sw ~now:Sim.Time.zero ~in_port:2 (pkt ()) with
  | Openflow.Switch.Forward ports ->
      check Alcotest.(list int) "floods others" [ 1; 3 ] ports
  | _ -> Alcotest.fail "expected flood"

let test_switch_drop () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  add (Openflow.Switch.table sw) (entry MF.any Openflow.Action.drop);
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
  add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Output 2 ]);
  match
    Openflow.Switch.apply sw ~now:Sim.Time.zero
      (Openflow.Message.Packet_out { Openflow.Message.out_packet = pkt (); out_port = `Table })
  with
  | Openflow.Switch.Emit ([ 2 ], _) -> ()
  | _ -> Alcotest.fail "expected table-directed packet-out to port 2"

let test_switch_stats_snapshot () =
  let sw = Openflow.Switch.create ~dpid:7 ~ports:[ 1; 2 ] () in
  add (Openflow.Switch.table sw) (entry MF.any [ Openflow.Action.Output 2 ]);
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

(* Minor words per [Switch.apply] of a prebuilt add and then of its
   strict delete, on a switch whose table 0 holds [n] entries shaped
   like [fields i]. *)
let flow_mod_apply_words ~fields n =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  for i = 1 to n do
    add (Openflow.Switch.table sw)
      (entry ~priority:(100 + i) (fields i) [ Openflow.Action.Output 1 ])
  done;
  let priority = 100 + (n / 2) and target = fields (-1) in
  let add_msg =
    Openflow.Message.add_flow ~priority ~fields:target [ Openflow.Action.Output 2 ]
  and del_msg =
    Openflow.Message.delete_strict ~table_id:0 ~priority ~fields:target
  in
  let words =
    words_per_op (fun () ->
        ignore (Openflow.Switch.apply sw ~now:Sim.Time.zero add_msg);
        ignore (Openflow.Switch.apply sw ~now:Sim.Time.zero del_msg))
  in
  check Alcotest.int "table back to its prefill" n
    (FT.size (Openflow.Switch.table sw));
  words

(* A switch installs a flow-mod's rule as it came: the add allocates
   the table's 9-word entry and nothing else, whatever the table's size
   and whether the match is exact or wildcard; the delete allocates
   nothing. Measured: 9 words at 10, 100 and 1,000 entries. While the
   switch copied the rule into an entry of its own and the table wrapped
   that in a slot, it was 22. *)
let test_switch_flow_mod_alloc () =
  let wildcard i =
    { MF.any with MF.nw_dst = Some (Prefix.make (Ipv4.of_int (0x0a000000 + (i lsl 8))) 24) }
  in
  List.iter
    (fun (shape, fields) ->
      List.iter
        (fun n ->
          let words = flow_mod_apply_words ~fields n in
          if words > 9.0 then
            Alcotest.failf "%s, %d entries: %.1f words per add and delete"
              shape n words)
        [ 10; 100; 1000 ])
    [ ("exact", tuple_fields); ("wildcard", wildcard) ]

(* A packet-out to a port emits on the switch's prebuilt one-port list:
   only the 3-word [Emit] is new. It was 6 while each packet-out built
   its list. *)
let test_switch_packet_out_alloc () =
  let sw = Openflow.Switch.create ~dpid:1 ~ports:[ 1; 2 ] () in
  let msg =
    Openflow.Message.Packet_out
      { Openflow.Message.out_packet = pkt (); out_port = `Port 2 }
  in
  (match Openflow.Switch.apply sw ~now:Sim.Time.zero msg with
  | Openflow.Switch.Emit ([ 2 ], _) -> ()
  | _ -> Alcotest.fail "expected a packet-out to port 2");
  let words =
    words_per_op (fun () -> ignore (Openflow.Switch.apply sw ~now:Sim.Time.zero msg))
  in
  if words > 3.0 then Alcotest.failf "%.1f words per packet-out" words

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

let test_network_domains () =
  let engine = Sim.Engine.create () in
  let t = Topo.create () in
  List.iter (Topo.add_switch t) [ 3; 1; 2 ];
  let net = Openflow.Network.create ~engine ~topology:t () in
  let dom cid = Openflow.Network.switches_in_domain net cid in
  let ids = Alcotest.(list int) in
  check ids "every switch starts in domain 0, ascending" [ 1; 2; 3 ] (dom 0);
  Openflow.Network.assign_switch net 3 1;
  Openflow.Network.assign_switch net 1 1;
  check ids "moved out of 0" [ 2 ] (dom 0);
  check ids "domain 1 ascending" [ 1; 3 ] (dom 1);
  Openflow.Network.assign_switch net 1 0;
  Openflow.Network.assign_switch net 3 1;
  check ids "moved back" [ 1; 2 ] (dom 0);
  check ids "a repeated assignment changes nothing" [ 3 ] (dom 1);
  Openflow.Network.assign_switch net 9 1;
  check ids "an unknown switch joins no domain" [ 3 ] (dom 1);
  check ids "an empty domain" [] (dom 2)

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
      List.iter (fun spec -> add t (mk spec)) specs;
      let probe =
        pkt
          ~src:(Printf.sprintf "10.0.0.%d" pa)
          ~dst:(Printf.sprintf "10.0.1.%d" pb)
          ~sp:1000 ~dp:pdp ()
      in
      let naive =
        List.find_opt
          (fun (e : FE.t) -> matches e.FE.rule.fields ~in_port:0 probe)
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
   size, its entries in order, its capacity victims and its refusals
   must equal the model's. Pins priority order, the recency tie-break,
   idle and hard expiry, and least-recently-hit eviction of reactive
   entries only. An entry's tag is its output port, so its cookie is
   free to mark it pinned (non-zero) or reactive (0). *)
module Model = struct
  type entry = {
    fields : MF.t;
    priority : int;
    tag : int;
    pinned : bool;
    mutable last_hit : int; (* ns *)
    installed : int;
    idle : int option;
    hard : int option;
  }

  type t = {
    capacity : int option;
    mutable entries : entry list; (* newest first per priority *)
    mutable evicted : int list; (* victim tags, newest first *)
    mutable refused : int;
  }

  let create ?capacity () = { capacity; entries = []; evicted = []; refused = 0 }

  (* The least recently hit reactive entry; the first in table order
     wins ties. False when every entry is pinned. *)
  let evict_lru t =
    match List.filter (fun e -> not e.pinned) t.entries with
    | [] -> false
    | first :: _ as reactive ->
        let victim =
          List.fold_left
            (fun acc e -> if e.last_hit < acc.last_hit then e else acc)
            first reactive
        in
        t.entries <- List.filter (fun e -> e != victim) t.entries;
        t.evicted <- victim.tag :: t.evicted;
        true

  let add t e =
    t.entries <-
      List.filter
        (fun x -> not (x.priority = e.priority && MF.equal x.fields e.fields))
        t.entries;
    let room =
      match t.capacity with
      | Some cap when List.length t.entries >= cap -> evict_lru t
      | _ -> true
    in
    let rec insert = function
      | [] -> [ e ]
      | x :: rest as l ->
          if e.priority >= x.priority then e :: l else x :: insert rest
    in
    if room then t.entries <- insert t.entries else t.refused <- t.refused + 1

  let remove t ~priority fields =
    t.entries <-
      List.filter
        (fun x -> not (x.priority = priority && MF.equal x.fields fields))
        t.entries

  let remove_matching t fields =
    t.entries <- List.filter (fun x -> not (MF.covers fields x.fields)) t.entries

  let expired e ~now =
    (match e.idle with Some i -> now > e.last_hit + i | None -> false)
    || match e.hard with Some h -> now > e.installed + h | None -> false

  let expire t ~now =
    t.entries <- List.filter (fun e -> not (expired e ~now)) t.entries

  let lookup t ~now pkt =
    expire t ~now;
    List.find_opt (fun e -> matches e.fields ~in_port:0 pkt) t.entries
end

type op =
  | Op_add of bool * bool * int * int * int * int option * int option
      (* pinned, indexable, prio, a, dp, idle_ms, hard_ms *)
  | Op_remove of bool * int * int * int (* indexable, prio, a, dp *)
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
      let* pinned = bool in
      let* idle = option (int_range 1 20) in
      let* hard = option ~ratio:0.3 (int_range 1 30) in
      return (Op_add (pinned, indexable, prio, a, dp, idle, hard))
    else if kind < 5 then return (Op_remove (indexable, prio, a, dp))
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
      let tag_of (e : FE.t) =
        match e.FE.rule.actions with [ Openflow.Action.Output t ] -> t | _ -> -1
      in
      let evicted = ref [] in
      FT.set_on_evict table (fun e -> evicted := tag_of e :: !evicted);
      let now = ref 0 in
      let tag = ref 0 in
      let step op =
        match op with
        | Op_add (pinned, indexable, prio, a, dp, idle_ms, hard_ms) ->
            incr tag;
            let fields = fields_of ~indexable ~a ~dp in
            let to_time = Option.map Sim.Time.ms in
            FT.add table ~now:(Sim.Time.ms !now)
              (FE.rule ~priority:prio ?idle_timeout:(to_time idle_ms)
                 ?hard_timeout:(to_time hard_ms)
                 ~cookie:(if pinned then 1 else 0)
                 ~fields
                 [ Openflow.Action.Output !tag ]);
            Model.add model
              {
                Model.fields;
                priority = prio;
                tag = !tag;
                pinned;
                last_hit = !now * 1_000_000;
                installed = !now * 1_000_000;
                idle = ms_to_ns idle_ms;
                hard = ms_to_ns hard_ms;
              };
            true
        | Op_remove (indexable, prio, a, dp) ->
            let fields = fields_of ~indexable ~a ~dp in
            FT.remove table ~priority:prio ~fields;
            Model.remove model ~priority:prio fields;
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
            | Some e, Some m -> tag_of e = m.Model.tag
            | _ -> false)
      in
      List.for_all
        (fun op ->
          step op
          && FT.size table = List.length model.Model.entries
          && List.map tag_of (FT.entries table)
             = List.map (fun m -> m.Model.tag) model.Model.entries
          && !evicted = model.Model.evicted
          && FT.refusals table = model.Model.refused)
        ops)

(* The flow table as it was kept before its wildcard band became an
   array: every entry in one immutable list in table order, with the
   list insert and cull the band used. Expiry and eviction scan the
   whole list. It builds its own entries over the rules the table under
   test gets: two entries are the same when they hold one rule
   ([same]), and a hit on a returned entry must age both. *)
module List_table = struct
  type t = {
    capacity : int option;
    mutable held : FE.t list;
    mutable next_seq : int;
    mutable evictions : int;
    mutable refusals : int;
    mutable victims : FE.t list; (* newest first *)
  }

  let create ?capacity () =
    { capacity; held = []; next_seq = 0; evictions = 0; refusals = 0; victims = [] }

  let before (a : FE.t) (b : FE.t) =
    a.rule.priority > b.rule.priority
    || (a.rule.priority = b.rule.priority && a.seq > b.seq)

  let rec insert s = function
    | x :: rest when before x s -> x :: insert s rest
    | l -> s :: l

  let cull t gone = t.held <- List.filter (fun s -> not (gone s)) t.held

  (* The least recently hit reactive (cookie 0) entry; the first in
     table order wins ties. False when there is none. *)
  let evict_lru t =
    match List.filter (fun (s : FE.t) -> s.rule.cookie = 0) t.held with
    | [] -> false
    | first :: rest ->
        let victim =
          List.fold_left
            (fun (v : FE.t) (s : FE.t) ->
              if Sim.Time.compare s.last_hit v.last_hit < 0 then s else v)
            first rest
        in
        cull t (fun s -> s == victim);
        t.evictions <- t.evictions + 1;
        t.victims <- victim :: t.victims;
        true

  let add t ~now (r : FE.rule) =
    cull t (fun (s : FE.t) ->
        s.rule.priority = r.priority && MF.equal s.rule.fields r.fields);
    let room =
      match t.capacity with
      | Some cap when List.length t.held >= cap -> evict_lru t
      | _ -> true
    in
    if room then begin
      let e =
        {
          FE.rule = r;
          installed_at = now;
          last_hit = now;
          packets = 0;
          bytes = 0;
          seq = t.next_seq;
          alive = true;
          next = FT.miss;
        }
      in
      t.held <- insert e t.held;
      t.next_seq <- t.next_seq + 1
    end
    else t.refusals <- t.refusals + 1

  let lookup t ~in_port pkt =
    List.find_opt (fun (s : FE.t) -> matches s.rule.fields ~in_port pkt) t.held

  let remove t ~priority fields =
    cull t (fun (s : FE.t) ->
        s.rule.priority = priority && MF.equal s.rule.fields fields)

  let remove_matching t fields =
    cull t (fun (s : FE.t) -> MF.covers fields s.rule.fields)

  let expire t ~now =
    let n = List.length t.held in
    cull t (fun s -> FE.expired s ~now);
    n - List.length t.held

  let entries t = t.held
end

let same (a : FE.t) (b : FE.t) = a.rule == b.rule
let same_entries a b = List.compare_lengths a b = 0 && List.for_all2 same a b

(* A small address and port space, so random matches overlap, tie on
   priority and repeat exactly. *)
let gen_host_addr =
  QCheck.Gen.map2
    (fun a b -> Ipv4.of_octets 10 0 a b)
    (QCheck.Gen.int_bound 2) (QCheck.Gen.int_range 1 3)

let gen_tuple =
  QCheck.Gen.(
    let* src = gen_host_addr in
    let* dst = gen_host_addr in
    let* proto = oneofl [ Proto.Tcp; Proto.Udp ] in
    let* src_port = oneofl [ 1000; 2000 ] in
    let* dst_port = oneofl [ 80; 443 ] in
    return (Five_tuple.make ~src ~dst ~proto ~src_port ~dst_port))

let gen_match =
  QCheck.Gen.(
    let prefix =
      oneof
        [
          map Prefix.host gen_host_addr;
          map (fun a -> Prefix.make (Ipv4.of_octets 10 0 a 0) 24) (int_bound 2);
          return (Prefix.of_string "10.0.0.0/16");
        ]
    in
    let wildcard =
      let* in_port = option ~ratio:0.2 (int_bound 1) in
      let* nw_src = option ~ratio:0.4 prefix in
      let* nw_dst = option ~ratio:0.6 prefix in
      let* nw_proto = option ~ratio:0.3 (oneofl [ Proto.Tcp; Proto.Udp ]) in
      let* tp_dst = option ~ratio:0.4 (oneofl [ 80; 443 ]) in
      return { MF.any with MF.in_port; nw_src; nw_dst; nw_proto; tp_dst }
    in
    frequency [ (1, map MF.of_five_tuple gen_tuple); (2, wildcard) ])

let gen_probe =
  QCheck.Gen.(
    let* in_port = int_bound 1 in
    let* pkt =
      frequency
        [
          (9, map (fun ft -> Packet.of_five_tuple ft) gen_tuple);
          ( 1,
            return
              {
                Packet.eth_src = Mac.zero;
                eth_dst = Mac.zero;
                vlan = Vlan.untagged;
                eth_payload = Packet.Raw_eth (Ethertype.Arp, "x");
              } );
        ]
    in
    return (in_port, pkt))

type table_op =
  | T_add of int * MF.t * int option * int option * int
      (* priority, fields, idle and hard timeout (ms), cookie *)
  | T_remove of int * MF.t (* priority, fields *)
  | T_remove_matching of MF.t
  | T_expire of int (* advance the clock (ms), then expire *)
  | T_hit of int * Packet.t (* look up, and count a hit on the result *)

let gen_table_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          let* prio = int_range 1 3 in
          let* fields = gen_match in
          let* idle = option ~ratio:0.3 (int_range 1 20) in
          let* hard = option ~ratio:0.2 (int_range 1 30) in
          let* cookie = frequency [ (3, return 0); (1, return 1) ] in
          return (T_add (prio, fields, idle, hard, cookie)) );
        (2, map2 (fun p f -> T_remove (p, f)) (int_range 1 3) gen_match);
        (1, map (fun f -> T_remove_matching f) gen_match);
        (2, map (fun ms -> T_expire ms) (int_range 1 8));
        (3, map (fun (in_port, pkt) -> T_hit (in_port, pkt)) gen_probe);
      ])

(* Random add / strict delete / wildcard delete / expire / hit sequences,
   with and without a capacity bound, a quarter of the adds pinned by a
   cookie. After every step the table must agree with [List_table] on
   the lookup of random packets, the entries in order, the size, the
   eviction and refusal counts and the evicted entries. *)
let prop_table_agrees_with_list_table =
  QCheck.Test.make ~name:"flow table agrees with list implementation"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (option ~ratio:0.4 (int_range 1 6))
           (list_size (int_range 1 60)
              (pair gen_table_op (list_repeat 3 gen_probe)))))
    (fun (capacity, steps) ->
      let table = FT.create ?capacity () in
      let model = List_table.create ?capacity () in
      let victims = ref [] in
      FT.set_on_evict table (fun e -> victims := e :: !victims);
      let now = ref 0 in
      let apply = function
        | T_add (priority, fields, idle, hard, cookie) ->
            let r =
              FE.rule ~priority
                ?idle_timeout:(Option.map Sim.Time.ms idle)
                ?hard_timeout:(Option.map Sim.Time.ms hard)
                ~cookie ~fields
                [ Openflow.Action.Output priority ]
            in
            let now = Sim.Time.ms !now in
            FT.add table ~now r;
            List_table.add model ~now r;
            true
        | T_remove (priority, fields) ->
            FT.remove table ~priority ~fields;
            List_table.remove model ~priority fields;
            true
        | T_remove_matching fields ->
            FT.remove_matching table ~fields;
            List_table.remove_matching model fields;
            true
        | T_expire ms ->
            now := !now + ms;
            let at = Sim.Time.ms !now in
            FT.expire table ~now:at = List_table.expire model ~now:at
        | T_hit (in_port, pkt) -> (
            match
              (FT.lookup table ~in_port pkt, List_table.lookup model ~in_port pkt)
            with
            | None, None -> true
            | Some a, Some b when same a b ->
                FE.hit a ~now:(Sim.Time.ms !now) ~size:(Packet.size pkt);
                FE.hit b ~now:(Sim.Time.ms !now) ~size:(Packet.size pkt);
                true
            | _ -> false)
      in
      let same_lookup (in_port, pkt) =
        match
          (FT.lookup table ~in_port pkt, List_table.lookup model ~in_port pkt)
        with
        | None, None -> true
        | Some a, Some b -> same a b
        | _ -> false
      in
      List.for_all
        (fun (op, probes) ->
          apply op
          && List.for_all same_lookup probes
          && same_entries (FT.entries table) (List_table.entries model)
          && FT.size table = List.length model.List_table.held
          && FT.evictions table = model.List_table.evictions
          && FT.refusals table = model.List_table.refusals
          && same_entries !victims model.List_table.victims)
        steps)

(* The properties above add at most 60 entries, so the exact-match
   chain array never grows past its first doublings. This run grows it
   through several: hundreds of five-tuple entries drawn from a wide
   address space, a stack of priorities on one hot 5-tuple, wildcards
   beside them, and strict deletes, expiry and wildcard deletes
   interleaved. After every step the table must agree with
   [List_table] on a lookup of random packets (a hit ages the entry in
   both) and on the entries in order. *)
let test_table_index_growth () =
  let hot =
    Five_tuple.tcp ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1000
      ~dst_port:80
  in
  let run seed =
    let st = Random.State.make [| seed |] in
    let int bound = Random.State.int st bound in
    let tuple () =
      if int 8 = 0 then hot
      else
        Five_tuple.make
          ~src:(Ipv4.of_octets 10 1 (int 8) (1 + int 100))
          ~dst:(Ipv4.of_octets 10 2 0 (1 + int 4))
          ~proto:(if int 2 = 0 then Proto.Tcp else Proto.Udp)
          ~src_port:1000 ~dst_port:80
    in
    let table = FT.create () and model = List_table.create () in
    let installed = ref [] and now = ref 0 and peak = ref 0 in
    let lookup () =
      let in_port = int 2 and pkt = Packet.of_five_tuple (tuple ()) in
      match
        (FT.lookup table ~in_port pkt, List_table.lookup model ~in_port pkt)
      with
      | None, None -> None
      | Some a, Some b when same a b -> Some (a, b)
      | _ -> Alcotest.failf "seed %d: lookups differ" seed
    in
    let add () =
      let ft = tuple () in
      let priority = 1 + if ft == hot then int 40 else int 3 in
      let fields =
        if int 12 = 0 then
          { MF.any with MF.nw_src = Some (Prefix.make ft.Five_tuple.src 24) }
        else MF.of_five_tuple ft
      in
      let timeout odds ms =
        if int odds = 0 then Some (Sim.Time.ms (50 + int ms)) else None
      in
      let r =
        FE.rule ~priority ?idle_timeout:(timeout 3 2000)
          ?hard_timeout:(timeout 5 4000) ~fields
          [ Openflow.Action.Output priority ]
      in
      let now = Sim.Time.ms !now in
      FT.add table ~now r;
      List_table.add model ~now r;
      installed := (priority, fields) :: !installed
    in
    for step = 1 to 2500 do
      (match int 100 with
      | r when r < 55 -> add ()
      | r when r < 70 && !installed <> [] ->
          let priority, fields =
            List.nth !installed (int (List.length !installed))
          in
          FT.remove table ~priority ~fields;
          List_table.remove model ~priority fields
      | r when r < 80 ->
          now := !now + 1 + int 20;
          let at = Sim.Time.ms !now in
          let a = FT.expire table ~now:at in
          let b = List_table.expire model ~now:at in
          if a <> b then Alcotest.failf "seed %d: expired %d vs %d" seed a b
      | r when r < 82 ->
          let fields =
            if int 2 = 0 then MF.of_five_tuple hot
            else
              let net = Ipv4.of_octets 10 1 (int 8) 0 in
              { MF.any with MF.nw_src = Some (Prefix.make net 24) }
          in
          FT.remove_matching table ~fields;
          List_table.remove_matching model fields
      | _ ->
          Option.iter
            (fun (a, b) ->
              FE.hit a ~now:(Sim.Time.ms !now) ~size:64;
              FE.hit b ~now:(Sim.Time.ms !now) ~size:64)
            (lookup ()));
      for _ = 1 to 3 do
        ignore (lookup ())
      done;
      let a = FT.entries table and b = List_table.entries model in
      if not (same_entries a b) then
        Alcotest.failf "seed %d: entries differ after step %d" seed step;
      (* Only the five-tuple entries give a port. *)
      let exact = List.filter (fun e -> e.FE.rule.fields.MF.tp_src <> None) a in
      peak := max !peak (List.length exact)
    done;
    (* 16 cells double at 33, 65, 129 and 257 five-tuple entries. *)
    if !peak < 257 then
      Alcotest.failf "seed %d: the table peaked at %d five-tuple entries" seed
        !peak
  in
  List.iter run [ 1; 2; 3 ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "openflow"
    [
      ( "match",
        [
          Alcotest.test_case "any matches everything" `Quick test_any_matches_everything;
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
          Alcotest.test_case "exact-match add allocates only its slot" `Quick
            test_exact_add_alloc;
          Alcotest.test_case "exact-match footprint per entry" `Quick
            test_exact_footprint;
          Alcotest.test_case "index growth agrees with list implementation"
            `Quick test_table_index_growth;
          Alcotest.test_case "wildcard churn allocation flat in size" `Quick
            test_wildcard_churn_alloc_flat;
          Alcotest.test_case "wildcard lookup allocation flat in size" `Quick
            test_wildcard_lookup_alloc_flat;
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
          Alcotest.test_case "flow-mod apply allocates only the entry" `Quick
            test_switch_flow_mod_alloc;
          Alcotest.test_case "packet-out to a port allocation" `Quick
            test_switch_packet_out_alloc;
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
          Alcotest.test_case "domains follow assignment" `Quick
            test_network_domains;
          Alcotest.test_case "forwarding allocation, hop log off" `Quick
            test_network_forward_alloc;
          Alcotest.test_case "two-table forwarding allocation" `Quick
            test_network_goto_alloc;
        ] );
      ( "properties",
        qc
          [
            prop_table_matches_reference;
            prop_fast_path_agrees_with_naive;
            prop_table_stateful_model;
            prop_table_agrees_with_list_table;
          ] );
    ]
