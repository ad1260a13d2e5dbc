(* The proactive flow-table compiler (lib/compiler): lowering unit
   semantics (prefix expansion, port enumeration, budget spillover,
   truncation), incremental deltas, translation validation, the
   randomized table-vs-FDD-vs-Eval differential over every shipped
   policy, and the end-to-end proactive controller: a statically-passed
   flow crosses the fabric with zero packet-ins, reactive residue still
   punts, keep-state regions stay controller-mediated, reactive churn
   evicts only reactive entries, after every reload the switches hold
   what a fresh install of the policy would, and table 1's routes
   follow link failures, revocation and cache flushes. *)

open Netcore
module Fdd = Analysis.Fdd
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module PS = Identxx_core.Policy_store
module Net = Openflow.Network
module Topo = Openflow.Topology
module MF = Openflow.Match_fields

let ip = Ipv4.of_string

let env_of s =
  match Pf.Env.of_string s with
  | Ok env -> env
  | Error e -> Alcotest.failf "env error: %s" e

let flow ?(proto = Proto.Tcp) ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.make ~proto ~src:(ip src) ~dst:(ip dst) ~src_port:sp ~dst_port:dp

let decision =
  Alcotest.testable
    (fun fmt d -> Format.pp_print_string fmt (Compiler.decision_to_string d))
    ( = )

(* --- lowering unit semantics --- *)

let test_simple_lowering () =
  let tbl =
    Compiler.compile
      (Fdd.compile (env_of "block all\npass from 10.0.0.0/8 to any port 80"))
  in
  Alcotest.(check decision)
    "inside passes" (Compiler.Decide Pf.Ast.Pass)
    (Compiler.lookup tbl (flow "10.1.2.3" "1.2.3.4"));
  Alcotest.(check decision)
    "outside blocks" (Compiler.Decide Pf.Ast.Block)
    (Compiler.lookup tbl (flow "11.1.2.3" "1.2.3.4"));
  Alcotest.(check decision)
    "port mismatch blocks" (Compiler.Decide Pf.Ast.Block)
    (Compiler.lookup tbl (flow ~dp:81 "10.1.2.3" "1.2.3.4"));
  Alcotest.(check bool) "no spills" true (tbl.Compiler.spills = []);
  Alcotest.(check bool) "not truncated" false tbl.Compiler.truncated;
  Alcotest.(check (float 1e-9))
    "full static coverage installed" tbl.Compiler.static_coverage
    tbl.Compiler.installed_coverage;
  (* a compile without a cache numbers as a first install: spread
     evenly over the band below the guards' 0x7fff *)
  let n = List.length tbl.Compiler.entries in
  Alcotest.(check (list int))
    "first-install priorities"
    (List.init n (fun x -> 0x7fff - (0x3000 * (x + 1) / (n + 1))))
    (List.map (fun (e : Compiler.entry) -> e.Compiler.e_priority) tbl.Compiler.entries)

let test_prefix_expansion () =
  (* Carving 10.32/11 out of 10/8 leaves the non-aligned interval
     [10.64.0.0, 10.255.255.255], which must expand into several
     aligned CIDR blocks (10.64/10 + 10.128/9) — and the carve-out
     still blocks. *)
  let tbl =
    Compiler.compile
      (Fdd.compile
         (env_of
            "block all\npass proto tcp from 10.0.0.0/8 to any port 80\nblock \
             quick proto tcp from 10.32.0.0/11 to any"))
  in
  Alcotest.(check decision)
    "carve-out blocks" (Compiler.Decide Pf.Ast.Block)
    (Compiler.lookup tbl (flow "10.33.0.1" "1.2.3.4"));
  Alcotest.(check decision)
    "below the carve-out passes" (Compiler.Decide Pf.Ast.Pass)
    (Compiler.lookup tbl (flow "10.1.2.4" "1.2.3.4"));
  Alcotest.(check decision)
    "above the carve-out passes" (Compiler.Decide Pf.Ast.Pass)
    (Compiler.lookup tbl (flow "10.65.0.1" "1.2.3.4"));
  Alcotest.(check decision)
    "outside 10/8 blocks" (Compiler.Decide Pf.Ast.Block)
    (Compiler.lookup tbl (flow "192.0.2.9" "1.2.3.4"));
  let pass_prefixes =
    List.filter_map
      (fun (e : Compiler.entry) ->
        if e.Compiler.e_decision = Compiler.Decide Pf.Ast.Pass then
          e.Compiler.e_fields.MF.nw_src
        else None)
      tbl.Compiler.entries
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    "pass region needed several source prefixes" true
    (List.length pass_prefixes >= 3);
  Alcotest.(check bool) "no spills" true (tbl.Compiler.spills = [])

let test_port_enumeration () =
  (* OpenFlow 1.0 has no port masks: a small range enumerates. *)
  let tbl =
    Compiler.compile
      (Fdd.compile
         (env_of "block all\npass proto tcp from any to any port 8080:8090"))
  in
  Alcotest.(check decision)
    "in range passes" (Compiler.Decide Pf.Ast.Pass)
    (Compiler.lookup tbl (flow ~dp:8085 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check decision)
    "out of range blocks" (Compiler.Decide Pf.Ast.Block)
    (Compiler.lookup tbl (flow ~dp:8091 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check bool) "no spills" true (tbl.Compiler.spills = []);
  let exact_dports =
    List.filter
      (fun (e : Compiler.entry) ->
        e.Compiler.e_fields.MF.tp_dst <> None
        && e.Compiler.e_decision = Compiler.Decide Pf.Ast.Pass)
      tbl.Compiler.entries
  in
  Alcotest.(check int) "eleven enumerated ports" 11 (List.length exact_dports)

let test_budget_spill () =
  (* A range wider than the region budget is not expanded: the region
     stays reactive behind a punt, and installed coverage drops below
     the diagram's static coverage. *)
  let tbl =
    Compiler.compile
      (Fdd.compile
         (env_of "block all\npass proto tcp from any to any port 1024:60000"))
  in
  Alcotest.(check bool) "spilled" true (tbl.Compiler.spills <> []);
  List.iter
    (fun (s : Compiler.spill) ->
      Alcotest.(check bool)
        "spill cost exceeds budget" true
        (s.Compiler.sp_cost > Compiler.default_region_budget))
    tbl.Compiler.spills;
  Alcotest.(check decision)
    "spilled region punts" Compiler.Punt
    (Compiler.lookup tbl (flow ~dp:2000 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check decision)
    "unspilled region still decides" (Compiler.Decide Pf.Ast.Block)
    (Compiler.lookup tbl (flow ~proto:Proto.Udp ~dp:53 "1.1.1.1" "2.2.2.2"));
  Alcotest.(check bool)
    "installed coverage below static" true
    (tbl.Compiler.installed_coverage < tbl.Compiler.static_coverage)

let test_truncation () =
  let fdd =
    Fdd.compile
      (env_of "block all\npass proto tcp from !10.1.2.3 to any port 80")
  in
  let full = Compiler.compile fdd in
  let n = List.length full.Compiler.entries in
  Alcotest.(check bool) "policy needs several entries" true (n > 2);
  let tbl = Compiler.compile ~max_entries:2 fdd in
  Alcotest.(check bool) "truncated" true tbl.Compiler.truncated;
  Alcotest.(check bool)
    "within bound" true
    (List.length tbl.Compiler.entries <= 2);
  (* still total and still sound: validation allows punts, never a
     wrong decision *)
  (match Compiler.verify tbl fdd with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "truncated table fails validation: %s" e);
  Alcotest.(check bool)
    "installed coverage dropped" true
    (tbl.Compiler.installed_coverage < full.Compiler.installed_coverage)

let entry_key (e : Compiler.entry) =
  (e.Compiler.e_fields, e.Compiler.e_priority, e.Compiler.e_decision)

let test_incremental_delta () =
  let cache = Compiler.create_cache () in
  let a =
    Compiler.compile ~cache
      (Fdd.compile (env_of "block all\npass proto tcp from any to any port 80"))
  in
  let self = Compiler.delta ~old_:a a in
  Alcotest.(check int) "self delta adds nothing" 0
    (List.length self.Compiler.d_add);
  Alcotest.(check int) "self delta deletes nothing" 0
    (List.length self.Compiler.d_del);
  let b =
    Compiler.compile ~cache
      (Fdd.compile
         (env_of
            "block all\npass proto tcp from any to any port 80\npass proto \
             udp from any to any port 53"))
  in
  let d = Compiler.delta ~old_:a b in
  Alcotest.(check bool) "delta adds something" true (d.Compiler.d_add <> []);
  (* applying the delta to the old entry set yields exactly the new one *)
  let module S = Set.Make (struct
    type t = MF.t * int * Compiler.decision

    let compare = compare
  end) in
  let set l = S.of_list (List.map entry_key l) in
  let check_applies old_ d cur =
    let applied =
      S.union
        (S.diff (set old_.Compiler.entries) (set d.Compiler.d_del))
        (set d.Compiler.d_add)
    in
    Alcotest.(check bool)
      "old - del + add = new" true
      (S.equal applied (set cur.Compiler.entries))
  in
  check_applies a d b;
  (* The same fields at two priorities, only one of which goes. A strict
     delete names its priority, so the survivor is in neither list. *)
  let at e_priority e_decision =
    {
      Compiler.e_fields =
        { MF.any with MF.nw_proto = Some Proto.Tcp; tp_dst = Some 80 };
      e_priority;
      e_decision;
      e_lines = [];
    }
  in
  let gone = at 0x5004 (Compiler.Decide Pf.Ast.Pass)
  and survivor = at 0x5002 (Compiler.Decide Pf.Ast.Block) in
  let old_ = { a with Compiler.entries = [ gone; survivor ] }
  and cur = { a with Compiler.entries = [ survivor ] } in
  let d = Compiler.delta ~old_ cur in
  Alcotest.(check bool)
    "only the gone entry is deleted" true
    (List.map entry_key d.Compiler.d_del = [ entry_key gone ]);
  Alcotest.(check int) "survivor not re-added" 0
    (List.length d.Compiler.d_add);
  check_applies old_ d cur

(* --- installed numbering: a compile numbers against its cache's last --- *)

let no_table =
  {
    Compiler.entries = [];
    spills = [];
    static_coverage = 0.0;
    installed_coverage = 0.0;
    truncated = false;
  }

let same_key (a : Compiler.entry) (b : Compiler.entry) =
  MF.equal a.Compiler.e_fields b.Compiler.e_fields
  && a.Compiler.e_decision = b.Compiler.e_decision

let priorities (t : Compiler.table) =
  List.map (fun (e : Compiler.entry) -> e.Compiler.e_priority) t.Compiler.entries

(* The first-install numbering of [n] entries: spread evenly over the
   band, between 0x7fff (the guards') and [priority_floor - 1]. *)
let first_install n =
  List.init n (fun x -> 0x7fff - (0x3000 * (x + 1) / (n + 1)))

(* Why [t]'s priorities are no installed numbering, if they are not:
   they must descend strictly inside [priority_floor, 0x7ffe]. *)
let numbering_error (t : Compiler.table) =
  let rec go prev = function
    | [] -> None
    | (e : Compiler.entry) :: es ->
        let p = e.Compiler.e_priority in
        if p < Compiler.priority_floor || p > 0x7ffe then
          Some (Printf.sprintf "priority %d outside the band" p)
        else if prev <= p then Some (Printf.sprintf "priority %d under %d" p prev)
        else go p es
  in
  go 0x7fff t.Compiler.entries

(* Why [cur], compiled after [old_] with one cache, is no reload of
   it, if it is not: its numbering must be valid, and every entry
   [old_] holds too (same fields and decision) keeps its priority,
   unless some gap had no room and the whole table was spread as on a
   first install. *)
let reload_error ~old_ (cur : Compiler.table) =
  match numbering_error cur with
  | Some _ as e -> e
  | None -> (
      let moved (e : Compiler.entry) =
        List.exists
          (fun (o : Compiler.entry) ->
            same_key o e && o.Compiler.e_priority <> e.Compiler.e_priority)
          old_.Compiler.entries
      in
      match List.find_opt moved cur.Compiler.entries with
      | Some e when priorities cur <> first_install (List.length cur.Compiler.entries) ->
          Some ("entry moved: " ^ Compiler.entry_to_string e)
      | _ -> None)

(* The delta as it was computed before it became one merge: both tables
   indexed by (fields, priority) in maps. The reference the merge is
   checked against. *)
module EMap = Map.Make (struct
  type t = MF.t * int

  let compare (fa, pa) (fb, pb) =
    let c = compare pa pb in
    if c <> 0 then c else compare fa fb
end)

let reference_delta ~old_ (cur : Compiler.table) =
  let index (t : Compiler.table) =
    List.fold_left
      (fun m (e : Compiler.entry) -> EMap.add (e.Compiler.e_fields, e.Compiler.e_priority) e m)
      EMap.empty t.Compiler.entries
  in
  let changed other (e : Compiler.entry) =
    match EMap.find_opt (e.Compiler.e_fields, e.Compiler.e_priority) other with
    | Some e' -> e'.Compiler.e_decision <> e.Compiler.e_decision
    | None -> true
  in
  {
    Compiler.d_add = List.filter (changed (index old_)) cur.Compiler.entries;
    d_del = List.filter (changed (index cur)) old_.Compiler.entries;
  }

let reload_subnets =
  [| "any"; "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16"; "10.1.2.0/24" |]

(* One rule over [addrs], in the shape of a policy edit. *)
let gen_rule_over addrs =
  QCheck.Gen.(
    map
      (fun ((pass, proto), (src, dst), port) ->
        Printf.sprintf "%s proto %s from %s to %s port %d"
          (if pass then "pass" else "block")
          proto src dst port)
      (triple
         (pair bool (oneofl [ "tcp"; "udp" ]))
         (pair (oneofa addrs) (oneofa addrs))
         (oneofl [ 22; 80; 443; 8080 ])))

let linear_addrs =
  [|
    "any"; "10.0.0.0/16"; "10.0.1.0/24"; "10.0.2.0/24"; "10.0.3.0/24";
    "10.0.1.1"; "10.0.1.2"; "10.0.2.1"; "10.0.2.2"; "10.0.3.1"; "10.0.3.2";
  |]

(* Revisions of one policy: each keeps its own subset of a shared rule
   list, so most of their entries agree. *)
let gen_revisions =
  QCheck.Gen.(
    map
      (fun (rules, keeps) ->
        List.map
          (fun keep ->
            String.concat "\n"
              ("block all"
              :: List.filteri
                   (fun i _ -> keep land (1 lsl (i mod 16)) <> 0)
                   rules))
          keeps)
      (pair
         (list_size (int_range 1 6) (gen_rule_over reload_subnets))
         (list_size (int_range 2 6) (int_bound 0xffff))))

(* Compile [texts] in turn with one cache, and check each table against
   the one before it: a valid reload, a delta equal to
   [reference_delta], and a table {!Compiler.verify} accepts. *)
let check_reloads_of texts =
  let cache = Compiler.create_cache () in
  ignore
    (List.fold_left
       (fun (i, old_) text ->
         let fdd = Fdd.compile (env_of text) in
         let cur = Compiler.compile ~cache fdd in
         (match reload_error ~old_ cur with
         | None -> ()
         | Some e -> QCheck.Test.fail_reportf "revision %d: %s" i e);
         if Compiler.delta ~old_ cur <> reference_delta ~old_ cur then
           QCheck.Test.fail_reportf "revision %d: the merge and the maps disagree" i;
         (match Compiler.verify cur fdd with
         | Ok _ -> ()
         | Error e -> QCheck.Test.fail_reportf "revision %d: %s" i e);
         (i + 1, cur))
       (0, no_table) texts);
  true

let print_revisions texts = String.concat "\n-- then --\n" texts

let prop_reloads_keep_unchanged_entries =
  QCheck.Test.make ~name:"reloads keep order and every unchanged entry" ~count:200
    (QCheck.make gen_revisions ~print:print_revisions)
    check_reloads_of

(* Revisions drawn from a pool of three, so the cache meets a revision
   again after others, and sometimes twice in a row: a repeat must
   send nothing. *)
let gen_returning_revisions =
  QCheck.Gen.(
    map
      (fun (pool, picks) ->
        let pool = Array.of_list pool in
        List.map (fun k -> pool.(k mod Array.length pool)) picks)
      (pair
         (list_size (int_range 1 3)
            (map
               (fun rules -> String.concat "\n" ("block all" :: rules))
               (list_size (int_range 1 4) (gen_rule_over reload_subnets))))
         (list_size (int_range 2 10) (int_bound 2))))

let prop_reloads_return =
  QCheck.Test.make ~name:"reloads that return to earlier revisions" ~count:300
    (QCheck.make gen_returning_revisions ~print:print_revisions)
    (fun texts ->
      ignore (check_reloads_of texts : bool);
      let cache = Compiler.create_cache () in
      ignore
        (List.fold_left
           (fun (prev_text, old_) text ->
             let cur = Compiler.compile ~cache (Fdd.compile (env_of text)) in
             (if prev_text = Some text then
                let d = Compiler.delta ~old_ cur in
                if d.Compiler.d_add <> [] || d.Compiler.d_del <> [] then
                  QCheck.Test.fail_reportf "a repeated revision sends %d adds and %d deletes"
                    (List.length d.Compiler.d_add) (List.length d.Compiler.d_del));
             (Some text, cur))
           (None, no_table) texts);
      true)

(* Entry lists over a tiny pool of keys, so both sides repeat keys. *)
let gen_entry_lists =
  QCheck.Gen.(
    let entry =
      map
        (fun (port, d) ->
          {
            Compiler.e_fields =
              { MF.any with MF.nw_proto = Some Proto.Tcp; tp_dst = Some port };
            e_priority = 0;
            e_decision =
              (match d with
              | 0 -> Compiler.Decide Pf.Ast.Pass
              | 1 -> Compiler.Decide Pf.Ast.Block
              | _ -> Compiler.Punt);
            e_lines = [];
          })
        (pair (int_range 1 3) (int_range 0 2))
    in
    pair (list_size (int_range 0 30) entry) (list_size (int_range 0 30) entry))

(* [entries] numbered as on a first install. *)
let spread entries =
  {
    no_table with
    Compiler.entries =
      List.map2
        (fun (e : Compiler.entry) p -> { e with Compiler.e_priority = p })
        entries
        (first_install (List.length entries));
  }

(* Tables as a controller numbers them: revisions of one policy, each
   compiled with the cache of the one before; a cold compile of the
   last beside them; and entry lists over a tiny pool of keys, numbered
   as on a first install. *)
let prop_delta_matches_reference =
  let gen =
    QCheck.Gen.(
      pair gen_revisions gen_entry_lists |> map (fun (texts, lists) -> (texts, lists)))
  in
  QCheck.Test.make ~name:"delta merge equals the map-based delta" ~count:300
    (QCheck.make gen ~print:(fun (texts, _) -> print_revisions texts))
    (fun (texts, (old_entries, cur_entries)) ->
      let cache = Compiler.create_cache () in
      let check what old_ cur =
        if Compiler.delta ~old_ cur <> reference_delta ~old_ cur then
          QCheck.Test.fail_reportf "%s: the merge and the maps disagree" what
      in
      let last =
        List.fold_left
          (fun old_ text ->
            let cur = Compiler.compile ~cache (Fdd.compile (env_of text)) in
            check "reload" old_ cur;
            cur)
          no_table texts
      in
      let cold = Compiler.compile (Fdd.compile (env_of (List.hd (List.rev texts)))) in
      check "cold" last cold;
      check "itself" last last;
      check "to empty" last no_table;
      check "repeated keys" (spread old_entries) (spread cur_entries);
      true)

(* A kept pair of neighbours with more new entries between them than
   their gap holds: the whole table is spread over the band again. A
   first install of two entries leaves 4,095 priorities between them;
   2,000 ports fill it with entries two apart, and 2,000 more past them
   find no room. *)
let test_exhausted_gap () =
  let ports range =
    Fdd.compile
      (env_of
         (String.concat "\n"
            ("block all" :: List.map (Printf.sprintf "pass from any to any port %s") range)))
  in
  let cache = Compiler.create_cache () in
  let compile range = Compiler.compile ~cache ~region_budget:4096 (ports range) in
  let check_numbering what t =
    match numbering_error t with None -> () | Some e -> Alcotest.failf "%s: %s" what e
  in
  let first = compile [ "80" ] in
  Alcotest.(check (list int)) "a first install" (first_install 2) (priorities first);
  let some = compile [ "80"; "1000:2999" ] in
  check_numbering "2000 inserts" some;
  Alcotest.(check int) "2002 entries" 2002 (List.length some.Compiler.entries);
  Alcotest.(check (list int))
    "both neighbours kept" (priorities first)
    [ List.hd (priorities some); List.hd (List.rev (priorities some)) ];
  let full = compile [ "80"; "1000:2999"; "3000:4000" ] in
  check_numbering "1001 more inserts" full;
  Alcotest.(check (list int))
    "the whole table spread" (first_install 3003) (priorities full);
  List.iter
    (fun dp ->
      let fl = flow ~dp "10.0.0.1" "10.0.0.2" in
      Alcotest.(check decision)
        (Printf.sprintf "port %d decides as a cold compile" dp)
        (Compiler.lookup (Compiler.compile ~region_budget:4096 (ports [ "80"; "1000:2999"; "3000:4000" ])) fl)
        (Compiler.lookup full fl))
    [ 80; 999; 1000; 2500; 4000; 4001 ]

(* --- the randomized differential: table vs diagram vs evaluator --- *)

let interesting_addrs =
  [|
    "192.168.0.5"; "192.168.0.255"; "192.168.1.1"; "192.168.1.7";
    "10.1.2.3"; "10.255.0.1"; "10.0.0.0"; "123.123.123.9"; "123.123.124.1";
    "172.16.3.9"; "8.8.8.8"; "0.0.0.0"; "255.255.255.255";
  |]

let interesting_ports = [| 0; 79; 80; 81; 443; 1000; 1023; 8080; 65535 |]

let random_addr prng =
  if Sim.Prng.bool prng then
    Ipv4.of_string (Sim.Prng.pick prng interesting_addrs)
  else Ipv4.of_int (Int64.to_int (Sim.Prng.next64 prng) land 0xFFFF_FFFF)

let random_port prng =
  if Sim.Prng.bool prng then Sim.Prng.pick prng interesting_ports
  else Sim.Prng.int prng 65536

let random_flow prng =
  let proto =
    match Sim.Prng.int prng 4 with
    | 0 -> Proto.Tcp
    | 1 -> Proto.Udp
    | 2 -> Proto.Icmp
    | _ -> Proto.Other 47
  in
  Five_tuple.make ~proto ~src:(random_addr prng) ~dst:(random_addr prng)
    ~src_port:(random_port prng) ~dst_port:(random_port prng)

let random_ctx prng fl =
  let response () =
    Identxx.Response.make ~flow:fl
      [
        List.map
          (fun (k, v) -> Identxx.Key_value.pair k v)
          [
            ( "name",
              Sim.Prng.pick prng [| "skype"; "firefox"; "Server"; "ssh" |] );
            ("userID", Sim.Prng.pick prng [| "system"; "alice" |]);
            ("version", Sim.Prng.pick prng [| "150"; "210" |]);
            ("os-patch", Sim.Prng.pick prng [| "MS08-067"; "KB12345" |]);
          ];
      ]
  in
  let src = if Sim.Prng.int prng 4 = 0 then None else Some (response ()) in
  let dst = if Sim.Prng.int prng 4 = 0 then None else Some (response ()) in
  Pf.Eval.ctx ?src ?dst ()

(* The table's static coverage is the diagram's, bit for bit. *)
let same_coverage name tbl fdd =
  let bits = Int64.bits_of_float in
  let diagram = (Fdd.static_slice ~limit:0 fdd).Fdd.s_coverage in
  if bits tbl.Compiler.static_coverage <> bits diagram then
    Alcotest.failf "%s: static coverage %h, the diagram's %h" name
      tbl.Compiler.static_coverage diagram

(* For every flow: a [Decide] must agree with the diagram {e and} with
   the real evaluator under arbitrary contexts, and no [log] rule may
   decide it; a [Punt] is correct on reactive regions and acceptable on
   static ones only when the table spilled or truncated (soundness may
   cost completeness, never the reverse). The drops-only table a
   controller without [proactive] installs may decide only drops that
   a quick rule makes in every context. *)
let differential ~proactive name env ~flows =
  let name = if proactive then name else name ^ " (drops only)" in
  let fdd = Compiler.offload ~proactive env (Fdd.compile env) in
  let tbl = Compiler.compile fdd in
  same_coverage name tbl fdd;
  (match Compiler.verify tbl fdd with
  | Ok n -> Alcotest.(check bool) (name ^ ": regions checked") true (n > 0)
  | Error e -> Alcotest.failf "%s: translation validation failed: %s" name e);
  let prng = Sim.Prng.create 0xc0de in
  for i = 1 to flows do
    let fl = random_flow prng in
    let fail what =
      Alcotest.failf "%s: flow %d (%s): %s" name i (Five_tuple.to_string fl) what
    in
    match (Compiler.lookup tbl fl, Fdd.lookup fdd fl) with
    | Compiler.Decide a, Fdd.Static { action; _ } when action = a ->
        if (not proactive) && a <> Pf.Ast.Block then fail "drops-only table passes";
        for _ = 1 to 2 do
          let ctx = random_ctx prng fl in
          match Pf.Eval.eval env ctx fl with
          | Ok v -> (
              if v.Pf.Eval.decision <> a then fail "table decides against Eval";
              if v.Pf.Eval.log then fail "table decides a logged flow";
              match v.Pf.Eval.matched with
              | Some r when r.Pf.Ast.quick -> ()
              | _ -> if not proactive then fail "drop not decided by a quick rule")
          | Error e -> Alcotest.failf "%s: eval error: %s" name e
        done
    | Compiler.Decide _, _ ->
        fail "table decides where the diagram disagrees or is reactive"
    | Compiler.Punt, Fdd.Reactive _ -> ()
    | Compiler.Punt, Fdd.Static _ ->
        if tbl.Compiler.spills = [] && not tbl.Compiler.truncated then
          fail "punt on a static region without spillover"
  done

let synthetic_corpus =
  [
    ( "mixed",
      "block all\npass from 10.0.0.0/8 to any port 80\nblock quick from \
       10.9.0.0/16 to any\npass from 172.16.0.0/12 to any with \
       eq(@src[name], firefox)" );
    ( "negation",
      "block all\npass from !192.168.0.0/16 to any\nblock from any to \
       !10.0.0.0/8 port 53" );
    ( "tables",
      "table <lan> { 192.168.0.0/24 }\ntable <srv> { 192.168.1.1 10.0.0.0/8 \
       }\nblock all\npass from <lan> to <srv> port 80:443\nblock quick from \
       <srv> to <lan>" );
    ( "proto",
      "block all\npass proto tcp from any to any port 22\npass proto icmp \
       from 10.0.0.0/8 to any" );
    ("range-spill", "block all\npass proto tcp from any to any port 1024:60000");
    ("list", "block all\npass from { 10.0.0.1 10.0.0.2/31 } to any port 80:443");
    ( "log",
      "block quick log from any to any port 443\nblock quick from \
       10.0.0.0/8 to any port 1023\npass log from 10.0.0.0/8 to any port \
       80\nblock from 172.16.0.0/12 to any port 1000" );
  ]

let shipped_policies () =
  let dir =
    if Sys.file_exists "../policies" then "../policies" else "policies"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".control")
  |> List.sort String.compare
  |> List.map (fun f ->
         ( f,
           In_channel.with_open_bin (Filename.concat dir f)
             In_channel.input_all ))

let both_modes name env ~flows =
  List.iter
    (fun proactive -> differential ~proactive name env ~flows)
    [ true; false ]

let test_differential_synthetic () =
  List.iter
    (fun (name, text) -> both_modes name (env_of text) ~flows:300)
    synthetic_corpus

let test_differential_shipped () =
  let files = shipped_policies () in
  Alcotest.(check bool) "shipped policies present" true (List.length files >= 4);
  List.iter
    (fun (name, text) ->
      match Pf.Env.of_string text with
      | Ok env -> both_modes name env ~flows:200
      | Error _ -> () (* fragments may reference another file's tables *))
    files;
  let concat = String.concat "\n" (List.map snd files) in
  both_modes "policies-concat" (env_of concat) ~flows:300

(* A cache holds the plans and the table of the last compile, so what
   it keeps is bounded by the policy, not by how many policies it has
   seen: after 500 distinct diagrams it holds what it held after 10.
   Measured: 1,225 reachable words after 10 and after 500 with the
   table; 924 without it while plans held their parts; 1,831 while they
   held their rules; 7,367 after 10 and 332,871 after 500 while it kept
   every plan it had ever built. *)
let test_cache_stays_bounded () =
  let cache = Compiler.create_cache () in
  let compile i =
    let fdd =
      Fdd.compile
        (env_of
           (Printf.sprintf
              "block all\npass proto tcp from 10.%d.0.0/16 to any port %d\n\
               block proto tcp from any to 10.%d.0.0/16 port 22"
              (i mod 7) (1000 + i) (i mod 5)))
    in
    same_coverage (Printf.sprintf "diagram %d" i) (Compiler.compile ~cache fdd) fdd
  in
  let words () = Obj.reachable_words (Obj.repr cache) in
  for i = 1 to 10 do
    compile i
  done;
  let early = words () in
  let largest = ref early in
  for i = 11 to 500 do
    compile i;
    if i mod 49 = 0 then largest := max !largest (words ())
  done;
  if !largest > 2_500 then
    Alcotest.failf "%d reachable words after 500 diagrams (%d after 10)" !largest early

(* The words of compiling a one-rule edit with the cache of the policy
   before it, under [n] untouched static rules, and the entries it
   emits. The untouched rules split the destination port under one
   source port; the edited rule sits under another, so the nodes it
   changes are the ancestors of both (proto, source, destination,
   source port), and none of them holds the untouched rules' ports. *)
let edit_compile_words n =
  let text last =
    String.concat "\n"
      (("block all"
       :: List.init n (fun i ->
              Printf.sprintf
                "pass proto tcp from 10.0.0.0/16 port 1000 to 10.1.0.0/16 port %d"
                (1000 + (2 * i))))
      @ [ last ])
  in
  let edited action =
    Fdd.compile
      (env_of
         (text
            (action ^ " proto tcp from 10.0.0.0/16 port 2000 to 10.1.0.0/16 port 53")))
  in
  let before_edit = edited "block" and after_edit = edited "pass" in
  let cache = Compiler.create_cache () in
  ignore (Compiler.compile ~cache before_edit);
  let before = Gc.minor_words () in
  let t = Compiler.compile ~cache after_edit in
  let words = Gc.minor_words () -. before in
  (words, List.length t.Compiler.entries)

(* Re-planning the edit's ancestors costs their parts, and an entry
   under a plan the edit left alone is the last table's own, so the
   words that grow with the untouched rules are the table's slots: 6
   each (its list cell, 3; its slots in the written rules, their
   volumes and the table, 3), and a byte of collapse marks. Both sizes
   plan alike: from 12 untouched rules on, their part outweighs the
   addresses around it, which the plan expands. At 10 it does not, and
   only the edited part's prefixes are built, which would count the
   expanded parts' prefixes as growth. Measured: 1,186 words for 54
   entries after 20 untouched rules, 1,696 for 134 after 100, 6.38 per
   added entry; 1,604 and 2,114 while the planner read each node's
   parts through a copy of (interval, child) pairs and held its plans
   in a hash table keyed by (level, node) pairs (1,619 and 2,109 while
   every address part built its prefixes); 23.9 per added entry while
   every entry was written afresh and numbered a second time, 100.3
   while each of the four ancestors re-expanded every rule below it. *)
let test_edit_replans_only_its_path () =
  let w20, e20 = edit_compile_words 20 and w100, e100 = edit_compile_words 100 in
  let per_entry = (w100 -. w20) /. float_of_int (e100 - e20) in
  if w20 > 1_250.0 || per_entry > 6.5 then
    Alcotest.failf "%.1f words per added entry (%.0f words for %d entries, %.0f for %d)"
      per_entry w20 e20 w100 e100

(* The reload [compile/incremental-delta] times: a one-rule edit after
   [n] untouched rules, and back again, each compiled with the cache of
   the compile before and diffed against its table. The words of one,
   after both revisions have been compiled once, and the entries. *)
let incremental_delta_words n =
  let ruleset tail =
    String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf "%s from 172.16.%d.0/24 to any port %d"
             (if i mod 2 = 0 then "block" else "pass")
             (i mod 250) (1000 + i))
      @ [ tail ])
  in
  let revisions =
    [|
      Fdd.compile (env_of (ruleset "pass from 10.9.0.0/16 to any port 53"));
      Fdd.compile (env_of (ruleset "block from 10.9.0.0/16 to any port 53"));
    |]
  in
  let cache = Compiler.create_cache () in
  let installed = ref (Compiler.compile ~cache revisions.(0)) in
  let reload i =
    let cur = Compiler.compile ~cache revisions.(i) in
    ignore (Compiler.delta ~old_:!installed cur);
    installed := cur
  in
  reload 1;
  reload 0;
  let before = Gc.minor_words () in
  reload 1;
  (Gc.minor_words () -. before, List.length !installed.Compiler.entries)

(* The edit after 1,000 untouched rules, whose table holds 502
   entries. Words, not time: while it reads a rule, the tail collapse
   conses a cell for each later plan that may overlap it, so its words
   follow its work, and a collapse that read every later rule for each
   rule would show as words growing with the square of the table. The
   pairwise collapse this replaced allocated nothing, so no words gate
   saw it: at 1,000 rules it took 5.5 ms of the edit's 6 ms, which
   [compile/incremental-delta] times. The other words grow with the
   untouched rules through the edited source node's 250 parts and the
   table's slots. Measured: 8,833 words; 14,676 while the planner read
   each node's parts through a copy of (interval, child) pairs and held
   its plans in a hash table keyed by (level, node) pairs; 32,852
   while each entry was written and numbered afresh. *)
let test_edit_after_1000_rules () =
  let words, entries = incremental_delta_words 1000 in
  Alcotest.(check int) "entries" 502 entries;
  if words > 9_300.0 then
    Alcotest.failf "%.0f minor words for an edit after 1,000 untouched rules" words

(* More than 2,048 entries: 3,000 ports passed under one source port,
   whose own block collapses into the final block-all. *)
let test_large_table_collapses () =
  let fdd =
    Fdd.compile (env_of "block all\npass from any port 7 to any port 1000:3999")
  in
  let tbl = Compiler.compile ~region_budget:4096 fdd in
  Alcotest.(check int) "3,000 passes and the block-all" 3001 (List.length tbl.Compiler.entries);
  Alcotest.(check bool)
    "no block but the last" true
    (List.for_all
       (fun (e : Compiler.entry) -> e.Compiler.e_decision = Compiler.Decide Pf.Ast.Pass)
       (List.filteri (fun i _ -> i < 3000) tbl.Compiler.entries));
  Alcotest.(check (float 0.))
    "the collapsed block's volume is installed" tbl.Compiler.static_coverage
    tbl.Compiler.installed_coverage;
  match Compiler.verify tbl fdd with
  | Ok n -> Alcotest.(check bool) "regions checked" true (n > 0)
  | Error e -> Alcotest.failf "translation validation failed: %s" e

(* An edit script: a first policy over [linear_addrs], then edits that
   replace, insert or delete one rule, with the budgets one cache
   keeps for all of them (small ones spill and truncate). *)
let gen_edit_script =
  QCheck.Gen.(
    let rule = gen_rule_over linear_addrs in
    let edit = triple (int_bound 2) (int_bound 7) rule in
    triple
      (pair (oneofl [ 4; 8; 4096 ]) (oneofl [ 2; 8; 512 ]))
      (list_size (int_range 1 6) rule)
      (list_size (int_range 1 8) edit))

let apply_edit rules (op, at, rule) =
  let at = if rules = [] then 0 else at mod List.length rules in
  match op with
  | 0 -> List.mapi (fun i r -> if i = at then rule else r) rules
  | 1 -> List.filteri (fun i _ -> i < at) rules @ (rule :: List.filteri (fun i _ -> i >= at) rules)
  | _ -> List.filteri (fun i _ -> i <> at) rules

(* Each revision compiled with the cache every revision before it went
   through is the table a fresh cache compiles from the same diagram:
   fields, decisions, lines and order, spills in order, and both
   coverages bit for bit. Priorities depend on the table's history, so
   they compare by rank, which is order once both descend strictly; and
   the fresh cache's are a first install's. *)
let prop_warm_cache_equals_cold =
  QCheck.Test.make ~name:"a warm compile cache compiles what a cold one does"
    ~count:1000
    (QCheck.make gen_edit_script ~print:(fun ((max_entries, region_budget), rules, edits) ->
         Printf.sprintf "max_entries %d, region_budget %d:\n%s\n%s" max_entries
           region_budget (String.concat "\n" rules)
           (String.concat "\n"
              (List.map (fun (op, at, r) -> Printf.sprintf "-- edit %d at %d: %s" op at r) edits))))
    (fun ((max_entries, region_budget), rules, edits) ->
      let cache = Compiler.create_cache () in
      let bits = Int64.bits_of_float in
      let unranked (t : Compiler.table) =
        List.map
          (fun (e : Compiler.entry) ->
            (e.Compiler.e_fields, e.Compiler.e_decision, e.Compiler.e_lines))
          t.Compiler.entries
      in
      let compare_at step rules =
        let fdd = Fdd.compile (env_of (String.concat "\n" ("block all" :: rules))) in
        let warm = Compiler.compile ~cache ~max_entries ~region_budget fdd in
        let cold = Compiler.compile ~max_entries ~region_budget fdd in
        let fail what = QCheck.Test.fail_reportf "revision %d: %s differ" step what in
        if unranked warm <> unranked cold then fail "entries";
        (match (numbering_error warm, numbering_error cold) with
        | None, None -> ()
        | _ -> fail "rankings");
        if priorities cold <> first_install (List.length cold.Compiler.entries) then
          fail "a cold compile's and a first install's priorities";
        if warm.Compiler.spills <> cold.Compiler.spills then fail "spills";
        if warm.Compiler.truncated <> cold.Compiler.truncated then fail "truncations";
        if bits warm.Compiler.static_coverage <> bits cold.Compiler.static_coverage then
          fail "static coverages";
        if bits warm.Compiler.installed_coverage <> bits cold.Compiler.installed_coverage
        then fail "installed coverages"
      in
      compare_at 0 rules;
      ignore
        (List.fold_left
           (fun (step, rules) edit ->
             let rules = apply_edit rules edit in
             compare_at step rules;
             (step + 1, rules))
           (1, rules) edits);
      true)

(* --- flow-table eviction mechanics (capacity LRU + hook) --- *)

let test_flow_table_eviction_hook () =
  let t = Openflow.Flow_table.create ~capacity:2 () in
  let entry ?(cookie = 0) p host =
    Openflow.Flow_entry.rule ~priority:p ~cookie
      ~fields:{ MF.any with MF.nw_src = Some (Prefix.of_string host) }
      [ Openflow.Action.To_controller ]
  in
  let add = Openflow.Flow_table.add t ~now:Sim.Time.zero in
  let victims = ref [] in
  Openflow.Flow_table.set_on_evict t (fun v -> victims := v :: !victims);
  add (entry ~cookie:Compiler.proactive_cookie 10 "10.0.0.1/32");
  add (entry 11 "10.0.0.2/32");
  Alcotest.(check int) "no evictions yet" 0 (Openflow.Flow_table.evictions t);
  add (entry 12 "10.0.0.3/32");
  Alcotest.(check int) "one eviction" 1 (Openflow.Flow_table.evictions t);
  Alcotest.(check int) "size capped" 2 (Openflow.Flow_table.size t);
  match !victims with
  | [ v ] ->
      (* the newcomer must not evict itself; the victim is one of the
         resident (never-hit) entries *)
      Alcotest.(check bool)
        "a resident entry was the victim" true
        (List.mem v.Openflow.Flow_entry.rule.priority [ 10; 11 ])
  | l -> Alcotest.failf "expected one victim, saw %d" (List.length l)

(* --- end-to-end: the proactive controller over the simulated fabric --- *)

let proactive_config = { C.default_config with C.proactive = true }

let counter_sum obs name =
  Obs.Registry.snapshot obs
  |> List.fold_left
       (fun acc (s : Obs.Registry.series) ->
         match s.Obs.Registry.value with
         | Obs.Registry.Counter_v n when s.Obs.Registry.name = name -> acc + n
         | _ -> acc)
       0

let series_exists obs name =
  List.exists
    (fun (s : Obs.Registry.series) -> s.Obs.Registry.name = name)
    (Obs.Registry.snapshot obs)

(* First packets leave 1 ms after the policy is installed, so the
   compiled flow-mods (50 us of control latency away) are in the tables
   before traffic — the deployed-switch boot order. *)
let send_later engine network host ~flow ~at_ms =
  Sim.Engine.schedule engine ~delay:(Sim.Time.ms at_ms) (fun () ->
      Net.send_from_host network ~name:(Identxx.Host.name host)
        (Identxx.Host.first_packet host ~flow))

let test_e2e_zero_packet_in () =
  let obs = Obs.Registry.create () in
  let engine, network, controller, hosts =
    Deploy.linear_network ~config:proactive_config ~obs ~switches:4
      ~hosts_per_switch:1 ()
  in
  PS.add_exn (C.policy controller) ~name:"00" "pass all";
  let h1 = hosts.(0) and h4 = hosts.(3) in
  let proc = Identxx.Host.run h1 ~user:"u" ~exe:"/bin/app" () in
  let fl =
    Identxx.Host.connect h1 ~proc ~dst:(Identxx.Host.ip h4) ~dst_port:80 ()
  in
  send_later engine network h1 ~flow:fl ~at_ms:1;
  Sim.Engine.run engine;
  (* The whole point of the compiler: the flow crossed four switches
     without a single controller round-trip. *)
  Alcotest.(check int) "zero packet-ins" 0 (Net.packet_ins network);
  Alcotest.(check int) "data packet delivered" 1 (Net.delivered network);
  Alcotest.(check int) "controller saw no flow" 0
    (C.stats controller).C.flows_seen;
  let tbl = C.proactive_table controller in
  Alcotest.(check bool) "table installed" true (tbl.Compiler.entries <> []);
  Alcotest.(check (float 1e-9))
    "full installed coverage" 1.0 tbl.Compiler.installed_coverage;
  (* the ident++ guard outranks the wildcard pass on every switch: the
     exchange stays controller-mediated even under a pass-all policy *)
  List.iter
    (fun dpid ->
      let table = Openflow.Switch.table (Net.switch network dpid) in
      let exchange =
        Packet.of_five_tuple
          (Five_tuple.make ~proto:Proto.Tcp ~src:(ip "10.0.1.1")
             ~dst:(ip "10.0.4.1") ~src_port:9999 ~dst_port:Identxx.Wire.port)
      in
      match Openflow.Flow_table.lookup table ~in_port:1 exchange with
      | Some e ->
          Alcotest.(check bool)
            "guard punts ident++ traffic" true
            (List.mem Openflow.Action.To_controller
               e.Openflow.Flow_entry.rule.actions)
      | None -> Alcotest.fail "no guard entry matched ident++ traffic")
    (Net.switches_in_domain network 0);
  Alcotest.(check bool)
    "recompile counted" true
    (counter_sum obs "identxx_compiler_recompiles_total" >= 1);
  Alcotest.(check bool)
    "delta adds counted" true
    (counter_sum obs "identxx_compiler_delta_entries_total" >= 1);
  Alcotest.(check bool)
    "eviction series exported per switch" true
    (series_exists obs "identxx_switch_evictions_total");
  Alcotest.(check int)
    "no evictions on an unbounded table" 0
    (counter_sum obs "identxx_switch_evictions_total")

let test_e2e_reactive_residue_still_punts () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~config:proactive_config ~switches:4
      ~hosts_per_switch:1 ()
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80\npass all with \
     eq(@src[name], firefox)";
  let h1 = hosts.(0) and h4 = hosts.(3) in
  let proc = Identxx.Host.run h1 ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let static_fl =
    Identxx.Host.connect h1 ~proc ~dst:(Identxx.Host.ip h4) ~dst_port:80 ()
  in
  let reactive_fl =
    Identxx.Host.connect h1 ~proc ~dst:(Identxx.Host.ip h4) ~dst_port:8080 ()
  in
  send_later engine network h1 ~flow:static_fl ~at_ms:1;
  send_later engine network h1 ~flow:reactive_fl ~at_ms:2;
  Sim.Engine.run engine;
  let st = C.stats controller in
  (* only the port-8080 flow needed the controller; port 80 rode the
     compiled table *)
  Alcotest.(check int) "one reactive flow decided" 1 st.C.flows_seen;
  Alcotest.(check int) "reactive flow allowed" 1 st.C.allowed;
  Alcotest.(check bool) "it cost a packet-in" true (Net.packet_ins network >= 1);
  Alcotest.(check bool) "queries went out" true (st.C.queries_sent >= 1)

let test_e2e_keep_state_stays_reactive () =
  (* Keep-state regions are inherently stateful: statically forwarding
     the opening packet would skip conn-state recording and strand the
     reply. The lowering punts both directions — the opening packet pays
     one round-trip, the reply is readmitted by connection state. *)
  let s = Deploy.simple_network ~config:proactive_config () in
  PS.add_exn
    (C.policy s.Deploy.controller)
    ~name:"00" "block all\npass proto tcp from any to any port 80 keep state";
  let proc = Identxx.Host.run s.Deploy.client ~user:"u" ~exe:"/bin/app" () in
  let fl =
    Identxx.Host.connect s.Deploy.client ~proc
      ~dst:(Identxx.Host.ip s.Deploy.server)
      ~dst_port:80 ()
  in
  send_later s.Deploy.engine s.Deploy.network s.Deploy.client ~flow:fl ~at_ms:1;
  Sim.Engine.run s.Deploy.engine;
  (* abstractly static pass... *)
  Alcotest.(check decision)
    "abstract table decides pass" (Compiler.Decide Pf.Ast.Pass)
    (Compiler.lookup (C.proactive_table s.Deploy.controller) fl);
  (* ...but the lowering punted, so the controller saw it and recorded
     connection state *)
  let st = C.stats s.Deploy.controller in
  Alcotest.(check int) "opening packet reached the controller" 1
    st.C.flows_seen;
  Alcotest.(check int) "and was allowed" 1 st.C.allowed;
  let delivered_before = Net.delivered s.Deploy.network in
  (* the reply space is statically blocked ("block all"), but the
     compiled block entry overlapping the keep-state reverse space was
     demoted to a punt: state readmits the reply instead of hardware
     dropping it (here the reply rides the reverse-path entry the
     allow installed, exactly the reactive baseline) *)
  let reply = Packet.of_five_tuple (Five_tuple.reverse fl) in
  Net.send_from_host s.Deploy.network ~name:"server" reply;
  Sim.Engine.run s.Deploy.engine;
  Alcotest.(check bool)
    "reply delivered" true
    (Net.delivered s.Deploy.network > delivered_before);
  Alcotest.(check int)
    "reply readmitted by state, not re-decided" 1
    (C.stats s.Deploy.controller).C.flows_seen;
  (* reverse-space traffic with no installed reverse entry (a later
     connection's reply arriving after a cache flush, say) must find a
     punt or a table miss in the compiled band — never a hardware drop *)
  let stray_reply =
    Packet.of_five_tuple
      (Five_tuple.make ~proto:Proto.Tcp
         ~src:(Identxx.Host.ip s.Deploy.server)
         ~dst:(Identxx.Host.ip s.Deploy.client)
         ~src_port:80 ~dst_port:55555)
  in
  let table = Openflow.Switch.table (Net.switch s.Deploy.network 1) in
  (match Openflow.Flow_table.lookup table ~in_port:2 stray_reply with
  | None -> () (* table miss punts too *)
  | Some e ->
      Alcotest.(check bool)
        "demoted block punts instead of dropping" true
        (List.mem Openflow.Action.To_controller e.Openflow.Flow_entry.rule.actions))

(* The compiled entries (cookie [Compiler.proactive_cookie]) in switch
   [dpid]'s table 0, as "prio=<p> <fields> -> <actions>". *)
let compiled_on network dpid =
  Openflow.Flow_table.entries (Openflow.Switch.table (Net.switch network dpid))
  |> List.filter_map (fun (e : Openflow.Flow_entry.t) ->
         if e.Openflow.Flow_entry.rule.cookie = Compiler.proactive_cookie then
           Some
             (Format.asprintf "prio=%d %a -> %a" e.Openflow.Flow_entry.rule.priority
                MF.pp e.Openflow.Flow_entry.rule.fields Openflow.Action.pp_list
                e.Openflow.Flow_entry.rule.actions)
         else None)

(* client - s1 - server under a proactive controller, with a table
   capacity. *)
let one_switch_network ~obs ~capacity =
  let engine = Sim.Engine.create () in
  let topology = Topo.create () in
  Topo.add_switch topology 1;
  Topo.add_host topology "client";
  Topo.add_host topology "server";
  Topo.link topology (Topo.Host "client", 0) (Topo.Sw 1, 1);
  Topo.link topology (Topo.Host "server", 0) (Topo.Sw 1, 2);
  let network = Net.create ~table_capacity:capacity ~engine ~topology () in
  let controller = C.create ~config:proactive_config ~obs ~network ~id:0 () in
  let host name mac addr =
    let h = Identxx.Host.create ~name ~mac:(Mac.of_int mac) ~ip:(ip addr) () in
    Deploy.attach_host network h;
    h
  in
  let client = host "client" 0x0a0001 "10.0.0.1" in
  let server = host "server" 0x0a0002 "10.0.0.2" in
  (engine, network, controller, client, server)

let test_e2e_eviction_telemetry () =
  (* A TCAM-sized table under reactive churn: the per-flow entries push
     out one another (LRU victims), which the eviction counter shows,
     and never a compiled entry or a guard. *)
  let obs = Obs.Registry.create () in
  let engine, network, controller, client, server =
    one_switch_network ~obs ~capacity:6
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80\npass all with \
     eq(@src[name], firefox)";
  Sim.Engine.run engine;
  let installed = compiled_on network 1 in
  Alcotest.(check int) "the pass entry and two guards" 3 (List.length installed);
  let proc = Identxx.Host.run client ~user:"u" ~exe:"/bin/app" () in
  for i = 1 to 5 do
    let fl =
      Identxx.Host.connect client ~proc ~dst:(Identxx.Host.ip server)
        ~dst_port:(8080 + i) ()
    in
    send_later engine network client ~flow:fl ~at_ms:i
  done;
  Sim.Engine.run engine;
  Alcotest.(check bool)
    "switch evictions counted" true
    (counter_sum obs "identxx_switch_evictions_total" >= 1);
  Alcotest.(check (list string))
    "every compiled entry and guard survives" installed
    (compiled_on network 1);
  Alcotest.(check bool)
    "refusal series exported per switch" true
    (series_exists obs "identxx_switch_refusals_total");
  Alcotest.(check int)
    "nothing refused while reactive entries remain" 0
    (counter_sum obs "identxx_switch_refusals_total")

(* The reactive-churn bypass: with capacity 8, five port-8081 flows
   used to evict the ident++ guard and then the compiled port-23
   block, after which a port-23 packet reached the server in hardware,
   with no packet-in and no audit entry (three to five flows do it).
   Eviction now spares every entry with a cookie, so the block stays
   and the packet dies at the switch. *)
let test_e2e_churn_keeps_compiled_blocks () =
  let obs = Obs.Registry.create () in
  let engine, network, controller, client, server =
    one_switch_network ~obs ~capacity:8
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "pass all\n\
     block proto tcp from any to any port 23\n\
     block proto tcp from any to any port 8081\n\
     pass proto tcp from any to any port 8081 with eq(@src[name], firefox)";
  let proc = Identxx.Host.run client ~user:"u" ~exe:"/bin/app" () in
  let connect dst_port =
    Identxx.Host.connect client ~proc ~dst:(Identxx.Host.ip server) ~dst_port ()
  in
  send_later engine network client ~flow:(connect 80) ~at_ms:1;
  for i = 0 to 4 do
    send_later engine network client ~flow:(connect 8081) ~at_ms:(2 + i)
  done;
  Sim.Engine.run engine;
  let installed = compiled_on network 1 in
  let delivered = Net.delivered network and seen = (C.stats controller).C.flows_seen in
  send_later engine network client ~flow:(connect 23) ~at_ms:1;
  Sim.Engine.run engine;
  Alcotest.(check int) "the port-23 packet is not delivered" delivered
    (Net.delivered network);
  Alcotest.(check int) "and needs no controller" seen
    (C.stats controller).C.flows_seen;
  Alcotest.(check (list string))
    "the churn evicted no compiled entry" installed (compiled_on network 1);
  Alcotest.(check bool)
    "the churn evicted reactive entries" true
    (counter_sum obs "identxx_switch_evictions_total" >= 1)

let test_e2e_policy_change_rediffs () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~config:proactive_config ~switches:2
      ~hosts_per_switch:1 ()
  in
  ignore hosts;
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80";
  Sim.Engine.run engine;
  let before = C.proactive_table controller in
  Alcotest.(check bool) "entries installed" true (before.Compiler.entries <> []);
  PS.add_exn (C.policy controller) ~name:"10"
    "pass proto udp from any to any port 53";
  Sim.Engine.run engine;
  let after = C.proactive_table controller in
  Alcotest.(check bool)
    "table grew with the new rule" true
    (after.Compiler.entries <> [] && after <> before);
  (* the dataplane of every switch converged to the new abstract table:
     a DNS flow now decides in hardware *)
  let dns =
    Packet.of_five_tuple
      (Five_tuple.make ~proto:Proto.Udp ~src:(ip "10.0.1.1")
         ~dst:(ip "10.0.2.1") ~src_port:5353 ~dst_port:53)
  in
  List.iter
    (fun dpid ->
      let table = Openflow.Switch.table (Net.switch network dpid) in
      match Openflow.Flow_table.lookup table ~in_port:1 dns with
      | Some e ->
          Alcotest.(check int)
            "compiled cookie" Compiler.proactive_cookie
            e.Openflow.Flow_entry.rule.cookie
      | None -> Alcotest.fail "no compiled entry for the new rule")
    (Net.switches_in_domain network 0)

(* Table-0 entries anywhere in the domain that forward, by an output
   port or a jump to table 1, as "s<dpid> <entry>". *)
let forwarding_entries network =
  List.concat_map
    (fun dpid ->
      Openflow.Flow_table.entries
        (Openflow.Switch.table (Net.switch network dpid))
      |> List.filter (fun (e : Openflow.Flow_entry.t) ->
             let actions = e.Openflow.Flow_entry.rule.actions in
             Openflow.Action.output_ports actions <> []
             || List.mem (Openflow.Action.Goto_table 1) actions)
      |> List.map (fun e ->
             Format.asprintf "s%d %a" dpid Openflow.Flow_entry.pp e))
    (Net.switches_in_domain network 0)

(* Every table-1 route in the domain, as
   "s<dpid> table=1 <fields> -> <actions>", sorted. *)
let routes network =
  List.concat_map
    (fun dpid ->
      Openflow.Flow_table.entries
        (Openflow.Switch.table ~id:1 (Net.switch network dpid))
      |> List.map (fun (e : Openflow.Flow_entry.t) ->
             Format.asprintf "s%d table=1 %a -> %a" dpid MF.pp
               e.Openflow.Flow_entry.rule.fields
               Openflow.Action.pp_list e.Openflow.Flow_entry.rule.actions))
    (Net.switches_in_domain network 0)
  |> List.sort String.compare

(* The routes table 1 should hold: one per switch and reachable host,
   toward the topology's next hop. *)
let expected_routes network hosts =
  let topo = Net.topology network in
  List.concat_map
    (fun dpid ->
      List.filter_map
        (fun h ->
          Option.map
            (fun port ->
              Format.asprintf "s%d table=1 %a -> %a" dpid MF.pp
                { MF.any with MF.nw_dst = Some (Prefix.host (Identxx.Host.ip h)) }
                Openflow.Action.pp_list [ Openflow.Action.Output port ])
            (Topo.next_hop topo ~from:dpid ~dst_host:(Identxx.Host.name h)))
        (Array.to_list hosts))
    (Net.switches_in_domain network 0)
  |> List.sort String.compare

(* A partition reaches table 1 at once: s4 (and h4 behind it) is cut
   off, so no switch keeps a route across the cut. A reload that drops
   the pass rule leaves no table-0 entry that forwards. *)
let test_e2e_reload_after_partition () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~config:proactive_config ~switches:4
      ~hosts_per_switch:1 ()
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "pass proto tcp from any to any port 80";
  Sim.Engine.run engine;
  Alcotest.(check int) "one route per switch and host" 16
    (List.length (routes network));
  Alcotest.(check int) "the pass entry jumps to table 1 on every switch" 4
    (List.length (forwarding_entries network));
  Topo.unlink (Net.topology network) (Topo.Sw 3, 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "routes within each side of the cut" 10
    (List.length (routes network));
  Alcotest.(check (list string))
    "every route is the next hop" (expected_routes network hosts)
    (routes network);
  PS.add_exn (C.policy controller) ~name:"00" "block all";
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "no forwarding entry outlives the rule" [] (forwarding_entries network)

(* Adding keep state re-lowers the unchanged pass entry as a punt; the
   reload must replace the entry that jumps to table 1, or traffic
   would be forwarded around the state table. *)
let test_e2e_keep_state_reload_stops_forwarding () =
  let engine, network, controller, _ =
    Deploy.linear_network ~config:proactive_config ~switches:2
      ~hosts_per_switch:1 ()
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "pass proto tcp from any to any port 80";
  Sim.Engine.run engine;
  Alcotest.(check int)
    "the pass entry jumps to table 1 on both switches" 2
    (List.length (forwarding_entries network));
  PS.add_exn (C.policy controller) ~name:"00"
    "pass proto tcp from any to any port 80 keep state";
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "keep state leaves no forwarding entry" [] (forwarding_entries network)

(* Every compiled entry on the domain's switches, as
   "s<dpid> rank=<r> <fields> -> <actions>", sorted: entries of one
   priority may sit in either order, depending on install order. The
   rank is the entry's place among its switch's distinct compiled
   priorities, highest first. Absolute priorities are not comparable:
   a reload keeps every surviving entry at the priority it was
   installed at and spaces the new ones in the gaps between (see
   [Compiler.compile]), so the values depend on the table's history.
   The ranks keep all the table's lookups read: the same entries, the
   same actions, the same relative order. Table 1's routes are listed
   too (see [routes]). *)
let compiled_entries network =
  List.concat_map
    (fun dpid ->
      let compiled =
        Openflow.Flow_table.entries
          (Openflow.Switch.table (Net.switch network dpid))
        |> List.filter (fun (e : Openflow.Flow_entry.t) ->
               e.Openflow.Flow_entry.rule.cookie = Compiler.proactive_cookie)
      in
      let priorities =
        List.sort_uniq
          (fun a b -> compare b a)
          (List.map (fun (e : Openflow.Flow_entry.t) -> e.Openflow.Flow_entry.rule.priority) compiled)
      in
      let rank p =
        let rec find i = function
          | q :: _ when q = p -> i
          | _ :: rest -> find (i + 1) rest
          | [] -> assert false
        in
        find 0 priorities
      in
      List.map
        (fun (e : Openflow.Flow_entry.t) ->
          Format.asprintf "s%d rank=%d %a -> %a" dpid
            (rank e.Openflow.Flow_entry.rule.priority)
            MF.pp e.Openflow.Flow_entry.rule.fields Openflow.Action.pp_list
            e.Openflow.Flow_entry.rule.actions)
        compiled)
    (Net.switches_in_domain network 0)
  @ routes network
  |> List.sort String.compare

let reload_network () =
  Deploy.linear_network ~config:proactive_config ~switches:3
    ~hosts_per_switch:2 ()

(* What the switches hold after a fresh install of [files]: once they
   are loaded, the cache flush deletes table 0 and re-adds the whole
   compiled table from the controller's view. Table 1's routes follow
   the topology, which the files do not change. *)
let fresh_install files =
  let engine, network, controller, _ = reload_network () in
  List.iter
    (fun (name, text) -> PS.add_exn (C.policy controller) ~name text)
    files;
  Sim.Engine.run engine;
  C.flush_cache controller;
  Sim.Engine.run engine;
  compiled_entries network

let reload_base =
  "block all\npass proto tcp from any to any port 80\npass proto tcp from \
   10.0.2.0/24 to any port 22"

(* Load [reload_base] as file 00, then each of [edits] in turn as file
   50. After every reload, each switch's compiled entries must equal
   those of a fresh install of the same two files. *)
let check_reloads ~what edits =
  let engine, network, controller, _ = reload_network () in
  PS.add_exn (C.policy controller) ~name:"00" reload_base;
  Sim.Engine.run engine;
  List.iteri
    (fun i text ->
      PS.add_exn (C.policy controller) ~name:"50" text;
      Sim.Engine.run engine;
      let what = Printf.sprintf "%s, reload %d" what (i + 1) in
      let fresh = fresh_install [ ("00", reload_base); ("50", text) ] in
      Alcotest.(check bool) (what ^ ": fresh install has entries") true
        (fresh <> []);
      Alcotest.(check (list string))
        (what ^ ": switches hold a fresh install")
        fresh (compiled_entries network))
    edits

(* The first edit compiles to a pass and a block with the same fields,
   and the second removes both. *)
let test_e2e_reload_matches_fresh_install () =
  check_reloads ~what:"edit"
    [
      "pass proto tcp from 10.0.2.0/24 to 10.0.1.0/24 port 25\n\
       block proto tcp from 10.0.2.0/24 to 10.0.1.0/24 port 25";
      "block proto tcp from 10.0.2.0/24 to 10.0.3.0/24 port 25";
    ]

(* Random edits of file 50: one or two rules over the three host
   subnets and ports 80, 22 and 25, four reloads per case. *)
let test_e2e_random_reloads_match_fresh_install () =
  let prng = Sim.Prng.create 1 in
  let subnet () =
    Printf.sprintf "10.0.%d.0/24" (Sim.Prng.int_range prng 1 3)
  in
  let rule () =
    let action = if Sim.Prng.bool prng then "pass" else "block" in
    let src = subnet () in
    let dst = subnet () in
    Printf.sprintf "%s proto tcp from %s to %s port %d" action src dst
      (Sim.Prng.pick prng [| 80; 22; 25 |])
  in
  let edit () =
    String.concat "\n"
      (List.init (Sim.Prng.int_range prng 1 2) (fun _ -> rule ()))
  in
  for case = 1 to 100 do
    let edits = List.init 4 (fun _ -> edit ()) in
    check_reloads
      ~what:(Printf.sprintf "case %d [%s]" case (String.concat " | " edits))
      edits
  done

(* An entry a reload leaves alone keeps its switch entry: editing
   another file installs the new rule's entries below it without a
   flow-mod for it, so the entry's priority and installation time stay.
   With compile numbering the insert below would have moved it. *)
let test_e2e_unchanged_entry_survives () =
  let engine, network, controller, _ =
    Deploy.linear_network ~config:proactive_config ~switches:2
      ~hosts_per_switch:1 ()
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80";
  Sim.Engine.run engine;
  let compiled fields =
    Openflow.Flow_table.entries (Openflow.Switch.table (Net.switch network 1))
    |> List.filter_map (fun (e : Openflow.Flow_entry.t) ->
           if
             e.Openflow.Flow_entry.rule.cookie = Compiler.proactive_cookie
             && MF.equal e.Openflow.Flow_entry.rule.fields fields
           then
             Some
               ( e.Openflow.Flow_entry.rule.priority,
                 Sim.Time.to_ns e.Openflow.Flow_entry.installed_at )
           else None)
  in
  let web = { MF.any with MF.nw_proto = Some Proto.Tcp; tp_dst = Some 80 }
  and dns = { MF.any with MF.nw_proto = Some Proto.Udp; tp_dst = Some 53 } in
  let before = compiled web in
  Alcotest.(check int) "one port-80 entry" 1 (List.length before);
  Alcotest.(check int) "no DNS entry yet" 0 (List.length (compiled dns));
  PS.add_exn (C.policy controller) ~name:"50"
    "pass proto udp from any to any port 53";
  Sim.Engine.run engine;
  Alcotest.(check int) "the DNS entry installed" 1 (List.length (compiled dns));
  Alcotest.(check (list (pair int int)))
    "port-80 entry untouched (priority, installed at ns)" before (compiled web)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Every table-0 and table-1 entry in the domain that outputs to a
   port with no link, as "s<dpid> table <id> <entry>". *)
let dead_outputs network =
  let topo = Net.topology network in
  List.concat_map
    (fun dpid ->
      let wired = Topo.ports_of topo (Topo.Sw dpid) in
      List.concat_map
        (fun id ->
          Openflow.Flow_table.entries
            (Openflow.Switch.table ~id (Net.switch network dpid))
          |> List.filter (fun (e : Openflow.Flow_entry.t) ->
                 List.exists
                   (fun p -> not (List.mem p wired))
                   (Openflow.Action.output_ports e.Openflow.Flow_entry.rule.actions))
          |> List.map (fun e ->
                 Format.asprintf "s%d table %d %a" dpid id Openflow.Flow_entry.pp e))
        [ 0; 1 ])
    (Net.switches_in_domain network 0)

(* A k=4 fat-tree under a compiled port-80 pass rule. *)
let fat_tree_network () =
  let layout = Workload.Fabric.build (Workload.Fabric.Fat_tree { k = 4 }) in
  let engine = Sim.Engine.create () in
  let network =
    Net.create ~engine ~topology:layout.Workload.Fabric.topology ()
  in
  let controller = C.create ~config:proactive_config ~network ~id:0 () in
  let hosts =
    Array.map
      (fun (hs : Workload.Fabric.host_spec) ->
        Identxx.Host.create ~name:hs.Workload.Fabric.hs_name
          ~mac:hs.Workload.Fabric.hs_mac ~ip:hs.Workload.Fabric.hs_ip ())
      layout.Workload.Fabric.hosts
  in
  Array.iter (Deploy.attach_host network) hosts;
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80";
  Sim.Engine.run engine;
  (engine, network, controller, hosts)

(* A seeded fabric link goes down: the routes that crossed it move at
   once, reloads leave no entry on a dead port, compiled traffic that
   crossed the link still arrives without a packet-in, and when the
   link comes back every route is the current next hop again. *)
let test_e2e_link_down_repairs_routes () =
  let engine, network, controller, hosts = fat_tree_network () in
  let topo = Net.topology network in
  let fabric =
    Array.of_list
      (List.filter
         (fun (l : Topo.link) ->
           match (l.Topo.a.Topo.node, l.Topo.b.Topo.node) with
           | Topo.Sw _, Topo.Sw _ -> true
           | _ -> false)
         (Topo.links topo))
  in
  let prng = Sim.Prng.create 31 in
  let crossing (l : Topo.link) =
    (* A host pair whose path runs over [l]. *)
    let uses hops =
      List.exists
        (fun (dpid, _, out) ->
          List.exists
            (fun (e : Topo.endpoint) -> e.Topo.node = Topo.Sw dpid && e.Topo.port = out)
            [ l.Topo.a; l.Topo.b ])
        hops
    in
    let n = Array.length hosts in
    let pairs = List.init (n * n) (fun i -> (hosts.(i / n), hosts.(i mod n))) in
    List.find_opt
      (fun (a, b) ->
        a != b
        &&
        match
          Topo.switch_path topo ~src:(Identxx.Host.name a) ~dst:(Identxx.Host.name b)
        with
        | Some hops -> uses hops
        | None -> false)
      pairs
  in
  let rec pick () =
    let l = Sim.Prng.pick prng fabric in
    match crossing l with Some pair -> (l, pair) | None -> pick ()
  in
  let l, (src, dst) = pick () in
  Alcotest.(check (list string)) "routes before" (expected_routes network hosts)
    (routes network);
  Topo.unlink topo (l.Topo.a.Topo.node, l.Topo.a.Topo.port);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "no entry outputs to the dead port" []
    (dead_outputs network);
  Alcotest.(check (list string)) "routes repaired" (expected_routes network hosts)
    (routes network);
  List.iter
    (fun text ->
      PS.add_exn (C.policy controller) ~name:"50" text;
      Sim.Engine.run engine;
      Alcotest.(check (list string)) ("after reload: " ^ text) []
        (dead_outputs network))
    [
      "pass proto tcp from any to any port 22";
      "pass proto tcp from any to any port 25";
      "block proto tcp from 10.1.0.0/16 to any port 80";
    ];
  let packet_ins = Net.packet_ins network and delivered = Net.delivered network in
  let proc = Identxx.Host.run src ~user:"u" ~exe:"/bin/app" () in
  let fl = Identxx.Host.connect src ~proc ~dst:(Identxx.Host.ip dst) ~dst_port:80 () in
  Net.send_from_host network ~name:(Identxx.Host.name src)
    (Identxx.Host.first_packet src ~flow:fl);
  Sim.Engine.run engine;
  Alcotest.(check int) "traffic that crossed the link arrives" (delivered + 1)
    (Net.delivered network);
  Alcotest.(check int) "without a packet-in" packet_ins (Net.packet_ins network);
  Topo.link topo ~latency:l.Topo.latency
    (l.Topo.a.Topo.node, l.Topo.a.Topo.port)
    (l.Topo.b.Topo.node, l.Topo.b.Topo.port);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "routes after the link returns"
    (expected_routes network hosts) (routes network)

(* Revocation deletes every table-0 entry naming the principal and
   re-adds the compiled ones among them. Routes are forwarding facts of
   the topology, not decisions, so every host keeps its route. A cache
   flush deletes table 0 and re-adds the whole compiled table. *)
let test_e2e_revoke_and_flush_keep_routes () =
  let engine, network, controller, hosts =
    Deploy.linear_network ~config:proactive_config ~switches:3
      ~hosts_per_switch:2 ()
  in
  PS.add_exn (C.policy controller) ~name:"00"
    "block all\npass proto tcp from any to any port 80";
  Sim.Engine.run engine;
  let installed = compiled_entries network in
  Alcotest.(check int) "a route per switch and host" 18
    (List.length (routes network));
  ignore (C.revoke_principal controller ~ip:(Identxx.Host.ip hosts.(2)));
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "every host keeps its route"
    (expected_routes network hosts) (routes network);
  Alcotest.(check (list string))
    "the compiled table is back"
    (List.filter (fun r -> not (contains r "table=1")) installed)
    (List.filter (fun r -> not (contains r "table=1")) (compiled_entries network));
  C.flush_cache controller;
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "a flush rebuilds both tables" installed
    (compiled_entries network)

(* Table [id]'s compiled entries and routes in the domain, each with
   the time it was installed, sorted. *)
let install_times network ~id =
  List.concat_map
    (fun dpid ->
      Openflow.Flow_table.entries
        (Openflow.Switch.table ~id (Net.switch network dpid))
      |> List.filter (fun (e : Openflow.Flow_entry.t) ->
             e.Openflow.Flow_entry.rule.cookie = Compiler.proactive_cookie)
      |> List.map (fun (e : Openflow.Flow_entry.t) ->
             Format.asprintf "s%d prio=%d %a at %d" dpid
               e.Openflow.Flow_entry.rule.priority MF.pp e.Openflow.Flow_entry.rule.fields
               (Sim.Time.to_ns e.Openflow.Flow_entry.installed_at)))
    (Net.switches_in_domain network 0)
  |> List.sort String.compare

let revoke_policy =
  "block all\npass proto tcp from any to any port 80\npass proto tcp from \
   10.0.2.1 to any port 22"

(* A flush reaches each switch as one control event, and leaves table 1
   alone: every route keeps the time it was installed at. *)
let test_e2e_flush_one_event_per_switch () =
  let engine, network, controller, _ = reload_network () in
  PS.add_exn (C.policy controller) ~name:"00" reload_base;
  Sim.Engine.run engine;
  let routes = install_times network ~id:1 in
  let installed = compiled_entries network in
  Alcotest.(check int) "a route per switch and host" 18 (List.length routes);
  C.flush_cache controller;
  (* The tick's pass sends them. *)
  ignore (Sim.Engine.step engine);
  Alcotest.(check int) "one control event per switch" 3
    (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "every route keeps its installation time"
    routes (install_times network ~id:1);
  Alcotest.(check (list string)) "the compiled table is back" installed
    (compiled_entries network)

(* A revocation re-adds only what its deletes took: the compiled entry
   naming the principal. Every other compiled entry and every route
   keeps the time it was installed at. *)
let test_e2e_revoke_one_event_per_switch () =
  let engine, network, controller, _ = reload_network () in
  PS.add_exn (C.policy controller) ~name:"00" revoke_policy;
  Sim.Engine.run engine;
  let names_host s = contains s "10.0.2.1/32" in
  let others () = List.filter (fun s -> not (names_host s)) (install_times network ~id:0) in
  let kept = others () and routes = install_times network ~id:1 in
  let installed = compiled_entries network in
  Alcotest.(check bool) "a compiled entry names the host" true
    (List.exists names_host (install_times network ~id:0));
  ignore (C.revoke_principal controller ~ip:(ip "10.0.2.1"));
  (* The tick's pass sends them. *)
  ignore (Sim.Engine.step engine);
  Alcotest.(check int) "one control event per switch" 3
    (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "entries not naming the host keep their installation time" kept
    (others ());
  Alcotest.(check (list string)) "the entry naming the host is back" installed
    (compiled_entries network);
  Alcotest.(check (list string)) "every route stays" routes
    (install_times network ~id:1)

(* The controller's messages in the hop log, after its first [skip]
   entries. *)
let controller_events ~skip network =
  List.filteri (fun i _ -> i >= skip) (Sim.Trace.entries (Net.trace network))
  |> List.filter_map (fun (e : Sim.Trace.entry) ->
         if e.Sim.Trace.actor = "controller" then Some e.Sim.Trace.event else None)

(* What the controller sent each switch after the hop log's first
   [skip] entries, one letter per message: D for a delete, B for a
   barrier, A for an add, T for any table-1 message. *)
let sent_shapes ~skip network =
  let events = controller_events ~skip network in
  List.map
    (fun dpid ->
      let prefix = Printf.sprintf "-> s%d " dpid in
      String.concat ""
        (List.filter_map
           (fun ev ->
             if not (String.starts_with ~prefix ev) then None
             else if contains ev "table=1" then Some "T"
             else if contains ev "barrier" then Some "B"
             else if contains ev "flow-mod del" then Some "D"
             else if contains ev "flow-mod add" then Some "A"
             else Some "?")
           events))
    (Net.switches_in_domain network 0)

(* Each switch reads a flush's and a revocation's messages as deletes,
   then one barrier, then adds; none of them is for table 1. *)
let test_e2e_reinstall_order () =
  let engine, network, controller, _ = reload_network () in
  PS.add_exn (C.policy controller) ~name:"00" revoke_policy;
  Sim.Engine.run engine;
  let trace = Net.trace network in
  Sim.Trace.set_enabled trace true;
  let shape_of s =
    let squeeze = Buffer.create 4 in
    String.iter
      (fun c ->
        let n = Buffer.length squeeze in
        if n = 0 || Buffer.nth squeeze (n - 1) <> c then Buffer.add_char squeeze c)
      s;
    Buffer.contents squeeze
  in
  List.iter
    (fun (what, act) ->
      let skip = List.length (Sim.Trace.entries trace) in
      act ();
      Sim.Engine.run engine;
      let shapes = sent_shapes ~skip network in
      Alcotest.(check (list string))
        (what ^ ": deletes, a barrier, adds")
        [ "DBA"; "DBA"; "DBA" ]
        (List.map shape_of shapes);
      List.iter
        (fun s ->
          Alcotest.(check int) (what ^ ": one barrier") 1
            (List.length (String.split_on_char 'B' s) - 1))
        shapes)
    [
      ("flush", fun () -> C.flush_cache controller);
      ( "revoke",
        fun () -> ignore (C.revoke_principal controller ~ip:(ip "10.0.2.1")) );
    ]

(* The guards stand while the view holds a compiled table: a flush over
   an empty view sends none, and the next first install sends them
   again. Under a pass-all table, ident++ exchange packets still punt
   on every switch. *)
let test_e2e_guards_follow_the_view () =
  let engine, network, controller, _ = reload_network () in
  let trace = Net.trace network in
  Sim.Trace.set_enabled trace true;
  (* The guards sent by [act], on every switch. *)
  let guards_sent act =
    let skip = List.length (Sim.Trace.entries trace) in
    act ();
    Sim.Engine.run engine;
    List.length
      (List.filter
         (fun ev -> contains ev "flow-mod add prio=32767")
         (controller_events ~skip network))
  in
  let load text () = PS.add_exn (C.policy controller) ~name:"00" text in
  let exchange_punts what =
    let exchange =
      Packet.of_five_tuple
        (Five_tuple.make ~proto:Proto.Tcp ~src:(ip "10.0.1.1")
           ~dst:(ip "10.0.3.1") ~src_port:9999 ~dst_port:Identxx.Wire.port)
    in
    List.iter
      (fun dpid ->
        match
          Openflow.Switch.process (Net.switch network dpid)
            ~now:(Sim.Engine.now engine) ~in_port:1 exchange
        with
        | Openflow.Switch.Send_to_controller -> ()
        | _ -> Alcotest.failf "%s: s%d does not punt ident++ traffic" what dpid)
      (Net.switches_in_domain network 0)
  in
  Alcotest.(check int) "the first install sends the guards" 6
    (guards_sent (load "pass all"));
  exchange_punts "first install";
  Alcotest.(check int) "emptying the view sends no guard" 0
    (guards_sent (load "pass log all"));
  Alcotest.(check int) "the view is empty" 0
    (List.length (C.proactive_table controller).Compiler.entries);
  exchange_punts "empty view";
  Alcotest.(check int) "a flush over an empty view sends no guard" 0
    (guards_sent (fun () -> C.flush_cache controller));
  exchange_punts "flushed";
  Alcotest.(check int) "the next first install sends them" 6
    (guards_sent (load "pass all"));
  exchange_punts "second install"

(* Whatever the policy and the principal, a revocation and then a flush
   each leave the switches' two tables and the controller's view as
   they were. *)
let prop_revoke_and_flush_restore_the_view =
  QCheck.Test.make ~name:"revocation and flush restore the view" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 1 5) (gen_rule_over linear_addrs)) (int_bound 5))
       ~print:(fun (rules, h) ->
         Printf.sprintf "revoke host %d under:\n%s" h (String.concat "\n" rules)))
    (fun (rules, h) ->
      let engine, network, controller, hosts = reload_network () in
      PS.add_exn (C.policy controller) ~name:"00"
        (String.concat "\n" ("block all" :: rules));
      Sim.Engine.run engine;
      let installed = compiled_entries network in
      let view = C.proactive_table controller in
      let restored what =
        let now = compiled_entries network in
        if now <> installed then
          QCheck.Test.fail_reportf "after %s: lost [%s], gained [%s]" what
            (String.concat "; " (List.filter (fun e -> not (List.mem e now)) installed))
            (String.concat "; " (List.filter (fun e -> not (List.mem e installed)) now));
        if C.proactive_table controller <> view then
          QCheck.Test.fail_reportf "after %s: the view changed" what
      in
      ignore (C.revoke_principal controller ~ip:(Identxx.Host.ip hosts.(h)));
      Sim.Engine.run engine;
      restored "the revocation";
      C.flush_cache controller;
      Sim.Engine.run engine;
      restored "the flush";
      true)

(* One edit on a 13-switch tree with 18 hosts, after [reload_base] and
   a first edit: [measure] wraps the second edit's load and the run
   that applies it. *)
let tree_reload measure =
  let engine, network, controller, _ =
    Deploy.tree_network ~config:proactive_config ~depth:3 ~fanout:3
      ~hosts_per_edge:2 ()
  in
  PS.add_exn (C.policy controller) ~name:"00" reload_base;
  PS.add_exn (C.policy controller) ~name:"50"
    "pass proto tcp from 10.0.2.0/24 to 10.0.1.0/24 port 25";
  Sim.Engine.run engine;
  let old_ = C.proactive_table controller in
  let measured =
    measure network (fun () ->
        PS.add_exn (C.policy controller) ~name:"50"
          "pass proto tcp from 10.0.1.0/24 to 10.0.2.0/24 port 25\n\
           block proto tcp from 10.0.2.0/24 to 10.0.1.0/24 port 443";
        Sim.Engine.run engine)
  in
  (Compiler.delta ~old_ (C.proactive_table controller), measured)

(* Allocation of one proactive reload: compile, number, diff, lower and
   send one edit, and the switches apply it. Measured 4,178 minor words
   and 78 flow-mods (5 adds and 1 strict delete per switch); the budget
   keeps about the 5% of headroom it had. 7,271 while each applied rule
   built a hash table for its memo and copied each node it visited
   into lists, the finalize pass and the planner copied nodes too, and
   the planner held its plans in a hash table keyed by (level, node)
   pairs. 7,955 while the planner built
   every address part's prefix list to count it; 8,769 while each
   switch copied an add's rule into an entry of its own and wrapped
   that in a slot. 9,547
   while every entry was written afresh and numbered a second time and
   the cache lost the plans below the ones a compile hit. 11,996
   words (12,116 after the tests this file now runs first) while each
   re-planned node rebuilt the rule list of everything below it and
   the renumber indexed its span in a map; 13,639 words while each
   reload parsed the edited file twice and every other file once
   more, renumbered the whole table, walked the diagram a second time
   for its coverage and each emitted frame built a key to find its
   link; 18,997 words while every reload re-applied
   the unchanged rules of file 00, the compiler walked a copy of the
   diagram, the delta indexed both tables in maps and each flow-mod
   reached each switch as its own event; 40,888 words and 416
   flow-mods while pass entries lowered to a copy per host in one
   table and every reload re-sent the guards (26 of the 416); 60,185
   words when, besides, entries were renumbered by position and
   lowered once per switch. *)
let test_e2e_reload_allocation () =
  let d, words =
    tree_reload (fun _ reload ->
        let before = Gc.minor_words () in
        reload ();
        Gc.minor_words () -. before)
  in
  Alcotest.(check bool)
    "the edit adds and deletes entries" true
    (d.Compiler.d_add <> [] && d.Compiler.d_del <> []);
  let _, flow_mods =
    tree_reload (fun network reload ->
        let trace = Net.trace network in
        Sim.Trace.set_enabled trace true;
        reload ();
        List.length
          (List.filter
             (fun (e : Sim.Trace.entry) ->
               e.Sim.Trace.actor = "controller"
               && contains e.Sim.Trace.event "flow-mod")
             (Sim.Trace.entries trace)))
  in
  Alcotest.(check int) "flow-mods: each add and delete once per switch"
    (13 * (List.length d.Compiler.d_add + List.length d.Compiler.d_del))
    flow_mods;
  if words > 4_400.0 then Alcotest.failf "%.0f minor words for one reload" words

(* A reload lowers each compiled entry once and hands the same
   flow-mods to every switch, and a switch keeps the rule its flow-mod
   carried: the 13 switches' copies of each entry the edit added hold
   one rule value. *)
let test_e2e_reload_shares_rules () =
  let d, tables =
    tree_reload (fun network reload ->
        reload ();
        List.map
          (fun dpid -> Openflow.Switch.table (Net.switch network dpid))
          (Net.switches_in_domain network 0))
  in
  Alcotest.(check int) "every switch received the delta" 13 (List.length tables);
  Alcotest.(check bool) "the edit adds entries" true (d.Compiler.d_add <> []);
  List.iter
    (fun (e : Compiler.entry) ->
      let held t =
        List.find
          (fun (x : Openflow.Flow_entry.t) ->
            x.rule.cookie = Compiler.proactive_cookie
            && x.rule.priority = e.Compiler.e_priority
            && MF.equal x.rule.fields e.Compiler.e_fields)
          (Openflow.Flow_table.entries t)
      in
      match List.map held tables with
      | first :: rest ->
          Alcotest.(check bool)
            (Format.asprintf "one rule for prio=%d %a" e.Compiler.e_priority MF.pp
               e.Compiler.e_fields)
            true
            (List.for_all (fun (x : Openflow.Flow_entry.t) -> x.rule == first.rule) rest)
      | [] -> ())
    d.Compiler.d_add

(* Table 1's route sync, as it was written before it kept its routes
   as arrays: per switch, the (address, port) list it sent; the deletes
   of those whose address no route reaches now, then the adds of the
   routes whose port is new, each in list order. *)
let list_sync_routes sent topo hosts dpid =
  let old = Option.value ~default:[] (Hashtbl.find_opt sent dpid) in
  let cur =
    List.filter_map
      (fun (host, ip) ->
        Topo.next_hop topo ~from:dpid ~dst_host:host |> Option.map (fun port -> (ip, port)))
      hosts
  in
  Hashtbl.replace sent dpid cur;
  let fields ip = { MF.any with MF.nw_dst = Some (Prefix.host ip) } in
  Array.of_list
    (List.filter_map
       (fun (ip, _) ->
         if List.mem_assoc ip cur then None
         else
           Some
             (Openflow.Message.delete_strict ~table_id:1 ~priority:0x8000 ~fields:(fields ip)))
       old
    @ List.filter_map
        (fun (ip, port) ->
          if List.assoc_opt ip old = Some port then None
          else
            Some
              (Openflow.Message.add_flow ~table_id:1 ~priority:0x8000
                 ~cookie:Compiler.proactive_cookie ~fields:(fields ip)
                 [ Openflow.Action.Output port ]))
        cur)

(* What changes between two syncs: a fabric link goes down or comes
   back, or the host list changes: a fresh copy of it, its reverse, one
   host left out, or one host given another's address. *)
type route_change = Flap of int | Hosts of int * int

(* Every switch's route sync on a k=4 fat-tree, through random link
   flaps and host-list changes, sends what the list-based sync sends,
   message for message in order. *)
let prop_route_sync_matches_lists =
  QCheck.Test.make ~name:"route sync sends what the list-based sync does" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 1 12)
        (map
           (fun (flap, (which, arg)) -> if flap then Flap arg else Hosts (which, arg))
           (pair bool (pair (int_bound 4) (int_bound 1000)))))
    (fun changes ->
      let layout = Workload.Fabric.build (Workload.Fabric.Fat_tree { k = 4 }) in
      let topo = layout.Workload.Fabric.topology in
      let all_hosts =
        Array.to_list
          (Array.map
             (fun (h : Workload.Fabric.host_spec) -> (h.Workload.Fabric.hs_name, h.hs_ip))
             layout.Workload.Fabric.hosts)
      in
      let fabric =
        Array.of_list
          (List.filter
             (fun (l : Topo.link) ->
               match (l.Topo.a.Topo.node, l.Topo.b.Topo.node) with
               | Topo.Sw _, Topo.Sw _ -> true
               | _ -> false)
             (Topo.links topo))
      in
      let down = Array.make (Array.length fabric) false in
      let p = Identxx_core.Proactive.create (Obs.Registry.create ()) ~labels:[] in
      let sent = Hashtbl.create 16 in
      let sync hosts =
        List.iter
          (fun dpid ->
            let got = Identxx_core.Proactive.sync_routes p topo hosts dpid
            and want = list_sync_routes sent topo hosts dpid in
            if got <> want then
              QCheck.Test.fail_reportf "switch %d: %d messages, the list-based sync %d" dpid
                (Array.length got) (Array.length want))
          (Topo.switches topo)
      in
      sync all_hosts;
      List.iter
        (function
          | Flap i ->
              let i = i mod Array.length fabric in
              let l = fabric.(i) in
              let a = (l.Topo.a.Topo.node, l.Topo.a.Topo.port) in
              if down.(i) then
                Topo.link topo ~latency:l.Topo.latency a (l.Topo.b.Topo.node, l.Topo.b.Topo.port)
              else Topo.unlink topo a;
              down.(i) <- not down.(i);
              sync (List.map Fun.id all_hosts)
          | Hosts (which, arg) ->
              let n = List.length all_hosts in
              sync
                (match which with
                | 0 -> List.map Fun.id all_hosts
                | 1 -> List.rev all_hosts
                | 2 -> List.filteri (fun i _ -> i <> arg mod n) all_hosts
                | 3 ->
                    let _, ip = List.nth all_hosts (arg mod n) in
                    List.mapi (fun i (h, a) -> (h, if i = (arg / n) mod n then ip else a)) all_hosts
                | _ -> all_hosts))
        changes;
      true)

let () =
  Alcotest.run "compiler"
    [
      ( "lowering",
        [
          Alcotest.test_case "simple policy" `Quick test_simple_lowering;
          Alcotest.test_case "prefix expansion" `Quick test_prefix_expansion;
          Alcotest.test_case "port enumeration" `Quick test_port_enumeration;
          Alcotest.test_case "budget spillover" `Quick test_budget_spill;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "incremental delta" `Quick test_incremental_delta;
          Alcotest.test_case "the compile cache stays bounded" `Quick
            test_cache_stays_bounded;
          QCheck_alcotest.to_alcotest prop_warm_cache_equals_cold;
          Alcotest.test_case "an edit re-plans only its path" `Quick
            test_edit_replans_only_its_path;
          Alcotest.test_case "an edit after 1,000 untouched rules" `Quick
            test_edit_after_1000_rules;
          Alcotest.test_case "a table past 2,048 entries collapses" `Quick
            test_large_table_collapses;
        ] );
      ( "renumber",
        [
          QCheck_alcotest.to_alcotest prop_reloads_keep_unchanged_entries;
          QCheck_alcotest.to_alcotest prop_reloads_return;
          QCheck_alcotest.to_alcotest prop_delta_matches_reference;
          Alcotest.test_case "an exhausted gap" `Quick test_exhausted_gap;
        ] );
      ( "differential",
        [
          Alcotest.test_case "synthetic corpus" `Quick
            test_differential_synthetic;
          Alcotest.test_case "shipped policies" `Quick
            test_differential_shipped;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "flow-table LRU hook" `Quick
            test_flow_table_eviction_hook;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "zero packet-ins on a static flow" `Quick
            test_e2e_zero_packet_in;
          Alcotest.test_case "reactive residue punts" `Quick
            test_e2e_reactive_residue_still_punts;
          Alcotest.test_case "keep-state stays reactive" `Quick
            test_e2e_keep_state_stays_reactive;
          Alcotest.test_case "eviction telemetry" `Quick
            test_e2e_eviction_telemetry;
          Alcotest.test_case "churn keeps compiled blocks" `Quick
            test_e2e_churn_keeps_compiled_blocks;
          Alcotest.test_case "policy change re-diffs" `Quick
            test_e2e_policy_change_rediffs;
          Alcotest.test_case "reload after partition" `Quick
            test_e2e_reload_after_partition;
          Alcotest.test_case "keep-state reload stops forwarding" `Quick
            test_e2e_keep_state_reload_stops_forwarding;
          Alcotest.test_case "reload matches a fresh install" `Quick
            test_e2e_reload_matches_fresh_install;
          Alcotest.test_case "random reloads match a fresh install" `Quick
            test_e2e_random_reloads_match_fresh_install;
          Alcotest.test_case "an unchanged entry survives a reload" `Quick
            test_e2e_unchanged_entry_survives;
          Alcotest.test_case "reload allocation" `Quick
            test_e2e_reload_allocation;
          Alcotest.test_case "a link down repairs routes" `Quick
            test_e2e_link_down_repairs_routes;
          Alcotest.test_case "a flush is one event per switch" `Quick
            test_e2e_flush_one_event_per_switch;
          Alcotest.test_case "a revocation is one event per switch" `Quick
            test_e2e_revoke_one_event_per_switch;
          Alcotest.test_case "flush and revoke order" `Quick
            test_e2e_reinstall_order;
          Alcotest.test_case "guards follow the view" `Quick
            test_e2e_guards_follow_the_view;
          QCheck_alcotest.to_alcotest prop_revoke_and_flush_restore_the_view;
          Alcotest.test_case "revocation and flush keep routes" `Quick
            test_e2e_revoke_and_flush_keep_routes;
          Alcotest.test_case "a reload shares one rule across switches" `Quick
            test_e2e_reload_shares_rules;
          QCheck_alcotest.to_alcotest prop_route_sync_matches_lists;
        ] );
    ]
