(* Unit tests for the smaller identxx_core and pf support modules:
   connection state, the audit log, the policy store, services, and the
   deploy helpers. *)

open Netcore

let eval_exn env ctx flow =
  match Pf.Eval.eval env ctx flow with Ok v -> v | Error e -> invalid_arg e

let check = Alcotest.check
let ip = Ipv4.of_string

let flow ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.tcp ~src:(ip src) ~dst:(ip dst) ~src_port:sp ~dst_port:dp

(* --- Conn_state --- *)

let test_conn_state_permits_forward_and_reverse () =
  let cs = Identxx_core.Conn_state.create () in
  let f = flow "10.0.0.1" "10.0.0.2" in
  Identxx_core.Conn_state.note cs ~now:Sim.Time.zero f;
  check Alcotest.bool "forward" true
    (Identxx_core.Conn_state.permits cs ~now:(Sim.Time.s 1) f);
  check Alcotest.bool "reverse" true
    (Identxx_core.Conn_state.permits cs ~now:(Sim.Time.s 1) (Five_tuple.reverse f));
  check Alcotest.bool "unrelated" false
    (Identxx_core.Conn_state.permits cs ~now:(Sim.Time.s 1)
       (flow "10.0.0.3" "10.0.0.2"))

let test_conn_state_idle_expiry () =
  let cs = Identxx_core.Conn_state.create ~idle_timeout:(Sim.Time.s 10) () in
  let f = flow "10.0.0.1" "10.0.0.2" in
  Identxx_core.Conn_state.note cs ~now:Sim.Time.zero f;
  (* A hit refreshes the timer. *)
  check Alcotest.bool "fresh at 8s" true
    (Identxx_core.Conn_state.permits cs ~now:(Sim.Time.s 8) f);
  check Alcotest.bool "refreshed at 16s" true
    (Identxx_core.Conn_state.permits cs ~now:(Sim.Time.s 16) f);
  check Alcotest.bool "stale at 30s" false
    (Identxx_core.Conn_state.permits cs ~now:(Sim.Time.s 30) f);
  check Alcotest.int "expire reaps" 1
    (Identxx_core.Conn_state.expire cs ~now:(Sim.Time.s 30));
  check Alcotest.int "empty" 0 (Identxx_core.Conn_state.size cs)

(* What keep-state passed and then left idle does not stay: noting
   100,000 flows, one per simulated millisecond under a one-second idle
   timeout, never grows the table past twice the 1,001 flows still
   inside the timeout. *)
let test_conn_state_stays_bounded () =
  let cs = Identxx_core.Conn_state.create ~idle_timeout:(Sim.Time.s 1) () in
  let live = 1001 in
  let largest = ref 0 in
  for i = 0 to 99_999 do
    let f =
      Five_tuple.tcp
        ~src:(Ipv4.of_octets 10 (i / 65536) (i / 256 mod 256) (i mod 256))
        ~dst:(ip "10.255.0.1") ~src_port:40000 ~dst_port:80
    in
    Identxx_core.Conn_state.note cs ~now:(Sim.Time.ms i) f;
    largest := max !largest (Identxx_core.Conn_state.size cs)
  done;
  if !largest > 2 * live then
    Alcotest.failf "%d entries for %d live flows" !largest live

(* A clear starts the sweep schedule over: after 5,000 flows noted at
   once and cleared, flows noted one per 10 ms under a one-second idle
   timeout (about 101 inside it) never grow the table past 2 * 101 or
   the 128 floor. While a clear kept the old sweep point, the table
   grew to 8,191 entries, nearly all stale, before its next sweep. *)
let test_conn_state_bounded_after_clear () =
  let cs = Identxx_core.Conn_state.create ~idle_timeout:(Sim.Time.s 1) () in
  let note i ~now =
    Identxx_core.Conn_state.note cs ~now
      (Five_tuple.tcp ~src:(Ipv4.of_int (0x0a00_0000 + i)) ~dst:(ip "10.255.0.1")
         ~src_port:40000 ~dst_port:80)
  in
  for i = 1 to 5_000 do
    note i ~now:Sim.Time.zero
  done;
  Identxx_core.Conn_state.clear cs;
  let largest = ref 0 in
  for i = 1 to 10_000 do
    note (10_000 + i) ~now:(Sim.Time.ms (10 * i));
    largest := max !largest (Identxx_core.Conn_state.size cs)
  done;
  if !largest > 2 * 101 then Alcotest.failf "%d entries for about 101 live flows" !largest

(* --- Audit --- *)

let verdict ?(decision = Pf.Ast.Pass) ?(log = false) () =
  { Pf.Eval.decision; matched = None; keep_state = false; log }

let test_audit_counts_and_flags () =
  let a = Identxx_core.Audit.create () in
  let f = flow "1.1.1.1" "2.2.2.2" in
  Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:(verdict ())
    ~src:None ~dst:None;
  Identxx_core.Audit.record a ~at:(Sim.Time.ms 1) ~flow:f
    ~verdict:(verdict ~decision:Pf.Ast.Block ~log:true ())
    ~src:None ~dst:None;
  check Alcotest.int "count" 2 (Identxx_core.Audit.count a);
  check Alcotest.int "blocked" 1 (Identxx_core.Audit.blocked_count a);
  check Alcotest.int "flagged" 1 (List.length (Identxx_core.Audit.flagged a));
  Identxx_core.Audit.clear a;
  check Alcotest.int "cleared" 0 (Identxx_core.Audit.count a)

let test_audit_capacity_trims () =
  let a = Identxx_core.Audit.create ~capacity:10 () in
  let f = flow "1.1.1.1" "2.2.2.2" in
  for _ = 1 to 100 do
    Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:(verdict ())
      ~src:None ~dst:None
  done;
  check Alcotest.int "the newest 10 held" 10
    (List.length (Identxx_core.Audit.entries a));
  check Alcotest.int "length" 10 (Identxx_core.Audit.length a);
  check Alcotest.int "total count still exact" 100 (Identxx_core.Audit.count a);
  (* Rejections are kept to the same capacity, the newest first. *)
  for i = 1 to 12 do
    Identxx_core.Audit.record_rejection a ~at:(Sim.Time.ms i) ~flow:f
      ~host:(ip "2.2.2.2") "unauthenticated"
  done;
  check Alcotest.(list int) "the newest 10 rejections"
    (List.init 10 (fun i -> 12 - i))
    (List.map
       (fun (r : Identxx_core.Audit.rejection) -> Sim.Time.to_ns r.r_at / 1_000_000)
       (Identxx_core.Audit.rejections a))

let test_audit_summarizes_responses () =
  let a = Identxx_core.Audit.create () in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let r =
    Identxx.Response.make ~flow:f
      [
        [
          Identxx.Key_value.pair "userID" "alice";
          Identxx.Key_value.pair "name" "skype";
          Identxx.Key_value.pair "irrelevant-blob" "xxxxx";
        ];
      ]
  in
  Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:(verdict ())
    ~src:(Some r) ~dst:None;
  match Identxx_core.Audit.entries a with
  | [ e ] ->
      check Alcotest.(option string) "user kept" (Some "alice")
        (List.assoc_opt "userID" e.Identxx_core.Audit.src_info);
      check Alcotest.(option string) "blob dropped" None
        (List.assoc_opt "irrelevant-blob" e.Identxx_core.Audit.src_info)
  | _ -> Alcotest.fail "expected one entry"

let pairs_response f pairs =
  Identxx.Response.make ~flow:f
    [ List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs ]

(* Flows of one process carry equal pairs: their entries share one
   summary, while a different answer keeps its own. *)
let test_audit_interns_summaries () =
  let a = Identxx_core.Audit.create () in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let alice () = pairs_response f [ ("userID", "alice"); ("name", "skype") ] in
  let bob = pairs_response f [ ("userID", "bob"); ("name", "skype") ] in
  List.iter
    (fun src ->
      Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:(verdict ())
        ~src:(Some src) ~dst:None)
    [ alice (); alice (); bob ];
  match Identxx_core.Audit.entries a with
  | [ b; a2; a1 ] ->
      check Alcotest.bool "equal answers share one summary" true
        (a1.Identxx_core.Audit.src_info == a2.Identxx_core.Audit.src_info);
      check Alcotest.bool "a different answer does not" false
        (a1.Identxx_core.Audit.src_info == b.Identxx_core.Audit.src_info);
      check Alcotest.(option string) "its own pairs" (Some "bob")
        (List.assoc_opt "userID" b.Identxx_core.Audit.src_info)
  | es -> Alcotest.failf "%d entries" (List.length es)

(* [Audit.record] interns an answer's summary in place: its values are
   hashed and compared where they sit in the payload, and a list is
   built only for a summary not yet interned. Once the log's rows have
   grown to its capacity, a record allocates nothing, with or without
   answers: no summary, where each was built as a list and dropped on
   the hit (33 words an answer on enterprise-steady), and no entry,
   where each was a record, a flow and a list cell (about 13 words
   amortized with the trims). The interned summary is the list of each
   interesting key's [Response.latest] value, shared. *)
let test_audit_record_hit_alloc () =
  let capacity = 64 in
  let a = Identxx_core.Audit.create ~capacity () in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let r =
    pairs_response f
      [
        ("userID", "alice"); ("groupID", "staff,dev"); ("name", "firefox");
        ("version", "115.0"); ("exe-hash", String.make 64 'e');
      ]
  in
  let v = verdict () in
  let words src dst =
    let record () =
      Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:v ~src ~dst
    in
    for _ = 1 to capacity do
      record ()
    done;
    let rounds = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      record ()
    done;
    (Gc.minor_words () -. before) /. float_of_int rounds
  in
  check (Alcotest.float 0.) "no words without answers" 0. (words None None);
  check (Alcotest.float 0.) "no words on a hit" 0. (words (Some r) (Some r));
  match Identxx_core.Audit.entries a with
  | e :: _ ->
      check Alcotest.bool "the one interned summary, shared" true
        (e.Identxx_core.Audit.src_info == e.Identxx_core.Audit.dst_info);
      check
        Alcotest.(list (pair string string))
        "the latest value of each interesting key"
        (List.filter_map
           (fun k -> Option.map (fun v -> (k, v)) (Identxx.Response.latest r k))
           Identxx_core.Audit.interesting_keys)
        e.Identxx_core.Audit.src_info
  | [] -> Alcotest.fail "no entries"

let test_audit_rule_line () =
  let ps = Identxx_core.Policy_store.create () in
  Identxx_core.Policy_store.add_exn ps ~name:"00" "block all
pass all";
  let f = flow "1.1.1.1" "2.2.2.2" in
  let v =
    eval_exn (Identxx_core.Policy_store.env_exn ps) (Pf.Eval.ctx ()) f
  in
  let a = Identxx_core.Audit.create () in
  Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:v ~src:None
    ~dst:None;
  Identxx_core.Audit.record a ~at:Sim.Time.zero ~flow:f ~verdict:(verdict ())
    ~src:None ~dst:None;
  match Identxx_core.Audit.entries a with
  | [ default; matched ] ->
      check Alcotest.(option int) "the matching rule's line" (Some 2)
        (Identxx_core.Audit.rule_line matched);
      check Alcotest.(option int) "no rule" None
        (Identxx_core.Audit.rule_line default);
      check Alcotest.string "printed as before"
        "0s PASS  tcp 1.1.1.1:40000 -> 2.2.2.2:80 rule@2 src{} dst{}"
        (Format.asprintf "%a" Identxx_core.Audit.pp_entry matched)
  | es -> Alcotest.failf "%d entries" (List.length es)

(* The log's memory is set by its capacity, not by how many decisions
   it has seen: 100,000 decisions, each with its own summary, into a log
   of 1,000. The intern table never holds more summaries than the log
   holds entries. *)
let test_audit_stays_bounded () =
  let a = Identxx_core.Audit.create ~capacity:1000 () in
  let largest = ref 0 in
  for i = 0 to 99_999 do
    let f = flow ~sp:(1024 + (i mod 60000)) "1.1.1.1" "2.2.2.2" in
    let src = pairs_response f [ ("userID", "u" ^ string_of_int i) ] in
    Identxx_core.Audit.record a ~at:(Sim.Time.ms i) ~flow:f
      ~verdict:(verdict ()) ~src:(Some src) ~dst:None;
    let held = Identxx_core.Audit.length a in
    if Identxx_core.Audit.summaries a > held then
      Alcotest.failf "%d summaries for %d entries"
        (Identxx_core.Audit.summaries a) held;
    if i mod 997 = 0 then largest := max !largest (Obj.reachable_words (Obj.repr a))
  done;
  if !largest > 60_000 then
    Alcotest.failf "%d reachable words for a log of 1,000" !largest

(* --- the packed layouts against list and Hashtbl models --- *)

(* Flows whose packing is tested: every protocol kind a flow can carry
   (the named ones and [Other] at both ends of the byte and between),
   the edge ports and the edge addresses. *)
let packed_flows =
  let addrs = [ ip "10.0.0.1"; ip "10.0.0.2"; Ipv4.of_int 0xffff_ffff; Ipv4.any ] in
  let protos = Proto.[ Tcp; Udp; Icmp; Other 0; Other 47; Other 255 ] in
  let tuples =
    List.concat_map
      (fun proto ->
        List.concat_map
          (fun (src, dst) ->
            List.map
              (fun (src_port, dst_port) ->
                Five_tuple.make ~src ~dst ~proto ~src_port ~dst_port)
              [ (40000, 80); (80, 40000); (0, 0xffff) ])
          [
            (List.nth addrs 0, List.nth addrs 1);
            (List.nth addrs 1, List.nth addrs 0);
            (List.nth addrs 2, List.nth addrs 3);
          ])
      protos
  in
  Array.of_list tuples

let audit_rules =
  match Pf.Env.of_string "pass all\nblock log all\npass log all" with
  | Ok env -> Array.of_list (Pf.Env.rules env)
  | Error e -> failwith e

let audit_answers =
  [|
    None;
    Some [ ("userID", "alice"); ("name", "firefox") ];
    Some [ ("userID", "alice"); ("name", "firefox"); ("blob", "x") ];
    Some [ ("userID", "bob"); ("groupID", "staff"); ("version", "2") ];
    Some [ ("blob", "only unread keys") ];
    Some [];
  |]

type audit_op = {
  a_flow : int;
  a_block : bool;
  a_log : bool;
  a_rule : int; (* -1: no rule *)
  a_src : int;
  a_dst : int;
  a_trace : string option;
}

(* Random decisions into a log of 1 to 12 entries, past several
   wrap-arounds, against a list of the entries a log keeps: the newest
   [capacity], newest first, each field as recorded, the rule the
   policy's own value, and each summary the latest value of each
   interesting key the answer binds. *)
let prop_audit_ring =
  let n = Array.length packed_flows in
  let op =
    QCheck.Gen.(
      let* a_flow = int_bound (n - 1) in
      let* a_block = bool in
      let* a_log = bool in
      let* a_rule = int_range (-1) (Array.length audit_rules - 1) in
      let* a_src = int_bound (Array.length audit_answers - 1) in
      let* a_dst = int_bound (Array.length audit_answers - 1) in
      let* a_trace = opt ~ratio:0.3 (oneofl [ "t1"; "t2" ]) in
      return { a_flow; a_block; a_log; a_rule; a_src; a_dst; a_trace })
  in
  let gen = QCheck.Gen.(pair (int_range 1 12) (list_size (int_bound 60) op)) in
  let print (capacity, ops) =
    Printf.sprintf "capacity %d: %s" capacity
      (String.concat "; "
         (List.map
            (fun o ->
              Printf.sprintf "%s%s%s rule %d src %d dst %d%s"
                (Five_tuple.to_string packed_flows.(o.a_flow))
                (if o.a_block then " block" else " pass")
                (if o.a_log then " log" else "")
                o.a_rule o.a_src o.a_dst
                (match o.a_trace with Some t -> " trace " ^ t | None -> ""))
            ops))
  in
  let summary = function
    | None -> []
    | Some pairs ->
        List.filter_map
          (fun k -> Option.map (fun v -> (k, v)) (List.assoc_opt k (List.rev pairs)))
          Identxx_core.Audit.interesting_keys
  in
  QCheck.Test.make ~name:"audit ring agrees with a list model" ~count:500
    (QCheck.make gen ~print)
    (fun (capacity, ops) ->
      let a = Identxx_core.Audit.create ~capacity () in
      let model = ref [] and i = ref 0 in
      List.iter
        (fun o ->
          incr i;
          let flow = packed_flows.(o.a_flow) in
          let rule = if o.a_rule < 0 then None else Some audit_rules.(o.a_rule) in
          let answer k = Option.map (pairs_response flow) audit_answers.(k) in
          let verdict =
            {
              Pf.Eval.decision = (if o.a_block then Pf.Ast.Block else Pf.Ast.Pass);
              matched = rule;
              keep_state = false;
              log = o.a_log;
            }
          in
          Identxx_core.Audit.record ?trace_id:o.a_trace a ~at:(Sim.Time.ms !i) ~flow
            ~verdict ~src:(answer o.a_src) ~dst:(answer o.a_dst);
          model :=
            List.filteri
              (fun j _ -> j < capacity)
              ( (!i, flow, verdict, audit_answers.(o.a_src), audit_answers.(o.a_dst),
                 o.a_trace)
              :: !model ))
        ops;
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let entries = Identxx_core.Audit.entries a in
      if List.length entries <> List.length !model then
        fail "%d entries, the model %d" (List.length entries) (List.length !model);
      List.iter2
        (fun (e : Identxx_core.Audit.entry) (at, flow, (v : Pf.Eval.verdict), src, dst, trace) ->
          if e.at <> Sim.Time.ms at then fail "entry %d at %a" at Sim.Time.pp e.at;
          if e.flow <> flow then
            fail "entry %d: flow %s, recorded %s" at (Five_tuple.to_string e.flow)
              (Five_tuple.to_string flow);
          if e.decision <> v.decision || e.flagged <> v.log then fail "entry %d: verdict" at;
          (match (e.rule, v.matched) with
          | None, None -> ()
          | Some r, Some r' when r == r' -> ()
          | _ -> fail "entry %d: not the policy's own rule" at);
          if e.src_info <> summary src || e.dst_info <> summary dst then
            fail "entry %d: summaries" at;
          if e.trace_id <> trace then fail "entry %d: trace" at)
        entries !model;
      let held = List.length !model in
      if Identxx_core.Audit.length a <> held then fail "length %d" (Identxx_core.Audit.length a);
      if Identxx_core.Audit.count a <> List.length ops then fail "count";
      if
        Identxx_core.Audit.blocked_count a
        <> List.length (List.filter (fun o -> o.a_block) ops)
      then fail "blocked count";
      if
        List.map (fun (e : Identxx_core.Audit.entry) -> e.at) (Identxx_core.Audit.flagged a)
        <> List.filter_map
             (fun (at, _, (v : Pf.Eval.verdict), _, _, _) ->
               if v.log then Some (Sim.Time.ms at) else None)
             !model
      then fail "flagged";
      if Identxx_core.Audit.summaries a > held then
        fail "%d summaries for %d entries" (Identxx_core.Audit.summaries a) held;
      let printed = Format.asprintf "%a" Identxx_core.Audit.pp a
      and oldest_first =
        String.concat ""
          (List.rev_map
             (fun e -> Format.asprintf "%a@." Identxx_core.Audit.pp_entry e)
             entries)
      in
      if printed <> oldest_first then fail "pp: %S" printed;
      true)

type conn_op =
  | C_note of int
  | C_permits of int
  | C_bulk of int (* note this many flows seen once *)
  | C_advance of int (* simulated seconds *)
  | C_expire
  | C_revoke of int
  | C_clear

module Flow_tbl = Hashtbl.Make (Five_tuple)

(* Random keep-state operations, with flows noted both ways and bulk
   arrivals that cross the 128-entry sweep and grow the table, against
   a Hashtbl of last-seen times that applies [Conn_state]'s rules as
   its interface states them. *)
let prop_conn_state_model =
  let n = Array.length packed_flows in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 120)
        (frequency
           [
             (6, map (fun i -> C_note i) (int_bound (n - 1)));
             (6, map (fun i -> C_permits i) (int_bound (n - 1)));
             (1, map (fun k -> C_bulk k) (int_range 1 150));
             (3, map (fun s -> C_advance s) (int_range 1 8));
             (1, return C_expire);
             (1, map (fun i -> C_revoke i) (int_bound (n - 1)));
             (1, return C_clear);
           ]))
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | C_note i -> "note " ^ Five_tuple.to_string packed_flows.(i)
           | C_permits i -> "permits " ^ Five_tuple.to_string packed_flows.(i)
           | C_bulk k -> Printf.sprintf "bulk %d" k
           | C_advance s -> Printf.sprintf "advance %ds" s
           | C_expire -> "expire"
           | C_revoke i -> "revoke " ^ Ipv4.to_string packed_flows.(i).src
           | C_clear -> "clear")
         ops)
  in
  QCheck.Test.make ~name:"keep-state table agrees with a Hashtbl model" ~count:500
    (QCheck.make gen ~print)
    (fun ops ->
      let idle = Sim.Time.s 10 in
      let cs = Identxx_core.Conn_state.create ~idle_timeout:idle () in
      let model = Flow_tbl.create 16 and sweep_at = ref 128 in
      let now = ref Sim.Time.zero and bulk = ref 0 in
      let fresh last = Sim.Time.compare !now (Sim.Time.add last idle) <= 0 in
      let drop doomed =
        let gone = Flow_tbl.fold (fun f last acc -> if doomed f last then f :: acc else acc) model [] in
        List.iter (Flow_tbl.remove model) gone;
        List.length gone
      in
      let note f =
        Flow_tbl.replace model f !now;
        if Flow_tbl.length model >= !sweep_at then begin
          ignore (drop (fun _ last -> not (fresh last)));
          sweep_at := max 128 (2 * Flow_tbl.length model)
        end;
        Identxx_core.Conn_state.note cs ~now:!now f
      in
      let check what want got =
        want = got
        || QCheck.Test.fail_reportf "%s: the model says %d, the table %d" what want got
      in
      List.for_all
        (fun op ->
          (match op with
          | C_note i -> note packed_flows.(i)
          | C_permits i ->
              let f = packed_flows.(i) in
              let hit g =
                match Flow_tbl.find_opt model g with
                | Some last when fresh last ->
                    Flow_tbl.replace model g !now;
                    true
                | Some _ | None -> false
              in
              let want = hit f || hit (Five_tuple.reverse f) in
              ignore
                (check ("permits " ^ Five_tuple.to_string f) (Bool.to_int want)
                   (Bool.to_int (Identxx_core.Conn_state.permits cs ~now:!now f)))
          | C_bulk k ->
              for _ = 1 to k do
                incr bulk;
                note
                  (Five_tuple.udp ~src:(Ipv4.of_int (0x0b00_0000 + !bulk))
                     ~dst:(ip "10.0.0.2") ~src_port:(!bulk land 0xffff) ~dst_port:53)
              done
          | C_advance s -> now := Sim.Time.add !now (Sim.Time.s s)
          | C_expire ->
              let want = drop (fun _ last -> not (fresh last)) in
              ignore (check "expire" want (Identxx_core.Conn_state.expire cs ~now:!now))
          | C_revoke i ->
              let target = packed_flows.(i).src in
              let want =
                drop (fun f _ -> Ipv4.equal f.src target || Ipv4.equal f.dst target)
              in
              ignore (check "revoke" want (Identxx_core.Conn_state.revoke cs ~ip:target))
          | C_clear ->
              Flow_tbl.reset model;
              sweep_at := 128;
              Identxx_core.Conn_state.clear cs);
          check "size" (Flow_tbl.length model) (Identxx_core.Conn_state.size cs))
        ops)

(* --- footprints and allocation of the packed layouts --- *)

(* A held audit entry is one row of six words: two packed flow ints,
   the time, and the rule and both summaries as pointers. A log that
   has seen [n] decisions has fewer than twice [n] rows, so its words
   per entry, beside the summaries and rules it shares, stay between 6
   and 12 whatever [n]. Measured 6.19 at 1,000 entries (1,024 rows) and
   6.00 at 10,000 (the capacity); the budget keeps 5% over the first.
   They were 20.0 at both while each entry was a list cell, a record, a
   flow and the rule's option. *)
let test_audit_footprint () =
  let f = flow "1.1.1.1" "2.2.2.2" in
  let src = Some (pairs_response f [ ("userID", "alice"); ("name", "firefox") ]) in
  let rules = Obj.repr audit_rules in
  let per_entry n =
    let a = Identxx_core.Audit.create () in
    for i = 1 to n do
      Identxx_core.Audit.record a ~at:(Sim.Time.ms i)
        ~flow:(flow ~sp:(1024 + i) "1.1.1.1" "2.2.2.2")
        ~verdict:{ (verdict ()) with matched = Some audit_rules.(i mod 3) }
        ~src ~dst:src
    done;
    let shared =
      Obj.reachable_words (Obj.repr (List.hd (Identxx_core.Audit.entries a)).src_info)
      + Obj.reachable_words rules
    in
    float_of_int (Obj.reachable_words (Obj.repr a) - shared) /. float_of_int n
  in
  List.iter
    (fun n ->
      let w = per_entry n in
      if w > 6.5 then Alcotest.failf "%.2f words an entry at %d entries" w n)
    [ 1_000; 10_000 ]

(* A keep-state entry is a slot of three ints (two packed flow ints and
   the last-seen time), at most half the slots in use: 6 to 12 words an
   entry. Measured 6.15 at 1,000 flows (2,048 slots) and 11.18 at 1,100
   (4,096 slots, just grown); the budget keeps 5% over 12. The Hashtbl
   read 12.5 and 12.9: a bucket cell, a time ref and the flow each. *)
let test_conn_state_footprint () =
  let per_entry n =
    let cs = Identxx_core.Conn_state.create () in
    for i = 1 to n do
      Identxx_core.Conn_state.note cs ~now:Sim.Time.zero
        (Five_tuple.tcp ~src:(Ipv4.of_int (0x0a00_0000 + i)) ~dst:(ip "10.255.0.1")
           ~src_port:40000 ~dst_port:80)
    done;
    float_of_int (Obj.reachable_words (Obj.repr cs)) /. float_of_int n
  in
  List.iter
    (fun n ->
      let w = per_entry n in
      if w > 12.6 then Alcotest.failf "%.2f words an entry at %d flows" w n)
    [ 1_000; 1_100 ]

(* [permits] probes the flow's packed ints, then the reverse's, from
   the flow's fields: no reversed tuple, no option. 0 words for a hit
   either way and for a miss (it was 6 for the reverse a miss built,
   and 2 for each lookup's option). *)
let test_conn_state_permits_alloc () =
  let cs = Identxx_core.Conn_state.create () in
  let f = flow "10.0.0.1" "10.0.0.2" in
  let rev = Five_tuple.reverse f and other = flow "10.0.0.3" "10.0.0.2" in
  Identxx_core.Conn_state.note cs ~now:Sim.Time.zero f;
  let words probe =
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (Identxx_core.Conn_state.permits cs ~now:Sim.Time.zero probe))
    done;
    Gc.minor_words () -. before
  in
  check (Alcotest.float 0.) "a hit" 0. (words f);
  check (Alcotest.float 0.) "a reverse hit" 0. (words rev);
  check (Alcotest.float 0.) "a miss" 0. (words other);
  let before = Gc.minor_words () in
  Identxx_core.Conn_state.note cs ~now:Sim.Time.zero f;
  check (Alcotest.float 0.) "a note" 0. (Gc.minor_words () -. before)

(* --- Policy_store --- *)

(* The current revision's files and lines, as the store tests read
   them. *)
module PS = struct
  include Identxx_core.Policy_store

  let files ps = Revision.files (current ps)
  let locate ps = Revision.locate (current ps)
end

let test_policy_store_alphabetical_order () =
  let ps = PS.create () in
  PS.add_exn ps ~name:"99-footer" "block all";
  PS.add_exn ps ~name:"00-header.control" "pass all";
  check Alcotest.(list string) "sorted, suffix stripped"
    [ "00-header"; "99-footer" ]
    (List.map fst (PS.files ps));
  (* Concatenation order decides last-match: 99-footer's block wins. *)
  let env = PS.env_exn ps in
  let v =
    eval_exn env (Pf.Eval.ctx ()) (flow "1.1.1.1" "2.2.2.2")
  in
  check Alcotest.bool "footer wins" true (v.Pf.Eval.decision = Pf.Ast.Block)

let test_policy_store_rejects_broken_concatenation () =
  let ps = PS.create () in
  PS.add_exn ps ~name:"00" "pass from <lan> to any\ntable <lan> {10.0.0.0/8}";
  (* A new file that shadows the table with a cycle must be rejected and
     rolled back. *)
  (match PS.add ps ~name:"50" "table <lan> { <lan> }" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "broken concatenation accepted");
  check Alcotest.int "rolled back" 1
    (List.length (PS.files ps));
  match PS.env ps with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "store left broken: %s" e

(* A rejected file's error names the file holding the faulty line and
   the line as that file numbers it, even when that is not the file
   being added; an error without a line names the file being added. *)
let test_policy_store_error_names_its_file () =
  let ps = PS.create () in
  let add name text = PS.add ps ~name text in
  PS.add_exn ps ~name:"10" "table <lan> { 10.0.0.0/8 }";
  PS.add_exn ps ~name:"00" "block all\npass from <lan> to any";
  check Alcotest.(result unit string) "the added file's line"
    (Error "50.control: line 2: unknown table <ghost>")
    (add "50.control" "pass all\npass from <ghost> to any");
  check Alcotest.(result unit string) "another file's line"
    (Error "00: line 2: unknown table <lan>")
    (add "10" "table <wan> { 10.0.0.0/8 }");
  check Alcotest.(result unit string) "no line"
    (Error "10: table reference cycle involving <lan>")
    (add "10" "table <lan> { <lan> }");
  (* A set names the same files: the first file it changes. *)
  check Alcotest.(result unit string) "a set, no line"
    (Error "10: table reference cycle involving <lan>")
    (PS.set ps [ ("00", "block all\npass from <lan> to any"); ("10", "table <lan> { <lan> }") ]);
  check Alcotest.(result unit string) "a set, a line"
    (Error "00: line 2: unknown table <lan>")
    (PS.set ps [ ("00", "block all\npass from <lan> to any"); ("10", "table <wan> { 10.0.0.0/8 }") ]);
  match PS.env ps with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "store left broken: %s" e

let test_policy_store_on_change_fires () =
  let ps = PS.create () in
  let fired = ref 0 in
  PS.on_change ps (fun _ -> incr fired);
  PS.add_exn ps ~name:"00" "pass all";
  check Alcotest.bool "held" true (PS.remove ps ~name:"00");
  (* A rejected add, and removing a name not held, must not fire. *)
  check Alcotest.bool "not held" false (PS.remove ps ~name:"00");
  ignore (PS.add ps ~name:"01" "pass frm any");
  check Alcotest.int "fired twice" 2 !fired

(* The store parses each file once, at its first line in the
   concatenation; what it compiles is what a parse of the concatenation
   gives, line numbers and errors included. *)
let same_as_concatenation what ps =
  let texts = List.map snd (PS.files ps) in
  let concat = String.concat "\n" texts in
  (match (PS.env ps, Pf.Env.of_string concat) with
  | Ok env, Ok whole ->
      check Alcotest.(list int) (what ^ ": rule lines")
        (List.map (fun (r : Pf.Ast.rule) -> r.Pf.Ast.line) (Pf.Env.rules whole))
        (List.map (fun (r : Pf.Ast.rule) -> r.Pf.Ast.line) (Pf.Env.rules env));
      check Alcotest.bool (what ^ ": rules") true
        (Pf.Env.rules env = Pf.Env.rules whole);
      check Alcotest.bool (what ^ ": intercepts") true
        (Pf.Env.intercepts env = Pf.Env.intercepts whole);
      check Alcotest.(list string) (what ^ ": tables") (Pf.Env.table_names whole)
        (Pf.Env.table_names env)
  | Error e, Error whole ->
      (* The store names the line by the file that holds it. *)
      let whole =
        match Scanf.sscanf_opt whole "line %d: %n" (fun line at -> (line, at)) with
        | Some (line, at) ->
            let name, local = PS.locate ps line in
            Printf.sprintf "%s: line %d: %s" name local
              (String.sub whole at (String.length whole - at))
        | None -> whole
      in
      check Alcotest.string (what ^ ": error") whole e
  | Ok _, Error e -> Alcotest.failf "%s: the concatenation fails (%s)" what e
  | Error e, Ok _ -> Alcotest.failf "%s: the store fails (%s)" what e);
  (* The same through the parser: each file parsed at its first line. *)
  let rec parse_all line = function
    | [] -> []
    | text :: rest ->
        (match Pf.Parser.parse_file ~first_line:line text with
        | Ok f -> f
        | Error e -> Alcotest.failf "%s: a stored file fails to parse: %s" what e)
        :: parse_all (line + List.length (String.split_on_char '\n' text)) rest
  in
  match Pf.Parser.joined (parse_all 1 texts) with
  | Some decls ->
      check Alcotest.bool (what ^ ": declarations") true
        (Ok decls = Pf.Parser.parse concat)
  | None -> ()

let shipped_policies () =
  let dir = if Sys.file_exists "../policies" then "../policies" else "policies" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".control")
  |> List.sort String.compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

(* Add the files in the order given. A rule may name a table a later
   file defines: retry what was rejected until nothing more goes in,
   and return what never did. *)
let rec fill ps pending =
  let left =
    List.filter (fun (name, text) -> Result.is_error (PS.add ps ~name text)) pending
  in
  if left <> [] && List.length left < List.length pending then fill ps left else left

let test_policy_store_parses_each_file_once () =
  let files = shipped_policies () in
  check Alcotest.bool "shipped policies present" true (List.length files >= 4);
  let ps = PS.create () in
  (* Last file first, so every later add moves the files after it. *)
  check Alcotest.int "every shipped file goes in" 0 (List.length (fill ps (List.rev files)));
  same_as_concatenation "policies/*.control" ps;
  (* Random splits of the whole concatenation at line ends, added in a
     random order, so later files move and are parsed again. A piece
     that does not parse alone is rejected, as it was before. *)
  let lines =
    Array.of_list
      (String.split_on_char '\n' (String.concat "\n" (List.map snd files)))
  in
  let n = Array.length lines in
  let prng = Sim.Prng.create 41 in
  let whole = ref 0 in
  for split = 1 to 200 do
    let cuts =
      List.sort_uniq compare
        (List.init (1 + Sim.Prng.int prng 5) (fun _ -> 1 + Sim.Prng.int prng (n - 1)))
    in
    let bounds = (0 :: cuts) @ [ n ] in
    let rec pieces i = function
      | lo :: (hi :: _ as rest) ->
          ( Printf.sprintf "%02d" i,
            String.concat "\n" (Array.to_list (Array.sub lines lo (hi - lo))) )
          :: pieces (i + 1) rest
      | _ -> []
    in
    let pieces = Array.of_list (pieces 0 bounds) in
    Sim.Prng.shuffle prng pieces;
    let ps = PS.create () in
    let what = Printf.sprintf "split %d" split in
    match fill ps (Array.to_list pieces) with
    | [] ->
        incr whole;
        same_as_concatenation what ps;
        let name, _ = pieces.(Sim.Prng.int prng (Array.length pieces)) in
        check Alcotest.bool "held" true (PS.remove ps ~name);
        same_as_concatenation (what ^ " without " ^ name) ps
    | left ->
        if Array.for_all (fun (_, text) -> Result.is_ok (Pf.Parser.parse text)) pieces
        then Alcotest.failf "%s: %d pieces rejected" what (List.length left)
  done;
  if !whole < 20 then Alcotest.failf "only %d of 200 splits went in whole" !whole

(* Rules end by grammar, not at a newline: a file that opens with a
   macro named [to] reads as more of the rule that ends the file before
   it, and that concatenation does not parse. The store rejects it as
   it rejected the concatenation, whichever file comes second, and
   names the line by the file that holds it. *)
let test_policy_store_rule_reads_into_next_file () =
  let first = "block all\npass proto tcp from any to any port 80" in
  let second = "to = \"x\"\npass all" in
  check Alcotest.bool "the second file parses alone" true
    (Result.is_ok (Pf.Parser.parse second));
  let error =
    match Pf.Env.of_string (first ^ "\n" ^ second) with
    | Error e -> e
    | Ok _ -> Alcotest.fail "the concatenation parses"
  in
  check Alcotest.string "the concatenation's error" "line 3: unexpected = in rule" error;
  let error = "50: line 1: unexpected = in rule" in
  let ps = PS.create () in
  PS.add_exn ps ~name:"00" first;
  check Alcotest.(result unit string) "the second file is rejected" (Error error)
    (PS.add ps ~name:"50" second);
  same_as_concatenation "rolled back" ps;
  let ps = PS.create () in
  PS.add_exn ps ~name:"50" second;
  check Alcotest.(result unit string) "the first file is rejected" (Error error)
    (PS.add ps ~name:"00" first);
  check Alcotest.(list string) "only the second file stays" [ "50" ]
    (List.map fst (PS.files ps));
  let parsed line text = Result.get_ok (Pf.Parser.parse_file ~first_line:line text) in
  check Alcotest.bool "joined leaves it to the concatenation" true
    (Pf.Parser.joined [ parsed 1 first; parsed 3 second ] = None)

type policy_edit =
  | Add of string * string
  | Remove of string
  | Set of (string * string) list

(* A name without its .control suffix: the file the store knows. *)
let stem name =
  if String.length name > 8 && Filename.check_suffix name ".control" then
    Filename.chop_suffix name ".control"
  else name

let same_revision what a b =
  let module R = PS.Revision in
  if R.files a <> R.files b then QCheck.Test.fail_reportf "%s: files differ" what;
  if R.ruleset a <> R.ruleset b then QCheck.Test.fail_reportf "%s: rulesets differ" what;
  (match (R.env a, R.env b) with
  | Ok x, Ok y ->
      let tables env = List.map (fun n -> (n, Pf.Env.table env n)) (Pf.Env.table_names env) in
      if Pf.Env.rules x <> Pf.Env.rules y || tables x <> tables y then
        QCheck.Test.fail_reportf "%s: environments differ" what
  | Error x, Error y when x = y -> ()
  | Error x, _ | _, Error x -> QCheck.Test.fail_reportf "%s: one environment fails (%s)" what x);
  let lines =
    List.fold_left
      (fun n (_, text) -> n + List.length (String.split_on_char '\n' text))
      0 (R.files a)
  in
  for line = 0 to lines + 1 do
    if R.locate a line <> R.locate b line then
      QCheck.Test.fail_reportf "%s: line %d located differently" what line
  done

(* [PS.load] sorts a set by store name, and [PS.locate] maps every line
   of the concatenation back to its file, named as given, and the
   file's own line. Store names mix digits, '-', '_' and '.', given with
   or without the .control suffix. Then a script of adds, removes and
   sets over files that define tables and files that read them: after
   each step the store's revision is [PS.load] of its file set; an
   accepted step raises the epoch by one and fires [on_change] once
   with it, and a refused step, or the removal of a name the store does
   not hold, leaves the revision as it was and fires nothing. A step is
   refused exactly when its set does not build. *)
let prop_policy_store_load =
  let gen_name =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ '0'; '1'; '7'; '9'; '-'; '_'; '.' ]) (int_range 1 6))
        bool)
  in
  let gen_text =
    QCheck.Gen.(
      map (String.concat "\n")
        (list_size (int_range 1 5)
           (oneofl
              [
                "pass all";
                "block from any to any port 80";
                "# note";
                "";
                "table <t> { 10.0.0.0/8 }";
                "table <u> { <t> 192.168.0.0/16 }";
                "table <t> { <u> }";
                "pass from <t> to any";
                "block from <u> to any port 22";
              ])))
  in
  let gen_files =
    QCheck.Gen.map
      (fun files ->
        (* One file per store name. *)
        List.fold_left
          (fun acc ((base, suffixed), text) ->
            if List.exists (fun (b, _, _) -> b = base) acc then acc
            else (base, (if suffixed then base ^ ".control" else base), text) :: acc)
          [] files)
      QCheck.Gen.(list_size (int_range 1 6) (pair gen_name gen_text))
  in
  let gen =
    QCheck.Gen.(
      gen_files >>= fun files ->
      let name =
        oneof
          [
            oneofl (List.map (fun (_, given, _) -> given) files);
            map (fun (base, suffixed) -> if suffixed then base ^ ".control" else base) gen_name;
          ]
      in
      let edit =
        frequency
          [
            (4, map2 (fun n t -> Add (n, t)) name gen_text);
            (2, map (fun n -> Remove n) name);
            (2, map (fun l -> Set l) (list_size (int_range 0 4) (pair name gen_text)));
          ]
      in
      map (fun script -> (files, script)) (list_size (int_range 0 12) edit))
  in
  let print (files, script) =
    let pair (n, t) = Printf.sprintf "%s=%S" n t in
    String.concat "; " (List.map (fun (_, given, text) -> pair (given, text)) files)
    ^ " | "
    ^ String.concat "; "
        (List.map
           (function
             | Add (n, t) -> "add " ^ pair (n, t)
             | Remove n -> "remove " ^ n
             | Set l -> "set [" ^ String.concat "; " (List.map pair l) ^ "]")
           script)
  in
  QCheck.Test.make ~name:"load matches add, locate maps back" ~count:300
    (QCheck.make gen ~print)
    (fun (files, script) ->
      let named = List.map (fun (_, given, text) -> (given, text)) files in
      let loaded =
        match PS.load named with Ok r -> r | Error e -> QCheck.Test.fail_report e
      in
      let order = List.map fst (PS.Revision.files loaded) in
      if order <> List.sort String.compare (List.map (fun (b, _, _) -> b) files) then
        QCheck.Test.fail_report "not sorted by store name";
      ignore
        (List.fold_left
           (fun first (name, text) ->
             let given = List.find_map (fun (b, g, _) -> if b = name then Some g else None) files in
             let lines = List.length (String.split_on_char '\n' text) in
             for local = 1 to lines do
               if PS.Revision.locate loaded (first + local - 1) <> (Option.get given, local) then
                 QCheck.Test.fail_reportf "line %d of %s misplaced" local name
             done;
             first + lines)
           1 (PS.Revision.files loaded));
      (* The files added one by one, then the script. *)
      let ps = PS.create () in
      let fired = ref [] in
      PS.on_change ps (fun r -> fired := r :: !fired);
      let step model edit =
        let before = PS.current ps in
        fired := [];
        let without n = List.filter (fun (m, _) -> stem m <> stem n) model in
        let model', result =
          match edit with
          | Add (n, t) -> ((n, t) :: without n, PS.add ps ~name:n t)
          | Remove n ->
              let held = List.exists (fun (m, _) -> stem m = stem n) model in
              if PS.remove ps ~name:n <> held then
                QCheck.Test.fail_report "remove misreported whether it held the name";
              (without n, if held then Ok () else Error "not held")
          | Set l -> (l, PS.set ps l)
        in
        let builds =
          match (edit, PS.load model') with
          | Remove n, _ -> List.exists (fun (m, _) -> stem m = stem n) model
          | _, Ok r -> Result.is_ok (PS.Revision.env r)
          | _, Error _ -> false
        in
        let after = PS.current ps in
        match result with
        | Ok () ->
            if not builds then QCheck.Test.fail_report "a set that does not build was accepted";
            if PS.Revision.epoch after <> PS.Revision.epoch before + 1 then
              QCheck.Test.fail_report "the epoch did not rise by one";
            (match !fired with
            | [ r ] when r == after -> ()
            | _ -> QCheck.Test.fail_report "on_change did not fire once with the revision");
            same_revision "after an accepted edit" after
              (Result.get_ok (PS.load model'));
            model'
        | Error e ->
            if builds then QCheck.Test.fail_reportf "a set that builds was refused: %s" e;
            if after != before then QCheck.Test.fail_report "a refused edit changed the revision";
            if !fired <> [] then QCheck.Test.fail_report "a refused edit fired on_change";
            model
      in
      ignore
        (List.fold_left step []
           (List.map (fun (name, text) -> Add (name, text)) named @ script));
      (* A second name for one of the files is refused. *)
      let base, given, _ = List.hd files in
      let twin = if given = base then base ^ ".control" else base in
      Result.is_error (PS.load ((twin, "pass all") :: named)))

(* --- Services --- *)

let test_services_lookup () =
  check Alcotest.(option int) "http" (Some 80) (Pf.Services.port_of_name "http");
  check Alcotest.(option int) "identxx port" (Some 783)
    (Pf.Services.port_of_name "identxx");
  check Alcotest.(option string) "reverse" (Some "https")
    (Pf.Services.name_of_port 443);
  (match Pf.Services.parse_port "8080" with
  | Ok 8080 -> ()
  | _ -> Alcotest.fail "numeric port");
  match Pf.Services.parse_port "70000" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out of range accepted"

(* --- Query_plan's intercept table --- *)

(* The reference: the walk the controller made on every query before
   the plan held an intercept table. It re-tested every target and
   rebuilt every covering section from the declaration's pairs. *)
let section_of_pairs pairs =
  List.filter_map
    (fun (k, v) ->
      if Identxx.Key_value.valid_key k && Identxx.Key_value.valid_value v then
        Some (Identxx.Key_value.pair k v)
      else None)
    pairs

let intercept_sections env kind ip =
  match env with
  | Error _ -> []
  | Ok env ->
      List.filter_map
        (fun (i : Pf.Ast.intercept) ->
          if
            i.Pf.Ast.ikind = kind
            && Pf.Env.addr_spec_matches env i.Pf.Ast.target ip
          then Some (section_of_pairs i.Pf.Ast.pairs)
          else None)
        (Pf.Env.intercepts env)

module Intercept_gen = struct
  open QCheck.Gen

  (* Targets over a few overlapping blocks, so that several lines of
     both kinds cover one address and negation matters. A target naming
     an undefined table makes the environment fail. *)
  let base =
    frequency
      [
        (4, return "any");
        (8, oneofl [ "10.0.0.0/24"; "10.0.0.5"; "10.0.1.0/24"; "10.0.0.0/8" ]);
        (6, oneofl [ "{ 10.0.0.1 10.0.1.0/25 }"; "{ 192.168.0.0/16, 10.0.0.4/30 }" ]);
        (6, oneofl [ "<inner>"; "<outer>" ]);
        (1, return "<ghost>");
      ]

  let target =
    let* negated = frequency [ (2, return false); (1, return true) ] in
    let+ b = base in
    if negated then "!" ^ b else b

  (* Values the wire cannot carry (a line break) are dropped from the
     section; a key is a policy word, which the wire always carries. *)
  let value =
    frequency
      [
        (4, oneofl [ "kiosk"; "payroll"; "B"; "7" ]);
        (2, oneofl [ "\"{ firefox ssh }\""; "\"a:b\""; "\"\"" ]);
        (2, oneofl [ "\"two\nlines\""; "\"cr\rhere\"" ]);
      ]

  let pairs =
    let+ kvs =
      list_size (int_bound 3) (pair (oneofl [ "asset-class"; "branch"; "hop" ]) value)
    in
    String.concat ", " (List.map (fun (k, v) -> k ^ " : " ^ v) kvs)

  let line =
    let* query = bool in
    let* target = target in
    let+ pairs = pairs in
    if query then Printf.sprintf "intercept query to %s answer { %s }" target pairs
    else Printf.sprintf "intercept response to %s augment { %s }" target pairs

  let policy =
    let+ lines = list_size (int_range 1 10) line in
    String.concat "\n"
      ("table <inner> { 10.0.0.0/30 10.0.1.7 }"
      :: "table <outer> { <inner> 192.168.0.0/16 }"
      :: "pass all" :: lines)

  let address =
    oneofl
      [ "10.0.0.1"; "10.0.0.4"; "10.0.0.5"; "10.0.0.200"; "10.0.1.7";
        "10.0.1.200"; "10.9.9.9"; "192.168.3.4"; "172.16.0.1" ]
    |> map Ipv4.of_string

  let case = pair policy (list_size (int_range 1 6) address)
end

(* The plan's intercept table answers and augments what the per-query
   walk did, for every address: the first covering answer, and every
   covering augment joined in policy order. *)
let prop_intercept_table =
  let print (policy, ips) =
    Printf.sprintf "%s\naddresses: %s" policy
      (String.concat " " (List.map Ipv4.to_string ips))
  in
  let section s =
    String.concat "; "
      (List.map (fun (p : Identxx.Key_value.pair) -> p.key ^ "=" ^ String.escaped p.value) s)
  in
  QCheck.Test.make ~name:"intercept table answers as the per-query walk" ~count:2000
    (QCheck.make ~print Intercept_gen.case)
    (fun (policy, ips) ->
      let rev =
        match Identxx_core.Policy_store.load [ ("00", policy) ] with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_report e
      in
      let env = Identxx_core.Policy_store.Revision.env rev in
      let plan = Identxx_core.Query_plan.make ~default:Pf.Ast.Pass rev in
      if
        Identxx_core.Query_plan.epoch plan
        <> Identxx_core.Policy_store.Revision.epoch rev
      then QCheck.Test.fail_report "the plan names another revision";
      List.iter
        (fun ip ->
          let answer =
            match intercept_sections env Pf.Ast.Answer_query ip with
            | s :: _ -> Some s
            | [] -> None
          in
          (match (Identxx_core.Query_plan.answer_for plan ip, answer) with
          | None, None -> ()
          | Some a, Some b when a = b -> ()
          | got, want ->
              let show = function None -> "none" | Some s -> "{" ^ section s ^ "}" in
              QCheck.Test.fail_reportf "%s: answer %s, the walk %s" (Ipv4.to_string ip)
                (show got) (show want));
          let got = Identxx_core.Query_plan.augment_for plan ip
          and want = List.concat (intercept_sections env Pf.Ast.Augment_response ip) in
          if got <> want then
            QCheck.Test.fail_reportf "%s: augment {%s}, the walk {%s}" (Ipv4.to_string ip)
              (section got) (section want))
        ips;
      true)

(* --- Deploy validation --- *)

let test_deploy_linear_validation () =
  Alcotest.check_raises "zero switches"
    (Invalid_argument "Deploy.linear_network: switches out of range") (fun () ->
      ignore (Identxx_core.Deploy.linear_network ~switches:0 ~hosts_per_switch:1 ()))

(* --- Decision allocation --- *)

(* The paper's enterprise policy (§1, as perfbench's enterprise-steady
   runs it) with [extra] more approved apps in [$allowed]. *)
let enterprise_policy extra =
  Printf.sprintf
    "table <fileserver> { 10.0.0.100 }\n\
     allowed = \"{ %sfirefox ssh thunderbird skype }\"\n\
     block all\n\
     pass all with member(@src[name], $allowed) keep state\n\
     block log from any to <fileserver> with eq(@src[name], skype)"
    (String.concat "" (List.init extra (Printf.sprintf "app%02d ")))

(* Minor words per warm [Decision.decide] of a flow whose source runs
   [app]. *)
let decide_words ~extra app =
  let store = Identxx_core.Policy_store.create () in
  Identxx_core.Policy_store.add_exn store ~name:"00" (enterprise_policy extra);
  let d = Identxx_core.Decision.create ~policy:store () in
  let f = flow "10.0.0.1" "10.0.0.2" in
  let input =
    {
      Identxx_core.Decision.flow = f;
      src_response =
        Some
          (Identxx.Response.make ~flow:f
             [ [ Identxx.Key_value.pair "name" app ] ]);
      dst_response = None;
    }
  in
  let decide () = ignore (Sys.opaque_identity (Identxx_core.Decision.decide d input)) in
  decide ();
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    decide ()
  done;
  (Gc.minor_words () -. before) /. float_of_int rounds

(* A warm decision allocates its evaluation context (5 words), the
   answer's value lookup (2), its verdict (7) and the result around it
   (2), however long [$allowed] is: the policy's list is split once per
   epoch and the answer's value is walked in place. Measured: 16 words
   for a member and a non-member alike, with 4 apps or 40. It was 367
   with 4 apps and 1078 with 40 while every decision built a default
   keystore and function registry it then dropped and re-split
   [$allowed]. *)
let test_decide_alloc_flat () =
  List.iter
    (fun (app, budget) ->
      let short = decide_words ~extra:0 app and long = decide_words ~extra:36 app in
      if short > budget || long > budget then
        Alcotest.failf "%s: %.0f words per decision with 4 apps, %.0f with 40"
          app short long)
    [ ("firefox", 22.); ("dropbox", 22.) ]

(* --- Netcore.Flow_chains --- *)

(* A chained entry: its flow, its rank in table order and its link. *)
type pentry = { pflow : Five_tuple.t; prank : int; mutable pnext : pentry }

let rec no_pentry =
  { pflow = Five_tuple.tcp ~src:Ipv4.any ~dst:Ipv4.any ~src_port:0 ~dst_port:0;
    prank = 0; pnext = no_pentry }

(* Chains as the controller keeps its pending flows, in no order. *)
let pentry =
  {
    Flow_chains.vacant = no_pentry;
    hash = (fun e -> Five_tuple.hash e.pflow);
    before = (fun _ _ -> false);
    next = (fun e -> e.pnext);
    set_next = (fun e n -> e.pnext <- n);
  }

(* Chains as a flow table keeps its exact entries: by rank, highest
   first. *)
let ranked = { pentry with before = (fun a b -> a.prank > b.prank) }

(* The first entry of [f] in [table], by the probe the controller
   routes each answer with. *)
let probe table (f : Five_tuple.t) =
  Flow_chains.probe table (fun e -> e.pflow) ~src:f.src ~dst:f.dst ~proto:f.proto
    ~src_port:f.src_port ~dst_port:f.dst_port

(* Whether [e] is linked in the chain its own hash selects. *)
let in_own_chain table e =
  let rec walk x = x != no_pentry && (x == e || walk x.pnext) in
  walk (Flow_chains.chain table (pentry.hash e))

type pop = P_add of int | P_remove of int | P_remove_absent of int | P_probe of int

(* The in-place table against a [Hashtbl] model, over random adds,
   removes and probes. Flows come from three addresses, two protocols
   and three ports a side, so most of them are also pending the other
   way round (the same ports between the same two hosts, as an answer's
   two probes read them). The table starts at one cell, so every flow
   collides until it grows, and grows past its first size many times
   over. After each step the table holds what the model holds: its
   length, and for the step's flow and its other orientation the same
   entry (physically) or none, by {!Flow_chains.probe}, which compares
   addresses, ports and protocol (the flows include a TCP and a UDP
   flow of each address and port pair); at the end every held entry is
   linked in the chain of its own hash and [iter] visits exactly the
   held entries. *)
let prop_pending_table =
  let addrs = [| ip "10.0.0.1"; ip "10.0.0.2"; ip "10.0.1.1" |]
  and ports = [| 80; 40000; 40001 |] in
  let flows =
    Array.of_list
      (List.concat_map
         (fun src ->
           List.concat_map
             (fun dst ->
               List.concat_map
                 (fun proto ->
                   List.concat_map
                     (fun src_port ->
                       List.map
                         (fun dst_port ->
                           Five_tuple.make ~src ~dst ~proto ~src_port ~dst_port)
                         (Array.to_list ports))
                     (Array.to_list ports))
                 [ Proto.Tcp; Proto.Udp ])
             (Array.to_list addrs))
         (Array.to_list addrs))
  in
  let n = Array.length flows in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 600)
        (frequency
           [
             (5, map (fun i -> P_add i) (int_bound (n - 1)));
             (2, map (fun i -> P_remove i) (int_bound (n - 1)));
             (1, map (fun i -> P_remove_absent i) (int_bound (n - 1)));
             (3, map (fun i -> P_probe i) (int_bound (n - 1)));
           ]))
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | P_add i -> "add " ^ string_of_int i
           | P_remove i -> "remove " ^ string_of_int i
           | P_remove_absent i -> "remove-absent " ^ string_of_int i
           | P_probe i -> "probe " ^ string_of_int i)
         ops)
  in
  QCheck.Test.make ~name:"pending table agrees with a Hashtbl model" ~count:300
    (QCheck.make gen ~print)
    (fun ops ->
      let table = Flow_chains.create pentry 1 and model = Hashtbl.create 16 in
      let agrees (f : Five_tuple.t) =
        let want = Option.value (Hashtbl.find_opt model f) ~default:no_pentry in
        probe table f == want
      in
      let other_way (f : Five_tuple.t) =
        Five_tuple.make ~src:f.dst ~dst:f.src ~proto:f.proto ~src_port:f.src_port
          ~dst_port:f.dst_port
      in
      let visited = ref 0 in
      List.for_all
        (fun op ->
          let i =
            match op with P_add i | P_remove i | P_remove_absent i | P_probe i -> i
          in
          let f = flows.(i) in
          (match op with
          | P_add _ ->
              if not (Hashtbl.mem model f) then begin
                let e = { pflow = f; prank = 0; pnext = no_pentry } in
                Flow_chains.add table (pentry.hash e) e;
                Hashtbl.replace model f e
              end
          | P_remove _ -> (
              match Hashtbl.find_opt model f with
              | Some e ->
                  Flow_chains.remove table (pentry.hash e) e;
                  Hashtbl.remove model f
              | None -> ())
          | P_remove_absent _ ->
              (* An entry for the same flow that is not the one held. *)
              Flow_chains.remove table (Five_tuple.hash f)
                { pflow = f; prank = 0; pnext = no_pentry }
          | P_probe _ -> ());
          table.Flow_chains.count = Hashtbl.length model && agrees f && agrees (other_way f))
        ops
      && Array.for_all agrees flows
      && Hashtbl.fold (fun _ e ok -> ok && in_own_chain table e) model true
      && begin
           Flow_chains.iter table (fun visited () _ -> incr visited) visited ();
           !visited = Hashtbl.length model
         end)

(* Entries of random ranks, several a flow, added to a table of one
   cell and removed, so it grows many times over: after every step each
   chain holds its entries highest rank first (a doubling splits each
   chain in order), each held entry is linked in the chain of its own
   hash, a probe of its flow finds the first of that flow's entries,
   and the table holds what was added and not removed. *)
let prop_chains_keep_order =
  let flows =
    Array.init 24 (fun i ->
        Five_tuple.tcp ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2")
          ~src_port:(40000 + (i mod 6)) ~dst_port:(80 + (i / 6)))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300)
        (pair (int_bound (Array.length flows - 1)) (frequency [ (4, return true); (1, return false) ])))
  in
  let print ops =
    String.concat "; "
      (List.map (fun (i, add) -> (if add then "add " else "remove ") ^ string_of_int i) ops)
  in
  QCheck.Test.make ~name:"flow chains keep table order across growth" ~count:300
    (QCheck.make gen ~print)
    (fun ops ->
      let table = Flow_chains.create ranked 1 and held = ref [] in
      let rec ordered e =
        e.pnext == no_pentry || (e.prank > e.pnext.prank && ordered e.pnext)
      in
      List.for_all
        (fun (step, (i, add)) ->
          let f = flows.(i) in
          (if add then begin
             (* Random-looking ranks, distinct by the step. *)
             let e = { pflow = f; prank = ((step * 7919) mod 1000 * 1000) + step; pnext = no_pentry } in
             Flow_chains.add table (pentry.hash e) e;
             held := e :: !held
           end
           else
             match List.find_opt (fun e -> Five_tuple.equal e.pflow f) !held with
             | Some e ->
                 Flow_chains.remove table (pentry.hash e) e;
                 held := List.filter (fun x -> x != e) !held
             | None -> ());
          table.Flow_chains.count = List.length !held
          && List.for_all
               (fun e ->
                 let head = Flow_chains.chain table (pentry.hash e) in
                 let first =
                   List.fold_left
                     (fun best x ->
                       if Five_tuple.equal x.pflow e.pflow && x.prank > best.prank then x
                       else best)
                     e !held
                 in
                 ordered head && in_own_chain table e && probe table e.pflow == first)
               !held)
        (List.mapi (fun step op -> (step, op)) ops))

let () =
  Alcotest.run "core_units"
    [
      ( "conn_state",
        [
          Alcotest.test_case "forward and reverse" `Quick
            test_conn_state_permits_forward_and_reverse;
          Alcotest.test_case "idle expiry" `Quick test_conn_state_idle_expiry;
          Alcotest.test_case "stays bounded by the idle timeout" `Quick
            test_conn_state_stays_bounded;
          Alcotest.test_case "stays bounded after a clear" `Quick
            test_conn_state_bounded_after_clear;
          Alcotest.test_case "permits allocates nothing" `Quick
            test_conn_state_permits_alloc;
          Alcotest.test_case "footprint per entry" `Quick test_conn_state_footprint;
          QCheck_alcotest.to_alcotest prop_conn_state_model;
        ] );
      ( "audit",
        [
          Alcotest.test_case "counts and flags" `Quick test_audit_counts_and_flags;
          Alcotest.test_case "capacity trims" `Quick test_audit_capacity_trims;
          Alcotest.test_case "summarizes responses" `Quick
            test_audit_summarizes_responses;
          Alcotest.test_case "interns summaries" `Quick
            test_audit_interns_summaries;
          Alcotest.test_case "record on an interned hit allocates no summary"
            `Quick test_audit_record_hit_alloc;
          Alcotest.test_case "rule line" `Quick test_audit_rule_line;
          Alcotest.test_case "stays bounded by its capacity" `Quick
            test_audit_stays_bounded;
          Alcotest.test_case "footprint per entry, flat in entries" `Quick
            test_audit_footprint;
          QCheck_alcotest.to_alcotest prop_audit_ring;
        ] );
      ( "policy_store",
        [
          Alcotest.test_case "alphabetical order" `Quick
            test_policy_store_alphabetical_order;
          Alcotest.test_case "an error names its file" `Quick
            test_policy_store_error_names_its_file;
          Alcotest.test_case "rejects broken concatenation" `Quick
            test_policy_store_rejects_broken_concatenation;
          Alcotest.test_case "on_change fires" `Quick
            test_policy_store_on_change_fires;
          Alcotest.test_case "parses each file once" `Quick
            test_policy_store_parses_each_file_once;
          Alcotest.test_case "a rule reads into the next file" `Quick
            test_policy_store_rule_reads_into_next_file;
          QCheck_alcotest.to_alcotest prop_policy_store_load;
        ] );
      ( "pending",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pending_table; prop_chains_keep_order ] );
      ( "query_plan",
        [ QCheck_alcotest.to_alcotest prop_intercept_table ] );
      ("services", [ Alcotest.test_case "lookup" `Quick test_services_lookup ]);
      ( "decision",
        [
          Alcotest.test_case "warm decide allocation, flat in $allowed" `Quick
            test_decide_alloc_flat;
        ] );
      ( "deploy",
        [ Alcotest.test_case "linear validation" `Quick test_deploy_linear_validation ] );
    ]
