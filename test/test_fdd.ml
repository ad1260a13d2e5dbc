(* The decision-diagram policy engine (lib/analysis/fdd.mli): unit
   semantics, equivalence/differential/slice analyses, and the
   randomized Eval-vs-FDD differential over every shipped policy.

   The differential oracle re-implements §3.3 quick/last-match over a
   forced truth assignment per conditional rule and enumerates every
   assignment: the FDD leaf must be [Static a] exactly when all
   assignments agree on [a], [Reactive] exactly when two assignments
   disagree — i.e. when the verdict genuinely hinges on what a daemon
   or dict would say. *)

open Netcore
module Fdd = Analysis.Fdd

let env_of s =
  match Pf.Env.of_string s with
  | Ok env -> env
  | Error e -> Alcotest.failf "env error: %s" e

let flow ?(proto = Proto.Tcp) ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.make ~proto ~src:(Ipv4.of_string src) ~dst:(Ipv4.of_string dst)
    ~src_port:sp ~dst_port:dp

let response fl pairs =
  Identxx.Response.make ~flow:fl
    [ List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs ]

let action =
  Alcotest.testable
    (fun fmt a ->
      Format.pp_print_string fmt
        (match a with Pf.Ast.Pass -> "pass" | Pf.Ast.Block -> "block"))
    ( = )

let decision v =
  match v with
  | Fdd.Static { action; _ } -> `Static action
  | Fdd.Reactive _ -> `Reactive

(* --- unit semantics: last match, quick, reactive classification --- *)

let unit_policy =
  {|block all
pass from 10.0.0.0/8 to any port 80
block quick from 10.9.0.0/16 to any
pass from 172.16.0.0/12 to any with eq(@src[name], firefox)|}

let test_verdicts () =
  let fdd = Fdd.compile (env_of unit_policy) in
  let check name fl expected =
    Alcotest.(check bool) name true (decision (Fdd.lookup fdd fl) = expected)
  in
  check "last match wins" (flow "10.1.2.3" "1.2.3.4") (`Static Pf.Ast.Pass);
  check "quick overrides later pass"
    (flow "10.9.2.3" "1.2.3.4")
    (`Static Pf.Ast.Block);
  check "port mismatch falls back"
    (flow ~dp:81 "10.1.2.3" "1.2.3.4")
    (`Static Pf.Ast.Block);
  check "conditional rule is reactive" (flow "172.16.5.5" "1.2.3.4") `Reactive;
  match Fdd.lookup fdd (flow "172.16.5.5" "1.2.3.4") with
  | Fdd.Reactive { lines; inputs; may_default } ->
      Alcotest.(check (list int)) "deciding line" [ 4 ] lines;
      Alcotest.(check bool)
        "needs src response" true
        (inputs = [ Pf.Ast.Needs_src_response ]);
      Alcotest.(check bool) "default unreachable" false may_default
  | Fdd.Static _ -> Alcotest.fail "expected reactive leaf"

let test_node_sharing () =
  (* The same ruleset compiles to the identical root: hash-consing
     makes equality of semantics equality of ids, so equiv is O(1). *)
  let a = Fdd.compile (env_of unit_policy) in
  let b = Fdd.compile (env_of unit_policy) in
  Alcotest.(check bool) "same root" true (Fdd.equiv a b = Ok ());
  Alcotest.(check bool)
    "node count stable" true
    (Fdd.node_count a = Fdd.node_count b)

let test_equiv_counterexample () =
  let a = Fdd.compile (env_of "block all\npass from 10.0.0.0/8 to any port 80") in
  let b =
    Fdd.compile (env_of "block all\npass from 10.0.0.0/8 to any port 8080")
  in
  match Fdd.equiv a b with
  | Ok () -> Alcotest.fail "expected a counterexample"
  | Error { flow = fl; left; right } ->
      (* The witness flow must actually separate the two policies. *)
      Alcotest.(check bool)
        "flow inside 10/8 or port difference" true
        (Fdd.lookup a fl = left && Fdd.lookup b fl = right);
      Alcotest.(check bool)
        "verdicts differ" true
        (decision left <> decision right)

let test_diff_exact_fraction () =
  let a = Fdd.compile (env_of "block all") in
  let b = Fdd.compile (env_of "block all\npass from 10.0.0.0/8 to any port 80") in
  let r = Fdd.diff a b in
  (* exactly 1/256 of sources times 1/65536 of dst ports changed *)
  Alcotest.(check (float 1e-15))
    "changed fraction" (1.0 /. 256.0 /. 65536.0) r.Fdd.changed_fraction;
  Alcotest.(check int) "one region" 1 (List.length r.Fdd.deltas);
  Alcotest.(check bool) "not truncated" false r.Fdd.truncated;
  let self = Fdd.diff a a in
  Alcotest.(check (float 0.0)) "self diff empty" 0.0 self.Fdd.changed_fraction;
  Alcotest.(check int) "no regions" 0 (List.length self.Fdd.deltas)

let test_static_slice () =
  let fdd = Fdd.compile (env_of unit_policy) in
  let sl = Fdd.static_slice fdd in
  (* reactive residue = 172.16/12 minus the quick-blocked and
     pass-port-80 carve-outs; coverage is 1 - |residue| *)
  Alcotest.(check bool) "coverage below 1" true (sl.Fdd.s_coverage < 1.0);
  Alcotest.(check bool) "coverage near 1" true (sl.Fdd.s_coverage > 0.999);
  Alcotest.(check bool)
    "reactive residue present" true
    (sl.Fdd.s_reactive <> []);
  (* the enumerated regions partition the flow space: volumes sum to 1 *)
  let region_vol rg =
    let w top (lo, hi) = float_of_int (hi - lo + 1) /. (float_of_int top +. 1.0) in
    w 255 rg.Fdd.r_proto
    *. w 0xFFFF_FFFF rg.Fdd.r_src
    *. w 0xFFFF_FFFF rg.Fdd.r_dst
    *. w 0xFFFF rg.Fdd.r_sport
    *. w 0xFFFF rg.Fdd.r_dport
  in
  let static_vol =
    List.fold_left (fun acc (rg, _, _) -> acc +. region_vol rg) 0.0 sl.Fdd.s_static
  in
  let reactive_vol =
    List.fold_left (fun acc (rg, _) -> acc +. region_vol rg) 0.0 sl.Fdd.s_reactive
  in
  Alcotest.(check (float 1e-9))
    "partition of flow space" 1.0 (static_vol +. reactive_vol)

let test_fallthrough () =
  let covered = Fdd.compile (env_of "block all") in
  Alcotest.(check int) "block all covers" 0 (List.length (Fdd.fallthrough covered));
  let open_pol = Fdd.compile (env_of "pass from 10.0.0.0/8 to any") in
  let regions = Fdd.fallthrough open_pol in
  Alcotest.(check bool) "residue present" true (regions <> []);
  List.iter
    (fun rg ->
      let w = Fdd.region_witness rg in
      Alcotest.(check bool)
        "witness outside 10/8" false
        (Prefix.mem w.Five_tuple.src (Prefix.of_string "10.0.0.0/8")))
    regions;
  (* conditional rules leave the default reachable *)
  let cond = Fdd.compile (env_of "pass all with eq(@src[name], skype)") in
  Alcotest.(check bool)
    "conditional-only policy may default" true
    (Fdd.fallthrough cond <> [])

(* --- the assignment-enumeration oracle --- *)

let header_matches env (r : Pf.Ast.rule) (fl : Five_tuple.t) =
  let addr_ok spec ip =
    match spec with
    | None -> true
    | Some s -> Pf.Env.addr_spec_matches env s ip
  in
  let port_ok pm p =
    match pm with
    | None -> true
    | Some pm ->
        let lo, hi = Pf.Ast.port_interval pm in
        lo <= p && p <= hi
  in
  (match r.Pf.Ast.proto with
  | None -> true
  | Some pr -> Proto.equal pr fl.Five_tuple.proto)
  && addr_ok r.Pf.Ast.from_.addr fl.Five_tuple.src
  && addr_ok r.Pf.Ast.to_.addr fl.Five_tuple.dst
  && port_ok r.Pf.Ast.from_.port fl.Five_tuple.src_port
  && port_ok r.Pf.Ast.to_.port fl.Five_tuple.dst_port

(* All verdicts reachable under some truth assignment of the
   header-matching conditional rules. *)
let oracle_outcomes env fl =
  let matching =
    List.filter (fun r -> header_matches env r fl) (Pf.Env.rules env)
  in
  let cond_lines =
    List.filter_map
      (fun (r : Pf.Ast.rule) ->
        if Pf.Ast.cond_free r then None else Some r.Pf.Ast.line)
      matching
  in
  let k = List.length cond_lines in
  if k > 14 then Alcotest.failf "too many conditional rules (%d)" k;
  let outcomes = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    let fires (r : Pf.Ast.rule) =
      Pf.Ast.cond_free r
      ||
      let rec idx i = function
        | [] -> false
        | l :: _ when l = r.Pf.Ast.line -> mask land (1 lsl i) <> 0
        | _ :: rest -> idx (i + 1) rest
      in
      idx 0 cond_lines
    in
    let rec go current = function
      | [] -> current
      | (r : Pf.Ast.rule) :: rest ->
          if fires r then
            if r.Pf.Ast.quick then r.Pf.Ast.action else go r.Pf.Ast.action rest
          else go current rest
    in
    outcomes := go Pf.Ast.Pass matching :: !outcomes
  done;
  List.sort_uniq compare !outcomes

(* --- deterministic pseudo-random flows and contexts --- *)

let interesting_addrs =
  [|
    "192.168.0.5"; "192.168.0.255"; "192.168.1.1"; "192.168.1.7";
    "10.1.2.3"; "10.255.0.1"; "10.0.0.0"; "123.123.123.9"; "123.123.124.1";
    "172.16.3.9"; "8.8.8.8"; "0.0.0.0"; "255.255.255.255";
  |]

let interesting_ports = [| 0; 79; 80; 81; 443; 1000; 1023; 8080; 65535 |]

let random_addr prng =
  if Sim.Prng.bool prng then Ipv4.of_string (Sim.Prng.pick prng interesting_addrs)
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

let random_response prng fl =
  response fl
    [
      ("name", Sim.Prng.pick prng [| "skype"; "firefox"; "Server"; "ssh" |]);
      ("userID", Sim.Prng.pick prng [| "system"; "alice" |]);
      ("version", Sim.Prng.pick prng [| "150"; "210" |]);
      ("os-patch", Sim.Prng.pick prng [| "MS08-067"; "KB12345" |]);
    ]

let random_ctx prng fl =
  let src =
    if Sim.Prng.int prng 4 = 0 then None else Some (random_response prng fl)
  in
  let dst =
    if Sim.Prng.int prng 4 = 0 then None else Some (random_response prng fl)
  in
  Pf.Eval.ctx ?src ?dst ()

(* The differential proper: FDD leaf vs assignment oracle on every
   flow, and vs the real evaluator wherever the leaf is static. *)
let differential name env ~flows ~ctxs_per_flow =
  let fdd = Fdd.compile env in
  let prng = Sim.Prng.create 0x5eed in
  for i = 1 to flows do
    let fl = random_flow prng in
    let leaf = Fdd.lookup fdd fl in
    let outcomes = oracle_outcomes env fl in
    (match (decision leaf, outcomes) with
    | `Static a, [ o ] ->
        Alcotest.(check action)
          (Printf.sprintf "%s: flow %d static action" name i)
          o a
    | `Static _, os ->
        Alcotest.failf "%s: %s static but oracle has %d outcomes" name
          (Five_tuple.to_string fl) (List.length os)
    | `Reactive, os ->
        if List.length os < 2 then
          Alcotest.failf "%s: %s reactive but oracle is decided" name
            (Five_tuple.to_string fl));
    (* the static leaf must equal the real evaluator under any ctx *)
    match leaf with
    | Fdd.Static { action = a; _ } ->
        for _ = 1 to ctxs_per_flow do
          let ctx = random_ctx prng fl in
          match Pf.Eval.eval env ctx fl with
          | Ok v ->
              Alcotest.(check action)
                (Printf.sprintf "%s: flow %d eval agrees" name i)
                a v.Pf.Eval.decision
          | Error e -> Alcotest.failf "%s: eval error: %s" name e
        done
    | Fdd.Reactive _ -> ()
  done

let synthetic_corpus =
  [
    ("unit", unit_policy);
    ("negation", "block all\npass from !192.168.0.0/16 to any\nblock from any to !10.0.0.0/8 port 53");
    ( "tables",
      "table <lan> { 192.168.0.0/24 }\ntable <srv> { 192.168.1.1 10.0.0.0/8 \
       }\nblock all\npass from <lan> to <srv> port 80:443\nblock quick from \
       <srv> to <lan>" );
    ( "cond-quick",
      "pass all\nblock quick all with eq(@src[name], worm)\npass from \
       10.0.0.0/8 to any with eq(@dst[userID], system)" );
    ("proto", "block all\npass proto tcp from any to any port 22\npass proto \
               icmp from 10.0.0.0/8 to any");
    ("list", "block all\npass from { 10.0.0.1 10.0.0.2/31 } to any port 80:443");
  ]

let shipped_policies () =
  (* cwd is _build/default/test under [dune runtest]; fall back to the
     source tree when run by hand from the repo root *)
  let dir =
    if Sys.file_exists "../policies" then "../policies" else "policies"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".control")
  |> List.sort String.compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let test_differential_synthetic () =
  List.iter
    (fun (name, text) ->
      differential name (env_of text) ~flows:300 ~ctxs_per_flow:2)
    synthetic_corpus

let test_differential_shipped () =
  let files = shipped_policies () in
  Alcotest.(check bool) "shipped policies present" true (List.length files >= 4);
  (* each file alone when it compiles stand-alone ... *)
  List.iter
    (fun (name, text) ->
      match Pf.Env.of_string text with
      | Ok env -> differential name env ~flows:200 ~ctxs_per_flow:2
      | Error _ -> () (* fragments may reference another file's tables *))
    files;
  (* ... and always the full concatenated deployment *)
  let concat = String.concat "\n" (List.map snd files) in
  differential "policies-concat" (env_of concat) ~flows:300 ~ctxs_per_flow:3

(* --- Check.run fallthrough rides the FDD residue --- *)

let test_check_fallthrough_witness () =
  let decls =
    match Pf.Parser.parse "pass from 10.0.0.0/8 to any" with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let findings = Analysis.Check.run decls in
  match
    List.find_opt
      (fun (f : Analysis.Check.finding) -> f.code = "default-fallthrough")
      findings
  with
  | None -> Alcotest.fail "no fallthrough finding"
  | Some f -> (
      match f.Analysis.Check.witness with
      | None -> Alcotest.fail "expected a witness flow"
      | Some w ->
          Alcotest.(check bool)
            "witness outside the covered space" false
            (Prefix.mem w.Five_tuple.src (Prefix.of_string "10.0.0.0/8")))

(* --- recompiling from the previous compile's steps --- *)

(* Rules over a small pool of headers, so random lists share prefixes
   and regions: quick and conditional rules, a table whose contents an
   edit may change, and a rule whose negated address matches nothing
   (it applies no step). A rule is its seven fields, any one of which
   an edit may change alone. *)
let rule_fields =
  [|
    [| "pass"; "block" |];
    [| ""; " quick" |];
    [| ""; " proto tcp"; " proto udp" |];
    [| "any"; "10.0.0.0/8"; "10.1.0.0/16"; "!10.1.0.0/16"; "<lan>"; "!0.0.0.0/0" |];
    [| "any"; "10.0.0.0/8"; "10.1.0.0/16"; "<lan>" |];
    [| ""; " port 22"; " port 80"; " port 1000:2000" |];
    [| ""; " with eq(@src[name], skype)"; " with eq(@dst[user], bob)"; " with lookup(@src[name])" |];
  |]

let gen_field i = QCheck.Gen.oneofa rule_fields.(i)

let gen_rule =
  QCheck.Gen.(flatten_l (List.init (Array.length rule_fields) gen_field))

let rule_text = function
  | [ action; quick; proto; src; dst; port; cond ] ->
      Printf.sprintf "%s%s%s from %s to %s%s%s" action quick proto src dst port cond
  | _ -> invalid_arg "rule_text"

let gen_lan = QCheck.Gen.oneofl [ "10.1.2.0/24"; "10.1.0.0/16 192.168.0.0/24" ]

(* A policy and two edits of it, each applied to the one before: a
   replaced suffix, a replaced rule in the middle, one changed field of
   a rule in the middle, a changed table, or the other default. *)
let gen_edits =
  QCheck.Gen.(
    let* lan = gen_lan and* rules = list_size (int_range 1 10) gen_rule in
    let edit (default, lan, rules) =
      let n = List.length rules in
      let replace at f = List.mapi (fun i r -> if i = at then f r else r) rules in
      let* kind = int_range 0 4 in
      match kind with
      | (1 | 2) when n = 0 ->
          let+ tail = list_size (int_range 0 3) gen_rule in
          (default, lan, tail)
      | 0 ->
          let* keep = int_range 0 n and* tail = list_size (int_range 0 3) gen_rule in
          return (default, lan, List.filteri (fun i _ -> i < keep) rules @ tail)
      | 1 ->
          let* at = int_range 0 (n - 1) and* r = gen_rule in
          return (default, lan, replace at (fun _ -> r))
      | 2 ->
          let* at = int_range 0 (n - 1) and* field = int_range 0 6 in
          let+ v = gen_field field in
          (default, lan, replace at (List.mapi (fun i f -> if i = field then v else f)))
      | 3 ->
          let+ lan = gen_lan in
          (default, lan, rules)
      | _ ->
          let other = if default = Pf.Ast.Pass then Pf.Ast.Block else Pf.Ast.Pass in
          return (other, lan, rules)
    in
    let* first = edit (Pf.Ast.Pass, lan, rules) in
    let+ second = edit first in
    [ (Pf.Ast.Pass, lan, rules); first; second ])

let policy_text (_, lan, rules) =
  String.concat "\n"
    (Printf.sprintf "table <lan> { %s }" lan :: List.map rule_text rules)

(* A table with its entries' priorities left out: a compile numbers
   after the tables its cache compiled before, so only the order of the
   priorities is the diagram's. *)
let unranked (t : Compiler.table) =
  ( { t with Compiler.entries = [] },
    List.map
      (fun (e : Compiler.entry) -> (e.Compiler.e_fields, e.Compiler.e_decision, e.Compiler.e_lines))
      t.Compiler.entries )

(* Every revision recompiled from the steps of the one before is the
   diagram a compile from scratch builds, node for node, and lowers to
   the same table, entry for entry in the same order, also through a
   plan cache that saw the revisions before it. *)
let prop_recompile_equals_compile =
  QCheck.Test.make ~name:"recompile from the previous steps equals a full compile"
    ~count:300
    (QCheck.make gen_edits ~print:(fun revs ->
         String.concat "\n-- then --\n"
           (List.map
              (fun ((default, _, _) as rev) ->
                Printf.sprintf "(default %s)\n%s"
                  (if default = Pf.Ast.Pass then "pass" else "block")
                  (policy_text rev))
              revs)))
    (fun revs ->
      let cache = Compiler.create_cache () in
      ignore
        (List.fold_left
           (fun (steps, i) ((default, _, _) as rev) ->
             let env = env_of (policy_text rev) in
             let fdd, steps = Fdd.recompile ~default steps env in
             let scratch = Fdd.compile ~default env in
             if fdd <> scratch then
               QCheck.Test.fail_reportf "revision %d: recompiled diagram differs" i;
             if unranked (Compiler.compile ~cache fdd) <> unranked (Compiler.compile scratch)
             then QCheck.Test.fail_reportf "revision %d: compiled tables differ" i;
             (steps, i + 1))
           (Fdd.no_steps, 0) revs);
      true)

(* The words of recompiling a one-rule edit after [n] unchanged rules.
   The prefix splits tcp's destination port [n] ways; the edited rule
   is udp's, so its path crosses none of those splits, and what differs
   with [n] is only how the unchanged prefix is handled. The edited
   diagram is compiled once beforehand, so the measured recompile
   interns nothing new and the node store does not grow under it. *)
let edit_words n =
  let text last =
    String.concat "\n"
      (("block all"
       :: List.init n (fun i -> Printf.sprintf "pass proto tcp from any to any port %d" (1000 + i)))
      @ [ last ])
  in
  let base = env_of (text "block proto udp from any to any port 53") in
  let edited = env_of (text "pass proto udp from any to any port 53") in
  let _, steps = Fdd.recompile Fdd.no_steps base in
  let expected = Fdd.compile edited in
  let before = Gc.minor_words () in
  let fdd, _ = Fdd.recompile steps edited in
  let words = Gc.minor_words () -. before in
  if fdd <> expected then Alcotest.fail "the recompiled diagram differs";
  words

(* Measured: 243 words after 8 unchanged rules and 411 after 64, 3
   more per unchanged rule (its cell in the list of steps). 1,065 and
   1,233 while each applied rule built a hash table for its memo and
   copied every node it visited into lists, and while the edited
   rule's intervals were computed twice; a full compile, which
   re-applies the prefix, read 8,640 and 128,620. *)
let test_recompile_flat_in_prefix () =
  let short = edit_words 8 and long = edit_words 64 in
  if short > 260.0 || long -. short > 4.0 *. 56.0 then
    Alcotest.failf "a one-rule edit: %.0f words after 8 unchanged rules, %.0f after 64"
      short long

(* A rule application allocates the nodes it interns and nothing else.
   Applied to the empty space twice, the second application interns
   nothing and allocates only the rule's intervals, which the first
   allocates too; the first also allocates each node it interns, one
   array: a header, the level and two words per part. Measured: 38
   words for the intervals, and 5 nodes of three parts, 8 words each.
   While each application built a hash table for its memo, copied each
   node it visited into lists and built each node it made before
   looking it up, the two read 732 and 722 words. *)
let test_apply_allocates_its_nodes () =
  let env =
    env_of "pass proto udp from 10.77.0.0/16 port 4321 to 192.0.2.0/24 port 1000:1999"
  in
  let rule = List.hd (Pf.Env.rules env) in
  let apply () =
    let before = Gc.minor_words () in
    ignore (Fdd.Space.of_rule ~lookup:(Pf.Env.table env) rule);
    Gc.minor_words () -. before
  in
  let n0 = Fdd.store_size () in
  let first = apply () in
  let n1 = Fdd.store_size () in
  let second = apply () in
  Alcotest.(check int) "the second application interns nothing" n1 (Fdd.store_size ());
  let node_words id =
    let d = Fdd.of_id id in
    let parts = List.fold_left (fun n level -> max n (Fdd.part_count level d)) 1 [ 0; 1; 2; 3; 4 ] in
    2 + (2 * parts)
  in
  let interned = List.fold_left (fun w id -> w + node_words id) 0 (List.init (n1 - n0) (( + ) n0)) in
  if n1 - n0 < 5 then Alcotest.failf "%d nodes interned, expected one per constrained level" (n1 - n0);
  Alcotest.(check (float 0.)) "the first application's extra words are its nodes'"
    (float_of_int interned) (first -. second);
  if second > 45.0 then Alcotest.failf "%.0f words for the intervals of one rule" second

let () =
  Alcotest.run "fdd"
    [
      ( "semantics",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "node sharing" `Quick test_node_sharing;
          Alcotest.test_case "fallthrough" `Quick test_fallthrough;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "equiv counterexample" `Quick
            test_equiv_counterexample;
          Alcotest.test_case "diff exact fraction" `Quick
            test_diff_exact_fraction;
          Alcotest.test_case "static slice" `Quick test_static_slice;
        ] );
      ( "differential",
        [
          Alcotest.test_case "synthetic corpus" `Quick
            test_differential_synthetic;
          Alcotest.test_case "shipped policies" `Quick
            test_differential_shipped;
        ] );
      ( "recompile",
        [
          QCheck_alcotest.to_alcotest prop_recompile_equals_compile;
          Alcotest.test_case "a one-rule edit is flat in the unchanged prefix"
            `Quick test_recompile_flat_in_prefix;
          Alcotest.test_case "a rule application allocates only its nodes" `Quick
            test_apply_allocates_its_nodes;
        ] );
      ( "integration",
        [
          Alcotest.test_case "check fallthrough witness" `Quick
            test_check_fallthrough_witness;
        ] );
    ]
