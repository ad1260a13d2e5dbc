(* PF+=2 language tests: lexer, parser, environment, evaluator, and the
   paper's own example policies (Figures 2, 5, 7, 8). *)

open Netcore

let parse_exn src =
  match Pf.Parser.parse src with Ok r -> r | Error e -> invalid_arg e

let eval_exn env ctx flow =
  match Pf.Eval.eval env ctx flow with Ok v -> v | Error e -> invalid_arg e

let ip = Ipv4.of_string

let flow ?(proto = Proto.Tcp) ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.make ~src:(ip src) ~dst:(ip dst) ~proto ~src_port:sp ~dst_port:dp

let response flow sections =
  Identxx.Response.make ~flow
    (List.map
       (fun pairs ->
         List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs)
       sections)

let check_decision = Alcotest.(check bool)

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let env_of s =
  match Pf.Env.of_string s with
  | Ok env -> env
  | Error e -> Alcotest.failf "config did not parse/build: %s" e

let eval ?src ?dst ?keystore env flow =
  let ctx = Pf.Eval.ctx ?src ?dst ?keystore () in
  match Pf.Eval.eval env ctx flow with
  | Ok v -> v.Pf.Eval.decision = Pf.Ast.Pass
  | Error e -> Alcotest.failf "eval error: %s" e

(* --- lexer --- *)

let test_lexer_basic () =
  match Pf.Lexer.tokenize "pass from <lan> to !any port 80 # comment\nblock all" with
  | Error e -> Alcotest.fail e
  | Ok toks ->
      let words =
        List.filter_map
          (fun (t : Pf.Token.located) ->
            match t.token with Pf.Token.Word w -> Some w | _ -> None)
          toks
      in
      Alcotest.(check (list string))
        "words"
        [ "pass"; "from"; "lan"; "to"; "any"; "port"; "80"; "block"; "all" ]
        words

let test_lexer_star_at () =
  match Pf.Lexer.tokenize "*@src[userID]" with
  | Error e -> Alcotest.fail e
  | Ok toks ->
      Alcotest.(check int) "token count" 5 (List.length toks);
      (match toks with
      | { token = Pf.Token.Star_at; _ } :: _ -> ()
      | _ -> Alcotest.fail "expected Star_at first")

let test_lexer_continuation () =
  match Pf.Lexer.tokenize "pass \\\n  from any" with
  | Error e -> Alcotest.fail e
  | Ok toks -> Alcotest.(check int) "token count" 3 (List.length toks)

let test_lexer_unterminated_string () =
  match Pf.Lexer.tokenize "x = \"oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* --- parser --- *)

let parse_ok s =
  match Pf.Parser.parse s with
  | Ok decls -> decls
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_block_all () =
  match parse_ok "block all" with
  | [ Pf.Ast.Rule_decl r ] ->
      Alcotest.(check bool) "is block" true (r.action = Pf.Ast.Block);
      Alcotest.(check bool) "matches all" true (Pf.Ast.is_all r)
  | _ -> Alcotest.fail "expected a single rule"

let test_parse_table () =
  match parse_ok "table <mail-server> {192.168.42.32}" with
  | [ Pf.Ast.Table_def ("mail-server", [ Pf.Ast.Item_prefix p ]) ]
    when Prefix.to_string p = "192.168.42.32/32" ->
      ()
  | _ -> Alcotest.fail "bad table parse"

let test_parse_nested_table () =
  match parse_ok "table <int_hosts> { <lan> <server> }" with
  | [ Pf.Ast.Table_def ("int_hosts", [ Pf.Ast.Item_ref "lan"; Pf.Ast.Item_ref "server" ]) ] -> ()
  | _ -> Alcotest.fail "bad nested table parse"

let test_parse_paper_mail_rule () =
  (* The flagship PF+=2 example in §3.3. *)
  let src =
    "table <mail-server> {192.168.42.32}\n\
     block all\n\
     pass from any \\\n\
     with member(@src[groupID], users) \\\n\
     with eq(@src[app-name], pine) \\\n\
     to <mail-server> \\\n\
     with eq(@dst[userID], smtp)"
  in
  let decls = parse_ok src in
  match Pf.Ast.rules decls with
  | [ _block; pass ] ->
      Alcotest.(check int) "three with clauses" 3 (List.length pass.conds)
  | _ -> Alcotest.fail "expected two rules"

let test_parse_multiple_rules_one_line () =
  (* Figure 3: a requirements value holds several rules on one logical line. *)
  let src =
    "pass from any port http with eq(@src[name], skype) pass from any port \
     https with eq(@src[name], skype)"
  in
  match Pf.Parser.parse_rules src with
  | Ok [ r1; r2 ] ->
      Alcotest.(check bool) "first port" true (r1.from_.port = Some (Pf.Ast.Port_eq 80));
      Alcotest.(check bool) "second port" true (r2.from_.port = Some (Pf.Ast.Port_eq 443))
  | Ok _ -> Alcotest.fail "expected exactly two rules"
  | Error e -> Alcotest.fail e

let test_parse_dict () =
  match parse_ok "dict <pubkeys> { research : sk3ajf admin : a923jx }" with
  | [ Pf.Ast.Dict_def ("pubkeys", [ ("research", "sk3ajf"); ("admin", "a923jx") ]) ] -> ()
  | _ -> Alcotest.fail "bad dict parse"

let test_parse_macro () =
  match parse_ok "allowed = \"{ http ssh }\"" with
  | [ Pf.Ast.Macro_def ("allowed", "{ http ssh }") ] -> ()
  | _ -> Alcotest.fail "bad macro parse"

let test_parse_quick () =
  match Pf.Ast.rules (parse_ok "pass quick from any to any") with
  | [ r ] -> Alcotest.(check bool) "quick" true r.quick
  | _ -> Alcotest.fail "expected one rule"

let test_parse_keep_state () =
  match Pf.Ast.rules (parse_ok "pass from <a> to any keep state table <a> {10.0.0.1}") with
  | [ r ] -> Alcotest.(check bool) "keep state" true r.keep_state
  | _ -> Alcotest.fail "expected one rule"

let test_parse_rejects_empty_rule () =
  match Pf.Parser.parse "pass" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare 'pass' should not parse"

let test_parse_rejects_bad_addr () =
  match Pf.Parser.parse "pass from 300.1.2.3 to any" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad address should not parse"

let test_roundtrip_figures () =
  (* Pretty-print then re-parse: ASTs must agree. *)
  let srcs =
    [
      "block all";
      "pass quick from <lan> port 80 to !<lan> keep state table <lan> {10.0.0.0/8}";
      "pass from any with eq(@src[name], skype) with lt(@src[version], 200)";
      "dict <k> { a : b }\npass all with verify(@src[req-sig], @k[a], @src[exe-hash])";
      "allowed = \"{ http ssh }\"\npass all with member(@src[name], $allowed)";
      "pass all with member(*@src[groupID], research)";
      "block log proto tcp from any to any port 8000:8080";
      "pass from { 10.0.0.1 172.16.0.0/12 } to !{ 8.8.8.8 } port 53";
      "pass log proto udp from <lan> to any port 53 table <lan> {10.0.0.0/8}";
    ]
  in
  List.iter
    (fun src ->
      let d1 = parse_ok src in
      let printed = Pf.Pretty.ruleset d1 in
      let d2 = parse_ok printed in
      (* Line numbers differ; compare printed forms instead. *)
      Alcotest.(check string)
        ("roundtrip: " ^ src)
        printed (Pf.Pretty.ruleset d2))
    srcs


let test_parse_inline_address_list () =
  match Pf.Ast.rules (parse_ok "block all\npass from { 10.0.0.1 10.0.0.2 192.168.0.0/24 } to any") with
  | [ _; r ] -> (
      match r.from_.addr with
      | Some { Pf.Ast.addr = Pf.Ast.Addr_list prefixes; negated = false } ->
          Alcotest.(check int) "three members" 3 (List.length prefixes)
      | _ -> Alcotest.fail "expected an address list")
  | _ -> Alcotest.fail "expected two rules"

let test_eval_inline_address_list () =
  let env =
    env_of "block all\npass from { 10.0.0.1 192.168.0.0/24 } to any"
  in
  check_decision "member passes" true (eval env (flow "10.0.0.1" "2.2.2.2"));
  check_decision "prefix member passes" true
    (eval env (flow "192.168.0.77" "2.2.2.2"));
  check_decision "non-member blocked" false
    (eval env (flow "10.0.0.2" "2.2.2.2"));
  let neg = env_of "block all\npass from !{ 10.0.0.1 } to any" in
  check_decision "negated list" true (eval neg (flow "10.0.0.9" "2.2.2.2"));
  check_decision "negated member blocked" false
    (eval neg (flow "10.0.0.1" "2.2.2.2"))

let test_parse_proto_clause () =
  match Pf.Ast.rules (parse_ok "pass proto udp from any to any port 53") with
  | [ r ] ->
      Alcotest.(check bool) "proto udp" true (r.proto = Some Proto.Udp)
  | _ -> Alcotest.fail "expected one rule"

let test_parse_port_range () =
  match Pf.Ast.rules (parse_ok "pass from any to any port 8000:8080") with
  | [ r ] ->
      Alcotest.(check bool) "range" true
        (r.to_.port = Some (Pf.Ast.Port_range (8000, 8080)))
  | _ -> Alcotest.fail "expected one rule"

let test_parse_rejects_empty_range () =
  match Pf.Parser.parse "pass from any to any port 90:80" with
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (has_substring e "line 1");
      Alcotest.(check bool) "error shows the range" true
        (has_substring e "90:80")
  | Ok _ -> Alcotest.fail "inverted range should not parse"

let test_parse_rejects_out_of_range_port () =
  (match Pf.Parser.parse "block all\npass from any to any port 70000" with
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (has_substring e "line 2")
  | Ok _ -> Alcotest.fail "port 70000 should not parse");
  match Pf.Parser.parse "pass from any to any port 80:70000" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "range ending past 65535 should not parse"

let test_parse_log_modifier () =
  match Pf.Ast.rules (parse_ok "block log from any to any port 23") with
  | [ r ] -> Alcotest.(check bool) "log" true r.log
  | _ -> Alcotest.fail "expected one rule"

let test_eval_proto_clause () =
  let env = env_of "block all\npass proto udp from any to any port 53" in
  check_decision "udp 53 passes" true
    (eval env (flow ~proto:Proto.Udp ~dp:53 "1.1.1.1" "2.2.2.2"));
  check_decision "tcp 53 blocked" false
    (eval env (flow ~proto:Proto.Tcp ~dp:53 "1.1.1.1" "2.2.2.2"))

let test_eval_port_range () =
  let env = env_of "block all\npass from any to any port 8000:8080" in
  check_decision "8000 passes" true (eval env (flow ~dp:8000 "1.1.1.1" "2.2.2.2"));
  check_decision "8080 passes" true (eval env (flow ~dp:8080 "1.1.1.1" "2.2.2.2"));
  check_decision "8040 passes" true (eval env (flow ~dp:8040 "1.1.1.1" "2.2.2.2"));
  check_decision "7999 blocked" false (eval env (flow ~dp:7999 "1.1.1.1" "2.2.2.2"));
  check_decision "8081 blocked" false (eval env (flow ~dp:8081 "1.1.1.1" "2.2.2.2"))

let test_eval_log_in_verdict () =
  let env = env_of "block log from any to any port 23\npass all with eq(1, 1)" in
  let v = eval_exn env (Pf.Eval.ctx ()) (flow ~dp:23 "1.1.1.1" "2.2.2.2") in
  (* Last match wins: the pass-all rule matched last and has no log. *)
  Alcotest.(check bool) "pass rule unlogged" false v.Pf.Eval.log;
  let env2 = env_of "pass all with eq(1, 1)\nblock log from any to any port 23" in
  let v2 = eval_exn env2 (Pf.Eval.ctx ()) (flow ~dp:23 "1.1.1.1" "2.2.2.2") in
  Alcotest.(check bool) "block log marks verdict" true v2.Pf.Eval.log;
  Alcotest.(check bool) "and blocks" true (v2.Pf.Eval.decision = Pf.Ast.Block)

(* --- env --- *)

let test_env_nested_tables () =
  let env =
    env_of
      "table <server> { 192.168.1.1 }\n\
       table <lan> { 192.168.0.0/24 }\n\
       table <int_hosts> { <lan> <server> }"
  in
  match Pf.Env.table env "int_hosts" with
  | Some prefixes ->
      Alcotest.(check int) "two prefixes" 2 (List.length prefixes)
  | None -> Alcotest.fail "int_hosts missing"

let test_env_cycle_detected () =
  let src = "table <a> { <b> }\ntable <b> { <a> }" in
  match Pf.Parser.parse src with
  | Error e -> Alcotest.fail e
  | Ok decls -> (
      match Pf.Env.build decls with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "cycle should be rejected")

let test_env_unknown_table_in_rule () =
  match Pf.Env.of_string "pass from <ghost> to any" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table should be rejected"

let test_env_referenced_keys () =
  let env =
    env_of
      "block all\n\
       pass all with eq(@src[name], skype) with gt(@src[version], 200)\n\
       pass all with member(@dst[groupID], research) with eq(@src[name], x)"
  in
  Alcotest.(check (list string)) "keys in first-use order, deduplicated"
    [ "name"; "version"; "groupID" ]
    (Pf.Env.referenced_keys env)

let test_env_shadowing () =
  let env = env_of "x = \"1\"\nx = \"2\"\nblock all" in
  Alcotest.(check (option string)) "later macro wins" (Some "2")
    (Pf.Env.macro env "x")

(* --- evaluator --- *)

let test_eval_default_pass () =
  let env = env_of "block from 10.0.0.1 to any" in
  check_decision "unmatched flow passes by default" true
    (eval env (flow "10.9.9.9" "10.0.0.2"))

let test_eval_last_match_wins () =
  let env = env_of "block all\npass from 10.0.0.1 to any" in
  check_decision "later pass overrides earlier block" true
    (eval env (flow "10.0.0.1" "10.0.0.2"));
  check_decision "other flows still blocked" false
    (eval env (flow "10.0.0.3" "10.0.0.2"))

let test_eval_quick_short_circuits () =
  let env = env_of "block quick from 10.0.0.1 to any\npass all" in
  check_decision "quick block wins despite later pass" false
    (eval env (flow "10.0.0.1" "10.0.0.2"));
  check_decision "others pass" true (eval env (flow "10.0.0.2" "10.0.0.9"))

let test_eval_negation () =
  let env =
    env_of "table <lan> {192.168.0.0/24}\nblock all\npass from <lan> to !<lan>"
  in
  check_decision "lan to outside passes" true
    (eval env (flow "192.168.0.5" "8.8.8.8"));
  check_decision "lan to lan blocked" false
    (eval env (flow "192.168.0.5" "192.168.0.6"));
  check_decision "outside to outside blocked" false
    (eval env (flow "7.7.7.7" "8.8.8.8"))

let test_eval_port_match () =
  let env = env_of "block all\npass from any to any port 80" in
  check_decision "port 80 passes" true (eval env (flow ~dp:80 "1.1.1.1" "2.2.2.2"));
  check_decision "port 81 blocked" false
    (eval env (flow ~dp:81 "1.1.1.1" "2.2.2.2"))

let test_eval_service_name_port () =
  let env = env_of "block all\npass from any to any port https" in
  check_decision "443 passes" true (eval env (flow ~dp:443 "1.1.1.1" "2.2.2.2"))

let test_eval_with_eq_on_response () =
  let env = env_of "block all\npass all with eq(@src[name], skype)" in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let skype = response f [ [ ("name", "skype") ] ] in
  let firefox = response f [ [ ("name", "firefox") ] ] in
  check_decision "skype passes" true (eval ~src:skype env f);
  check_decision "firefox blocked" false (eval ~src:firefox env f);
  check_decision "no response blocked" false (eval env f)

let test_eval_numeric_comparisons () =
  let env = env_of "block all\npass all with gte(@src[version], 200)" in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let v210 = response f [ [ ("version", "210") ] ] in
  let v150 = response f [ [ ("version", "150") ] ] in
  let vjunk = response f [ [ ("version", "new") ] ] in
  check_decision "210 passes" true (eval ~src:v210 env f);
  check_decision "150 blocked" false (eval ~src:v150 env f);
  check_decision "non-numeric blocked" false (eval ~src:vjunk env f)

let test_eval_latest_section_wins () =
  let env = env_of "block all\npass all with eq(@src[name], skype)" in
  let f = flow "1.1.1.1" "2.2.2.2" in
  (* A later section (added by a downstream controller) overrides. *)
  let r = response f [ [ ("name", "skype") ]; [ ("name", "not-skype") ] ] in
  check_decision "latest section wins (blocked)" false (eval ~src:r env f)

let test_eval_star_concat () =
  let env = env_of "block all\npass all with eq(*@src[name], \"a,b\")" in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let r = response f [ [ ("name", "a") ]; [ ("name", "b") ] ] in
  check_decision "star concatenates across sections" true (eval ~src:r env f)

let test_eval_member_macro () =
  let env =
    env_of "allowed = \"{ http ssh }\"\nblock all\npass all with member(@src[name], $allowed)"
  in
  let f = flow "1.1.1.1" "2.2.2.2" in
  check_decision "http member passes" true
    (eval ~src:(response f [ [ ("name", "http") ] ]) env f);
  check_decision "telnet blocked" false
    (eval ~src:(response f [ [ ("name", "telnet") ] ]) env f)

let test_eval_member_multivalue () =
  (* groupID can carry several groups; membership is set intersection. *)
  let env = env_of "block all\npass all with member(@src[groupID], research)" in
  let f = flow "1.1.1.1" "2.2.2.2" in
  check_decision "multi-group member passes" true
    (eval ~src:(response f [ [ ("groupID", "users,research") ] ]) env f);
  check_decision "non-member blocked" false
    (eval ~src:(response f [ [ ("groupID", "users,staff") ] ]) env f)

let test_eval_includes () =
  let env =
    env_of "block all\npass all with includes(@dst[os-patch], MS08-067)"
  in
  let f = flow "1.1.1.1" "2.2.2.2" in
  check_decision "patched passes" true
    (eval ~dst:(response f [ [ ("os-patch", "MS08-001,MS08-067") ] ]) env f);
  check_decision "unpatched blocked" false
    (eval ~dst:(response f [ [ ("os-patch", "MS08-001") ] ]) env f)

let test_eval_verify () =
  let kp = Idcrypto.Sign.generate "research" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let requirements = "pass all with eq(@src[name], research-app)" in
  let signature = Idcrypto.Sign.sign ~secret:kp.secret [ requirements ] in
  let env =
    env_of
      (Printf.sprintf
         "dict <pubkeys> { research : %s }\n\
          block all\n\
          pass all with verify(@src[req-sig], @pubkeys[research], @src[requirements])"
         kp.public)
  in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let good =
    response f [ [ ("requirements", requirements); ("req-sig", signature) ] ]
  in
  let tampered =
    response f [ [ ("requirements", "pass all"); ("req-sig", signature) ] ]
  in
  check_decision "valid signature passes" true (eval ~keystore:ks ~src:good env f);
  check_decision "tampered requirements blocked" false
    (eval ~keystore:ks ~src:tampered env f)

let test_eval_allowed () =
  let env = env_of "block all\npass all with allowed(@dst[requirements])" in
  let f = flow ~dp:80 "1.1.1.1" "2.2.2.2" in
  let reqs_match = "pass from any to any port 80" in
  let reqs_other = "pass from any to any port 443" in
  check_decision "flow allowed by receiver rules" true
    (eval ~dst:(response f [ [ ("requirements", reqs_match) ] ]) env f);
  check_decision "flow outside receiver rules blocked" false
    (eval ~dst:(response f [ [ ("requirements", reqs_other) ] ]) env f);
  check_decision "missing requirements blocked" false (eval env f)

(* allowed() parses each requirements text once, in a memo that lives
   in the environment: it grows with the texts the environment has
   seen, holds at most 1,024 of them (2,000 distinct texts leave the
   environment no larger than the first 1,024 did), and an environment
   built afresh from the same policy starts without them. *)
let test_eval_allowed_memo_per_env () =
  let policy = "block all\npass all with allowed(@dst[requirements])" in
  let env = env_of policy in
  let words () = Obj.reachable_words (Obj.repr env) in
  let fresh = words () in
  let f = flow ~dp:80 "1.1.1.1" "2.2.2.2" in
  let full = ref 0 and largest = ref 0 in
  for i = 1 to 2000 do
    let reqs = Printf.sprintf "pass from any to any port %d" (100 + i) in
    ignore (eval ~dst:(response f [ [ ("requirements", reqs) ] ]) env f);
    if i = 1024 then full := words ();
    if i > 1024 && i mod 97 = 0 then largest := max !largest (words ())
  done;
  if !full < fresh + (1024 * 8) then
    Alcotest.failf "%d words after 1,024 texts, %d before: the memo is not the environment's"
      !full fresh;
  if !largest > !full + (!full / 10) then
    Alcotest.failf "%d words after 2,000 texts, %d after 1,024" !largest !full;
  Alcotest.(check int) "a second environment starts empty" fresh
    (Obj.reachable_words (Obj.repr (env_of policy)))

let test_eval_allowed_fail_closed_inner () =
  (* allowed() defaults to Block inside: an empty or non-matching rule
     list admits nothing. *)
  let env = env_of "block all\npass all with allowed(@dst[requirements])" in
  let f = flow ~dp:22 "1.1.1.1" "2.2.2.2" in
  let reqs = "block from any to any port 23" in
  check_decision "inner default is block" false
    (eval ~dst:(response f [ [ ("requirements", reqs) ] ]) env f)

let test_eval_allowed_recursion_guard () =
  (* requirements that invoke allowed() on themselves must not loop. *)
  let env = env_of "block all\npass all with allowed(@dst[requirements])" in
  let f = flow "1.1.1.1" "2.2.2.2" in
  let reqs = "pass all with allowed(@dst[requirements])" in
  let ctx =
    Pf.Eval.ctx ~dst:(response f [ [ ("requirements", reqs) ] ]) ()
  in
  match Pf.Eval.eval env ctx f with
  | Error _ -> ()
  | Ok v ->
      (* Depth-limit errors surface as Error; reaching a verdict is fine
         only if it blocked. *)
      Alcotest.(check bool) "self-referential requirements do not pass" true
        (v.Pf.Eval.decision = Pf.Ast.Block)

let test_eval_unknown_function_errors () =
  let env = env_of "pass all with frobnicate(@src[name])" in
  let ctx = Pf.Eval.ctx () in
  match Pf.Eval.eval env ctx (flow "1.1.1.1" "2.2.2.2") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown function should error"

let test_eval_custom_function () =
  let fns = Pf.Fnreg.create () in
  Pf.Fnreg.register fns ~name:"starts-with" (fun args ->
      match args with
      | [ Some v; Some prefix ] ->
          String.length v >= String.length prefix
          && String.sub v 0 (String.length prefix) = prefix
      | _ -> false);
  let env = env_of "block all\npass all with starts-with(@src[name], fire)" in
  let ctx name =
    Pf.Eval.ctx ~functions:fns
      ~src:(response (flow "1.1.1.1" "2.2.2.2") [ [ ("name", name) ] ])
      ()
  in
  let f = flow "1.1.1.1" "2.2.2.2" in
  Alcotest.(check bool) "firefox passes" true
    ((eval_exn env (ctx "firefox") f).decision = Pf.Ast.Pass);
  Alcotest.(check bool) "chrome blocked" true
    ((eval_exn env (ctx "chrome") f).decision = Pf.Ast.Block)

let test_eval_cannot_shadow_builtin () =
  let fns = Pf.Fnreg.create () in
  Alcotest.check_raises "registering 'eq' raises"
    (Invalid_argument "Fnreg.register: cannot shadow built-in eq") (fun () ->
      Pf.Fnreg.register fns ~name:"eq" (fun _ -> true))

(* --- Figure 2: the skype policy end-to-end over the evaluator --- *)

let fig2_config =
  (* 00-local-header.control + 50-skype.control + 99-local-footer.control,
     concatenated the way the controller reads them (§3.4). *)
  "table <server> { 192.168.1.1 }\n\
   table <lan> { 192.168.0.0/24 }\n\
   table <int_hosts> { <lan> <server> }\n\
   allowed = \"{ http ssh }\"\n\
   block all\n\
   pass from <int_hosts> to !<int_hosts> keep state\n\
   pass from <int_hosts> to <int_hosts> with member(@src[name], $allowed) keep state\n\
   pass all with eq(@src[name], skype) with eq(@dst[name], skype)\n\
   pass from any to <skype_update> port 80 with eq(@src[name], skype) keep state\n\
   table <skype_update> { 123.123.123.0/24 }\n\
   block all with eq(@src[name], skype) with lt(@src[version], 200)\n\
   block from any to <server> with eq(@src[name], skype)"

let fig2_env () = env_of fig2_config

let test_parse_intercepts () =
  let src =
    "table <assets> { 10.9.0.0/16 }\n\
     intercept query to <assets> answer { asset-class : kiosk }\n\
     intercept response to !10.0.0.0/8 augment { branch : B accepts : \"{ firefox }\" }\n\
     block all"
  in
  let env = env_of src in
  match Pf.Env.intercepts env with
  | [ q; r ] ->
      Alcotest.(check bool) "query kind" true (q.Pf.Ast.ikind = Pf.Ast.Answer_query);
      Alcotest.(check bool) "response kind" true
        (r.Pf.Ast.ikind = Pf.Ast.Augment_response);
      Alcotest.(check (list (pair string string))) "query pairs"
        [ ("asset-class", "kiosk") ] q.Pf.Ast.pairs;
      Alcotest.(check bool) "matches asset host" true
        (Pf.Env.addr_spec_matches env q.Pf.Ast.target (ip "10.9.1.1"));
      Alcotest.(check bool) "misses other host" false
        (Pf.Env.addr_spec_matches env q.Pf.Ast.target (ip "10.8.1.1"));
      Alcotest.(check bool) "negated prefix" true
        (Pf.Env.addr_spec_matches env r.Pf.Ast.target (ip "192.168.1.1"))
  | _ -> Alcotest.fail "expected two intercepts"

let test_intercept_pretty_roundtrip () =
  let src =
    "intercept query to any answer { a : b }\nintercept response to 10.0.0.0/8 augment { c : d }"
  in
  let printed = Pf.Pretty.ruleset (parse_exn src) in
  Alcotest.(check string) "fixpoint" printed
    (Pf.Pretty.ruleset (parse_exn printed))

let test_intercept_rejects_bad_syntax () =
  List.iter
    (fun src ->
      match Pf.Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" src)
    [
      "intercept query to any augment { a : b }";
      "intercept response to any answer { a : b }";
      "intercept frobs to any answer { a : b }";
      "intercept query any answer { a : b }";
    ]

let test_intercept_unknown_table_rejected () =
  match Pf.Env.of_string "intercept query to <ghost> answer { a : b }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table in intercept accepted"

let test_trace_records_matches () =
  let env = env_of "block all\npass from 10.0.0.1 to any\nblock from any to any port 23" in
  let ctx = Pf.Eval.ctx () in
  match Pf.Eval.trace env ctx (flow ~dp:80 "10.0.0.1" "2.2.2.2") with
  | Error e -> Alcotest.fail e
  | Ok (steps, verdict) ->
      Alcotest.(check int) "all rules traced" 3 (List.length steps);
      Alcotest.(check (list bool)) "match pattern" [ true; true; false ]
        (List.map (fun (s : Pf.Eval.trace_step) -> s.Pf.Eval.matched) steps);
      Alcotest.(check (list bool)) "only final match decided"
        [ false; true; false ]
        (List.map (fun (s : Pf.Eval.trace_step) -> s.Pf.Eval.decided) steps);
      Alcotest.(check bool) "verdict pass" true
        (verdict.Pf.Eval.decision = Pf.Ast.Pass)

let test_trace_quick_truncates () =
  let env = env_of "block quick from any to any port 23\npass all" in
  let ctx = Pf.Eval.ctx () in
  match Pf.Eval.trace env ctx (flow ~dp:23 "1.1.1.1" "2.2.2.2") with
  | Error e -> Alcotest.fail e
  | Ok (steps, verdict) ->
      Alcotest.(check int) "trace stops at quick" 1 (List.length steps);
      Alcotest.(check bool) "blocked" true
        (verdict.Pf.Eval.decision = Pf.Ast.Block)

let named_flow ?(sp = 40000) ?(dp = 80) src dst name version =
  let f = flow ~sp ~dp src dst in
  (f, response f [ [ ("name", name); ("version", version) ] ])

let test_fig2_skype_to_skype () =
  let env = fig2_env () in
  let f = flow ~dp:33000 "192.168.0.10" "10.20.30.40" in
  let src = response f [ [ ("name", "skype"); ("version", "210") ] ] in
  let dst = response f [ [ ("name", "skype"); ("version", "210") ] ] in
  check_decision "skype to skype allowed" true (eval ~src ~dst env f)

let test_fig2_old_skype_blocked () =
  let env = fig2_env () in
  let f = flow ~dp:33000 "192.168.0.10" "10.20.30.40" in
  let src = response f [ [ ("name", "skype"); ("version", "150") ] ] in
  let dst = response f [ [ ("name", "skype"); ("version", "210") ] ] in
  check_decision "old skype blocked by 99-footer" false (eval ~src ~dst env f)

let test_fig2_skype_to_server_blocked () =
  let env = fig2_env () in
  let f, src = named_flow "192.168.0.10" "192.168.1.1" "skype" "210" in
  check_decision "skype to server blocked" false (eval ~src env f)

let test_fig2_skype_update () =
  let env = fig2_env () in
  let f, src = named_flow ~dp:80 "192.168.0.10" "123.123.123.5" "skype" "210" in
  check_decision "skype update over port 80 allowed" true (eval ~src env f)

let test_fig2_approved_app_internal () =
  let env = fig2_env () in
  let f, src = named_flow ~dp:80 "192.168.0.10" "192.168.1.1" "http" "1" in
  check_decision "approved app lan to server allowed" true (eval ~src env f)

let test_fig2_unapproved_app_internal () =
  let env = fig2_env () in
  let f, src = named_flow ~dp:23 "192.168.0.10" "192.168.1.1" "telnet" "1" in
  check_decision "unapproved app internal blocked" false (eval ~src env f)

let test_fig2_outbound_allowed () =
  let env = fig2_env () in
  let f, src = named_flow ~dp:443 "192.168.0.10" "8.8.8.8" "firefox" "1" in
  check_decision "outbound from int_hosts allowed" true (eval ~src env f)

let test_fig2_inbound_blocked () =
  let env = fig2_env () in
  let f, src = named_flow ~dp:80 "8.8.8.8" "192.168.0.10" "curl" "1" in
  check_decision "inbound from internet blocked" false (eval ~src env f)

(* --- property tests --- *)

let gen_ip =
  QCheck.Gen.map
    (fun n -> Ipv4.of_int n)
    (QCheck.Gen.int_bound 0xffff_ffff)

let gen_flow =
  QCheck.Gen.map3
    (fun src dst (sp, dp) ->
      Five_tuple.make ~src ~dst ~proto:Proto.Tcp ~src_port:sp ~dst_port:dp)
    gen_ip gen_ip
    (QCheck.Gen.pair (QCheck.Gen.int_bound 0xffff) (QCheck.Gen.int_bound 0xffff))

let arb_flow = QCheck.make gen_flow ~print:Five_tuple.to_string

let prop_block_all_blocks_everything =
  QCheck.Test.make ~name:"block all blocks every flow" ~count:200 arb_flow
    (fun f ->
      let env = env_of "block all" in
      not (eval env f))

let prop_pass_all_passes_everything =
  QCheck.Test.make ~name:"pass all passes every flow" ~count:200 arb_flow
    (fun f ->
      let env = env_of "pass all" in
      eval env f)

let prop_quick_equals_reorder =
  (* For a ruleset where exactly one rule can match any given flow,
     quick and non-quick agree. *)
  QCheck.Test.make ~name:"quick agrees when matches are unique" ~count:200
    arb_flow (fun f ->
      let env1 = env_of "block quick from any to any port 22\npass all with eq(1, 1)" in
      let env2 = env_of "pass from any to any port 443\nblock from any to any port 22" in
      let _ = env2 in
      let blocked = not (eval env1 f) in
      if (Five_tuple.to_string f).[0] = 'x' then false
      else blocked = (f.Five_tuple.dst_port = 22))

let prop_negation_is_complement =
  QCheck.Test.make ~name:"from <t> and from !<t> partition flows" ~count:200
    arb_flow (fun f ->
      let env_pos = env_of "table <t> {10.0.0.0/8}\nblock all\npass from <t> to any" in
      let env_neg = env_of "table <t> {10.0.0.0/8}\nblock all\npass from !<t> to any" in
      eval env_pos f <> eval env_neg f)

(* Random-AST pretty/parse fixpoint: generate arbitrary rules, print
   them, re-parse, and require the printed forms to agree. *)

let gen_word =
  QCheck.Gen.(
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'a' 'z')
      (string_size ~gen:(char_range 'a' 'z') (int_bound 6)))

let gen_arg =
  QCheck.Gen.(
    let* kind = int_bound 3 in
    match kind with
    | 0 ->
        let* key = gen_word in
        let* star = bool in
        let* side = oneofl [ "src"; "dst" ] in
        return (Pf.Ast.Dict_access { star; dict = side; key })
    | 1 -> map (fun w -> Pf.Ast.Macro_ref w) (return "m")
    | 2 -> map (fun w -> Pf.Ast.Lit w) gen_word
    | _ -> map (fun n -> Pf.Ast.Lit (string_of_int n)) (int_bound 999))

let gen_funcall =
  QCheck.Gen.(
    let* fname = oneofl [ "eq"; "gt"; "lt"; "gte"; "lte"; "member"; "includes" ] in
    let* a = gen_arg in
    let* b = gen_arg in
    return { Pf.Ast.fname; args = [ a; b ] })

let gen_addr_spec =
  QCheck.Gen.(
    let* negated = bool in
    let* kind = int_bound 2 in
    match kind with
    | 0 -> return { Pf.Ast.negated; addr = Pf.Ast.Addr_any }
    | 1 -> return { Pf.Ast.negated; addr = Pf.Ast.Addr_table "t" }
    | _ ->
        let* a = int_bound 255 in
        let* len = int_range 8 32 in
        return
          {
            Pf.Ast.negated;
            addr =
              Pf.Ast.Addr_prefix
                (Prefix.make (Ipv4.of_octets 10 a 0 0) len);
          })

let gen_port_match =
  QCheck.Gen.(
    let* lo = int_range 1 60000 in
    let* span = int_bound 5000 in
    let* range = bool in
    return
      (if range then Pf.Ast.Port_range (lo, lo + span) else Pf.Ast.Port_eq lo))

let gen_endpoint =
  QCheck.Gen.(
    let* addr = option gen_addr_spec in
    let* port = option gen_port_match in
    return { Pf.Ast.addr; port })

let gen_rule =
  QCheck.Gen.(
    let* action = oneofl [ Pf.Ast.Pass; Pf.Ast.Block ] in
    let* quick = bool in
    let* log = bool in
    let* proto = option (oneofl [ Proto.Tcp; Proto.Udp; Proto.Icmp ]) in
    let* from_ = gen_endpoint in
    let* to_ = gen_endpoint in
    let* conds = list_size (int_bound 3) gen_funcall in
    let* keep_state = bool in
    let rule =
      { Pf.Ast.action; quick; log; proto; from_; to_; conds; keep_state; line = 0 }
    in
    (* Rules with no criteria at all are printed as "all" anyway; keep
       them, the printer handles it. *)
    return rule)

let gen_ruleset =
  QCheck.Gen.(
    let* rules = list_size (int_range 1 8) gen_rule in
    return
      (Pf.Ast.Table_def ("t", [ Pf.Ast.Item_prefix (Prefix.of_string "10.0.0.0/8") ])
      :: Pf.Ast.Macro_def ("m", "42")
      :: List.map (fun r -> Pf.Ast.Rule_decl r) rules))

let prop_random_ast_pretty_parse_fixpoint =
  QCheck.Test.make ~name:"random AST: pretty o parse is identity on printed form"
    ~count:300
    (QCheck.make gen_ruleset ~print:Pf.Pretty.ruleset)
    (fun decls ->
      let printed = Pf.Pretty.ruleset decls in
      match Pf.Parser.parse printed with
      | Error _ -> false
      | Ok reparsed -> Pf.Pretty.ruleset reparsed = printed)

let prop_random_ast_decisions_preserved =
  QCheck.Test.make ~name:"random AST: decisions survive pretty/parse" ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_ruleset gen_flow)
       ~print:(fun (d, f) -> Pf.Pretty.ruleset d ^ " | " ^ Five_tuple.to_string f))
    (fun (decls, f) ->
      match (Pf.Env.build decls, Pf.Env.of_string (Pf.Pretty.ruleset decls)) with
      | Ok env1, Ok env2 ->
          let ctx =
            Pf.Eval.ctx
              ~src:(response f [ [ ("name", "skype"); ("ver", "7") ] ])
              ()
          in
          let d1 = Pf.Eval.eval env1 ctx f in
          let d2 = Pf.Eval.eval env2 ctx f in
          (match (d1, d2) with
          | Ok v1, Ok v2 -> v1.Pf.Eval.decision = v2.Pf.Eval.decision
          | Error _, Error _ -> true
          | _ -> false)
      | Error _, Error _ -> true
      | _ -> false)

let prop_roundtrip_pretty_parse =
  (* Render the figure-2 config and re-parse: decisions agree on random flows. *)
  QCheck.Test.make ~name:"pretty/parse preserves decisions" ~count:100 arb_flow
    (fun f ->
      let env1 = fig2_env () in
      let printed = Pf.Pretty.ruleset (parse_exn fig2_config) in
      let env2 = env_of printed in
      eval env1 f = eval env2 f)

let prop_precompile_sound =
  (* Soundness of the drops-only table a controller without [proactive]
     installs: any flow an entry decides is dropped, and blocked by full
     PF+=2 evaluation. *)
  let gen_policy =
    QCheck.Gen.(
      let* rules =
        list_size (int_range 1 4)
          (let* a = int_range 0 3 in
           let* len = oneofl [ 24; 32 ] in
           let* dp = int_range 80 85 in
           let* use_range = bool in
           return
             (Printf.sprintf "block quick from 10.0.%d.0/%d to any port %s" a
                len
                (if use_range then Printf.sprintf "%d:%d" dp (dp + 2)
                 else string_of_int dp)))
      in
      return (String.concat "\n" (rules @ [ "pass all" ])))
  in
  QCheck.Test.make ~name:"precompiled drops imply evaluator blocks" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_policy gen_flow)
       ~print:(fun (p, f) -> p ^ " | " ^ Five_tuple.to_string f))
    (fun (policy, f) ->
      match Pf.Env.of_string policy with
      | Error _ -> false
      | Ok env ->
          let drops =
            Compiler.compile
              (Compiler.offload ~proactive:false env (Analysis.Fdd.compile env))
          in
          match Compiler.lookup drops f with
          | Compiler.Punt -> true
          | Compiler.Decide a ->
              let v = eval_exn env (Pf.Eval.ctx ()) f in
              a = Pf.Ast.Block && v.Pf.Eval.decision = Pf.Ast.Block)

let prop_config_render_roundtrip =
  let gen_cfg =
    QCheck.Gen.(
      let word =
        map2
          (fun c rest -> String.make 1 c ^ rest)
          (char_range 'a' 'z')
          (string_size ~gen:(char_range 'a' 'z') (int_bound 6))
      in
      let* globals = list_size (int_bound 3) (pair word word) in
      let* apps =
        list_size (int_bound 2)
          (let* path = word in
           let* pairs = list_size (int_range 1 4) (pair word word) in
           return ("/usr/bin/" ^ path, pairs))
      in
      let buf = Buffer.create 128 in
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s : %s\n" k v))
        globals;
      List.iter
        (fun (path, pairs) ->
          Buffer.add_string buf (Printf.sprintf "@app %s {\n" path);
          List.iter
            (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s : %s\n" k v))
            pairs;
          Buffer.add_string buf "}\n")
        apps;
      return (Buffer.contents buf))
  in
  QCheck.Test.make ~name:"daemon config render/parse roundtrip" ~count:300
    (QCheck.make gen_cfg ~print:Fun.id)
    (fun src ->
      match Identxx.Config.parse src with
      | Error _ -> false
      | Ok cfg -> (
          match Identxx.Config.parse (Identxx.Config.render cfg) with
          | Ok cfg' -> cfg = cfg'
          | Error _ -> false))

let prop_parser_total =
  (* The parser must be total: random byte soup yields Ok or Error,
     never an exception. *)
  QCheck.Test.make ~name:"parser never raises on arbitrary input" ~count:1000
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      match Pf.Parser.parse s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_config_parser_total =
  QCheck.Test.make ~name:"daemon config parser never raises" ~count:1000
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      match Identxx.Config.parse s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_wire_decoders_total =
  QCheck.Test.make ~name:"wire decoders never raise" ~count:1000
    QCheck.string
    (fun s ->
      (match Identxx.Query.decode s with
       | Ok _ | Error _ -> true
       | exception _ -> false)
      && (match Identxx.Response.decode s with
          | Ok _ | Error _ -> true
          | exception _ -> false)
      &&
      match Netcore.Packet.decode s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- member() and includes() lists ---

   The evaluator splits a list the policy writes once per environment
   and walks an answer's value in place. The oracle is the per-call
   splitting it replaced. *)

let parse_list_spec spec =
  let spec = String.trim spec in
  let inner =
    if String.length spec >= 2 && spec.[0] = '{'
       && spec.[String.length spec - 1] = '}' then
      String.sub spec 1 (String.length spec - 2)
    else spec
  in
  String.split_on_char ' ' inner
  |> List.concat_map (String.split_on_char ',')
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let split_multi v =
  String.split_on_char ',' v |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let oracle_member v spec =
  let members = parse_list_spec spec in
  List.exists (fun x -> List.mem x members) (split_multi v)

let oracle_includes l x = List.mem x (split_multi l)

(* Strings over a few item names and every character the splitters
   treat specially: braces, commas, blanks (repeated, so items come out
   empty) and the other characters [String.trim] drops. *)
let list_text_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 12)
         (oneofl [ "a"; "b"; "ab"; "{"; "}"; ","; ","; " "; " "; "  "; "\t"; "\012" ])))

let list_text = QCheck.make ~print:(Printf.sprintf "%S") list_text_gen

let prop_member_items_match_oracle =
  QCheck.Test.make ~name:"split lists give the per-call verdicts" ~count:2000
    (QCheck.triple list_text list_text list_text) (fun (v, spec, item) ->
      let expected = oracle_member v spec in
      Pf.Items.any_in v (Pf.Items.of_spec spec) = expected
      && Pf.Items.any_in_spec v spec = expected
      && Pf.Items.to_list (Pf.Items.of_spec spec)
         = List.sort_uniq String.compare (parse_list_spec spec)
      && Pf.Items.mem (Pf.Items.of_multi v) item = oracle_includes v item
      && Pf.Items.has v item = oracle_includes v item)

(* The same through the evaluator: the policy's lists are a macro the
   environment pre-splits, the values an answer's. *)
let prop_policy_lists_match_oracle =
  QCheck.Test.make ~name:"pre-split policy lists give the per-call verdicts"
    ~count:500 (QCheck.pair list_text list_text) (fun (l, v) ->
      let env =
        env_of
          (Printf.sprintf
             "l = \"%s\"\nblock all\npass all with member(@src[k], $l)\n\
              pass all with includes($l, @dst[k])"
             l)
      in
      let l = Option.get (Pf.Env.macro env "l") in
      let f = flow "1.1.1.1" "2.2.2.2" in
      let answer = response f [ [ ("k", v) ] ] in
      (match Pf.Env.spec_list env l with
       | _ -> true
       | exception Not_found -> false)
      && eval ~src:answer env f = oracle_member v l
      && eval ~dst:answer env f = oracle_includes l v)

(* An answer's list is walked where it sits: no split, no substring. *)
let test_answer_lists_walked_in_place () =
  let words f =
    ignore (Sys.opaque_identity (f ()));
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  let spec = "{ ssh, firefox  thunderbird }" and v = "dropbox , firefox" in
  check_decision "member found" true (Pf.Items.any_in_spec v spec);
  check_decision "item found" true (Pf.Items.has v "firefox");
  Alcotest.(check (float 0.)) "member() against an answer's spec" 0.
    (words (fun () -> Pf.Items.any_in_spec v spec));
  Alcotest.(check (float 0.)) "includes() of an answer's value" 0.
    (words (fun () -> Pf.Items.has v "firefox"))

(* A reload that changes [$allowed] decides the very next flow by the
   new list: no split from the old epoch survives. *)
let test_reload_resplits_member_list () =
  let module PS = Identxx_core.Policy_store in
  let module D = Identxx_core.Decision in
  let policy apps =
    Printf.sprintf
      "allowed = \"{ %s }\"\nblock all\npass all with member(@src[name], $allowed)"
      apps
  in
  let store = PS.create () in
  PS.add_exn store ~name:"00" (policy "firefox ssh");
  let d = D.create ~policy:store () in
  let f = flow "10.0.0.1" "10.0.0.2" in
  let input =
    {
      D.flow = f;
      src_response = Some (response f [ [ ("name", "skype") ] ]);
      dst_response = None;
    }
  in
  check_decision "skype not yet allowed" false (D.allows d input);
  PS.add_exn store ~name:"00" (policy "firefox, skype");
  check_decision "allowed after the reload" true (D.allows d input);
  PS.add_exn store ~name:"00" (policy "firefox");
  check_decision "blocked again after the next" false (D.allows d input)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pf"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "star-at" `Quick test_lexer_star_at;
          Alcotest.test_case "continuation" `Quick test_lexer_continuation;
          Alcotest.test_case "unterminated string" `Quick
            test_lexer_unterminated_string;
        ] );
      ( "parser",
        [
          Alcotest.test_case "block all" `Quick test_parse_block_all;
          Alcotest.test_case "table" `Quick test_parse_table;
          Alcotest.test_case "nested table" `Quick test_parse_nested_table;
          Alcotest.test_case "paper mail rule" `Quick test_parse_paper_mail_rule;
          Alcotest.test_case "two rules one line" `Quick
            test_parse_multiple_rules_one_line;
          Alcotest.test_case "dict" `Quick test_parse_dict;
          Alcotest.test_case "macro" `Quick test_parse_macro;
          Alcotest.test_case "quick keyword" `Quick test_parse_quick;
          Alcotest.test_case "keep state" `Quick test_parse_keep_state;
          Alcotest.test_case "rejects bare pass" `Quick
            test_parse_rejects_empty_rule;
          Alcotest.test_case "rejects bad address" `Quick
            test_parse_rejects_bad_addr;
          Alcotest.test_case "pretty roundtrip" `Quick test_roundtrip_figures;
          Alcotest.test_case "inline address list" `Quick
            test_parse_inline_address_list;
          Alcotest.test_case "proto clause" `Quick test_parse_proto_clause;
          Alcotest.test_case "port range" `Quick test_parse_port_range;
          Alcotest.test_case "rejects empty range" `Quick
            test_parse_rejects_empty_range;
          Alcotest.test_case "rejects out-of-range port" `Quick
            test_parse_rejects_out_of_range_port;
          Alcotest.test_case "log modifier" `Quick test_parse_log_modifier;
        ] );
      ( "env",
        [
          Alcotest.test_case "nested tables" `Quick test_env_nested_tables;
          Alcotest.test_case "cycle detection" `Quick test_env_cycle_detected;
          Alcotest.test_case "unknown table in rule" `Quick
            test_env_unknown_table_in_rule;
          Alcotest.test_case "macro shadowing" `Quick test_env_shadowing;
          Alcotest.test_case "referenced keys" `Quick test_env_referenced_keys;
        ] );
      ( "eval",
        [
          Alcotest.test_case "default pass" `Quick test_eval_default_pass;
          Alcotest.test_case "last match wins" `Quick test_eval_last_match_wins;
          Alcotest.test_case "quick short-circuits" `Quick
            test_eval_quick_short_circuits;
          Alcotest.test_case "negation" `Quick test_eval_negation;
          Alcotest.test_case "port match" `Quick test_eval_port_match;
          Alcotest.test_case "service names" `Quick test_eval_service_name_port;
          Alcotest.test_case "eq on response" `Quick test_eval_with_eq_on_response;
          Alcotest.test_case "numeric comparisons" `Quick
            test_eval_numeric_comparisons;
          Alcotest.test_case "latest section wins" `Quick
            test_eval_latest_section_wins;
          Alcotest.test_case "star concatenation" `Quick test_eval_star_concat;
          Alcotest.test_case "member with macro" `Quick test_eval_member_macro;
          Alcotest.test_case "member multivalue" `Quick
            test_eval_member_multivalue;
          Alcotest.test_case "includes" `Quick test_eval_includes;
          Alcotest.test_case "reload re-splits member list" `Quick
            test_reload_resplits_member_list;
          Alcotest.test_case "answer lists walked in place" `Quick
            test_answer_lists_walked_in_place;
          Alcotest.test_case "verify" `Quick test_eval_verify;
          Alcotest.test_case "allowed" `Quick test_eval_allowed;
          Alcotest.test_case "allowed memo per environment" `Quick
            test_eval_allowed_memo_per_env;
          Alcotest.test_case "allowed fail-closed" `Quick
            test_eval_allowed_fail_closed_inner;
          Alcotest.test_case "allowed recursion guard" `Quick
            test_eval_allowed_recursion_guard;
          Alcotest.test_case "unknown function errors" `Quick
            test_eval_unknown_function_errors;
          Alcotest.test_case "custom function" `Quick test_eval_custom_function;
          Alcotest.test_case "cannot shadow builtin" `Quick
            test_eval_cannot_shadow_builtin;
          Alcotest.test_case "inline address list" `Quick
            test_eval_inline_address_list;
          Alcotest.test_case "proto clause" `Quick test_eval_proto_clause;
          Alcotest.test_case "port range" `Quick test_eval_port_range;
          Alcotest.test_case "log in verdict" `Quick test_eval_log_in_verdict;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "skype to skype" `Quick test_fig2_skype_to_skype;
          Alcotest.test_case "old skype blocked" `Quick
            test_fig2_old_skype_blocked;
          Alcotest.test_case "skype to server blocked" `Quick
            test_fig2_skype_to_server_blocked;
          Alcotest.test_case "skype update" `Quick test_fig2_skype_update;
          Alcotest.test_case "approved app internal" `Quick
            test_fig2_approved_app_internal;
          Alcotest.test_case "unapproved app internal" `Quick
            test_fig2_unapproved_app_internal;
          Alcotest.test_case "outbound allowed" `Quick test_fig2_outbound_allowed;
          Alcotest.test_case "inbound blocked" `Quick test_fig2_inbound_blocked;
        ] );
      ( "intercepts",
        [
          Alcotest.test_case "parse and match" `Quick test_parse_intercepts;
          Alcotest.test_case "pretty roundtrip" `Quick
            test_intercept_pretty_roundtrip;
          Alcotest.test_case "rejects bad syntax" `Quick
            test_intercept_rejects_bad_syntax;
          Alcotest.test_case "unknown table" `Quick
            test_intercept_unknown_table_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records matches" `Quick test_trace_records_matches;
          Alcotest.test_case "quick truncates" `Quick test_trace_quick_truncates;
        ] );
      ( "properties",
        qc
          [
            prop_block_all_blocks_everything;
            prop_pass_all_passes_everything;
            prop_quick_equals_reorder;
            prop_negation_is_complement;
            prop_roundtrip_pretty_parse;
            prop_random_ast_pretty_parse_fixpoint;
            prop_random_ast_decisions_preserved;
            prop_parser_total;
            prop_config_parser_total;
            prop_wire_decoders_total;
            prop_precompile_sound;
            prop_config_render_roundtrip;
            prop_member_items_match_oracle;
            prop_policy_lists_match_oracle;
          ] );
    ]
