(* Tests for the ident++ protocol library: key-value validation, the
   query/response wire formats of §3.2, daemon configuration files
   (Figures 3/4/6), the simulated process table, and the daemon's
   section-assembly behaviour. *)

open Netcore

let parse_config src =
  match Identxx.Config.parse src with Ok c -> c | Error e -> invalid_arg e

module KV = Identxx.Key_value

(* [r]'s header, with any field replaced, over [sections]: a response is
   a view over its payload, so a changed one is written anew. *)
let rebuild ?src_port ?dst_port (r : Identxx.Response.t) sections =
  Identxx.Response.make
    ~flow:
      (Five_tuple.make ~src:Ipv4.any ~dst:Ipv4.any ~proto:r.proto
         ~src_port:(Option.value src_port ~default:r.src_port)
         ~dst_port:(Option.value dst_port ~default:r.dst_port))
    sections

let check = Alcotest.check
let ip = Ipv4.of_string

let flow ?(proto = Proto.Tcp) ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.make ~src:(ip src) ~dst:(ip dst) ~proto ~src_port:sp ~dst_port:dp

(* --- Key_value --- *)

let test_kv_validation () =
  check Alcotest.bool "plain key" true (KV.valid_key "userID");
  check Alcotest.bool "dashed key" true (KV.valid_key "os-patch");
  check Alcotest.bool "empty key" false (KV.valid_key "");
  check Alcotest.bool "colon in key" false (KV.valid_key "a:b");
  check Alcotest.bool "newline in key" false (KV.valid_key "a\nb");
  check Alcotest.bool "newline in value" false (KV.valid_value "x\ny");
  check Alcotest.bool "colon ok in value" true (KV.valid_value "a:b:c");
  Alcotest.check_raises "pair rejects bad key"
    (Invalid_argument "Key_value.pair: bad key a:b") (fun () ->
      ignore (KV.pair "a:b" "v"))

let test_kv_find_last_binding () =
  let s = [ KV.pair "k" "v1"; KV.pair "other" "x"; KV.pair "k" "v2" ] in
  check Alcotest.(option string) "last wins" (Some "v2") (KV.find s "k");
  check Alcotest.(option string) "missing" None (KV.find s "nope")

(* --- Query --- *)

let test_query_wire_format () =
  let q =
    Identxx.Query.make ~flow:(flow ~sp:5000 ~dp:80 "1.1.1.1" "2.2.2.2")
      [ "userID"; "name" ]
  in
  check Alcotest.string "exact bytes" "TCP 5000 80\nuserID\nname\n"
    (Identxx.Query.encode q)

let test_query_decode () =
  match Identxx.Query.decode "UDP 123 456\nuserID\n" with
  | Ok q ->
      check Alcotest.bool "udp" true (Proto.equal q.Identxx.Query.proto Proto.Udp);
      check Alcotest.int "src port" 123 q.Identxx.Query.src_port;
      check Alcotest.(list string) "keys" [ "userID" ] (Identxx.Query.keys q)
  | Error e -> Alcotest.fail e

let test_query_decode_rejects_garbage () =
  List.iter
    (fun s ->
      match Identxx.Query.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "TCP"; "TCP 1"; "TCP 1 2 3"; "FROG 1 2"; "TCP 99999 80"; "TCP -1 80";
      "TCP 1 2\nbad:key\n" ]

let test_query_roundtrip () =
  let q =
    Identxx.Query.make ~flow:(flow ~proto:Proto.Udp "9.9.9.9" "8.8.8.8")
      [ "a"; "b"; "c-d" ]
  in
  match Identxx.Query.decode (Identxx.Query.encode q) with
  | Ok q' -> check Alcotest.bool "roundtrip" true (q = q')
  | Error e -> Alcotest.fail e

let test_query_trace_wire () =
  let ctx =
    Obs.Trace_context.make ~seed:"tcp 1.1.1.1:5000 -> 2.2.2.2:80" ~seq:0
      ~sampled:true
  in
  let q =
    Identxx.Query.make ~trace:ctx
      ~flow:(flow ~sp:5000 ~dp:80 "1.1.1.1" "2.2.2.2")
      [ "userID"; "name" ]
  in
  (* The context is one extra hint-key line after the real keys. *)
  check Alcotest.string "exact bytes"
    (Printf.sprintf "TCP 5000 80\nuserID\nname\n@trace/%s\n"
       (Obs.Trace_context.to_string ctx))
    (Identxx.Query.encode q);
  (match Identxx.Query.decode (Identxx.Query.encode q) with
  | Ok q' ->
      check Alcotest.bool "trace round trips" true (q = q');
      check
        Alcotest.(list string)
        "trace token out of keys" [ "userID"; "name" ] (Identxx.Query.keys q')
  | Error e -> Alcotest.fail e);
  (* A frame without context decodes exactly as it always did. *)
  match Identxx.Query.decode "TCP 5000 80\nuserID\nname\n" with
  | Ok q' ->
      check Alcotest.bool "no trace" true ((Identxx.Query.trace q') = None);
      check
        Alcotest.(list string)
        "keys unchanged" [ "userID"; "name" ] (Identxx.Query.keys q')
  | Error e -> Alcotest.fail e

let test_query_nonce_wire () =
  let q =
    Identxx.Query.make ~nonce:"00c0ffee12345678"
      ~flow:(flow ~sp:5000 ~dp:80 "1.1.1.1" "2.2.2.2")
      [ "userID" ]
  in
  check Alcotest.string "one more hint line"
    "TCP 5000 80\nuserID\n@nonce/00c0ffee12345678\n"
    (Identxx.Query.encode q);
  (match Identxx.Query.decode (Identxx.Query.encode q) with
  | Ok q' ->
      check Alcotest.bool "nonce round trips" true (q = q');
      check Alcotest.(list string) "nonce out of keys" [ "userID" ]
        (Identxx.Query.keys q')
  | Error e -> Alcotest.fail e);
  (* Not hex: an ordinary key, as an old daemon sees it. *)
  match Identxx.Query.decode "TCP 5000 80\n@nonce/XYZ\n" with
  | Ok q' ->
      check Alcotest.(option string) "no nonce" None (Identxx.Query.nonce q');
      check Alcotest.(list string) "kept as a key" [ "@nonce/XYZ" ]
        (Identxx.Query.keys q')
  | Error e -> Alcotest.fail e

let test_query_trace_unparsable_stays_key () =
  (* Version tolerance in the other direction: an unintelligible
     "@trace/..." token is an ordinary hint key, like an old decoder
     would treat it. *)
  match Identxx.Query.decode "TCP 1 2\nuserID\n@trace/not-a-context\n" with
  | Ok q ->
      check Alcotest.bool "no trace parsed" true ((Identxx.Query.trace q) = None);
      check
        Alcotest.(list string)
        "token stays a key"
        [ "userID"; "@trace/not-a-context" ]
        (Identxx.Query.keys q)
  | Error e -> Alcotest.fail e

(* --- Response --- *)

let sample_response () =
  Identxx.Response.make ~flow:(flow "1.1.1.1" "2.2.2.2")
    [
      [ KV.pair "userID" "alice"; KV.pair "name" "skype" ];
      [ KV.pair "name" "not-skype"; KV.pair "branch" "B" ];
    ]

let test_response_wire_format () =
  let r = sample_response () in
  check Alcotest.string "exact bytes"
    "TCP 40000 80\nuserID: alice\nname: skype\n\nname: not-skype\nbranch: B\n"
    (Identxx.Response.encode r)

let test_response_roundtrip () =
  let r = sample_response () in
  match Identxx.Response.decode (Identxx.Response.encode r) with
  | Ok r' -> check Alcotest.bool "roundtrip" true (r = r')
  | Error e -> Alcotest.fail e

let test_response_latest_and_star () =
  let r = sample_response () in
  check Alcotest.(option string) "latest from last section" (Some "not-skype")
    (Identxx.Response.latest r "name");
  check Alcotest.(option string) "single binding" (Some "alice")
    (Identxx.Response.latest r "userID");
  check Alcotest.string "star concatenation" "skype,not-skype"
    (String.concat "," (Identxx.Response.all_values r "name"));
  check Alcotest.(list string) "keys in order" [ "userID"; "name"; "branch" ]
    (Identxx.Response.keys r)

(* [latest] runs for every key an audit summary or a policy reads: a
   miss allocates nothing. *)
let test_response_latest_miss_alloc () =
  let r = sample_response () in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Identxx.Response.latest r "absent"))
  done;
  check (Alcotest.float 0.) "no words per miss" 0.
    (Gc.minor_words () -. before)

let test_response_append_section () =
  let r = sample_response () in
  let r' = Identxx.Response.append_section r [ KV.pair "hop" "ctrl-b" ] in
  check Alcotest.int "three sections" 3 (List.length (Identxx.Response.sections r'));
  check Alcotest.(option string) "appended visible" (Some "ctrl-b")
    (Identxx.Response.latest r' "hop");
  (* Appending nothing is the identity. *)
  check Alcotest.bool "empty append is no-op" true
    (r = Identxx.Response.append_section r [])

let test_response_decode_skips_blank_runs () =
  (* Multiple consecutive blank lines do not create empty sections. *)
  match Identxx.Response.decode "TCP 1 2\na: 1\n\n\n\nb: 2\n" with
  | Ok r -> check Alcotest.int "two sections" 2 (List.length (Identxx.Response.sections r))
  | Error e -> Alcotest.fail e

let test_response_decode_rejects_bad_pair () =
  match Identxx.Response.decode "TCP 1 2\nno-colon-here\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted pair without colon"

let test_response_trace_piggyback () =
  let r = sample_response () in
  let spans =
    [ ("decode", 6e-05, 6e-05); ("lookup", 0.00012, 0.00018); ("sign", 0.5, 0.75) ]
  in
  let traced =
    Identxx.Response.attach_trace r ~trace_id:"0123456789abcdef"
      ~parent:"89abcdef" ~spans
  in
  check Alcotest.int "one extra section"
    (List.length (Identxx.Response.sections r) + 1)
    (List.length (Identxx.Response.sections traced));
  (* The timings survive the wire byte-exactly. *)
  (match Identxx.Response.decode (Identxx.Response.encode traced) with
  | Error e -> Alcotest.fail e
  | Ok back -> (
      match Identxx.Response.trace_info back with
      | Some (id, parent, spans') ->
          check Alcotest.string "trace id" "0123456789abcdef" id;
          check Alcotest.string "parent" "89abcdef" parent;
          check Alcotest.bool "spans round trip" true (spans' = spans);
          (* Stripping recovers the pre-trace response, so trace data
             never reaches policy evaluation or attribute caches. *)
          check Alcotest.bool "strip recovers" true
            (r = Identxx.Response.strip_trace back)
      | None -> Alcotest.fail "trace_info lost the section"));
  (* A response without a trace section: trace_info is None, strip is
     the identity — old-peer frames are untouched. *)
  check Alcotest.bool "untraced: no info" true
    (Identxx.Response.trace_info r = None);
  check Alcotest.bool "untraced: strip id" true
    (r = Identxx.Response.strip_trace r)

(* --- Config --- *)

let fig3 =
  "@app /usr/bin/skype {\n\
   name : skype\n\
   version : 210\n\
   vendor : skype.com\n\
   type : voip\n\
   requirements : \\\n\
   pass from any port http \\\n\
   with eq(@src[name], skype) \\\n\
   pass from any port https \\\n\
   with eq(@src[name], skype)\n\
   req-sig : 21oirw3eda\n\
   }"

let test_config_parses_figure3 () =
  let cfg = parse_config fig3 in
  match Identxx.Config.app cfg ~path:"/usr/bin/skype" with
  | None -> Alcotest.fail "no @app block"
  | Some pairs ->
      check Alcotest.(option string) "name" (Some "skype") (KV.find pairs "name");
      check Alcotest.(option string) "version" (Some "210") (KV.find pairs "version");
      let reqs = Option.value ~default:"" (KV.find pairs "requirements") in
      check Alcotest.bool "continuations joined" true
        (String.length reqs > 50 && not (String.contains reqs '\\'));
      (* The joined requirements parse as two PF+=2 rules. *)
      (match Pf.Parser.parse_rules reqs with
      | Ok [ _; _ ] -> ()
      | Ok _ -> Alcotest.fail "expected two rules in requirements"
      | Error e -> Alcotest.fail e)

let test_config_globals_and_comments () =
  let cfg =
    parse_config
      "# host-wide pairs\nos-patch : MS08-067 # latest\ntype : workstation\n"
  in
  check Alcotest.(option string) "os-patch" (Some "MS08-067")
    (KV.find cfg.Identxx.Config.globals "os-patch");
  check Alcotest.int "no apps" 0 (List.length cfg.Identxx.Config.apps)

let test_config_render_roundtrip () =
  let cfg = parse_config fig3 in
  let cfg' = parse_config (Identxx.Config.render cfg) in
  check Alcotest.bool "render/parse roundtrip" true (cfg = cfg')

let test_config_rejects_malformed () =
  List.iter
    (fun s ->
      match Identxx.Config.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "@app {"; "@app /x {\nkey value\n}"; "@app /x {\nname : y\n" ]

let test_config_merge_order () =
  let a = parse_config "k : from-a" in
  let b = parse_config "k : from-b" in
  let merged = Identxx.Config.merge a b in
  (* Later files' pairs come later, so they win latest-style lookups. *)
  check Alcotest.(option string) "later file wins" (Some "from-b")
    (KV.find merged.Identxx.Config.globals "k")

(* --- Process_table --- *)

let test_ptable_connect_lookup () =
  let t = Identxx.Process_table.create () in
  let p = Identxx.Process_table.spawn t ~user:"alice" ~groups:[ "staff" ] ~exe:"/bin/x" () in
  let fl = flow "10.0.0.1" "10.0.0.2" in
  Identxx.Process_table.connect t ~pid:p.Identxx.Process_table.pid ~flow:fl;
  (match Identxx.Process_table.owner_of_flow t ~flow:fl with
  | Some q -> check Alcotest.string "owner" "alice" q.Identxx.Process_table.user
  | None -> Alcotest.fail "owner not found");
  Identxx.Process_table.disconnect t ~flow:fl;
  check Alcotest.bool "disconnected" true
    (Identxx.Process_table.owner_of_flow t ~flow:fl = None)

let test_ptable_listener_lookup () =
  let t = Identxx.Process_table.create () in
  let p = Identxx.Process_table.spawn t ~user:"www" ~groups:[] ~exe:"/bin/httpd" () in
  Identxx.Process_table.listen t ~pid:p.Identxx.Process_table.pid ~proto:Proto.Tcp ~port:80;
  let incoming = flow "9.9.9.9" "10.0.0.1" ~dp:80 in
  (match Identxx.Process_table.lookup t ~flow:incoming ~as_source:false with
  | Some q -> check Alcotest.string "listener owner" "www" q.Identxx.Process_table.user
  | None -> Alcotest.fail "listener not found");
  check Alcotest.bool "wrong port" true
    (Identxx.Process_table.lookup t ~flow:(flow "9.9.9.9" "10.0.0.1" ~dp:81)
       ~as_source:false
    = None)

let test_ptable_accepted_connection_precedes_listener () =
  let t = Identxx.Process_table.create () in
  let listener = Identxx.Process_table.spawn t ~user:"www" ~groups:[] ~exe:"/bin/httpd" () in
  let worker = Identxx.Process_table.spawn t ~user:"worker" ~groups:[] ~exe:"/bin/httpd" () in
  Identxx.Process_table.listen t ~pid:listener.Identxx.Process_table.pid ~proto:Proto.Tcp ~port:80;
  let incoming = flow "9.9.9.9" "10.0.0.1" ~dp:80 in
  (* The worker owns the accepted connection (host is the flow's dst, so
     ownership is registered for the reversed flow). *)
  Identxx.Process_table.connect t ~pid:worker.Identxx.Process_table.pid
    ~flow:(Five_tuple.reverse incoming);
  match Identxx.Process_table.lookup t ~flow:incoming ~as_source:false with
  | Some q -> check Alcotest.string "accepted wins" "worker" q.Identxx.Process_table.user
  | None -> Alcotest.fail "no owner"

let test_ptable_kill_cleans_up () =
  let t = Identxx.Process_table.create () in
  let p = Identxx.Process_table.spawn t ~user:"u" ~groups:[] ~exe:"/bin/x" () in
  let fl = flow "10.0.0.1" "10.0.0.2" in
  Identxx.Process_table.connect t ~pid:p.Identxx.Process_table.pid ~flow:fl;
  Identxx.Process_table.listen t ~pid:p.Identxx.Process_table.pid ~proto:Proto.Tcp ~port:9;
  Identxx.Process_table.kill t ~pid:p.Identxx.Process_table.pid;
  check Alcotest.bool "connection gone" true
    (Identxx.Process_table.owner_of_flow t ~flow:fl = None);
  check Alcotest.bool "listener gone" true
    (Identxx.Process_table.owner_of_listener t ~proto:Proto.Tcp ~port:9 = None);
  check Alcotest.int "no processes" 0
    (List.length (Identxx.Process_table.processes t))

let test_ptable_rejects_unknown_pid () =
  let t = Identxx.Process_table.create () in
  Alcotest.check_raises "connect unknown pid"
    (Invalid_argument "Process_table: unknown pid 1") (fun () ->
      Identxx.Process_table.connect t ~pid:1 ~flow:(flow "1.1.1.1" "2.2.2.2"))

let make_host ?behaviour name ip_str =
  Identxx.Host.create ?behaviour ~name ~mac:(Mac.of_int 7) ~ip:(ip ip_str) ()

let test_ptable_ptrace_same_user () =
  (* S5.4: a compromised app can exec+ptrace another app of the SAME
     user and masquerade as it. *)
  let t = Identxx.Process_table.create () in
  let evil = Identxx.Process_table.spawn t ~user:"alice" ~groups:[] ~exe:"/bin/evil" () in
  let pine = Identxx.Process_table.spawn t ~user:"alice" ~groups:[] ~exe:"/usr/bin/pine" () in
  (match Identxx.Process_table.ptrace t ~by:evil.Identxx.Process_table.pid
           ~target:pine.Identxx.Process_table.pid with
  | Ok p -> Alcotest.(check string) "gains pine identity" "/usr/bin/pine"
              p.Identxx.Process_table.exe_path
  | Error e -> Alcotest.fail e);
  (* ...but not across users. *)
  let root = Identxx.Process_table.spawn t ~user:"root" ~groups:[] ~exe:"/sbin/init" () in
  match Identxx.Process_table.ptrace t ~by:evil.Identxx.Process_table.pid
          ~target:root.Identxx.Process_table.pid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-user ptrace must fail"

let test_ptable_ptrace_isolation () =
  (* S5.4's mitigation: the administrator marks the application setgid
     with a no-file-access group; ptrace is then denied even to the
     same user. *)
  let t = Identxx.Process_table.create () in
  let evil = Identxx.Process_table.spawn t ~user:"alice" ~groups:[] ~exe:"/bin/evil" () in
  let pine =
    Identxx.Process_table.spawn t ~isolated:true ~user:"alice" ~groups:[]
      ~exe:"/usr/bin/pine" ()
  in
  match Identxx.Process_table.ptrace t ~by:evil.Identxx.Process_table.pid
          ~target:pine.Identxx.Process_table.pid with
  | Error e ->
      Alcotest.(check bool) "mentions setgid" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "isolated process must not be traceable"

let test_ptrace_masquerade_changes_daemon_answer () =
  (* End to end: after a successful ptrace, flows registered under the
     victim pid are attributed to the victim app by the daemon. *)
  let h = make_host "h" "10.0.0.1" in
  let evil = Identxx.Host.run h ~user:"alice" ~exe:"/bin/evil" () in
  let pine = Identxx.Host.run h ~user:"alice" ~exe:"/usr/bin/pine" () in
  (match
     Identxx.Process_table.ptrace (Identxx.Host.processes h)
       ~by:evil.Identxx.Process_table.pid ~target:pine.Identxx.Process_table.pid
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let fl = Identxx.Host.connect h ~proc:pine ~dst:(ip "10.0.0.9") ~dst_port:25 () in
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "10.0.0.9")
      ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port ~dst_port:25 ~keys:[]
  with
  | Some (r, _) ->
      check Alcotest.(option string) "daemon reports pine" (Some "pine")
        (Identxx.Response.latest r "name")
  | None -> Alcotest.fail "no answer"

(* --- Daemon & Host --- *)

let test_daemon_source_response_sections () =
  let h = make_host "h" "10.0.0.1" in
  Identxx.Host.install_exe h ~path:"/usr/bin/skype" ~content:"skype-image";
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name:"50-skype"
       "@app /usr/bin/skype {\nname : skype\nversion : 210\n}"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name:"00-admin"
       "os-patch : MS08-067"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let proc = Identxx.Host.run h ~user:"alice" ~groups:[ "staff"; "voip" ] ~exe:"/usr/bin/skype" () in
  let fl = Identxx.Host.connect h ~proc ~dst:(ip "10.0.0.2") ~dst_port:33000 () in
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "10.0.0.2")
      ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port ~dst_port:33000 ~keys:[]
  with
  | None -> Alcotest.fail "no answer"
  | Some (r, role) ->
      check Alcotest.bool "as source" true (role = Identxx.Daemon.As_source);
      check Alcotest.(option string) "userID" (Some "alice")
        (Identxx.Response.latest r "userID");
      check Alcotest.(option string) "groups joined" (Some "staff,voip")
        (Identxx.Response.latest r "groupID");
      check Alcotest.(option string) "config name overrides basename"
        (Some "skype")
        (Identxx.Response.latest r "name");
      check Alcotest.(option string) "version from config" (Some "210")
        (Identxx.Response.latest r "version");
      check Alcotest.(option string) "host-wide admin pair" (Some "MS08-067")
        (Identxx.Response.latest r "os-patch");
      check Alcotest.(option string) "exe hash reported"
        (Some (Idcrypto.Sha256.hexdigest "skype-image"))
        (Identxx.Response.latest r "exe-hash")

(* A signing daemon tags its static sections once: a second answer
   reuses the tags and verifies from a warm keystore; a change drops
   them, and a reinstalled image's hash reaches the next answer. *)
let test_daemon_signs_static_sections_once () =
  let h = make_host "h" "10.0.0.1" in
  let kp = Idcrypto.Sign.generate "h-host" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  Identxx.Host.set_signing_key h (Some kp);
  Identxx.Host.install_exe h ~path:"/usr/bin/skype" ~content:"skype-v1";
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name:"00-admin"
       "os-patch : 8831"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let proc = Identxx.Host.run h ~user:"alice" ~exe:"/usr/bin/skype" () in
  let changes = ref 0 in
  Identxx.Daemon.on_change (Identxx.Host.daemon h) (fun () -> incr changes);
  let ask dst_port =
    let fl = Identxx.Host.connect h ~proc ~dst:(ip "10.0.0.2") ~dst_port () in
    match
      Identxx.Daemon.answer (Identxx.Host.daemon h) ~nonce:"ab" ~peer:(ip "10.0.0.2")
        ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port ~dst_port ~keys:[]
    with
    | Some (r, _) -> r
    | None -> Alcotest.fail "no answer"
  in
  let tags r = Identxx.Response.latest r Identxx.Signed.tags_key in
  let a = ask 80 and b = ask 81 in
  check Alcotest.bool "first answer valid" true
    (Identxx.Signed.verify ks a = Identxx.Signed.Valid 2);
  check Alcotest.bool "second answer valid" true
    (Identxx.Signed.verify ks b = Identxx.Signed.Valid 2);
  check Alcotest.(option string) "section tags reused" (tags a) (tags b);
  check Alcotest.bool "binding tags differ" true
    (Identxx.Response.latest a Identxx.Signed.sig_key
    <> Identxx.Response.latest b Identxx.Signed.sig_key);
  check Alcotest.(option string) "echoes the nonce" (Some "ab")
    (Identxx.Response.latest a Identxx.Signed.nonce_key);
  Identxx.Host.install_exe h ~path:"/usr/bin/skype" ~content:"skype-v2";
  check Alcotest.int "reinstall fires on_change" 1 !changes;
  let c = ask 82 in
  check Alcotest.(option string) "new hash reaches the next answer"
    (Some (Idcrypto.Sha256.hexdigest "skype-v2"))
    (Identxx.Response.latest c "exe-hash");
  check Alcotest.bool "built-ins re-tagged" true (tags c <> tags a);
  check Alcotest.bool "re-tagged answer valid" true
    (Identxx.Signed.verify ks c = Identxx.Signed.Valid 2)

(* A signing daemon keeps each process's tagged built-ins by pid. An
   exit is a change, so a process that later reuses the pid, under
   another user and executable, is answered for as itself. *)
let test_daemon_reused_pid_answers_new_process () =
  let h = make_host "h" "10.0.0.1" in
  Identxx.Host.set_signing_key h (Some (Idcrypto.Sign.generate "h-host"));
  let ask proc dst_port =
    let fl = Identxx.Host.connect h ~proc ~dst:(ip "10.0.0.2") ~dst_port () in
    match
      Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "10.0.0.2")
        ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port ~dst_port ~keys:[]
    with
    | Some (r, _) -> r
    | None -> Alcotest.fail "no answer"
  in
  let alice =
    Identxx.Host.run h ~pid:4242 ~user:"alice" ~exe:"/usr/bin/skype" ()
  in
  let a = ask alice 80 in
  check Alcotest.(option string) "alice's skype" (Some "alice")
    (Identxx.Response.latest a "userID");
  Identxx.Process_table.kill (Identxx.Host.processes h) ~pid:4242;
  let bob = Identxx.Host.run h ~pid:4242 ~user:"bob" ~exe:"/usr/bin/curl" () in
  let b = ask bob 81 in
  check Alcotest.(option string) "names the new user" (Some "bob")
    (Identxx.Response.latest b "userID");
  check Alcotest.(option string) "names the new executable"
    (Some "/usr/bin/curl")
    (Identxx.Response.latest b "exe-path");
  check Alcotest.(option string) "and its name" (Some "curl")
    (Identxx.Response.latest b "name")

(* An exit makes only the exiting process's built-in section stale: a
   live process's tagged section survives another pid's exit (and a
   spawn, a listener bound and run-time pairs), and is not assembled
   again. Every change still fires [on_change]. Built-ins are assembled
   where [exe_hash] is read, so its calls count them. *)
let test_daemon_exit_keeps_other_sections () =
  let processes = Identxx.Process_table.create () in
  let assembled = ref 0 in
  let d =
    Identxx.Daemon.create ~ip:(ip "10.0.0.1") ~processes
      ~exe_hash:(fun _ ->
        incr assembled;
        None)
      ()
  in
  Identxx.Daemon.set_signing_key d (Some (Idcrypto.Sign.generate "h-host"));
  let changes = ref 0 in
  Identxx.Daemon.on_change d (fun () -> incr changes);
  let spawn pid user exe =
    Identxx.Process_table.spawn processes ~pid ~user ~groups:[ user ] ~exe ()
  in
  let alice = spawn 4242 "alice" "/usr/bin/skype" in
  ignore (spawn 4343 "bob" "/usr/bin/curl");
  let fl = flow "10.0.0.1" "10.0.0.2" in
  Identxx.Process_table.connect processes ~pid:alice.pid ~flow:fl;
  let ask () =
    match
      Identxx.Daemon.answer d ~peer:(ip "10.0.0.2") ~proto:Proto.Tcp
        ~src_port:fl.Five_tuple.src_port ~dst_port:fl.Five_tuple.dst_port
        ~keys:[]
    with
    | Some (r, _) -> r
    | None -> Alcotest.fail "no answer"
  in
  let before = ask () in
  check Alcotest.int "assembled once" 1 !assembled;
  let changes0 = !changes in
  Identxx.Process_table.kill processes ~pid:4343;
  ignore (spawn 4444 "carol" "/usr/bin/vim");
  Identxx.Process_table.listen processes ~pid:4444 ~proto:Proto.Tcp ~port:25;
  Identxx.Daemon.register_runtime d ~flow:(flow "10.0.0.9" "10.0.0.1")
    [ Identxx.Key_value.pair "k" "v" ];
  check Alcotest.int "every change fires" (changes0 + 4) !changes;
  let after = ask () in
  check Alcotest.int "alice's section not assembled again" 1 !assembled;
  check Alcotest.(option string) "same section tags"
    (Identxx.Response.latest before Identxx.Signed.tags_key)
    (Identxx.Response.latest after Identxx.Signed.tags_key);
  check Alcotest.(option string) "still alice" (Some "alice")
    (Identxx.Response.latest after "userID")

(* A host with skype's @app block and one admin pair, alice's skype
   connected to 10.0.0.2:33000, and sendmail listening on port 25. *)
let hinted_host () =
  let h = make_host "h" "10.0.0.1" in
  List.iter
    (fun (name, text) ->
      match Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name text with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [
      ("50-skype", "@app /usr/bin/skype {\nname : skype\nversion : 210\n}");
      ("00-admin", "os-patch : MS08-067");
    ];
  let proc = Identxx.Host.run h ~user:"alice" ~exe:"/usr/bin/skype" () in
  let fl = Identxx.Host.connect h ~proc ~dst:(ip "10.0.0.2") ~dst_port:33000 () in
  let smtp = Identxx.Host.run h ~user:"smtp" ~exe:"/usr/sbin/sendmail" () in
  Identxx.Host.listen h ~proc:smtp ~port:25 ();
  (h, fl)

let section_count ~keys (h, (fl : Five_tuple.t)) =
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:fl.Five_tuple.dst
      ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port
      ~dst_port:fl.Five_tuple.dst_port ~keys
  with
  | Some (r, _) -> List.length (Identxx.Response.sections r)
  | None -> Alcotest.fail "no answer"

let test_daemon_answers_hinted_keys () =
  let host = hinted_host () in
  let n keys = section_count ~keys host in
  check Alcotest.int "no hint: every section" 3 (n []);
  check Alcotest.int "userID: the built-ins alone" 1 (n [ "userID" ]);
  check Alcotest.int "version: the app section alone" 1 (n [ "version" ]);
  check Alcotest.int "name: built-ins and app" 2 (n [ "name" ]);
  check Alcotest.int "os-patch: the globals alone" 1 (n [ "os-patch" ]);
  check Alcotest.int "an unknown key: nothing" 0 (n [ "clearance" ]);
  (* Extension tokens are never hints: alone they ask for everything,
     beside a plain key they change nothing. *)
  check Alcotest.int "extension tokens alone: every section" 3
    (n [ "@trace/not-a-context"; "@nonce/zz"; "@future/x" ]);
  check Alcotest.int "beside a plain key: ignored" 1
    (n [ "@trace/not-a-context"; "userID" ]);
  check Alcotest.bool "wanted agrees" true
    (Identxx.Daemon.wanted ~keys:[ "@x"; "a" ]
       [ Identxx.Key_value.pair "a" "1" ]
    && (not
          (Identxx.Daemon.wanted ~keys:[ "@a"; "b" ]
             [ Identxx.Key_value.pair "a" "1" ]))
    && Identxx.Daemon.wanted ~keys:[ "@a" ] [ Identxx.Key_value.pair "a" "1" ]);
  (* A hint is a whole key, on any line: neither a prefix of one, nor a
     value, nor a key and value together. *)
  let pairs = [ Identxx.Key_value.pair "a" "b: c"; Identxx.Key_value.pair "bc" "1" ] in
  let wanted key = Identxx.Daemon.wanted ~keys:[ key ] pairs in
  check Alcotest.(list bool)
    "hints match whole keys" [ true; true; false; false; false ]
    (List.map wanted [ "a"; "bc"; "b"; "a: b"; "c" ])

(* A signing daemon declares each section's reuse scope under its
   binding tag, and a trimmed answer still verifies. *)
let test_daemon_declares_scopes () =
  let h, fl = hinted_host () in
  let kp = Idcrypto.Sign.generate "h-host" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  Identxx.Host.set_signing_key h (Some kp);
  let ask ?(keys = []) ~src_port ~dst_port peer =
    match
      Identxx.Daemon.answer (Identxx.Host.daemon h) ~nonce:"ab" ~peer
        ~proto:Proto.Tcp ~src_port ~dst_port ~keys
    with
    | Some (r, _) -> r
    | None -> Alcotest.fail "no answer"
  in
  let scopes r =
    Option.value ~default:"-"
      (Identxx.Response.latest r Identxx.Signed.scopes_key)
  in
  let scope_t =
    Alcotest.testable
      (fun ppf s -> Format.pp_print_string ppf (Identxx.Signed.scope_to_string s))
      ( = )
  in
  let conn = ask ~src_port:fl.Five_tuple.src_port ~dst_port:33000 (ip "10.0.0.2") in
  check Alcotest.string "a connection's sections" "flow,flow,host" (scopes conn);
  check scope_t "a connection holds for its flow" Identxx.Signed.Flow
    (Identxx.Signed.scope conn);
  let lis = ask ~src_port:4444 ~dst_port:25 (ip "10.0.0.9") in
  check Alcotest.string "a listener's sections" "socket,host" (scopes lis);
  check scope_t "a listener holds for its socket" Identxx.Signed.Socket
    (Identxx.Signed.scope lis);
  let none = ask ~src_port:4444 ~dst_port:9999 (ip "10.0.0.9") in
  check Alcotest.string "no owner: the globals hold for the flow" "flow"
    (scopes none);
  let globals_only =
    ask ~keys:[ "os-patch" ] ~src_port:4444 ~dst_port:25 (ip "10.0.0.9")
  in
  check Alcotest.string "without the built-ins, as far as the lookup held"
    "socket" (scopes globals_only);
  check Alcotest.bool "a trimmed answer verifies" true
    (Identxx.Signed.verify ks globals_only = Identxx.Signed.Valid 1);
  (* The binding covers the scope list: widening it breaks the tag. *)
  let widened =
    rebuild conn
      (List.map
         (List.map (fun (p : Identxx.Key_value.pair) ->
              if String.equal p.key Identxx.Signed.scopes_key then
                Identxx.Key_value.pair p.key "host,host,host"
              else p))
         (Identxx.Response.sections conn))
  in
  check Alcotest.bool "genuine declaration verifies" true
    (Identxx.Signed.verify ks conn = Identxx.Signed.Valid 3);
  check Alcotest.bool "a widened scope list is refused" true
    (Identxx.Signed.verify ks widened = Identxx.Signed.Invalid);
  (* Run-time pairs for one flow to the listener set every flow to it
     apart. *)
  Identxx.Daemon.register_runtime (Identxx.Host.daemon h)
    ~flow:
      (Five_tuple.tcp ~src:(ip "10.0.0.7") ~dst:(ip "10.0.0.1") ~src_port:1
         ~dst_port:25)
    [ Identxx.Key_value.pair "url" "x" ];
  check Alcotest.string "run-time pairs on the socket" "flow,host"
    (scopes (ask ~src_port:4444 ~dst_port:25 (ip "10.0.0.9")))

let test_daemon_destination_response () =
  let h = make_host "srv" "10.0.0.2" in
  let proc = Identxx.Host.run h ~user:"smtp" ~exe:"/usr/sbin/sendmail" () in
  Identxx.Host.listen h ~proc ~port:25 ();
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "10.0.0.1")
      ~proto:Proto.Tcp ~src_port:50000 ~dst_port:25 ~keys:[]
  with
  | Some (r, Identxx.Daemon.As_destination) ->
      check Alcotest.(option string) "listener user" (Some "smtp")
        (Identxx.Response.latest r "userID")
  | Some (_, Identxx.Daemon.As_source) -> Alcotest.fail "wrong role"
  | None -> Alcotest.fail "no answer"

let test_daemon_runtime_pairs () =
  let h = make_host "h" "10.0.0.1" in
  let proc = Identxx.Host.run h ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let fl = Identxx.Host.connect h ~proc ~dst:(ip "10.0.0.9") ~dst_port:443 () in
  (* A browser labelling a flow as user-initiated (§3.5). *)
  Identxx.Daemon.register_runtime (Identxx.Host.daemon h) ~flow:fl
    [ KV.pair "user-initiated" "yes" ];
  (match
     Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "10.0.0.9")
       ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port ~dst_port:443 ~keys:[]
   with
  | Some (r, _) ->
      check Alcotest.(option string) "runtime pair present" (Some "yes")
        (Identxx.Response.latest r "user-initiated")
  | None -> Alcotest.fail "no answer");
  Identxx.Daemon.clear_runtime (Identxx.Host.daemon h) ~flow:fl;
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "10.0.0.9")
      ~proto:Proto.Tcp ~src_port:fl.Five_tuple.src_port ~dst_port:443 ~keys:[]
  with
  | Some (r, _) ->
      check Alcotest.(option string) "cleared" None
        (Identxx.Response.latest r "user-initiated")
  | None -> Alcotest.fail "no answer"

let test_daemon_no_process_still_answers_globals () =
  let h = make_host "h" "10.0.0.1" in
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name:"00"
       "asset : printer"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "1.2.3.4")
      ~proto:Proto.Tcp ~src_port:1 ~dst_port:2 ~keys:[]
  with
  | Some (r, _) ->
      check Alcotest.(option string) "globals only" (Some "printer")
        (Identxx.Response.latest r "asset");
      check Alcotest.(option string) "no userID" None
        (Identxx.Response.latest r "userID")
  | None -> Alcotest.fail "honest daemon must answer"

let test_daemon_silent_and_lying () =
  let h = make_host ~behaviour:Identxx.Daemon.Silent "h" "10.0.0.1" in
  check Alcotest.bool "silent" true
    (Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "1.1.1.1")
       ~proto:Proto.Tcp ~src_port:1 ~dst_port:2 ~keys:[]
    = None);
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon h)
    (Identxx.Daemon.Lying [ KV.pair "name" "definitely-legit" ]);
  match
    Identxx.Daemon.answer (Identxx.Host.daemon h) ~peer:(ip "1.1.1.1")
      ~proto:Proto.Tcp ~src_port:1 ~dst_port:2 ~keys:[]
  with
  | Some (r, _) ->
      check Alcotest.(option string) "fabricated" (Some "definitely-legit")
        (Identxx.Response.latest r "name")
  | None -> Alcotest.fail "lying daemon answers"

(* --- Wire --- *)

let test_wire_query_packet_classify () =
  let fl = flow "10.0.0.1" "10.0.0.2" in
  let q = Identxx.Query.make ~flow:fl [ "userID" ] in
  (* Query the source host: addressed to flow.src, from flow.dst (§3.2). *)
  let pkt = Identxx.Wire.query_packet ~to_ip:fl.Five_tuple.src ~from_ip:fl.Five_tuple.dst q in
  match Identxx.Wire.classify pkt with
  | Identxx.Wire.Query { from_ip; to_ip; query } ->
      check Alcotest.bool "to source host" true (Ipv4.equal to_ip fl.Five_tuple.src);
      check Alcotest.bool "from dest addr" true (Ipv4.equal from_ip fl.Five_tuple.dst);
      check Alcotest.bool "payload survives" true (q = query)
  | _ -> Alcotest.fail "not classified as query"

let test_wire_host_answers_query_packet () =
  let h = make_host "h" "10.0.0.1" in
  let proc = Identxx.Host.run h ~user:"alice" ~exe:"/usr/bin/pine" () in
  let fl = Identxx.Host.connect h ~proc ~dst:(ip "10.0.0.2") ~dst_port:25 () in
  let q = Identxx.Query.make ~flow:fl [ "userID" ] in
  let query_pkt = Identxx.Wire.query_packet ~to_ip:(ip "10.0.0.1") ~from_ip:(ip "10.0.0.2") q in
  match Identxx.Host.handle_packet h query_pkt with
  | None -> Alcotest.fail "host did not answer"
  | Some reply -> (
      match Identxx.Wire.classify reply with
      | Identxx.Wire.Response { from_ip; to_ip; response } ->
          check Alcotest.bool "reply from host" true (Ipv4.equal from_ip (ip "10.0.0.1"));
          check Alcotest.bool "reply toward querier source" true
            (Ipv4.equal to_ip (ip "10.0.0.2"));
          check Alcotest.(option string) "user in reply" (Some "alice")
            (Identxx.Response.latest response "userID")
      | _ -> Alcotest.fail "reply not a response")

let test_wire_host_ignores_foreign_query () =
  let h = make_host "h" "10.0.0.1" in
  let fl = flow "10.0.0.7" "10.0.0.8" in
  let q = Identxx.Query.make ~flow:fl [] in
  let pkt = Identxx.Wire.query_packet ~to_ip:(ip "10.0.0.7") ~from_ip:(ip "10.0.0.8") q in
  check Alcotest.bool "not addressed to us" true (Identxx.Host.handle_packet h pkt = None)

let test_wire_malformed_not_identxx () =
  let pkt =
    Packet.tcp_syn ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2") ~src_port:999
      ~dst_port:Identxx.Wire.port ()
  in
  (* Empty payload on port 783: not a parsable query. *)
  check Alcotest.bool "not identxx" true (Identxx.Wire.classify pkt = Identxx.Wire.Not_identxx)

let test_wire_is_identxx () =
  check Alcotest.bool "dst 783" true
    (Identxx.Wire.is_identxx (flow ~dp:783 "1.1.1.1" "2.2.2.2"));
  check Alcotest.bool "src 783" true
    (Identxx.Wire.is_identxx (flow ~sp:783 "1.1.1.1" "2.2.2.2"));
  check Alcotest.bool "udp 783 is not" false
    (Identxx.Wire.is_identxx (flow ~proto:Proto.Udp ~dp:783 "1.1.1.1" "2.2.2.2"))

(* --- Signed responses --- *)

(* Sign as the flow's source host, 10.0.0.1, answering about 10.0.0.2. *)
let sign ?nonce kp r =
  Identxx.Signed.sign ~keypair:kp ~host:(ip "10.0.0.1") ~peer:(ip "10.0.0.2")
    ?nonce r

let test_signed_roundtrip () =
  let kp = Idcrypto.Sign.generate "host-key" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let r =
    Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
      [ [ KV.pair "userID" "alice" ]; [ KV.pair "name" "pine" ] ]
  in
  let signed = sign kp r in
  check Alcotest.int "one extra section" 3
    (List.length (Identxx.Response.sections signed));
  (match Identxx.Signed.verify ks signed with
  | Identxx.Signed.Valid n -> check Alcotest.int "covers both sections" 2 n
  | _ -> Alcotest.fail "expected valid");
  (* Signature survives the wire. *)
  match Identxx.Response.decode (Identxx.Response.encode signed) with
  | Ok decoded ->
      check Alcotest.bool "valid after roundtrip" true
        (Identxx.Signed.verify ks decoded = Identxx.Signed.Valid 2)
  | Error e -> Alcotest.fail e

let test_signed_detects_tampering () =
  let kp = Idcrypto.Sign.generate "host-key" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let r =
    Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
      [ [ KV.pair "name" "pine" ] ]
  in
  let signed = sign kp r in
  (* Tamper with a covered pair. *)
  let tampered =
    rebuild signed
      (match Identxx.Response.sections signed with
      | _ :: rest -> [ KV.pair "name" "skype" ] :: rest
      | [] -> [])
  in
  check Alcotest.bool "tampered invalid" true
    (Identxx.Signed.verify ks tampered = Identxx.Signed.Invalid);
  (* Unknown signer. *)
  let other_ks = Idcrypto.Sign.keystore () in
  check Alcotest.bool "unknown signer invalid" true
    (Identxx.Signed.verify other_ks signed = Identxx.Signed.Invalid);
  (* No signature at all. *)
  check Alcotest.bool "unsigned" true
    (Identxx.Signed.verify ks r = Identxx.Signed.Unsigned)

let test_signed_post_signature_sections_uncovered () =
  let kp = Idcrypto.Sign.generate "host-key" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let r =
    Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
      [ [ KV.pair "name" "pine" ] ]
  in
  let signed = sign kp r in
  (* A transit controller appends after the signature: still Valid, but
     the coverage count exposes that the extra section is unsigned. *)
  let augmented =
    Identxx.Response.append_section signed [ KV.pair "branch" "B" ]
  in
  match Identxx.Signed.verify ks augmented with
  | Identxx.Signed.Valid n ->
      check Alcotest.int "covers only the original" 1 n;
      check Alcotest.int "but response has three sections" 3
        (List.length (Identxx.Response.sections augmented))
  | _ -> Alcotest.fail "expected valid"

let test_signed_trace_section_keeps_signature () =
  let kp = Idcrypto.Sign.generate "host-key" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let r =
    Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
      [ [ KV.pair "name" "pine" ] ]
  in
  let signed = sign kp r in
  (* The daemon attaches span timings after signing: the signature still
     verifies over its prefix, and stripping the trace section recovers
     the signed response byte-for-byte. *)
  let traced =
    Identxx.Response.attach_trace signed ~trace_id:"00000000deadbeef"
      ~parent:"cafe0123"
      ~spans:[ ("lookup", 1e-4, 2e-4); ("sign", 2e-4, 3e-4) ]
  in
  (match Identxx.Signed.verify ks traced with
  | Identxx.Signed.Valid n ->
      check Alcotest.int "signature still covers its prefix" 1 n
  | _ -> Alcotest.fail "expected valid");
  check Alcotest.int "trace section rides after the signature" 3
    (List.length (Identxx.Response.sections traced));
  check Alcotest.bool "strip recovers the signed response" true
    (Identxx.Response.strip_trace traced = signed)

(* An answer of the size the daemons send: the process's built-in
   pairs, its app config, one runtime pair and the host's 25-pair
   administrator config — four sections, ~1.8 KB on the wire. *)
let enterprise_response () =
  Identxx.Response.make ~flow:(flow ~sp:40000 ~dp:80 "10.0.0.1" "10.0.0.2")
    [
      [
        KV.pair "userID" "alice";
        KV.pair "groupID" "staff,dev";
        KV.pair "pid" "4242";
        KV.pair "exe-path" "/usr/bin/firefox";
        KV.pair "name" "firefox";
        KV.pair "app-name" "firefox";
        KV.pair "exe-hash" (Idcrypto.Sha256.hexdigest "firefox-binary");
      ];
      [
        KV.pair "version" "91.0";
        KV.pair "requirements" "pass from any to any port 443";
      ];
      [ KV.pair "url" "https://example.com/" ];
      KV.pair "os-patch" "8831"
      :: List.init 24 (fun i ->
             KV.pair (Printf.sprintf "site-attr-%02d" i) (String.make 48 'v'));
    ]

(* doc/PROTOCOL.md §6's worked examples of the two covered byte
   strings: one static section and one per-flow section. *)
let test_signed_covered_string () =
  let kp = Idcrypto.Sign.generate "host-key" in
  let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
  let static = [ KV.pair "userID" "alice" ] in
  let per_flow = [ KV.pair "url" "https://example.com/" ] in
  (* A section tag is the HMAC's first 128 bits. *)
  let section_tag =
    String.sub
      (Idcrypto.Hmac.hexmac ~key:kp.Idcrypto.Sign.secret
         "15:identxx-section6:userID5:alice")
      0 32
  in
  check Alcotest.string "section tag over the specified bytes" section_tag
    (Identxx.Signed.section_tag key static);
  let signed =
    Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key
      ~tags:[ section_tag; Identxx.Signed.per_flow ]
      ~host:(ip "10.0.0.1") ~peer:(ip "10.0.0.2") ~nonce:"0123456789abcdef"
      (Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
         [ static; per_flow ])
  in
  check Alcotest.(option string) "binding tag over the specified bytes"
    (Some
       (Idcrypto.Hmac.hexmac ~key:kp.Idcrypto.Sign.secret
          ("15:identxx-binding12:tcp 40000 808:10.0.0.18:10.0.0.2\
            16:0123456789abcdef34:" ^ section_tag
         ^ ",-3:url20:https://example.com/")))
    (Identxx.Response.latest signed Identxx.Signed.sig_key);
  check Alcotest.(option string) "tag list on the wire"
    (Some (section_tag ^ ",-"))
    (Identxx.Response.latest signed Identxx.Signed.tags_key);
  (* A declared scope list is one more element, right after the tags. *)
  let scoped =
    Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key
      ~tags:[ section_tag; Identxx.Signed.per_flow ]
      ~scopes:Identxx.Signed.[ Socket; Flow ]
      ~host:(ip "10.0.0.1") ~peer:(ip "10.0.0.2") ~nonce:"0123456789abcdef"
      (Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
         [ static; per_flow ])
  in
  check Alcotest.(option string) "scoped binding tag over the specified bytes"
    (Some
       (Idcrypto.Hmac.hexmac ~key:kp.Idcrypto.Sign.secret
          ("15:identxx-binding12:tcp 40000 808:10.0.0.18:10.0.0.2\
            16:0123456789abcdef34:" ^ section_tag
         ^ ",-11:socket,flow3:url20:https://example.com/")))
    (Identxx.Response.latest scoped Identxx.Signed.sig_key);
  check Alcotest.(option string) "scope list on the wire"
    (Some "socket,flow")
    (Identxx.Response.latest scoped Identxx.Signed.scopes_key)

(* The tags and wire bytes of an enterprise-sized answer signed as a
   daemon signs it (built-ins, app config and host globals static, the
   runtime pair per-flow), pinned: any change to what the tags cover,
   how they are computed or how the answer is encoded shows here. *)
let test_signed_known_answer () =
  let kp = Idcrypto.Sign.generate "kat-host" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
  let r = enterprise_response () in
  let tags =
    List.mapi
      (fun i section ->
        if i = 2 then Identxx.Signed.per_flow
        else Identxx.Signed.section_tag key section)
      (Identxx.Response.sections r)
  in
  let signed =
    Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key ~tags
      ~host:(ip "10.0.0.1") ~peer:(ip "10.0.0.2") ~nonce:"0123456789abcdef" r
  in
  check Alcotest.(option string) "response-sig"
    (Some "7067be6e29747ad5429af48555ae28a9df2dcfd7e3b31571d13f07fbb72ee63b")
    (Identxx.Response.latest signed Identxx.Signed.sig_key);
  check Alcotest.(option string) "response-tags"
    (Some
       "1c298d75b401c9bc2382347da754aa60,54dc2cc7a8c922fd4cf28471c30df0ad,-,3283b715292a09717d24edb9587b26a0")
    (Identxx.Response.latest signed Identxx.Signed.tags_key);
  check Alcotest.bool "sign tags every section static" true
    (( = )
       (Identxx.Signed.sign ~keypair:kp ~host:(ip "10.0.0.1")
          ~peer:(ip "10.0.0.2") r)
       (Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key
          ~tags:
            (List.map (Identxx.Signed.section_tag key) (Identxx.Response.sections r))
          ~host:(ip "10.0.0.1") ~peer:(ip "10.0.0.2") r));
  let wire = Identxx.Response.encode signed in
  check Alcotest.int "wire length" 2141 (String.length wire);
  check Alcotest.string "wire sha256"
    "4c74f106dbe63fa464a822f0d96a184b3100985a34fafd7e382b2c0a88526710"
    (Idcrypto.Sha256.hexdigest wire);
  match Identxx.Response.decode wire with
  | Error e -> Alcotest.fail e
  | Ok back ->
      check Alcotest.bool "decodes to the signed answer" true
        (signed = back);
      check Alcotest.bool "verifies over all four sections" true
        (Identxx.Signed.verify ks back = Identxx.Signed.Valid 4);
      check Alcotest.int "three static sections cached" 3
        (Idcrypto.Sign.cached_sections ks);
      check Alcotest.bool "verifies again from the cache" true
        (Identxx.Signed.verify ks back = Identxx.Signed.Valid 4)

(* A warm verify confirms cached section tags by comparing bytes: it
   allocates only for the binding tag, whatever the sections' size. *)
let test_signed_warm_verify_alloc () =
  let kp = Idcrypto.Sign.generate "kat-host" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let words r =
    let signed =
      Identxx.Signed.sign ~keypair:kp ~host:(ip "10.0.0.1")
        ~peer:(ip "10.0.0.2") r
    in
    ignore (Identxx.Signed.verify ks signed);
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Identxx.Signed.verify ks signed)
    done;
    (Gc.minor_words () -. before) /. 100.
  in
  let small =
    words
      (Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
         [ [ KV.pair "userID" "alice" ] ])
  in
  let large =
    words
      (Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2")
         [ List.init 200 (fun i -> KV.pair (Printf.sprintf "k%03d" i) (String.make 60 'v')) ])
  in
  if large > small +. 1. then
    Alcotest.failf "warm verify: %.0f words for a 1-pair section, %.0f for 200"
      small large

(* --- RFC 1413 compatibility --- *)

let test_rfc1413_userid () =
  let t = Identxx.Process_table.create () in
  let p = Identxx.Process_table.spawn t ~user:"alice" ~groups:[] ~exe:"/usr/bin/irc" () in
  let fl = flow ~sp:50123 ~dp:6667 "10.0.0.1" "10.0.0.9" in
  Identxx.Process_table.connect t ~pid:p.Identxx.Process_table.pid ~flow:fl;
  (* The server (10.0.0.9) asks: its local port 6667 pairs with our 50123. *)
  check Alcotest.string "userid reply" "6667, 50123 : USERID : UNIX : alice"
    (Identxx.Rfc1413.handle_request ~processes:t ~local_ip:(ip "10.0.0.1")
       ~peer_ip:(ip "10.0.0.9") "6667, 50123")

let test_rfc1413_no_user () =
  let t = Identxx.Process_table.create () in
  check Alcotest.string "no-user" "6667, 50123 : ERROR : NO-USER"
    (Identxx.Rfc1413.handle_request ~processes:t ~local_ip:(ip "10.0.0.1")
       ~peer_ip:(ip "10.0.0.9") "6667, 50123")

let test_rfc1413_invalid () =
  let t = Identxx.Process_table.create () in
  List.iter
    (fun req ->
      let reply =
        Identxx.Rfc1413.handle_request ~processes:t ~local_ip:(ip "10.0.0.1")
          ~peer_ip:(ip "10.0.0.9") req
      in
      check Alcotest.bool ("invalid: " ^ req) true
        (String.length reply >= 12
        && String.sub reply (String.length reply - 12) 12 = "INVALID-PORT"))
    [ ""; "abc"; "1"; "0, 5"; "70000, 5"; "1, 2, 3" ]

(* --- property tests --- *)

let gen_key =
  QCheck.Gen.(
    map
      (fun (c, rest) -> String.make 1 c ^ rest)
      (pair (char_range 'a' 'z')
         (string_size ~gen:(char_range 'a' 'z') (int_bound 8))))

let gen_value = gen_key

let gen_section =
  QCheck.Gen.(
    list_size (int_range 1 5)
      (map (fun (k, v) -> KV.pair k v) (pair gen_key gen_value)))

let gen_response =
  QCheck.Gen.(
    let* sections = list_size (int_range 1 4) gen_section in
    let* sp = int_bound 0xffff in
    let* dp = int_bound 0xffff in
    return
      (Identxx.Response.make
         ~flow:
           (Five_tuple.make ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
              ~proto:Proto.Tcp ~src_port:sp ~dst_port:dp)
         sections))

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode roundtrip" ~count:300
    (QCheck.make gen_response ~print:Identxx.Response.encode)
    (fun r ->
      match Identxx.Response.decode (Identxx.Response.encode r) with
      | Ok r' -> r = r'
      | Error _ -> false)

let prop_latest_is_last_of_all_values =
  QCheck.Test.make ~name:"latest equals last of all_values" ~count:300
    (QCheck.make gen_response ~print:Identxx.Response.encode)
    (fun r ->
      List.for_all
        (fun k ->
          match (Identxx.Response.latest r k, List.rev (Identxx.Response.all_values r k)) with
          | Some v, last :: _ -> v = last
          | None, [] -> true
          | _ -> false)
        (Identxx.Response.keys r))

let prop_append_preserves_existing =
  QCheck.Test.make ~name:"append_section preserves existing bindings" ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_response gen_section)
       ~print:(fun (r, _) -> Identxx.Response.encode r))
    (fun (r, section) ->
      let r' = Identxx.Response.append_section r section in
      let rec prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && prefix xs ys
        | _ :: _, [] -> false
      in
      List.for_all
        (fun k ->
          prefix (Identxx.Response.all_values r k) (Identxx.Response.all_values r' k))
        (Identxx.Response.keys r))

(* A split signature over a random answer: each section static or
   per-flow, random addresses, ports and nonce. *)
let gen_signed_case =
  QCheck.Gen.(
    let* r = gen_response in
    let* kinds = list_repeat (List.length (Identxx.Response.sections r)) bool in
    let kinds = if List.mem true kinds then kinds else true :: List.tl kinds in
    let* host = int_range 1 254 in
    let* peer = int_range 1 254 in
    let* nonce =
      string_size
        ~gen:(oneofl (List.init 16 (fun i -> "0123456789abcdef".[i])))
        (int_range 1 16)
    in
    return (r, kinds, host, peer, nonce))

let print_signed_case (r, kinds, host, peer, nonce) =
  Printf.sprintf "%s\nstatic=[%s] host=%d peer=%d nonce=%s"
    (Identxx.Response.encode r)
    (String.concat ";" (List.map string_of_bool kinds))
    host peer nonce

(* The response with section [i] replaced. *)
let with_section (r : Identxx.Response.t) i section =
  rebuild r
    (List.mapi (fun j s -> if j = i then section else s) (Identxx.Response.sections r))

(* The response with the signature section's [key] set to [value]. *)
let with_sig_pair (r : Identxx.Response.t) key value =
  let last = List.length (Identxx.Response.sections r) - 1 in
  with_section r last
    (List.map
       (fun (p : KV.pair) -> if p.key = key then KV.pair key value else p)
       (List.nth (Identxx.Response.sections r) last))

let prop_split_signature =
  QCheck.Test.make ~name:"split signature: genuine valid, forgeries rejected"
    ~count:300
    (QCheck.make gen_signed_case ~print:print_signed_case)
    (fun (r, kinds, host, peer, nonce) ->
      let kp = Idcrypto.Sign.generate "prop-host" in
      let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
      let fresh () =
        let ks = Idcrypto.Sign.keystore () in
        Idcrypto.Sign.register ks kp;
        ks
      in
      let sections = (Identxx.Response.sections r) in
      let n = List.length sections in
      let tags =
        List.map2
          (fun section static ->
            if static then Identxx.Signed.section_tag key section
            else Identxx.Signed.per_flow)
          sections kinds
      in
      let signed =
        Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key ~tags
          ~host:(Ipv4.of_octets 10 0 0 host) ~peer:(Ipv4.of_octets 10 0 1 peer)
          ~nonce r
      in
      let verdict ks r = Identxx.Signed.verify ks r in
      let invalid ks r = verdict ks r = Identxx.Signed.Invalid in
      let warm = fresh () in
      let genuine_cold = verdict warm signed = Identxx.Signed.Valid n in
      let genuine_warm = verdict warm signed = Identxx.Signed.Valid n in
      (* The first static section, forged: one value changed. *)
      let i = Option.get (List.find_index Fun.id kinds) in
      let forged =
        with_section signed i
          (List.mapi
             (fun j (p : KV.pair) ->
               if j = 0 then KV.pair p.key (p.value ^ "x") else p)
             (List.nth sections i))
      in
      let moved =
        [
          rebuild signed (Identxx.Response.sections signed)
            ~src_port:((r.Identxx.Response.src_port + 1) land 0xffff);
          rebuild signed (Identxx.Response.sections signed)
            ~dst_port:((r.Identxx.Response.dst_port + 1) land 0xffff);
          with_sig_pair signed Identxx.Signed.host_key "10.0.2.1";
          with_sig_pair signed Identxx.Signed.peer_key "10.0.2.1";
          with_sig_pair signed Identxx.Signed.nonce_key (nonce ^ "0");
        ]
      in
      let section_as_binding =
        with_sig_pair signed Identxx.Signed.sig_key (List.nth tags i)
      in
      (* A tag list naming one section too many or too few, signed. *)
      let miscounted tags =
        Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key ~tags
          ~host:(Ipv4.of_octets 10 0 0 host) ~peer:(Ipv4.of_octets 10 0 1 peer)
          ~nonce r
      in
      genuine_cold && genuine_warm
      && invalid (fresh ()) forged
      && invalid warm forged
      && List.for_all (invalid warm) moved
      && invalid warm section_as_binding
      && invalid warm (miscounted (tags @ [ List.nth tags i ]))
      && invalid warm (miscounted (List.tl tags))
      && begin
           (* Re-registered under a new secret: the cached tags were
              checked against the old one and must not vouch now, not
              even under a binding made with the new secret. *)
           let secret = "a new secret" in
           Idcrypto.Sign.register_public warm ~public:kp.Idcrypto.Sign.public
             ~secret;
           let rebound =
             Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public
               ~key:(Idcrypto.Sign.prepare secret) ~tags
               ~host:(Ipv4.of_octets 10 0 0 host)
               ~peer:(Ipv4.of_octets 10 0 1 peer) ~nonce r
           in
           invalid warm signed && invalid warm rebound
         end)

(* The header parser the in-place [Header.parse] replaced, kept as its
   oracle: trim, split on ' ', read each field with the standard
   parsers. [who] names the payload kind in its errors. *)
let reference_parse_header ~who line =
  match String.split_on_char ' ' (String.trim line) with
  | [ proto; sp; dp ] -> (
      match
        (Proto.of_string_opt proto, int_of_string_opt sp, int_of_string_opt dp)
      with
      | Some proto, Some src_port, Some dst_port
        when src_port >= 0 && src_port <= 0xffff && dst_port >= 0
             && dst_port <= 0xffff ->
          Ok (proto, src_port, dst_port)
      | _ -> Error (who ^ ": malformed header fields"))
  | _ -> Error (who ^ ": malformed header line")

(* The line-list decoder the one-pass [Response.decode] replaced, kept
   as its oracle: split on '\n', the first line is the header, blank
   lines separate sections, every other line is one pair. *)
let reference_decode s =
  let parse_pair line =
    match String.index_opt line ':' with
    | None -> Error ("response: missing ':' in " ^ line)
    | Some i ->
        let key = String.sub line 0 i in
        let value =
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          if String.length v > 0 && v.[0] = ' ' then
            String.sub v 1 (String.length v - 1)
          else v
        in
        if KV.valid_key key && KV.valid_value value then Ok (KV.pair key value)
        else Error ("response: malformed pair " ^ line)
  in
  match String.split_on_char '\n' s with
  | [] -> Error "response: empty"
  | header :: rest -> (
      match reference_parse_header ~who:"response" header with
      | Error e -> Error e
      | Ok (proto, src_port, dst_port) -> (
          let rec sections current acc = function
            | [] ->
                let acc = if current = [] then acc else List.rev current :: acc in
                Ok (List.rev acc)
            | "" :: rest ->
                if current = [] then sections [] acc rest
                else sections [] (List.rev current :: acc) rest
            | line :: rest -> (
                match parse_pair line with
                | Error _ as e -> e
                | Ok pair -> sections (pair :: current) acc rest)
          in
          match sections [] [] rest with
          | Error _ as e -> e
          | Ok sections -> Ok (proto, src_port, dst_port, sections)))

(* A decoded view as the list decoders read it. *)
let as_lists =
  Result.map (fun (r : Identxx.Response.t) ->
      (r.proto, r.src_port, r.dst_port, Identxx.Response.sections r))

(* The one-pass list decoder the view replaced, kept as its oracle: it
   copies every pair of every section out of the payload. *)
module List_decoder = struct
  let rec index_to s c i stop =
    if i >= stop || s.[i] = c then i else index_to s c (i + 1) stop

  let rec key_end s i =
    if i >= String.length s then i
    else match s.[i] with ':' | '\n' | '\r' -> i | _ -> key_end s (i + 1)

  let rec value_end s i =
    if i >= String.length s then i
    else match s.[i] with '\n' | '\r' -> i | _ -> value_end s (i + 1)

  let line_error s i =
    let e = index_to s '\n' i (String.length s) in
    let line = String.sub s i (e - i) in
    if index_to s ':' i e = e then Error ("response: missing ':' in " ^ line)
    else Error ("response: malformed pair " ^ line)

  (* [next] is left at the line after the blank line that ends a section,
     or at the first malformed line when [Exit] is raised. *)
  type cursor = { mutable next : int }

  let malformed c i =
    c.next <- i;
    raise_notrace Exit

  let rec section_pairs s c i =
    let n = String.length s in
    if i > n then begin
      c.next <- i;
      []
    end
    else
      let k = key_end s i in
      if k = i && (k = n || s.[k] = '\n') then begin
        c.next <- k + 1;
        []
      end
      else if k = n || s.[k] <> ':' || k = i then malformed c i
      else
        let e = value_end s (k + 1) in
        if e < n && s.[e] = '\r' then malformed c i
        else
          let v = if k + 1 < e && s.[k + 1] = ' ' then k + 2 else k + 1 in
          let pair =
            KV.pair (KV.key_of_slice s i (k - i)) (String.sub s v (e - v))
          in
          pair :: section_pairs s c (e + 1)

  let rec sections_from s c i =
    if i > String.length s then []
    else
      match section_pairs s c i with
      | [] -> sections_from s c c.next
      | section -> section :: sections_from s c c.next

  let decode s =
    let h = index_to s '\n' 0 (String.length s) in
    let header = Identxx.Header.parse s 0 h in
    if header < 0 then Error (Identxx.Header.error "response" header)
    else
      let c = { next = 0 } in
      match sections_from s c (h + 1) with
      | sections ->
          Ok
            ( Identxx.Header.proto header,
              Identxx.Header.src_port header,
              Identxx.Header.dst_port header,
              sections )
      | exception Exit -> line_error s c.next

  (* The readers over the lists, as the view's were. *)
  let latest sections key =
    List.fold_left
      (fun acc section ->
        List.fold_left
          (fun acc (p : KV.pair) -> if p.key = key then Some p.value else acc)
          acc section)
      None sections

  let all_values sections key =
    List.concat_map
      (List.filter_map (fun (p : KV.pair) ->
           if p.key = key then Some p.value else None))
      sections

  let keys sections =
    List.fold_left
      (fun acc (p : KV.pair) -> if List.mem p.key acc then acc else acc @ [ p.key ])
      [] (List.concat sections)

  let encode (proto, src_port, dst_port, sections) =
    let head = Bytes.create (Identxx.Header.length proto src_port dst_port) in
    ignore (Identxx.Header.write head 0 proto src_port dst_port : int);
    Bytes.to_string head
    ^ String.concat "\n"
        (List.map
           (fun section ->
             String.concat ""
               (List.map (fun (p : KV.pair) -> p.key ^ ": " ^ p.value ^ "\n") section))
           sections)
end

(* Payloads near the grammar's edges: valid encodings, the same with a
   few characters replaced, inserted or deleted, and a plausible header
   over random lines. The alphabet leans on the framing characters. *)
let gen_payload =
  QCheck.Gen.(
    let framing =
      frequency
        [
          (4, return ':'); (4, return ' '); (4, return '\n'); (2, return '\r');
          (6, char_range 'a' 'z'); (1, char_range '0' '9'); (1, char);
        ]
    in
    let edit s =
      let* pos = int_bound (String.length s) in
      let* c = framing in
      let* op = int_bound 2 in
      let n = String.length s in
      return
        (match op with
        | 0 when pos < n -> String.mapi (fun i x -> if i = pos then c else x) s
        | 1 when pos < n ->
            String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
        | _ -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos))
    in
    let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
    let header =
      oneofl [ "TCP 1 2"; "udp 40000 80"; " TCP 1 2 "; "TCP 1 2\r"; "TCP 1"; "" ]
    in
    frequency
      [
        (2, map Identxx.Response.encode gen_response);
        ( 5,
          let* r = gen_response in
          let* k = int_range 1 4 in
          edits k (Identxx.Response.encode r) );
        ( 3,
          let* h = header in
          let* body = string_size ~gen:framing (int_bound 40) in
          let* nl = bool in
          return (h ^ "\n" ^ body ^ if nl then "\n" else "") );
        (1, string_size ~gen:framing (int_bound 30));
      ])

let prop_decode_matches_reference =
  QCheck.Test.make ~name:"decode agrees with the line-list decoder" ~count:2000
    (QCheck.make gen_payload ~print:String.escaped)
    (fun p -> as_lists (Identxx.Response.decode p) = reference_decode p)

(* The view against the list decoder it replaced: the same payloads
   accepted, the same errors, and every reader agreeing on what was
   accepted, the payload's canonical form included. *)
let prop_view_matches_list_decoder =
  QCheck.Test.make ~name:"view agrees with the list decoder" ~count:3000
    (QCheck.make gen_payload ~print:String.escaped)
    (fun p ->
      match (Identxx.Response.decode p, List_decoder.decode p) with
      | Error a, Error b -> String.equal a b
      | Ok v, Ok ((proto, src_port, dst_port, sections) as lists) ->
          let probe = List.sort_uniq compare ("absent" :: List_decoder.keys sections) in
          let found = Array.make (List.length probe) Identxx.Slice.none in
          Identxx.Response.latest_slices v probe found;
          v.proto = proto && v.src_port = src_port && v.dst_port = dst_port
          && Identxx.Response.sections v = sections
          && Identxx.Response.keys v = List_decoder.keys sections
          && String.equal (Identxx.Response.encode v) (List_decoder.encode lists)
          && List.for_all
               (fun k ->
                 Identxx.Response.latest v k = List_decoder.latest sections k
                 && Identxx.Response.all_values v k
                    = List_decoder.all_values sections k
                 && Identxx.Response.fold_values v k
                      (fun acc s i len -> String.sub s i len :: acc)
                      []
                    = List.rev (List_decoder.all_values sections k))
               probe
          && List.for_all2
               (fun k f ->
                 (if f = Identxx.Slice.none then None
                  else Some (Identxx.Slice.sub (Identxx.Response.encode v) f))
                 = List_decoder.latest sections k)
               probe (Array.to_list found)
      | Ok _, Error _ | Error _, Ok _ -> false)

(* [Signed.verify] over the decoded lists, as it was before it read the
   payload in place: the first section carrying both a signer and a
   tag, its fields' last bindings, and every tag computed whole with
   [Idcrypto.Sign.sign]. *)
let list_verify ~secret_of (proto, src_port, dst_port, sections) =
  let get section k = List_decoder.latest [ section ] k in
  let rec first i = function
    | [] -> None
    | section :: rest ->
        if get section Identxx.Signed.signer_key <> None
           && get section Identxx.Signed.sig_key <> None
        then Some (i, section)
        else first (i + 1) rest
  in
  let spells tag hex =
    String.length tag = String.length hex && String.lowercase_ascii tag = hex
  in
  match first 0 sections with
  | None -> Identxx.Signed.Unsigned
  | Some (covered, sg) -> (
      let field = get sg in
      match
        ( field Identxx.Signed.signer_key,
          field Identxx.Signed.sig_key,
          field Identxx.Signed.tags_key,
          field Identxx.Signed.host_key,
          field Identxx.Signed.peer_key,
          field Identxx.Signed.nonce_key )
      with
      | Some signer, Some signature, Some tags, Some host, Some peer, Some nonce
        -> (
          match secret_of signer with
          | None -> Identxx.Signed.Invalid
          | Some secret ->
              let before = List.filteri (fun i _ -> i < covered) sections in
              let fields = String.split_on_char ',' tags in
              let counted =
                if covered = 0 then tags = "" else List.length fields = covered
              in
              let pairs section =
                List.concat_map (fun (p : KV.pair) -> [ p.key; p.value ]) section
              in
              let per_flow =
                if counted then
                  List.concat
                    (List.map2
                       (fun f section -> if f = "-" then pairs section else [])
                       fields before)
                else []
              in
              let binding =
                Idcrypto.Sign.sign ~secret
                  ("identxx-binding"
                   :: Printf.sprintf "%s %d %d" (Proto.to_string proto) src_port
                        dst_port
                   :: host :: peer :: nonce :: tags
                   :: (match field Identxx.Signed.scopes_key with
                      | Some scopes -> [ scopes ]
                      | None -> [])
                  @ per_flow)
              in
              let static_ok f section =
                f = "-"
                || spells f
                     (String.sub
                        (Idcrypto.Sign.sign ~secret
                           ("identxx-section" :: pairs section))
                        0 32)
              in
              if
                spells signature binding && counted
                && List.for_all2 static_ok (if covered = 0 then [] else fields) before
              then Identxx.Signed.Valid covered
              else Identxx.Signed.Invalid)
      | _ -> Identxx.Signed.Invalid)

(* A signed answer, static and per-flow sections mixed, with one byte
   replaced anywhere: where both decoders accept it, the view's verdict,
   cold and then from the keystore's cache, is the list verifier's. *)
let prop_verify_matches_list_verifier =
  QCheck.Test.make ~name:"view verify agrees with the list verifier" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         let* case = gen_signed_case in
         let* scoped = bool in
         let* at = float_bound_exclusive 1. in
         let* c =
           frequency
             [ (3, oneofl [ ':'; ' '; '\n'; ','; '-'; 'a'; '0'; 'A' ]); (1, char) ]
         in
         return (case, scoped, at, c))
       ~print:(fun (case, _, at, c) ->
         Printf.sprintf "%s\nat %.3f: %C" (print_signed_case case) at c))
    (fun ((r, kinds, host, peer, nonce), scoped, at, c) ->
      let kp = Idcrypto.Sign.generate "flip-host" in
      let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
      let sections = Identxx.Response.sections r in
      let tags =
        List.map2
          (fun section static ->
            if static then Identxx.Signed.section_tag key section
            else Identxx.Signed.per_flow)
          sections kinds
      in
      let scopes =
        if scoped then Some (List.map (fun _ -> Identxx.Signed.Socket) sections)
        else None
      in
      let wire =
        Identxx.Response.encode
          (Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key ~tags
             ?scopes ~host:(Ipv4.of_octets 10 0 0 host)
             ~peer:(Ipv4.of_octets 10 0 1 peer) ~nonce r)
      in
      let i = int_of_float (at *. float_of_int (String.length wire)) in
      let flipped = String.mapi (fun j x -> if j = i then c else x) wire in
      let ks = Idcrypto.Sign.keystore () in
      Idcrypto.Sign.register ks kp;
      let secret_of public =
        if public = kp.Idcrypto.Sign.public then Some kp.Idcrypto.Sign.secret
        else None
      in
      List.for_all
        (fun p ->
          match (Identxx.Response.decode p, List_decoder.decode p) with
          | Ok v, Ok lists ->
              let expected = list_verify ~secret_of lists in
              Identxx.Signed.verify ks v = expected
              && Identxx.Signed.verify ks v = expected
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false)
        [ wire; flipped ])

(* The list-based query decoder the in-place [Query.decode] replaced,
   kept as its oracle: split on '\n', trim-blank lines skipped, the first
   parsable "@nonce/" and "@trace/" hints taken out of the keys. It
   returns the fields a query had as a record of lists:
   [(proto, src_port, dst_port, keys, nonce, trace)]. *)
let reference_query_decode s =
  let suffix prefix k =
    let n = String.length prefix in
    if String.length k >= n && String.sub k 0 n = prefix then
      Some (String.sub k n (String.length k - n))
    else None
  in
  let valid_nonce n =
    String.length n >= 1 && String.length n <= 64
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) n
  in
  let parse_nonce k =
    match suffix Identxx.Query.nonce_key_prefix k with
    | Some n when valid_nonce n -> Some n
    | Some _ | None -> None
  in
  let parse_trace k =
    Option.bind (suffix Identxx.Query.trace_key_prefix k) Obs.Trace_context.of_string
  in
  match String.split_on_char '\n' s with
  | [] -> Error "query: empty"
  | header :: rest -> (
      match reference_parse_header ~who:"query" header with
      | Error _ as e -> e
      | Ok (proto, src_port, dst_port) ->
          let rec go keys nonce trace = function
            | [] -> Ok (proto, src_port, dst_port, List.rev keys, nonce, trace)
            | l :: rest when String.trim l = "" -> go keys nonce trace rest
            | l :: _ when not (KV.valid_key l) -> Error "query: malformed key"
            | l :: rest -> (
                match parse_nonce l with
                | Some _ as n ->
                    go keys (if nonce = None then n else nonce) trace rest
                | None -> (
                    match parse_trace l with
                    | Some _ as c ->
                        go keys nonce (if trace = None then c else trace) rest
                    | None -> go (l :: keys) nonce trace rest))
          in
          go [] None None rest)

(* Payloads of either kind near the edges of both grammars: headers
   well-formed, oddly spaced, in other radixes or truncated; then lines
   that are blank (runs of them, or only white space), keys, pairs whose
   values hold ':', pairs with an empty key or a CR, valid and malformed
   "@nonce/" and "@trace/" hints; then the whole possibly cut short. *)
let gen_wire_payload =
  QCheck.Gen.(
    let hex = oneofl (List.init 16 (fun i -> "0123456789abcdef".[i])) in
    let trace_text =
      Obs.Trace_context.to_string
        (Obs.Trace_context.make ~seed:"gen" ~seq:1 ~sampled:false)
    in
    let header =
      oneofl
        [
          "TCP 40000 80"; "udp 53 5353"; "ICMP 0 0"; "17 1 65535"; "6 1 2";
          " TCP 1 2 "; "TCP 1 2\r"; "\tTCP 1 2"; "TCP  1 2"; "TCP 1"; "TCP";
          ""; "TCP 1 2 3"; "TCP 0x50 1_0"; "TCP +1 2"; "TCP -0 2";
          "TCP 1 65536"; "TCP 99999999999999999999 1"; "300 1 2"; "FROG 1 2";
          "tCp 007 8";
        ]
    in
    let blank = oneofl [ ""; ""; " "; "\t"; "\r"; "\012"; " \r" ] in
    let pair =
      let* k = gen_key in
      let* v = gen_value in
      let* sep = oneofl [ ":"; ": "; ":  "; "::" ] in
      let* tail = oneofl [ ""; ""; ":x"; " : y"; "\r" ] in
      return (k ^ sep ^ v ^ tail)
    in
    let line =
      frequency
        [
          (3, blank);
          (4, gen_key);
          (2, oneofl [ "userID"; "exe-hash"; "response-sig"; "trace-id"; "pid" ]);
          (4, pair);
          (1, map (fun v -> ":" ^ v) gen_value);
          ( 2,
            let* n = string_size ~gen:hex (int_range 1 64) in
            return ("@nonce/" ^ n) );
          ( 1,
            oneofl
              [
                "@nonce/"; "@nonce/XYZ"; "@nonce/00C0"; "@nonce/" ^ String.make 65 'a';
                "@nonce/12:34";
              ] );
          (2, return ("@trace/" ^ trace_text));
          ( 1,
            oneofl
              [
                "@trace/"; "@trace/abc"; "@trace/" ^ String.uppercase_ascii trace_text;
                "@trace/" ^ String.map (fun c -> if c = '-' then '_' else c) trace_text;
                "@trace/" ^ trace_text ^ "-s";
              ] );
        ]
    in
    let* h = header in
    (* A third of the bodies hold only pairs and blank lines. *)
    let* pairs_only = frequency [ (2, return false); (1, return true) ] in
    let* lines =
      list_size (int_bound 8)
        (if pairs_only then frequency [ (1, blank); (3, pair) ] else line)
    in
    let* nl = bool in
    let p = String.concat "\n" (h :: lines) ^ if nl then "\n" else "" in
    let* cut = frequency [ (4, return (String.length p)); (1, int_bound (String.length p)) ] in
    return (String.sub p 0 cut))

(* The plain hints the view's in-place scan visits, in order. *)
let scanned_hints q =
  let seen = ref [] in
  ignore
    (Identxx.Query.exists_hint q
       (fun () s i len ->
         seen := String.sub s i len :: !seen;
         false)
       ()
      : bool);
  List.rev !seen

(* The view agrees with the list decoder on every accepted payload and
   every error text: its fields, its keys, nonce and trace read back,
   and the plain hints its scan visits (the keys that do not start with
   '@'), which set some hint bit exactly when there is one. *)
let prop_query_decode_matches_reference =
  QCheck.Test.make ~name:"query decode agrees with the list-based decoder"
    ~count:3000
    (QCheck.make gen_wire_payload ~print:String.escaped)
    (fun p ->
      match (Identxx.Query.decode p, reference_query_decode p) with
      | Ok q, Ok ((_, _, _, keys, _, _) as fields) ->
          let plain = List.filter (fun k -> k.[0] <> '@') keys in
          ( q.Identxx.Query.proto, q.src_port, q.dst_port, Identxx.Query.keys q,
            Identxx.Query.nonce q, Identxx.Query.trace q )
          = fields
          && scanned_hints q = plain
          && (q.Identxx.Query.hint_bits = 0) = (plain = [])
          && Identxx.Query.encode q == p
      | Error e, Error e' -> e = e'
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_response_decode_matches_reference =
  QCheck.Test.make ~name:"response decode agrees with the line-list decoder"
    ~count:3000
    (QCheck.make gen_wire_payload ~print:String.escaped)
    (fun p -> as_lists (Identxx.Response.decode p) = reference_decode p)

(* --- wire bytes pinned before the codec wrote and read in place --- *)

let pin_flow () = flow ~proto:Proto.Udp ~sp:5353 ~dp:53 "10.0.0.1" "10.0.0.2"

let pin_trace () =
  Obs.Trace_context.make ~seed:"udp 10.0.0.1:5353 -> 10.0.0.2:53" ~seq:3
    ~sampled:true

let test_query_pinned_bytes () =
  let q =
    Identxx.Query.make ~nonce:"00c0ffee12345678" ~trace:(pin_trace ())
      ~flow:(pin_flow ())
      [ "userID"; "exe-hash"; "os-patch" ]
  in
  let wire =
    "UDP 5353 53\nuserID\nexe-hash\nos-patch\n@nonce/00c0ffee12345678\n\
     @trace/1033197a4158e9a3-cf6d83e2-s\n"
  in
  check Alcotest.string "exact bytes" wire (Identxx.Query.encode q);
  match Identxx.Query.decode wire with
  | Ok q' -> check Alcotest.bool "decodes to the query" true (q = q')
  | Error e -> Alcotest.fail e

let test_response_pinned_bytes () =
  let kp = Idcrypto.Sign.generate "pin-host" in
  let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
  let static = [ KV.pair "userID" "alice"; KV.pair "name" "dig" ] in
  let per_flow = [ KV.pair "url" "dns://example.com/" ] in
  let globals = [ KV.pair "os-patch" "8831" ] in
  let signed =
    Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key
      ~tags:
        [
          Identxx.Signed.section_tag key static;
          Identxx.Signed.per_flow;
          Identxx.Signed.section_tag key globals;
        ]
      ~scopes:Identxx.Signed.[ Socket; Flow; Host ]
      ~host:(ip "10.0.0.2") ~peer:(ip "10.0.0.1") ~nonce:"00c0ffee12345678"
      (Identxx.Response.make ~flow:(pin_flow ()) [ static; per_flow; globals ])
  in
  let ctx = pin_trace () in
  let traced =
    Identxx.Response.attach_trace signed ~trace_id:ctx.Obs.Trace_context.trace_id
      ~parent:ctx.Obs.Trace_context.span_id
      ~spans:[ ("decode", 0.25, 0.5); ("lookup", 0.5, 0.75); ("sign", 0.75, 1.125) ]
  in
  check Alcotest.(option string) "signature"
    (Some "c9847a9558c8c7fbb8844eb3b14149440f0ed19229dfb07b0b77247162c68e62")
    (Identxx.Response.latest signed Identxx.Signed.sig_key);
  let wire =
    "UDP 5353 53\nuserID: alice\nname: dig\n\nurl: dns://example.com/\n\n\
     os-patch: 8831\n\n\
     response-signer: pka00325ee952ea45c52c3fcf51c153431eaf42578\n\
     response-tags: 7309f4722bd613b59c1869b8291594b0,-,799f7aa380734d806b46f612a3ef7871\n\
     response-scopes: socket,flow,host\nresponse-host: 10.0.0.2\n\
     response-peer: 10.0.0.1\nresponse-nonce: 00c0ffee12345678\n\
     response-sig: c9847a9558c8c7fbb8844eb3b14149440f0ed19229dfb07b0b77247162c68e62\n\n\
     trace-id: 1033197a4158e9a3\ntrace-parent: cf6d83e2\n\
     trace-spans: decode@0.25+0.25;lookup@0.5+0.25;sign@0.75+0.375\n"
  in
  check Alcotest.string "exact bytes" wire (Identxx.Response.encode traced);
  match Identxx.Response.decode wire with
  | Error e -> Alcotest.fail e
  | Ok back ->
      check Alcotest.bool "decodes to the answer" true
        (traced = back);
      let ks = Idcrypto.Sign.keystore () in
      Idcrypto.Sign.register ks kp;
      check Alcotest.bool "verifies over the three sections before it" true
        (Identxx.Signed.verify ks back = Identxx.Signed.Valid 3)

(* A response's header error names the response, not the query. *)
let test_response_header_error_label () =
  let error p =
    match Identxx.Response.decode p with Error e -> e | Ok _ -> "accepted"
  in
  check Alcotest.string "line" "response: malformed header line"
    (error "TCP 1\nuserID: alice\n");
  check Alcotest.string "fields" "response: malformed header fields"
    (error "FROG 1 2\nuserID: alice\n");
  check Alcotest.string "a query's still names the query"
    "query: malformed header fields"
    (match Identxx.Query.decode "FROG 1 2\n" with Error e -> e | Ok _ -> "accepted")

(* Every key the protocol defines decodes to its shared constant. *)
let test_kv_vocabulary_shared () =
  List.iter
    (fun k ->
      let s = "<" ^ k ^ ">" in
      check Alcotest.bool ("shared " ^ k) true
        (KV.key_of_slice s 1 (String.length k) == k))
    KV.
      [
        user_id; group_id; pid; app_path; app_name; app_alias; exe_hash;
        version; requirements; req_sig; rule_maker; response_signer;
        response_tags; response_scopes; response_host; response_peer;
        response_nonce; response_sig; trace_id; trace_parent; trace_spans;
      ];
  check Alcotest.bool "the signature and trace keys are those constants" true
    (Identxx.Signed.signer_key == KV.response_signer
    && Identxx.Signed.sig_key == KV.response_sig
    && Identxx.Response.trace_id_key == KV.trace_id);
  check Alcotest.string "any other key is copied" "userid"
    (KV.key_of_slice "<userid>" 1 6)

(* --- allocation gates ---

   Words a call allocates, after one warm-up call. A string of [n] bytes
   is [n / 8 + 2] words with its header. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 100.

let string_words s = float_of_int ((String.length s / 8) + 2)

(* An encoder writes its payload into one buffer of the exact length:
   it allocates the payload's words and at most three more. *)
let test_encoders_allocate_their_payload () =
  let q =
    Identxx.Query.make ~nonce:"00c0ffee12345678" ~flow:(pin_flow ())
      [ "userID"; "name" ]
  in
  let small = sample_response () and big = enterprise_response () in
  List.iter
    (fun (name, encode) ->
      let payload = encode () in
      let words = words_per_call encode in
      if words > string_words payload +. 3. then
        Alcotest.failf "%s: %.0f words for a %d-byte payload" name words
          (String.length payload))
    [
      ("query", fun () -> Identxx.Query.encode q);
      ("small response", fun () -> Identxx.Response.encode small);
      ("enterprise response", fun () -> Identxx.Response.encode big);
    ]

(* [Query.decode] checks every line where it sits and allocates only its
   view and the [Ok] around it, 10 words, however many keys the payload
   holds: the daemon's query read is flat in the key count. It
   allocated a 13-word record and, per kept key, its list cell and — for
   a key the protocol does not name — its copy (6 words for a key of up
   to seven bytes) while the keys were decoded into a list. The budget
   keeps the one word of headroom the base had, and none per key. *)
let test_query_decode_alloc_per_key () =
  let payload n =
    String.concat "\n"
      ("TCP 40000 80" :: List.init n (fun i -> Printf.sprintf "k%04d" i))
    ^ "\n"
  in
  let words n =
    let p = payload n in
    words_per_call (fun () -> Identxx.Query.decode p)
  in
  let base = words 0 in
  if base > 11. then Alcotest.failf "%.0f words for a query with no keys" base;
  let per_key = (words 64 -. base) /. 64. in
  if per_key > 0. then Alcotest.failf "%.1f words per kept key" per_key

(* Sending a query writes its payload once from the plan's rendered hint
   lines, the nonce's 16 hex digits drawn straight into the buffer: it
   allocates the payload and its 8-word view, nothing else. It was 26
   words over the payload while a query was a record built, copied with
   its nonce, then encoded, and the nonce drawn as a boxed [Int64] into
   its own string. *)
let test_query_send_alloc () =
  let keys = [ "expires"; "groupID"; "name"; "rule-maker"; "userID"; "version" ] in
  let hints = Identxx.Query.hints keys in
  let nonce = Some (Sim.Prng.create 7) and fl = pin_flow () in
  let send () = Identxx.Query.write hints ~flow:fl ~nonce ~trace:None in
  let q = send () in
  (match Identxx.Query.nonce q with
  | Some n ->
      check Alcotest.int "16 hex digits" 16 (String.length n);
      check Alcotest.string "the bytes Query.make writes"
        (Identxx.Query.encode (Identxx.Query.make ~nonce:n ~flow:fl keys))
        (Identxx.Query.encode q)
  | None -> Alcotest.fail "no nonce");
  let words = words_per_call send -. string_words (Identxx.Query.encode q) in
  if words > 8. then Alcotest.failf "%.0f words over the payload" words

(* The daemon reads a query where it sits: decoding it and matching its
   hints against the cached sections cost the same however many hints
   miss every section, and the answer is the same. *)
let test_daemon_query_read_flat () =
  let host = make_host "h" "10.0.0.1" in
  let proc = Identxx.Host.run host ~user:"alice" ~exe:"/usr/bin/pine" () in
  let fl = Identxx.Host.connect host ~proc ~dst:(ip "10.0.0.2") ~dst_port:25 () in
  let read n =
    let p =
      Identxx.Query.encode
        (Identxx.Query.make ~flow:fl
           (List.init n (fun i -> Printf.sprintf "k%04d" i) @ [ "userID" ]))
    in
    let respond () =
      match Identxx.Query.decode p with
      | Ok q -> Identxx.Daemon.respond (Identxx.Host.daemon host) ~peer:fl.Five_tuple.dst q
      | Error e -> Alcotest.fail e
    in
    let answer =
      match respond () with
      | Some (r, _) -> Identxx.Response.encode r
      | None -> Alcotest.fail "no answer"
    in
    (answer, words_per_call respond)
  in
  let a0, w0 = read 0 and a64, w64 = read 64 in
  check Alcotest.string "the same answer" a0 a64;
  check (Alcotest.float 0.) "flat in the key count" w0 w64

(* [Response.decode] of a canonical payload keeps the payload as the
   view: it allocates the record and its [Ok], 7 words, however many
   pairs the payload holds (the list decoder it replaced allocated each
   pair, its list cell and its value: 124 words for the 13 pairs below).
   The sections, decoded on demand, share the keys the protocol names. *)
let test_response_decode_shares_vocabulary () =
  let sections =
    [
      [
        KV.pair KV.user_id "alice"; KV.pair KV.group_id "staff,dev";
        KV.pair KV.pid "4242"; KV.pair KV.app_path "/usr/bin/firefox";
        KV.pair KV.app_name "firefox"; KV.pair KV.app_alias "firefox";
      ];
      [
        KV.pair KV.response_signer "pk0123"; KV.pair KV.response_tags "-";
        KV.pair KV.response_scopes "flow"; KV.pair KV.response_host "10.0.0.1";
        KV.pair KV.response_peer "10.0.0.2"; KV.pair KV.response_nonce "-";
        KV.pair KV.response_sig "00";
      ];
    ]
  in
  let wire sections =
    Identxx.Response.encode
      (Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2") sections)
  in
  let words sections =
    let w = wire sections in
    words_per_call (fun () -> Identxx.Response.decode w)
  in
  check (Alcotest.float 0.) "no pair words" 7. (words sections);
  check (Alcotest.float 0.) "flat in the pair count" 7.
    (words
       (sections
       @ [ List.init 200 (fun i -> KV.pair (Printf.sprintf "k%03d" i) (String.make 60 'v')) ]));
  match Identxx.Response.decode (wire sections) with
  | Ok r ->
      check Alcotest.bool "keys are the shared constants" true
        (List.for_all2
           (List.for_all2 (fun (a : KV.pair) (b : KV.pair) -> a.key == b.key))
           sections (Identxx.Response.sections r))
  | Error e -> Alcotest.fail e

(* A warm signed [Daemon.respond] to a query, as the host's daemon
   answers the decoded view, and the packet that carries it: the daemon
   writes its answer once, into the payload's own buffer, its nonce
   copied from where it sits in the query, so the two pay the payload's
   words and a fixed budget, however many pairs its cached static
   sections hold (up to 20 here: a payload past 2 KiB is allocated
   outside the minor heap). Measured: 63 words over the payload, 22 of
   them the packet's, as [Daemon.answer] read when it took the query's
   fields and its nonce as a string; about 160 while the answer was
   assembled as lists, signed, then encoded. The budget keeps ~4.5% of
   headroom. *)
let test_daemon_answer_budget () =
  let words pairs =
    let host =
      Identxx.Host.create ~name:"h" ~mac:(Mac.of_int 1) ~ip:(ip "10.0.0.1") ()
    in
    Identxx.Host.install_exe host ~path:"/usr/bin/firefox" ~content:"ff-image";
    Identxx.Host.set_signing_key host (Some (Idcrypto.Sign.generate "h-host"));
    (match
       Identxx.Daemon.load_config (Identxx.Host.daemon host) ~name:"00-admin"
         (String.concat "\n"
            (List.init pairs (fun i ->
                 Printf.sprintf "site-attr-%03d : %s" i (String.make 48 'v'))))
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    let proc = Identxx.Host.run host ~user:"alice" ~exe:"/usr/bin/firefox" () in
    let fl = Identxx.Host.connect host ~proc ~dst:(ip "10.0.0.2") ~dst_port:80 () in
    let query = Identxx.Query.make ~nonce:"5eed0123456789ab" ~flow:fl [] in
    let answer () =
      match
        Identxx.Daemon.respond (Identxx.Host.daemon host) ~peer:fl.Five_tuple.dst
          query
      with
      | Some (r, _) ->
          Identxx.Wire.response_packet ~to_ip:fl.Five_tuple.dst
            ~from_ip:fl.Five_tuple.src ~dst_port:49152 r
      | None -> Alcotest.fail "a signing daemon answers"
    in
    let payload =
      match (answer ()).Packet.eth_payload with
      | Packet.Ip { payload = Packet.Tcp tcp; _ } -> tcp.Packet.tcp_payload
      | _ -> Alcotest.fail "a TCP answer"
    in
    words_per_call answer -. string_words payload
  in
  List.iter
    (fun pairs ->
      let w = words pairs in
      if w > 66. then
        Alcotest.failf "%d static pairs: %.0f words over the payload" pairs w)
    [ 1; 20 ]

(* A warm [sign_with] — the section tags already computed — allocates a
   fixed budget: the signed answer, written once into a buffer of its
   exact length, its record, and a few words more, whatever the static
   sections hold (a 200-pair answer is past 2 KiB, so its payload is
   allocated outside the minor heap). The key's one HMAC stream is
   restarted for each answer and its hex written straight into the
   answer. Measured: 56 words for one pair, 46 of them the answer and
   its record; 88 while the signature section was built as pairs and
   appended to the list of sections, and 134 while every sign built a
   fresh stream. The budget keeps the 6 words of headroom it had. *)
let test_sign_with_budget () =
  let kp = Idcrypto.Sign.generate "budget-host" in
  let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
  let host = ip "10.0.0.1" and peer = ip "10.0.0.2" in
  let words section =
    let r = Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2") [ section ] in
    let tags = [ Identxx.Signed.section_tag key section ] in
    words_per_call (fun () ->
        Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key ~tags
          ~scopes:[ Identxx.Signed.Socket ] ~host ~peer ~nonce:"00c0ffee12345678" r)
  in
  List.iter
    (fun (name, section) ->
      let w = words section in
      if w > 62. then Alcotest.failf "%s: %.0f words per warm sign" name w)
    [
      ("one pair", [ KV.pair "userID" "alice" ]);
      ( "200 pairs",
        List.init 200 (fun i -> KV.pair (Printf.sprintf "k%03d" i) (String.make 60 'v')) );
    ]

(* A warm [Signed.check] of a signed answer whose static section is
   cached: it recomputes only the binding tag, in its principal's one
   HMAC stream, and allocates no more for 200 static pairs than for
   one. Measured: 2 words, the verdict; 52 while every verify built a
   fresh stream (the SHA-256 state, block and digit buffers) and two
   32-byte digests. *)
let test_check_budget () =
  let kp = Idcrypto.Sign.generate "check-host" in
  let key = Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let words section =
    let r =
      Identxx.Signed.sign_with ~public:kp.Idcrypto.Sign.public ~key
        ~tags:[ Identxx.Signed.section_tag key section ]
        ~scopes:[ Identxx.Signed.Socket ] ~host:(ip "10.0.0.1")
        ~peer:(ip "10.0.0.2") ~nonce:"00c0ffee12345678"
        (Identxx.Response.make ~flow:(flow "10.0.0.1" "10.0.0.2") [ section ])
    in
    let sg = Identxx.Signed.signature r in
    words_per_call (fun () ->
        match Identxx.Signed.check ks r sg with
        | Identxx.Signed.Valid 1 -> ()
        | _ -> Alcotest.fail "a warm check rejects its answer")
  in
  List.iter
    (fun (name, section) ->
      let w = words section in
      if w > 8. then Alcotest.failf "%s: %.0f words per warm check" name w)
    [
      ("one pair", [ KV.pair "userID" "alice" ]);
      ( "200 pairs",
        List.init 200 (fun i -> KV.pair (Printf.sprintf "k%03d" i) (String.make 60 'v')) );
    ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "identxx"
    [
      ( "key_value",
        [
          Alcotest.test_case "validation" `Quick test_kv_validation;
          Alcotest.test_case "find last binding" `Quick test_kv_find_last_binding;
          Alcotest.test_case "vocabulary keys shared" `Quick test_kv_vocabulary_shared;
        ] );
      ( "query",
        [
          Alcotest.test_case "wire format" `Quick test_query_wire_format;
          Alcotest.test_case "decode" `Quick test_query_decode;
          Alcotest.test_case "rejects garbage" `Quick test_query_decode_rejects_garbage;
          Alcotest.test_case "roundtrip" `Quick test_query_roundtrip;
          Alcotest.test_case "trace wire" `Quick test_query_trace_wire;
          Alcotest.test_case "nonce wire" `Quick test_query_nonce_wire;
          Alcotest.test_case "unparsable trace stays key" `Quick
            test_query_trace_unparsable_stays_key;
          Alcotest.test_case "pinned bytes" `Quick test_query_pinned_bytes;
          Alcotest.test_case "decode allocation per kept key" `Quick
            test_query_decode_alloc_per_key;
          Alcotest.test_case "wire codec: query send words" `Quick
            test_query_send_alloc;
          Alcotest.test_case "wire codec: daemon query read flat in key count"
            `Quick test_daemon_query_read_flat;
        ] );
      ( "response",
        [
          Alcotest.test_case "wire format" `Quick test_response_wire_format;
          Alcotest.test_case "roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "latest and star" `Quick test_response_latest_and_star;
          Alcotest.test_case "a latest miss allocates nothing" `Quick
            test_response_latest_miss_alloc;
          Alcotest.test_case "append section" `Quick test_response_append_section;
          Alcotest.test_case "blank runs" `Quick test_response_decode_skips_blank_runs;
          Alcotest.test_case "rejects bad pair" `Quick
            test_response_decode_rejects_bad_pair;
          Alcotest.test_case "trace piggyback" `Quick
            test_response_trace_piggyback;
          Alcotest.test_case "pinned bytes" `Quick test_response_pinned_bytes;
          Alcotest.test_case "header error names the response" `Quick
            test_response_header_error_label;
          Alcotest.test_case "encoders allocate their payload" `Quick
            test_encoders_allocate_their_payload;
          Alcotest.test_case "decode shares vocabulary keys" `Quick
            test_response_decode_shares_vocabulary;
        ] );
      ( "config",
        [
          Alcotest.test_case "parses figure 3" `Quick test_config_parses_figure3;
          Alcotest.test_case "globals and comments" `Quick
            test_config_globals_and_comments;
          Alcotest.test_case "render roundtrip" `Quick test_config_render_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_config_rejects_malformed;
          Alcotest.test_case "merge order" `Quick test_config_merge_order;
        ] );
      ( "process_table",
        [
          Alcotest.test_case "connect/lookup" `Quick test_ptable_connect_lookup;
          Alcotest.test_case "listener lookup" `Quick test_ptable_listener_lookup;
          Alcotest.test_case "accepted beats listener" `Quick
            test_ptable_accepted_connection_precedes_listener;
          Alcotest.test_case "kill cleans up" `Quick test_ptable_kill_cleans_up;
          Alcotest.test_case "rejects unknown pid" `Quick
            test_ptable_rejects_unknown_pid;
          Alcotest.test_case "ptrace same user" `Quick test_ptable_ptrace_same_user;
          Alcotest.test_case "ptrace isolation" `Quick test_ptable_ptrace_isolation;
          Alcotest.test_case "ptrace masquerade" `Quick
            test_ptrace_masquerade_changes_daemon_answer;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "source response sections" `Quick
            test_daemon_source_response_sections;
          Alcotest.test_case "destination response" `Quick
            test_daemon_destination_response;
          Alcotest.test_case "runtime pairs" `Quick test_daemon_runtime_pairs;
          Alcotest.test_case "no process, globals only" `Quick
            test_daemon_no_process_still_answers_globals;
          Alcotest.test_case "silent and lying" `Quick test_daemon_silent_and_lying;
          Alcotest.test_case "signs static sections once" `Quick
            test_daemon_signs_static_sections_once;
          Alcotest.test_case "a reused pid is answered for anew" `Quick
            test_daemon_reused_pid_answers_new_process;
          Alcotest.test_case "an exit keeps other sections" `Quick
            test_daemon_exit_keeps_other_sections;
          Alcotest.test_case "answers the hinted keys" `Quick
            test_daemon_answers_hinted_keys;
          Alcotest.test_case "declares reuse scopes" `Quick
            test_daemon_declares_scopes;
        ] );
      ( "wire",
        [
          Alcotest.test_case "query packet classify" `Quick
            test_wire_query_packet_classify;
          Alcotest.test_case "host answers query packet" `Quick
            test_wire_host_answers_query_packet;
          Alcotest.test_case "ignores foreign query" `Quick
            test_wire_host_ignores_foreign_query;
          Alcotest.test_case "malformed not identxx" `Quick
            test_wire_malformed_not_identxx;
          Alcotest.test_case "is_identxx" `Quick test_wire_is_identxx;
        ] );
      ( "signed",
        [
          Alcotest.test_case "sign/verify roundtrip" `Quick test_signed_roundtrip;
          Alcotest.test_case "detects tampering" `Quick
            test_signed_detects_tampering;
          Alcotest.test_case "post-signature sections" `Quick
            test_signed_post_signature_sections_uncovered;
          Alcotest.test_case "trace section keeps signature" `Quick
            test_signed_trace_section_keeps_signature;
          Alcotest.test_case "covered string as specified" `Quick
            test_signed_covered_string;
          Alcotest.test_case "known answer, enterprise size" `Quick
            test_signed_known_answer;
          Alcotest.test_case "warm verify allocation flat in size" `Quick
            test_signed_warm_verify_alloc;
          Alcotest.test_case "warm sign_with allocation budget" `Quick
            test_sign_with_budget;
          Alcotest.test_case "warm check allocation budget" `Quick
            test_check_budget;
          Alcotest.test_case "warm daemon answer allocation budget" `Quick
            test_daemon_answer_budget;
        ] );
      ( "rfc1413",
        [
          Alcotest.test_case "userid" `Quick test_rfc1413_userid;
          Alcotest.test_case "no user" `Quick test_rfc1413_no_user;
          Alcotest.test_case "invalid requests" `Quick test_rfc1413_invalid;
        ] );
      ( "properties",
        qc
          [
            prop_response_roundtrip;
            prop_latest_is_last_of_all_values;
            prop_append_preserves_existing;
            prop_decode_matches_reference;
            prop_view_matches_list_decoder;
            prop_verify_matches_list_verifier;
            prop_query_decode_matches_reference;
            prop_response_decode_matches_reference;
            prop_split_signature;
          ] );
    ]
