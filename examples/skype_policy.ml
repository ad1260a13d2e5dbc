(* Figures 2 and 3: the Skype policy.

   The controller reads three .control files (00-local-header,
   50-skype, 99-local-footer) exactly as printed in Figure 2; the
   end-host daemon reads the Figure-3 @app configuration for
   /usr/bin/skype. We then replay the scenarios the figure's comments
   describe and print the decision matrix.
   Run with: dune exec examples/skype_policy.exe *)

open Netcore
module PS = Identxx_core.Policy_store
module D = Identxx_core.Decision

(* Figure 2, verbatim (modulo whitespace). *)
let header_00 =
  "table <server> { 192.168.1.1 }\n\
   table <lan> { 192.168.0.0/24 }\n\
   table <int_hosts> { <lan> <server> }\n\
   allowed = \"{ http ssh }\" # a macro of apps\n\
   # default deny\n\
   block all\n\
   # allow connections outbound\n\
   pass from <int_hosts> \\\n\
   to !<int_hosts> \\\n\
   keep state\n\
   # allow all traffic from approved apps\n\
   pass from <int_hosts> \\\n\
   to <int_hosts> \\\n\
   with member(@src[name], $allowed) \\\n\
   keep state"

let skype_50 =
  "table <skype_update> { 123.123.123.0/24 }\n\
   # skype to skype allowed\n\
   pass all \\\n\
   with eq(@src[name], skype) \\\n\
   with eq(@dst[name], skype)\n\
   # skype update feature\n\
   pass from any \\\n\
   to <skype_update> port 80 \\\n\
   with eq(@src[name], skype) \\\n\
   keep state"

let footer_99 =
  "# no really old versions of skype\n\
   block all \\\n\
   with eq(@src[name], skype) \\\n\
   with lt(@src[version], 200)\n\
   # no skype to server\n\
   block from any \\\n\
   to <server> \\\n\
   with eq(@src[name], skype)"

(* Figure 3: the ident++ daemon configuration for skype, including the
   signed requirements. *)
let skype_daemon_config ~req_sig =
  Printf.sprintf
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
     req-sig : %s\n\
     }"
    req_sig

let host name ip =
  Identxx.Host.create ~name ~mac:(Mac.of_int (Hashtbl.hash name land 0xffffff))
    ~ip:(Ipv4.of_string ip) ()

let response_for host ~flow ~as_source =
  let peer, proto, sp, dp =
    if as_source then
      (flow.Five_tuple.dst, flow.Five_tuple.proto, flow.Five_tuple.src_port,
       flow.Five_tuple.dst_port)
    else
      (flow.Five_tuple.src, flow.Five_tuple.proto, flow.Five_tuple.src_port,
       flow.Five_tuple.dst_port)
  in
  Option.map fst
    (Identxx.Daemon.answer (Identxx.Host.daemon host) ~peer ~proto ~src_port:sp
       ~dst_port:dp ~keys:[])

let () =
  (* Hosts: two LAN clients, the protected server, a skype update CDN. *)
  let alice = host "alice-pc" "192.168.0.10" in
  let bob = host "bob-pc" "192.168.0.11" in
  let _server = host "server" "192.168.1.1" in
  let update_cdn = host "cdn" "123.123.123.5" in

  (* The vendor signs skype's requirements; the daemon config carries
     the signature (Figure 3's req-sig). *)
  let vendor = Idcrypto.Sign.generate "skype.com" in
  let requirements =
    "pass from any port http with eq(@src[name], skype) pass from any port \
     https with eq(@src[name], skype)"
  in
  Identxx.Host.install_exe alice ~path:"/usr/bin/skype" ~content:"skype-v210";
  Identxx.Host.install_exe bob ~path:"/usr/bin/skype" ~content:"skype-v210";
  let sig_for h =
    Idcrypto.Sign.sign ~secret:vendor.Idcrypto.Sign.secret
      [
        Option.value ~default:"" (Identxx.Host.exe_hash h ~path:"/usr/bin/skype");
        "skype";
        requirements;
      ]
  in
  List.iter
    (fun h ->
      match
        Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name:"50-skype"
          (skype_daemon_config ~req_sig:(sig_for h))
      with
      | Ok () -> ()
      | Error e -> failwith e)
    [ alice; bob ];

  (* Controller policy: the three Figure-2 files, installed as one
     set. *)
  let policy = PS.create () in
  (match
     PS.set policy
       [
         ("00-local-header.control", header_00);
         ("50-skype.control", skype_50);
         ("99-local-footer.control", footer_99);
       ]
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let decision = D.create ~policy () in

  let scenario name ~src_host ~src_exe ~dst_host ~dst ~dst_port ~expect =
    let proc = Identxx.Host.run src_host ~user:"user" ~exe:src_exe () in
    let flow =
      Identxx.Host.connect src_host ~proc ~dst:(Ipv4.of_string dst) ~dst_port ()
    in
    (* Destination side: if the peer runs skype, register a listener. *)
    (match dst_host with
    | Some h ->
        let sproc = Identxx.Host.run h ~user:"user" ~exe:"/usr/bin/skype" () in
        Identxx.Host.listen h ~proc:sproc ~port:dst_port ()
    | None -> ());
    let input =
      {
        D.flow;
        src_response = response_for src_host ~flow ~as_source:true;
        dst_response =
          Option.bind dst_host (fun h -> response_for h ~flow ~as_source:false);
      }
    in
    let allowed = D.allows decision input in
    Printf.printf "%-38s %-8s %s\n" name
      (if allowed then "PASS" else "BLOCK")
      (if allowed = expect then "(as the paper intends)" else "** UNEXPECTED **");
    allowed = expect
  in

  print_endline "=== Figure 2/3: skype policy decision matrix ===";
  let results =
    [
      scenario "skype alice -> skype bob" ~src_host:alice
        ~src_exe:"/usr/bin/skype" ~dst_host:(Some bob) ~dst:"192.168.0.11"
        ~dst_port:33000 ~expect:true;
      scenario "skype alice -> update CDN :80" ~src_host:alice
        ~src_exe:"/usr/bin/skype" ~dst_host:(Some update_cdn)
        ~dst:"123.123.123.5" ~dst_port:80 ~expect:true;
      scenario "skype alice -> server (blocked)" ~src_host:alice
        ~src_exe:"/usr/bin/skype" ~dst_host:None ~dst:"192.168.1.1" ~dst_port:80
        ~expect:false;
      scenario "http alice -> server" ~src_host:alice ~src_exe:"/usr/bin/http"
        ~dst_host:None ~dst:"192.168.1.1" ~dst_port:80 ~expect:true;
      scenario "telnet alice -> server (blocked)" ~src_host:alice
        ~src_exe:"/usr/bin/telnet" ~dst_host:None ~dst:"192.168.1.1"
        ~dst_port:23 ~expect:false;
      scenario "firefox alice -> internet" ~src_host:alice
        ~src_exe:"/usr/bin/firefox" ~dst_host:None ~dst:"8.8.8.8" ~dst_port:443
        ~expect:true;
    ]
  in

  (* Old skype: a host whose skype reports version 150. *)
  let carol = host "carol-pc" "192.168.0.12" in
  let old_config =
    "@app /usr/bin/skype {\nname : skype\nversion : 150\n}"
  in
  (match
     Identxx.Daemon.load_config (Identxx.Host.daemon carol) ~name:"50-skype"
       old_config
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let old_result =
    let proc = Identxx.Host.run carol ~user:"user" ~exe:"/usr/bin/skype" () in
    let flow =
      Identxx.Host.connect carol ~proc ~dst:(Ipv4.of_string "192.168.0.11")
        ~dst_port:33000 ()
    in
    let input =
      {
        D.flow;
        src_response = response_for carol ~flow ~as_source:true;
        dst_response = response_for bob ~flow ~as_source:false;
      }
    in
    let allowed = D.allows decision input in
    Printf.printf "%-38s %-8s %s\n" "OLD skype (v150) carol -> bob"
      (if allowed then "PASS" else "BLOCK")
      (if not allowed then "(as the paper intends)" else "** UNEXPECTED **");
    not allowed
  in

  if List.for_all Fun.id (old_result :: results) then
    print_endline "\nskype_policy OK: all seven scenarios match the paper"
  else begin
    print_endline "\nskype_policy FAILED";
    exit 1
  end
