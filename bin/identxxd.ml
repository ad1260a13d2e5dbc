(* identxxd: the ident++ end-host daemon as a standalone filter.

   Reads daemon configuration files (Figure 3/4/6 syntax) and a process
   table fixture, then answers ident++ query payloads (§3.2) read from
   stdin, one response per query, separated by a blank line — the exact
   bytes a TCP server on port 783 would write.

   The process table fixture is one line per socket:
     conn   <pid> <user> <groups,comma> <exe> <proto> <src:port> <dst:port>
     listen <pid> <user> <groups,comma> <exe> <proto> <port>

   Example:
     identxxd --ip 10.0.0.1 --config skype.identxx.conf --table procs.txt \
        < queries.txt *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> failwith ("bad endpoint " ^ s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match (Netcore.Ipv4.of_string_opt host, int_of_string_opt port) with
      | Some ip, Some p -> (ip, p)
      | _ -> failwith ("bad endpoint " ^ s))

let load_table processes content =
  let pids = Hashtbl.create 16 in
  let ensure_proc ~pid ~user ~groups ~exe =
    if not (Hashtbl.mem pids pid) then begin
      ignore
        (Identxx.Process_table.spawn processes ~pid ~user
           ~groups:(String.split_on_char ',' groups)
           ~exe ());
      Hashtbl.add pids pid ()
    end
  in
  String.split_on_char '\n' content
  |> List.iteri (fun lineno line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ "conn"; pid; user; groups; exe; proto; src; dst ] ->
               let pid = int_of_string pid in
               ensure_proc ~pid ~user ~groups ~exe;
               let src_ip, src_port = parse_endpoint src in
               let dst_ip, dst_port = parse_endpoint dst in
               Identxx.Process_table.connect processes ~pid
                 ~flow:
                   (Netcore.Five_tuple.make ~src:src_ip ~dst:dst_ip
                      ~proto:(Netcore.Proto.of_string proto)
                      ~src_port ~dst_port)
           | [ "listen"; pid; user; groups; exe; proto; port ] ->
               let pid = int_of_string pid in
               ensure_proc ~pid ~user ~groups ~exe;
               Identxx.Process_table.listen processes ~pid
                 ~proto:(Netcore.Proto.of_string proto)
                 ~port:(int_of_string port)
           | _ -> failwith (Printf.sprintf "table line %d: unparsable" (lineno + 1)))

let run ip configs table_path peer cache_expires metrics_path metrics_every
    health_every =
  let host_ip = Netcore.Ipv4.of_string ip in
  let peer_ip = Netcore.Ipv4.of_string peer in
  let processes = Identxx.Process_table.create () in
  (match table_path with
  | Some path -> load_table processes (read_file path)
  | None -> ());
  let hashes = Hashtbl.create 4 in
  let daemon =
    Identxx.Daemon.create ~ip:host_ip ~processes
      ~exe_hash:(fun p -> Hashtbl.find_opt hashes p)
      ()
  in
  List.iter
    (fun path ->
      match
        Identxx.Daemon.load_config daemon ~name:(Filename.basename path)
          (read_file path)
      with
      | Ok () -> ()
      | Error e -> failwith e)
    configs;
  (* The daemon-side cache knob: an [expires] pair in every answer caps
     how long a querier's attribute cache may reuse it (0 forbids
     caching outright). Loaded last so it wins latest-pair lookups even
     when a --config file also sets one. *)
  (match cache_expires with
  | None -> ()
  | Some seconds -> (
      match
        Identxx.Daemon.load_config daemon ~name:"zz-cache-expires"
          (Printf.sprintf "expires : %g" seconds)
      with
      | Ok () -> ()
      | Error e -> failwith e));
  (* Metrics: record service time on the wall clock and dump a JSON
     snapshot (identxx_ctl metrics reads it) every N queries and at
     EOF. *)
  let obs = Obs.Registry.create () in
  if metrics_path <> None || health_every > 0 then
    Identxx.Daemon.set_metrics daemon ~clock:Sys.time
      ~labels:[ ("host", ip) ]
      obs;
  (* The health engine closes a window every --health-every queries on
     the wall clock (the netsim twin closes on the simulated clock);
     fired events print to stderr as JSON lines, keeping stdout pure
     response bytes. *)
  let health =
    if health_every > 0 then
      Some
        (Obs.Health.create ~registry:obs
           (Obs.Window.create ~interval:1. ~now:(Sys.time ()) obs))
    else None
  in
  let health_step () =
    match health with
    | None -> ()
    | Some h ->
        List.iter
          (fun e ->
            output_string stderr
              (Obs.Json.to_string (Obs.Health.event_to_json e));
            output_char stderr '\n';
            flush stderr)
          (Obs.Health.force_step h ~now:(Sys.time ()))
  in
  let dump_metrics () =
    match metrics_path with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Export.json_string obs);
        output_char oc '\n';
        close_out oc
  in
  let seen = ref 0 in
  (* Read query payloads: header line + key lines, terminated by a blank
     line or EOF. *)
  let buf = Buffer.create 128 in
  let answer () =
    let payload = Buffer.contents buf in
    Buffer.clear buf;
    if String.trim payload <> "" then begin
      let clock = Identxx.Daemon.clock daemon in
      let d0 = clock () in
      (match Identxx.Query.decode payload with
      | Error e -> Printf.printf "error: %s\n\n%!" e
      | Ok q -> (
          let d1 = clock () in
          match Identxx.Daemon.respond ~decode:(d0, d1) daemon ~peer:peer_ip q with
          | Some (response, _role) ->
              print_string (Identxx.Response.encode response);
              print_newline ();
              flush stdout
          | None -> print_string "\n"));
      incr seen;
      if metrics_every > 0 && !seen mod metrics_every = 0 then dump_metrics ();
      if health_every > 0 && !seen mod health_every = 0 then health_step ()
    end
  in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line = "" then answer ()
       else begin
         Buffer.add_string buf line;
         Buffer.add_char buf '\n'
       end
     done
   with End_of_file -> answer ());
  health_step ();
  dump_metrics ();
  0

let () =
  let ip =
    Arg.(
      required
      & opt (some string) None
      & info [ "ip" ] ~docv:"ADDR" ~doc:"This host's address.")
  in
  let configs =
    Arg.(
      value & opt_all file []
      & info [ "config" ] ~docv:"FILE" ~doc:"Daemon configuration (repeatable).")
  in
  let table =
    Arg.(
      value
      & opt (some file) None
      & info [ "table" ] ~docv:"FILE" ~doc:"Process table fixture.")
  in
  let peer =
    Arg.(
      value & opt string "0.0.0.0"
      & info [ "peer" ] ~docv:"ADDR"
          ~doc:"The flow's far end (the querying side's address).")
  in
  let cache_expires =
    Arg.(
      value
      & opt (some float) None
      & info [ "cache-expires" ] ~docv:"SECONDS"
          ~doc:"Stamp every answer with an 'expires' pair bounding how long \
                the controller's attribute cache may reuse it (0 disables \
                caching of this host's answers).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Record daemon metrics (queries by outcome, service-time \
                histogram, signed responses) and write a JSON snapshot to \
                FILE at exit; readable with identxx_ctl metrics.")
  in
  let metrics_every =
    Arg.(
      value & opt int 0
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:"With --metrics, also rewrite the snapshot after every N \
                queries (0 = only at exit) — the periodic dump for \
                long-running filters.")
  in
  let health_every =
    Arg.(
      value & opt int 0
      & info [ "health-every" ] ~docv:"N"
          ~doc:"Close a health window (windowed registry sampling plus the \
                default anomaly rules, evaluated on the wall clock) after \
                every N queries and at exit; fired health events print to \
                stderr as JSON lines. 0 (the default) disables the engine.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "identxxd" ~version:"1.0.0"
         ~doc:"ident++ daemon: answer queries from stdin")
      Term.(
        const run $ ip $ configs $ table $ peer $ cache_expires $ metrics
        $ metrics_every $ health_every)
  in
  exit (Cmd.eval' cmd)
