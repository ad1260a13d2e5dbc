open Netcore

let src = Logs.Src.create "identxx.daemon" ~doc:"ident++ end-host daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type behaviour = Honest | Silent | Lying of Key_value.section

type metrics = {
  m_answered : Obs.Registry.Counter.t;
  m_silent : Obs.Registry.Counter.t;
  m_signed : Obs.Registry.Counter.t;
  m_seconds : Obs.Registry.Histogram.t;
}

(* A static section's lines as they go on the wire, and its section tag
   (["" when unsigned]). *)
type tagged = Payload.part

type t = {
  ip : Ipv4.t;
  processes : Process_table.t;
  exe_hash : string -> string option;
  mutable behaviour : behaviour;
  mutable signer : (string * Idcrypto.Sign.key) option;
      (* Public handle and secret, prepared once when the key is set. *)
  mutable config_files : (string * Config.t) list; (* sorted by name *)
  (* The static sections, assembled and tagged at most once between two
     changes that make them stale: all dropped by {!notify_change} and
     {!set_signing_key}, one pid's built-ins by that process's exit. *)
  mutable merged : Config.t option;
  builtins : (int, tagged) Hashtbl.t; (* by pid *)
  apps : (string, tagged) Hashtbl.t; (* by exe path *)
  mutable globals : tagged option;
  runtime : (Five_tuple.t * Key_value.section) list ref;
  mutable answered : int;
  mutable change_listeners : (unit -> unit) list;
  mutable metrics : metrics option;
  mutable d_clock : unit -> float;
      (* Times both the service histogram and trace spans. The default
         is a constant, so untimed deployments stay deterministic. *)
}

let forget_sections t =
  t.merged <- None;
  Hashtbl.reset t.builtins;
  Hashtbl.reset t.apps;
  t.globals <- None

(* Tell the listeners; every change may alter some answer. *)
let changed t = List.iter (fun f -> f ()) (List.rev t.change_listeners)

let notify_change t =
  forget_sections t;
  changed t

let create ?(behaviour = Honest) ~ip ~processes ~exe_hash () =
  let t =
    {
      ip;
      processes;
      exe_hash;
      behaviour;
      signer = None;
      config_files = [];
      merged = None;
      builtins = Hashtbl.create 8;
      apps = Hashtbl.create 8;
      globals = None;
      runtime = ref [];
      answered = 0;
      change_listeners = [];
      metrics = None;
      d_clock = (fun () -> 0.);
    }
  in
  (* Identity churn in the process table changes what this daemon would
     answer. Only an exit makes a cached section stale, its own: a
     spawned pid has none yet (a reused one lost its own at the exit),
     and listeners are looked up per answer. *)
  Process_table.on_change processes (fun change ->
      (match change with
      | Process_table.Killed pid -> Hashtbl.remove t.builtins pid
      | Process_table.Spawned | Process_table.Listeners -> ());
      changed t);
  t

let on_change t f = t.change_listeners <- f :: t.change_listeners

let clock t = t.d_clock

let set_metrics t ?clock ?(labels = []) reg =
  (match clock with Some c -> t.d_clock <- c | None -> ());
  t.metrics <-
    Some
      {
        m_answered =
          Obs.Registry.counter reg
            ~help:"Queries this daemon received, by outcome."
            ~labels:(labels @ [ ("result", "answered") ])
            "identxx_daemon_queries_total";
        m_silent =
          Obs.Registry.counter reg
            ~help:"Queries this daemon received, by outcome."
            ~labels:(labels @ [ ("result", "silent") ])
            "identxx_daemon_queries_total";
        m_signed =
          Obs.Registry.counter reg
            ~help:"Responses carrying a signature section."
            ~labels "identxx_daemon_responses_signed_total";
        m_seconds =
          Obs.Registry.histogram reg
            ~help:"Daemon-side query service time in seconds."
            ~labels "identxx_daemon_answer_seconds";
      }

let set_behaviour t b =
  t.behaviour <- b;
  notify_change t

let set_signing_key t k =
  forget_sections t;
  t.signer <-
    Option.map
      (fun (kp : Idcrypto.Sign.keypair) ->
        (kp.Idcrypto.Sign.public, Idcrypto.Sign.prepare kp.Idcrypto.Sign.secret))
      k

let load_config t ~name content =
  match Config.parse content with
  | Error _ as e -> e
  | Ok cfg ->
      t.config_files <-
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          ((name, cfg) :: List.remove_assoc name t.config_files);
      notify_change t;
      Ok ()

let merged_config t =
  match t.merged with
  | Some cfg -> cfg
  | None ->
      let cfg =
        List.fold_left
          (fun acc (_, cfg) -> Config.merge acc cfg)
          Config.empty t.config_files
      in
      t.merged <- Some cfg;
      cfg

let tagged t pairs =
  Payload.part pairs
    ~tag:
      (match t.signer with
      | Some (_, key) -> Signed.section_tag key pairs
      | None -> "")

(* Run-time pairs are read per answer, never cached. *)
let register_runtime t ~flow section =
  t.runtime := (flow, section) :: !(t.runtime);
  changed t

let clear_runtime t ~flow =
  t.runtime :=
    List.filter (fun (f, _) -> not (Five_tuple.equal f flow)) !(t.runtime);
  changed t

type role = As_source | As_destination

let basename path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let builtin_section t (proc : Process_table.process) =
  let name = basename proc.exe_path in
  let pairs =
    [
      Key_value.pair Key_value.user_id proc.user;
      Key_value.pair Key_value.group_id (String.concat "," proc.groups);
      Key_value.pair "pid" (string_of_int proc.pid);
      Key_value.pair Key_value.app_path proc.exe_path;
      Key_value.pair Key_value.app_name name;
      (* The paper's examples use both [name] (Figs 2-3) and [app-name]
         (Fig 5's verify call); emit the alias so either works. *)
      Key_value.pair "app-name" name;
    ]
  in
  match t.exe_hash proc.exe_path with
  | Some h -> pairs @ [ Key_value.pair Key_value.exe_hash h ]
  | None -> pairs

let runtime_section t flow =
  match !(t.runtime) with
  | [] -> []
  | runtime ->
      List.concat_map
        (fun (f, s) -> if Five_tuple.equal f flow then s else [])
        (List.rev runtime)

(* Whether any flow to this host's [proto]/[port] socket carries run-time
   pairs: the socket's answers then differ from flow to flow. *)
let runtime_on_socket t ~proto ~port =
  List.exists
    (fun ((f : Five_tuple.t), _) ->
      Ipv4.equal f.dst t.ip && Proto.equal f.proto proto && f.dst_port = port)
    !(t.runtime)

let cache tbl key v =
  Hashtbl.replace tbl key v;
  v

let builtins t (proc : Process_table.process) =
  match Hashtbl.find t.builtins proc.pid with
  | v -> v
  | exception Not_found ->
      cache t.builtins proc.pid (tagged t (builtin_section t proc))

let app t cfg (proc : Process_table.process) =
  match Hashtbl.find t.apps proc.exe_path with
  | v -> v
  | exception Not_found ->
      cache t.apps proc.exe_path
        (tagged t (Option.value ~default:[] (Config.app cfg ~path:proc.exe_path)))

let globals t cfg =
  match t.globals with
  | Some g -> g
  | None ->
      let g = tagged t cfg.Config.globals in
      t.globals <- Some g;
      g

(* Ends the walk with [Exit] at the first pair line [j, k] of a section's
   lines whose key is [hint], a slice of the query's payload [s]. *)
let stop_at_hint s hint lines j k _ =
  if k - j = Slice.length hint && Payload.same_sub lines j s (Slice.start hint) (k - j)
  then raise_notrace Exit
  else hint

(* Whether a static section's rendered lines hold a line with the query's
   hint [String.sub s i len], read where it sits. A key whose bit the
   section's [keys] lack is on none of them, and a pair's key has no
   ':'. *)
let has_key (part : Payload.part) s i len =
  part.keys land Payload.key_bit_sub s i len <> 0
  && Payload.index_in s ':' i (i + len) = i + len
  &&
  match
    Payload.fold_pairs stop_at_hint s (Slice.v i (i + len)) part.text 0
      (String.length part.text)
  with
  | _ -> false
  | exception Exit -> true

(* Whether a static section goes out in answer to [q]: when it holds one
   of the query's plain hints, or when the query hinted no plain key at
   all. A section sharing no bit with the hints holds none of them. *)
let holds (q : Query.t) (part : Payload.part) =
  q.hint_bits = 0
  || (part.keys land q.hint_bits <> 0 && Query.exists_hint q has_key part)

let wanted ~keys section =
  holds
    (Query.of_keys ~proto:Proto.Tcp ~src_port:0 ~dst_port:0 keys)
    (Payload.part ~tag:"" section)

(* An answer's parts, with their scopes in step. *)
type parts = {
  mutable parts : Payload.part list;
  mutable scopes : Signed.scope list;
}

(* Put a part before the ones already added. *)
let add parts part scope =
  parts.parts <- part :: parts.parts;
  parts.scopes <- scope :: parts.scopes

(* A static part goes out when non-empty and holding a hinted key. *)
let sends q (part : tagged) = part.text <> "" && holds q part

let add_static parts q part scope = if sends q part then add parts part scope

(* Span timing is read only for traced queries; untraced answers never
   touch the clock. *)
let now t = function Some _ -> t.d_clock () | None -> 0.

let respond ?decode t ~peer (q : Query.t) =
  let proto = q.proto and src_port = q.src_port and dst_port = q.dst_port in
  match t.behaviour with
  | Silent -> None
  | Lying fabricated ->
      (* A compromised daemon does not cooperate with tracing either. *)
      t.answered <- t.answered + 1;
      let flow =
        Five_tuple.make ~src:t.ip ~dst:peer ~proto ~src_port ~dst_port
      in
      Some (Response.make ~flow [ fabricated ], As_source)
  | Honest ->
      t.answered <- t.answered + 1;
      if Logs.Src.level src = Some Logs.Debug then
        Log.debug (fun m ->
            m "answering query about %s %d->%d (peer %s)"
              (Proto.to_string proto) src_port dst_port (Ipv4.to_string peer));
      let trace = Query.trace q in
      let t_lookup = now t trace in
      let as_src =
        Five_tuple.make ~src:t.ip ~dst:peer ~proto ~src_port ~dst_port
      in
      (* [held]: how far what the lookup found holds. A connected
         socket is the flow itself; a listener holds for every new flow
         to its port, unless run-time pairs set one of them apart. The
         flow as the destination sees it is built only when the source
         lookup misses. *)
      let role, flow, proc, held =
        match Process_table.owner_of_flow t.processes ~flow:as_src with
        | Some p -> (As_source, as_src, Some p, Signed.Flow)
        | None -> (
            let as_dst =
              Five_tuple.make ~src:peer ~dst:t.ip ~proto ~src_port ~dst_port
            in
            match
              Process_table.owner_of_flow t.processes
                ~flow:(Five_tuple.reverse as_dst)
            with
            | Some p -> (As_destination, as_dst, Some p, Signed.Flow)
            | None -> (
                match
                  Process_table.owner_of_listener t.processes ~proto
                    ~port:dst_port
                with
                | Some p ->
                    ( As_destination,
                      as_dst,
                      Some p,
                      if runtime_on_socket t ~proto ~port:dst_port then
                        Signed.Flow
                      else Signed.Socket )
                | None -> (As_source, as_src, None, Signed.Flow)))
      in
      let t_assemble = now t trace in
      let cfg = merged_config t in
      (* Each part with its section tag and declared scope, consed from
         the last part to the first. A static section holding none of
         the hinted keys stays home, whole. The globals hold host-wide,
         but only beside the owner's built-in section: without it, what
         the answer lacks holds only as far as the lookup did. *)
      let parts = { parts = []; scopes = [] } in
      (match proc with
      | None -> add_static parts q (globals t cfg) held
      | Some proc ->
          let builtins = builtins t proc in
          let own = sends q builtins in
          add_static parts q (globals t cfg)
            (if own then Signed.Host else held);
          (match runtime_section t flow with
          | [] -> ()
          | section ->
              add parts (Payload.part ~tag:Signed.per_flow section) Signed.Flow);
          add_static parts q (app t cfg proc) held;
          if own then add parts builtins held);
      let t_sign = now t trace in
      (* The answer is written once, into a buffer of its exact length:
         the header, the cached lines of each part and, for a signing
         daemon, the signature section. *)
      let response =
        match t.signer with
        | Some (public, key) ->
            (match t.metrics with
            | Some m -> Obs.Registry.Counter.inc m.m_signed
            | None -> ());
            Signed.assemble ~public ~key ~host:t.ip ~peer ~query:q
              ~scopes:parts.scopes parts.parts
        | None -> Payload.assemble ~proto ~src_port ~dst_port parts.parts
      in
      let t_done = now t trace in
      (* Piggyback this daemon's spans on the answer. Appended after
         the signature section: diagnostics, not an authenticated claim
         (PROTOCOL.md §6's rule for post-signature sections), so the
         signed prefix stays byte-identical to an untraced answer. *)
      let response =
        match trace with
        | None -> response
        | Some (ctx : Obs.Trace_context.t) ->
            let spans =
              (match decode with
              | Some (d0, d1) -> [ ("decode", d0, d1) ]
              | None -> [])
              @ [
                  ("lookup", t_lookup, t_assemble);
                  ("assemble", t_assemble, t_sign);
                ]
              @
              match t.signer with
              | Some _ -> [ ("sign", t_sign, t_done) ]
              | None -> []
            in
            Response.attach_trace response ~trace_id:ctx.Obs.Trace_context.trace_id
              ~parent:ctx.Obs.Trace_context.span_id ~spans
      in
      Some (response, role)

let respond ?decode t ~peer q =
  match t.metrics with
  | None -> respond ?decode t ~peer q
  | Some m ->
      let t0 = t.d_clock () in
      let r = respond ?decode t ~peer q in
      Obs.Registry.Histogram.observe m.m_seconds (t.d_clock () -. t0);
      Obs.Registry.Counter.inc
        (match r with None -> m.m_silent | Some _ -> m.m_answered);
      r

let queries_answered t = t.answered

let answer ?trace ?decode ?nonce t ~peer ~proto ~src_port ~dst_port ~keys =
  respond ?decode t ~peer
    (Query.of_keys ~proto ~src_port ~dst_port ?nonce ?trace keys)
