open Netcore

type process = {
  pid : int;
  user : string;
  groups : string list;
  exe_path : string;
  isolated : bool;
}

type change = Spawned | Killed of int | Listeners

module Flow_key = struct
  type t = Five_tuple.t

  let equal = Five_tuple.equal
  let hash = Five_tuple.hash
end

module Flow_tbl = Hashtbl.Make (Flow_key)

type t = {
  mutable next_pid : int;
  procs : (int, process) Hashtbl.t;
  connections : int Flow_tbl.t; (* flow -> pid *)
  listeners : (int * int, int) Hashtbl.t; (* (proto, port) -> pid *)
  mutable change_listeners : (change -> unit) list;
}

let create () =
  {
    next_pid = 1000;
    procs = Hashtbl.create 16;
    connections = Flow_tbl.create 16;
    listeners = Hashtbl.create 16;
    change_listeners = [];
  }

let on_change t f = t.change_listeners <- f :: t.change_listeners
let notify_change t change =
  List.iter (fun f -> f change) (List.rev t.change_listeners)

let spawn t ?pid ?(isolated = false) ~user ~groups ~exe () =
  let pid =
    match pid with
    | Some p -> p
    | None ->
        let p = t.next_pid in
        t.next_pid <- t.next_pid + 1;
        p
  in
  if Hashtbl.mem t.procs pid then
    invalid_arg (Printf.sprintf "Process_table.spawn: pid %d in use" pid);
  let p = { pid; user; groups; exe_path = exe; isolated } in
  Hashtbl.replace t.procs pid p;
  notify_change t Spawned;
  p

let kill t ~pid =
  Hashtbl.remove t.procs pid;
  let flows =
    Flow_tbl.fold
      (fun flow p acc -> if p = pid then flow :: acc else acc)
      t.connections []
  in
  List.iter (fun f -> Flow_tbl.remove t.connections f) flows;
  let ports =
    Hashtbl.fold
      (fun key p acc -> if p = pid then key :: acc else acc)
      t.listeners []
  in
  List.iter (fun k -> Hashtbl.remove t.listeners k) ports;
  notify_change t (Killed pid)

let ptrace t ~by ~target =
  match (Hashtbl.find_opt t.procs by, Hashtbl.find_opt t.procs target) with
  | None, _ -> Error (Printf.sprintf "ptrace: no such process %d" by)
  | _, None -> Error (Printf.sprintf "ptrace: no such process %d" target)
  | Some tracer, Some traced ->
      if tracer.user <> traced.user then
        Error "ptrace: operation not permitted (different user)"
      else if traced.isolated then
        Error "ptrace: operation not permitted (setgid-protected)"
      else Ok traced

let require_pid t pid =
  if not (Hashtbl.mem t.procs pid) then
    invalid_arg (Printf.sprintf "Process_table: unknown pid %d" pid)

let connect t ~pid ~flow =
  require_pid t pid;
  Flow_tbl.replace t.connections flow pid

let listen t ~pid ~proto ~port =
  require_pid t pid;
  Hashtbl.replace t.listeners (Proto.to_int proto, port) pid;
  notify_change t Listeners

let close_listen t ~pid ~proto ~port =
  match Hashtbl.find_opt t.listeners (Proto.to_int proto, port) with
  | Some p when p = pid ->
      Hashtbl.remove t.listeners (Proto.to_int proto, port);
      notify_change t Listeners
  | Some _ | None -> ()

let disconnect t ~flow = Flow_tbl.remove t.connections flow

let proc t pid = Hashtbl.find_opt t.procs pid

let owner_of_flow t ~flow =
  match Flow_tbl.find t.connections flow with
  | pid -> proc t pid
  | exception Not_found -> None

let owner_of_listener t ~proto ~port =
  match Hashtbl.find t.listeners (Proto.to_int proto, port) with
  | pid -> proc t pid
  | exception Not_found -> None

let lookup t ~(flow : Five_tuple.t) ~as_source =
  if as_source then owner_of_flow t ~flow
  else
    match owner_of_flow t ~flow:(Five_tuple.reverse flow) with
    | Some p -> Some p
    | None -> owner_of_listener t ~proto:flow.proto ~port:flow.dst_port

let processes t = Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
