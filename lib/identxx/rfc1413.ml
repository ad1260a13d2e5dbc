open Netcore

let parse_request line =
  match String.split_on_char ',' line with
  | [ a; b ] -> (
      match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b)) with
      | Some server_port, Some client_port
        when server_port > 0 && server_port <= 0xffff && client_port > 0
             && client_port <= 0xffff ->
          Some (server_port, client_port)
      | _ -> None)
  | _ -> None

let handle_request ~processes ~local_ip ~peer_ip line =
  match parse_request line with
  | None -> Printf.sprintf "%s : ERROR : INVALID-PORT" (String.trim line)
  | Some (server_port, client_port) -> (
      let ports = Printf.sprintf "%d, %d" server_port client_port in
      (* The connection, from this (client) host's point of view. *)
      let flow =
        Five_tuple.make ~src:local_ip ~dst:peer_ip ~proto:Proto.Tcp
          ~src_port:client_port ~dst_port:server_port
      in
      match Process_table.lookup processes ~flow ~as_source:true with
      | Some proc ->
          Printf.sprintf "%s : USERID : UNIX : %s" ports proc.Process_table.user
      | None -> Printf.sprintf "%s : ERROR : NO-USER" ports)
