type entry = { at : Time.t; actor : string; event : string }
type t = { mutable entries : entry list; mutable enabled : bool }

let create () = { entries = []; enabled = false }
let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let record t ~at ~actor event =
  if t.enabled then t.entries <- { at; actor; event } :: t.entries

let entries t = List.rev t.entries

let pp_entry ppf e =
  Format.fprintf ppf "%8s  %-12s %s"
    (Format.asprintf "%a" Time.pp e.at)
    e.actor e.event

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
