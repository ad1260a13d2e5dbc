type event = {
  ev_at : float;
  ev_kind : string;
  ev_attrs : (string * string) list;
}

(* Events are stored with their attributes unforced: the hot path pays
   one closure allocation, and the (string formatting) cost of building
   attribute lists is deferred to [events]/[dump] — which a steady-state
   run may never call for most events, since the ring evicts them. *)
type stored = {
  s_at : float;
  s_kind : string;
  s_attrs : (string * string) list Lazy.t;
}

type t = {
  mutable on : bool;
  cap : int;
  ring : stored Queue.t; (* oldest first, at most [cap] *)
  mutable total : int;
}

let create ?(capacity = 4096) ?(enabled = true) () =
  if capacity < 1 then invalid_arg "Obs.Recorder.create: capacity must be >= 1";
  { on = enabled; cap = capacity; ring = Queue.create (); total = 0 }

let null = { on = false; cap = 1; ring = Queue.create (); total = 0 }
let enabled t = t.on
let set_enabled t v = if t != null then t.on <- v

let push t s =
  t.total <- t.total + 1;
  if Queue.length t.ring >= t.cap then ignore (Queue.take t.ring : stored);
  Queue.add s t.ring

let record t ~at ?(attrs = []) kind =
  if t.on then
    push t { s_at = at; s_kind = kind; s_attrs = Lazy.from_val attrs }

let record_lazy t ~at kind attrs =
  if t.on then push t { s_at = at; s_kind = kind; s_attrs = attrs }

let count t = Queue.length t.ring
let dropped t = t.total - count t

(* Newest first. *)
let events t =
  Queue.fold
    (fun acc s ->
      { ev_at = s.s_at; ev_kind = s.s_kind; ev_attrs = Lazy.force s.s_attrs } :: acc)
    [] t.ring

let event_to_json e =
  Json.Obj
    [
      ("at", Json.Num e.ev_at);
      ("kind", Json.Str e.ev_kind);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.ev_attrs));
    ]

let dump ?(reason = "on-demand") ~at t =
  let evs =
    (* Canonical order: by time, then kind, then attrs — so dumps are
       byte-identical across runs that record the same events in any
       arrival order (different shard counts interleave differently). *)
    List.sort
      (fun a b ->
        let c = compare a.ev_at b.ev_at in
        if c <> 0 then c
        else
          let c = String.compare a.ev_kind b.ev_kind in
          if c <> 0 then c else compare a.ev_attrs b.ev_attrs)
      (events t)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          [
            ("kind", Json.Str "flight-recorder");
            ("reason", Json.Str reason);
            ("at", Json.Num at);
            ("events", Json.Num (float_of_int (List.length evs)));
            ("dropped", Json.Num (float_of_int (dropped t)));
          ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

let dump_to ?reason ~at ~file t =
  let s = dump ?reason ~at t in
  if file = "-" then print_string s
  else begin
    let oc = open_out file in
    output_string oc s;
    close_out oc
  end
