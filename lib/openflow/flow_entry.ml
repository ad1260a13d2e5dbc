type rule = {
  fields : Match_fields.t;
  priority : int;
  actions : Action.t list;
  idle_timeout : Sim.Time.t option;
  hard_timeout : Sim.Time.t option;
  cookie : int;
}

let rule ?(priority = 0x8000) ?idle_timeout ?hard_timeout ?(cookie = 0) ~fields
    actions =
  { fields; priority; actions; idle_timeout; hard_timeout; cookie }

type t = {
  rule : rule;
  installed_at : Sim.Time.t;
  mutable last_hit : Sim.Time.t;
  mutable packets : int;
  mutable bytes : int;
  seq : int;
  mutable alive : bool;
  mutable next : t;
}

let hit t ~now ~size =
  t.last_hit <- now;
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + size

let expired t ~now =
  let past base = function
    | None -> false
    | Some timeout -> Sim.Time.compare now (Sim.Time.add base timeout) > 0
  in
  past t.last_hit t.rule.idle_timeout || past t.installed_at t.rule.hard_timeout

let pp ppf t =
  Format.fprintf ppf "prio=%d %a -> %a (pkts=%d bytes=%d)" t.rule.priority
    Match_fields.pp t.rule.fields Action.pp_list t.rule.actions t.packets t.bytes
