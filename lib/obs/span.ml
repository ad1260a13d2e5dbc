type span = {
  live : bool;
  root : bool;
  sp_name : string;
  sp_start : float;
  mutable sp_end : float option;
  mutable sp_keep : bool;  (* head-sampling decision, revisable *)
  mutable sp_attrs : (string * string) list;  (* newest first *)
  mutable sp_events : (float * string * (string * string) list) list;
  mutable sp_children : span list;  (* newest first *)
}

type t = {
  capacity : int;
  mutable on : bool;
  mutable rate : float;  (* head sample rate in [0, 1] *)
  roots : span Queue.t;  (* finished, oldest first, at most [capacity] *)
  mutable total : int;
  mutable sampled_out : int;
}

let create ?(capacity = 1024) ?(enabled = true) () =
  if capacity <= 0 then invalid_arg "Obs.Span.create: capacity must be positive";
  {
    capacity;
    on = enabled;
    rate = 1.;
    roots = Queue.create ();
    total = 0;
    sampled_out = 0;
  }

let enabled t = t.on

let set_sample_rate t r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg "Obs.Span.set_sample_rate: rate must be in [0, 1]";
  t.rate <- r

(* The head-sampling coin: deterministic from the trace id, so a flow
   samples identically on every run (and on every party holding the
   same id). *)
let should_sample t ~id =
  t.rate >= 1. || (t.rate > 0. && Trace_context.unit_fraction id < t.rate)

let null =
  {
    live = false;
    root = false;
    sp_name = "";
    sp_start = 0.;
    sp_end = None;
    sp_keep = false;
    sp_attrs = [];
    sp_events = [];
    sp_children = [];
  }

let is_live sp = sp.live

let start t ~at ?parent ?(sampled = true) ?(attrs = []) name =
  let parent_dead = match parent with Some p -> not p.live | None -> false in
  if (not t.on) || parent_dead then null
  else begin
    let sp =
      {
        live = true;
        root = parent = None;
        sp_name = name;
        sp_start = at;
        sp_end = None;
        sp_keep = sampled;
        sp_attrs = List.rev attrs;
        sp_events = [];
        sp_children = [];
      }
    in
    (match parent with
    | Some p -> p.sp_children <- sp :: p.sp_children
    | None -> ());
    sp
  end

let event sp ~at ?(attrs = []) name =
  if sp.live then sp.sp_events <- (at, name, attrs) :: sp.sp_events

let set_attr sp k v =
  if sp.live then sp.sp_attrs <- (k, v) :: List.remove_assoc k sp.sp_attrs

let force_sample sp = if sp.live then sp.sp_keep <- true
let is_sampled sp = sp.sp_keep

let retain t sp =
  t.total <- t.total + 1;
  if Queue.length t.roots >= t.capacity then ignore (Queue.take t.roots : span);
  Queue.add sp t.roots

(* The sampling decision is only enforced here, at the end of the root:
   an unsampled root stays live while open, so a late error (deny,
   timeout, breaker trip) can still {!force_sample} it and lose no
   children. *)
let finish t ~at sp =
  if sp.live && sp.sp_end = None then begin
    sp.sp_end <- Some at;
    if sp.root then
      if sp.sp_keep then retain t sp
      else t.sampled_out <- t.sampled_out + 1
  end

let duration sp =
  match sp.sp_end with Some e -> Some (e -. sp.sp_start) | None -> None

let finished t = List.of_seq (Queue.to_seq t.roots)
let count t = t.total
let sampled_out t = t.sampled_out
let capacity_dropped t = t.total - Queue.length t.roots

let clear t =
  Queue.clear t.roots;
  t.total <- 0;
  t.sampled_out <- 0

let name sp = sp.sp_name
let attrs sp = List.rev sp.sp_attrs
let events sp = List.rev sp.sp_events
let children sp = List.rev sp.sp_children

let json_attrs pairs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) pairs)

let rec to_json sp =
  let base =
    [ ("name", Json.Str sp.sp_name); ("start", Json.Num sp.sp_start) ]
  in
  let end_ =
    match sp.sp_end with Some e -> [ ("end", Json.Num e) ] | None -> []
  in
  let attrs_f =
    match attrs sp with [] -> [] | a -> [ ("attrs", json_attrs a) ]
  in
  let events_f =
    match events sp with
    | [] -> []
    | evs ->
        [
          ( "events",
            Json.List
              (List.map
                 (fun (at, name, a) ->
                   Json.Obj
                     ([ ("at", Json.Num at); ("name", Json.Str name) ]
                     @ match a with [] -> [] | a -> [ ("attrs", json_attrs a) ]))
                 evs) );
        ]
  in
  let children_f =
    match children sp with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map to_json cs)) ]
  in
  Json.Obj (base @ end_ @ attrs_f @ events_f @ children_f)

let export t =
  Json.Obj
    [
      ("spans", Json.List (List.map to_json (finished t)));
      (* Two loss causes, reported apart: the capacity cap losing spans
         an operator wanted, vs. head sampling dropping them by
         design. *)
      ("dropped", Json.Num (float_of_int (capacity_dropped t)));
      ("sampled_out", Json.Num (float_of_int t.sampled_out));
    ]
