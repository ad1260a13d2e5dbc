type kind =
  | Threshold of { over : float }
  | Burn_rate of { over : float; windows : int }
  | Quantile_skew of { q_hi : float; q_lo : float; min_ratio : float;
                       min_count : int }
  | Imbalance of { min_ratio : float; min_value : float }

type rule = {
  r_name : string;
  r_help : string;
  r_metric : string;
  r_group_by : string list;
  r_label_as : string option;
  r_kind : kind;
}

let rule ~name ~help ~metric ?(group_by = []) ?label_as kind =
  { r_name = name; r_help = help; r_metric = metric; r_group_by = group_by;
    r_label_as = label_as; r_kind = kind }

(* The shipped rule set. Rule names below are scanned by tools/doclint
   against the doc/OBSERVABILITY.md health-rule catalog — keep the
   ~name:"..." literals greppable. *)
let default_rules =
  [
    rule ~name:"packet_in_surge"
      ~help:"packet-in rate from one source host exceeds 500/s"
      ~metric:"identxx_controller_packet_ins_total" ~group_by:[ "src" ]
      ~label_as:"host"
      (Threshold { over = 500. });
    rule ~name:"deny_latency_skew"
      ~help:"flow-setup p95 exceeds 4x p50 (warm/cold gap a prober could measure)"
      ~metric:"identxx_controller_flow_setup_seconds"
      (Quantile_skew { q_hi = 0.95; q_lo = 0.5; min_ratio = 4.; min_count = 8 });
    rule ~name:"breaker_flap"
      ~help:"circuit-breaker trips observed across the last 5 windows"
      ~metric:"identxx_fastpath_breaker_trips_total"
      (Burn_rate { over = 0.5; windows = 5 });
    rule ~name:"shard_queue_imbalance"
      ~help:"hottest shard queue exceeds 4x the coolest (and at least 8 deep)"
      ~metric:"identxx_shard_queue_depth" ~group_by:[ "shard" ]
      (Imbalance { min_ratio = 4.; min_value = 8. });
    rule ~name:"table_eviction_pressure"
      ~help:"flow-table evictions on one switch exceed 16 over 3 windows"
      ~metric:"identxx_switch_evictions_total" ~group_by:[ "dpid" ]
      (Burn_rate { over = 16.; windows = 3 });
    rule ~name:"daemon_query_surge"
      ~help:"ident++ queries to one host exceed 2000/s"
      ~metric:"identxx_daemon_queries_total" ~group_by:[ "host" ]
      (Threshold { over = 2000. });
  ]

type event = {
  e_rule : string;
  e_at : float;
  e_window : int;
  e_labels : (string * string) list;
  e_value : float;
  e_threshold : float;
}

type t = {
  h_rules : rule list;
  h_window : Window.t;
  h_recorder : Recorder.t;
  h_spans : Span.t option;
  h_windows_total : Registry.Counter.t;
  h_events_total : (string, Registry.Counter.t) Hashtbl.t; (* by rule *)
  h_active_g : (string, Registry.Gauge.t) Hashtbl.t; (* by rule *)
  active : (string * (string * string) list, unit) Hashtbl.t;
  mutable fired : event list; (* newest first *)
  mutable on_fire : event -> unit;
}

let create ?(rules = default_rules) ?(recorder = Recorder.null) ?spans
    ~registry window =
  let h_events_total = Hashtbl.create 8 and h_active_g = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace h_events_total r.r_name
        (Registry.counter registry ~help:"Health events fired, by rule"
           ~labels:[ ("rule", r.r_name) ]
           "identxx_health_events_total");
      Hashtbl.replace h_active_g r.r_name
        (Registry.gauge registry ~help:"Health rule groups currently firing"
           ~labels:[ ("rule", r.r_name) ]
           "identxx_health_active"))
    rules;
  {
    h_rules = rules;
    h_window = window;
    h_recorder = recorder;
    h_spans = spans;
    h_windows_total =
      Registry.counter registry ~help:"Health windows closed"
        "identxx_health_windows_total";
    h_events_total;
    h_active_g;
    active = Hashtbl.create 16;
    fired = [];
    on_fire = ignore;
  }

let set_on_fire t f = t.on_fire <- f
let windows_closed t = Window.closed t.h_window
let events t = List.rev t.fired

let active t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.active [] |> List.sort compare

(* Burn totals are magnitudes, not rates: a counter burns its delta
   (events over the lookback, e.g. "evictions over 3 windows"), a
   histogram its observation count, a gauge its level. *)
let burn_value = function
  | Window.W_counter { delta; _ } -> float_of_int delta
  | v -> Window.value_of v

(* Sum this group's burn value over up to [n] most recent windows (the
   newest given explicitly: evaluation interleaves with closing). *)
let burn t r group ~newest n =
  let older = List.filter (fun w -> w.Window.w_seq < newest.Window.w_seq)
      (Window.windows t.h_window) in
  let ws = newest :: List.filteri (fun i _ -> i < n - 1) older in
  List.fold_left
    (fun acc w ->
      match List.assoc_opt group (Window.grouped w ~metric:r.r_metric
                                    ~by:r.r_group_by) with
      | Some v -> acc +. burn_value v
      | None -> acc)
    0. ws

(* Evaluate one rule against a freshly closed window; return the
   (group, observed, threshold) triples that hold. *)
let evaluate t r (w : Window.window) =
  let groups = Window.grouped w ~metric:r.r_metric ~by:r.r_group_by in
  match r.r_kind with
  | Threshold { over } ->
      List.filter_map
        (fun (g, v) ->
          let x = Window.value_of v in
          if x > over then Some (g, x, over) else None)
        groups
  | Burn_rate { over; windows } ->
      List.filter_map
        (fun (g, _) ->
          let x = burn t r g ~newest:w windows in
          if x > over then Some (g, x, over) else None)
        groups
  | Quantile_skew { q_hi; q_lo; min_ratio; min_count } ->
      List.filter_map
        (fun (g, v) ->
          match v with
          | Window.W_histogram { buckets; count; _ } when count >= min_count ->
              let q q' = Registry.estimate_quantile ~buckets ~count q' in
              (match (q q_hi, q q_lo) with
              | Some hi, Some lo when lo > 0. && hi > lo *. min_ratio ->
                  Some (g, hi /. lo, min_ratio)
              | _ -> None)
          | _ -> None)
        groups
  | Imbalance { min_ratio; min_value } -> (
      match groups with
      | [] | [ _ ] -> []
      | _ ->
          let vals = List.map (fun (g, v) -> (g, Window.value_of v)) groups in
          let (gmax, vmax) =
            List.fold_left (fun (g0, v0) (g, v) ->
                if v > v0 then (g, v) else (g0, v0))
              (List.hd vals) (List.tl vals)
          in
          let vmin = List.fold_left (fun m (_, v) -> min m v) vmax vals in
          if vmax >= min_value && vmax > vmin *. min_ratio then
            [ (gmax, vmax, vmin *. min_ratio) ]
          else [])

let relabel r g =
  match (r.r_label_as, g) with
  | Some k, [ (_, v) ] -> [ (k, v) ]
  | _ -> g

let fire t r ~at ~window g value threshold =
  let e =
    { e_rule = r.r_name; e_at = at; e_window = window;
      e_labels = relabel r g; e_value = value; e_threshold = threshold }
  in
  t.fired <- e :: t.fired;
  (match Hashtbl.find_opt t.h_events_total r.r_name with
  | Some c -> Registry.Counter.inc c
  | None -> ());
  (match t.h_spans with
  | Some spans when Span.enabled spans ->
      let sp =
        Span.start spans ~at
          ~attrs:
            (("rule", r.r_name)
            :: ("value", Printf.sprintf "%g" value)
            :: ("threshold", Printf.sprintf "%g" threshold)
            :: e.e_labels)
          "health"
      in
      Span.force_sample sp;
      Span.finish spans ~at sp
  | _ -> ());
  if Recorder.enabled t.h_recorder then
    Recorder.record t.h_recorder ~at
      ~attrs:
        (("rule", r.r_name)
        :: ("value", Printf.sprintf "%g" value)
        :: e.e_labels)
      "health";
  t.on_fire e;
  e

let evaluate_window t (w : Window.window) =
  Registry.Counter.inc t.h_windows_total;
  let out = ref [] in
  List.iter
    (fun r ->
      let holding = evaluate t r w in
      let holding_groups = List.map (fun (g, _, _) -> g) holding in
      (* Edge-trigger: fire on rising edge only; a group re-arms after
         a window in which the condition is false. *)
      List.iter
        (fun (g, v, th) ->
          let key = (r.r_name, g) in
          if not (Hashtbl.mem t.active key) then begin
            Hashtbl.replace t.active key ();
            out := fire t r ~at:w.Window.w_until ~window:w.Window.w_seq g v th
                   :: !out
          end)
        holding;
      Hashtbl.iter
        (fun (rn, g) () ->
          if rn = r.r_name && not (List.mem g holding_groups) then
            Hashtbl.remove t.active (rn, g))
        (Hashtbl.copy t.active);
      match Hashtbl.find_opt t.h_active_g r.r_name with
      | Some gauge ->
          let n =
            Hashtbl.fold
              (fun (rn, _) () acc -> if rn = r.r_name then acc + 1 else acc)
              t.active 0
          in
          Registry.Gauge.set gauge (float_of_int n)
      | None -> ())
    t.h_rules;
  List.rev !out

let step t ~now =
  match Window.tick t.h_window ~now with
  | Some w -> evaluate_window t w
  | None -> []

let force_step t ~now = evaluate_window t (Window.close t.h_window ~now)

let event_to_json e =
  Json.Obj
    [
      ("rule", Json.Str e.e_rule);
      ("at", Json.Num e.e_at);
      ("window", Json.Num (float_of_int e.e_window));
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.e_labels));
      ("value", Json.Num e.e_value);
      ("threshold", Json.Num e.e_threshold);
    ]

let kind_to_string = function
  | Threshold { over } -> Printf.sprintf "threshold(value > %g)" over
  | Burn_rate { over; windows } ->
      Printf.sprintf "burn-rate(sum over %d windows > %g)" windows over
  | Quantile_skew { q_hi; q_lo; min_ratio; min_count } ->
      Printf.sprintf "quantile-skew(p%g > %gx p%g, min %d obs)" (q_hi *. 100.)
        min_ratio (q_lo *. 100.) min_count
  | Imbalance { min_ratio; min_value } ->
      Printf.sprintf "imbalance(max > %gx min, min %g)" min_ratio min_value
