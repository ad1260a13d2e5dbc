(* The observability layer (lib/obs): registry instrument semantics
   (bucket boundaries, label-set identity, reset, the enabled gate),
   deterministic snapshot ordering, the JSON emitter/parser round trip,
   the exporter round trip (prometheus = prometheus_of_series ∘ of_json
   ∘ json), and span collection (nesting, events, retention cap, the
   null span when disabled). *)

module R = Obs.Registry
module Span = Obs.Span
module Json = Obs.Json
module Export = Obs.Export

module Window = Obs.Window
module Health = Obs.Health
module Recorder = Obs.Recorder

let check = Alcotest.check

(* --- registry --- *)

let test_counter_basics () =
  let r = R.create () in
  let c = R.counter r "requests_total" in
  R.Counter.inc c;
  R.Counter.add c 4;
  check Alcotest.int "value" 5 (R.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Registry.Counter.add: negative increment")
    (fun () -> R.Counter.add c (-1));
  let g = R.gauge r "depth" in
  R.Gauge.set g 2.5;
  R.Gauge.add g (-1.);
  check (Alcotest.float 1e-9) "gauge" 1.5 (R.Gauge.value g)

let test_disabled_gate () =
  let r = R.create ~enabled:false () in
  let c = R.counter r "c_total" in
  let h = R.histogram r "h_seconds" in
  R.Counter.inc c;
  R.Histogram.observe h 0.5;
  check Alcotest.int "counter untouched" 0 (R.Counter.value c);
  check Alcotest.int "histogram untouched" 0 (R.Histogram.count h);
  R.set_enabled r true;
  R.Counter.inc c;
  R.Histogram.observe h 0.5;
  check Alcotest.int "counter counts once enabled" 1 (R.Counter.value c);
  check Alcotest.int "histogram counts once enabled" 1 (R.Histogram.count h)

let test_label_identity () =
  let r = R.create () in
  (* Same name + same label set (any order) is the same instrument. *)
  let a = R.counter r ~labels:[ ("x", "1"); ("y", "2") ] "c_total" in
  let b = R.counter r ~labels:[ ("y", "2"); ("x", "1") ] "c_total" in
  let other = R.counter r ~labels:[ ("x", "1"); ("y", "3") ] "c_total" in
  R.Counter.inc a;
  R.Counter.inc b;
  R.Counter.inc other;
  check Alcotest.int "shared series" 2 (R.Counter.value a);
  check Alcotest.int "distinct series" 1 (R.Counter.value other);
  (* Same name, different kind: refused. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Registry: c_total is a counter, not a gauge")
    (fun () -> ignore (R.gauge r "c_total"))

let test_histogram_buckets () =
  let r = R.create () in
  let h = R.histogram r ~buckets:[ 0.01; 0.1; 1. ] "lat_seconds" in
  (* le semantics: a value equal to a bound lands in that bucket. *)
  List.iter (R.Histogram.observe h) [ 0.005; 0.01; 0.05; 1.; 5. ];
  check Alcotest.int "count" 5 (R.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 6.065 (R.Histogram.sum h);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
    "cumulative buckets"
    [ (0.01, 2); (0.1, 3); (1., 4) ]
    (R.Histogram.buckets h);
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument
       "Obs.Registry: bad_seconds: buckets must be strictly increasing")
    (fun () -> ignore (R.histogram r ~buckets:[ 1.; 1. ] "bad_seconds"))

(* An observation allocates nothing: the sum lives unboxed in a
   one-cell float array. It was 2 words (a boxed float per new sum)
   while the sum was a mutable float field, which the always-on batch
   histogram paid on every flow. The values are constants, so no boxing
   at the call site hides in the figure. *)
let test_histogram_observe_alloc () =
  let r = R.create () in
  let h = R.histogram r ~buckets:[ 0.01; 0.1; 1. ] "alloc_seconds" in
  let observe () =
    R.Histogram.observe h 0.005;
    R.Histogram.observe h 0.05;
    R.Histogram.observe h 5.
  in
  observe ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    observe ()
  done;
  check (Alcotest.float 0.) "words per 3,000 observations" 0.
    (Gc.minor_words () -. before);
  check Alcotest.int "all counted" 3003 (R.Histogram.count h)

let test_reset () =
  let r = R.create () in
  let c = R.counter r "c_total" in
  let g = R.gauge r "g" in
  let h = R.histogram r "h_seconds" in
  R.counter_fn r "live_total" (fun () -> 7);
  R.Counter.inc c;
  R.Gauge.set g 3.;
  R.Histogram.observe h 0.2;
  R.reset r;
  check Alcotest.int "counter zeroed" 0 (R.Counter.value c);
  check (Alcotest.float 1e-9) "gauge zeroed" 0. (R.Gauge.value g);
  check Alcotest.int "histogram zeroed" 0 (R.Histogram.count h);
  (* Callback series sample live state; reset does not touch them. *)
  let live =
    List.find (fun s -> s.R.name = "live_total") (R.snapshot r)
  in
  check Alcotest.bool "callback survives reset" true
    (live.R.value = R.Counter_v 7)

let test_snapshot_ordering () =
  let r = R.create () in
  ignore (R.counter r ~labels:[ ("host", "b") ] "z_total");
  ignore (R.counter r ~labels:[ ("host", "a") ] "z_total");
  ignore (R.gauge r "a_gauge");
  R.gauge_fn r "m_fn" (fun () -> 1.);
  let names =
    List.map
      (fun s ->
        s.R.name
        ^ String.concat "" (List.map (fun (k, v) -> "{" ^ k ^ "=" ^ v ^ "}")
                              s.R.labels))
      (R.snapshot r)
  in
  check
    (Alcotest.list Alcotest.string)
    "sorted by name then labels"
    [ "a_gauge"; "m_fn"; "z_total{host=a}"; "z_total{host=b}" ]
    names

(* --- JSON emitter/parser --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\n\t\xe2\x9c\x93");
        ("n", Json.Num 0.00012000000000000002);
        ("i", Json.Num 42.);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Num (-1.5) ]);
        ("o", Json.Obj []);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check Alcotest.bool "compact round trip" true (v = v')
  | Error e -> Alcotest.failf "compact reparse: %s" e);
  (match Json.of_string (Json.to_string ~pretty:true v) with
  | Ok v' -> check Alcotest.bool "pretty round trip" true (v = v')
  | Error e -> Alcotest.failf "pretty reparse: %s" e);
  (match Json.of_string "{\"u\": \"\\u2713\", \"e\": 1.5e-3}" with
  | Ok v ->
      check (Alcotest.option Alcotest.string) "unicode escape"
        (Some "\xe2\x9c\x93")
        (Option.bind (Json.member "u" v) Json.to_str);
      check
        (Alcotest.option (Alcotest.float 1e-12))
        "exponent" (Some 0.0015)
        (Option.bind (Json.member "e" v) Json.to_float)
  | Error e -> Alcotest.failf "standard JSON: %s" e);
  match Json.of_string "{\"a\": }" with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error _ -> ()

(* --- exporters --- *)

let sample_registry () =
  let r = R.create () in
  let c = R.counter r ~help:"Flows seen." ~labels:[ ("controller", "0") ]
      "flows_total"
  in
  R.Counter.add c 12;
  let g = R.gauge r "pending" in
  R.Gauge.set g 3.;
  let h =
    R.histogram r ~help:"Setup latency." ~buckets:[ 0.001; 0.01 ]
      "setup_seconds"
  in
  R.Histogram.observe h 0.0005;
  R.Histogram.observe h 0.02;
  r

let test_prometheus_format () =
  let r = sample_registry () in
  let text = Export.prometheus r in
  let expect_lines =
    [
      "# HELP flows_total Flows seen.";
      "# TYPE flows_total counter";
      "flows_total{controller=\"0\"} 12";
      "# TYPE pending gauge";
      "pending 3";
      "# HELP setup_seconds Setup latency.";
      "# TYPE setup_seconds histogram";
      "setup_seconds_bucket{le=\"0.001\"} 1";
      "setup_seconds_bucket{le=\"0.01\"} 1";
      "setup_seconds_bucket{le=\"+Inf\"} 2";
      "setup_seconds_sum 0.0205";
      "setup_seconds_count 2";
    ]
  in
  List.iter
    (fun line ->
      check Alcotest.bool (Printf.sprintf "has %S" line) true
        (List.mem line (String.split_on_char '\n' text)))
    expect_lines

let test_export_roundtrip () =
  let r = sample_registry () in
  let reparsed =
    match Json.of_string (Export.json_string r) with
    | Error e -> Alcotest.failf "snapshot reparse: %s" e
    | Ok j -> (
        match Export.of_json j with
        | Error e -> Alcotest.failf "snapshot schema: %s" e
        | Ok series -> series)
  in
  check Alcotest.string "prometheus byte-identical through JSON"
    (Export.prometheus r)
    (Export.prometheus_of_series reparsed);
  match Export.of_json (Json.Obj [ ("metrics", Json.Num 1.) ]) with
  | Ok _ -> Alcotest.fail "bad snapshot accepted"
  | Error _ -> ()

(* --- spans --- *)

let test_span_tree () =
  let t = Span.create () in
  let root = Span.start t ~at:1.0 ~attrs:[ ("flow", "f") ] "flow-setup" in
  check Alcotest.bool "live" true (Span.is_live root);
  let q = Span.start t ~at:1.1 ~parent:root ~attrs:[ ("host", "h") ] "query" in
  Span.event q ~at:1.2 "retry";
  Span.set_attr q "outcome" "answered";
  Span.finish t ~at:1.3 q;
  Span.set_attr root "decision" "pass";
  Span.finish t ~at:1.5 root;
  (match Span.finished t with
  | [ sp ] ->
      check Alcotest.string "name" "flow-setup" (Span.name sp);
      check (Alcotest.option (Alcotest.float 1e-9)) "duration" (Some 0.5)
        (Span.duration sp);
      check Alcotest.bool "attrs" true
        (List.mem ("decision", "pass") (Span.attrs sp));
      (match Span.children sp with
      | [ child ] ->
          check Alcotest.string "child" "query" (Span.name child);
          check Alcotest.int "child events" 1
            (List.length (Span.events child))
      | l -> Alcotest.failf "expected 1 child, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l));
  (* Export shape: {"spans": [...], "dropped": n}. *)
  let j = Span.export t in
  check Alcotest.int "exported spans" 1
    (List.length (Json.to_list (Option.get (Json.member "spans" j))));
  check
    (Alcotest.option Alcotest.int)
    "dropped" (Some 0)
    (Option.bind (Json.member "dropped" j) Json.to_int);
  (* The JSON is parseable by our own parser. *)
  match Json.of_string (Json.to_string ~pretty:true j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "span export reparse: %s" e

(* The collector holds exactly its capacity, the newest roots. *)
let test_span_retention () =
  List.iter
    (fun cap ->
      let t = Span.create ~capacity:cap () in
      for i = 1 to cap + 2 do
        let sp = Span.start t ~at:(float_of_int i) (string_of_int i) in
        Span.finish t ~at:(float_of_int i +. 0.5) sp
      done;
      let finished = Span.finished t in
      check Alcotest.int "cap respected" cap (List.length finished);
      check Alcotest.(list string) "the newest, oldest first"
        (List.init cap (fun i -> string_of_int (i + 3)))
        (List.map Span.name finished);
      check Alcotest.int "lifetime count" (cap + 2) (Span.count t);
      check Alcotest.int "capacity drops" 2 (Span.capacity_dropped t);
      check
        (Alcotest.option Alcotest.int)
        "dropped counted" (Some 2)
        (Option.bind (Json.member "dropped" (Span.export t)) Json.to_int))
    [ 3; 8 ]

let test_span_sampling () =
  let t = Span.create () in
  Span.set_sample_rate t 0.;
  (* An unsampled root behaves normally while open but is discarded —
     and counted apart from capacity drops — at finish. *)
  let sp = Span.start t ~at:0. ~sampled:false "flow-setup" in
  check Alcotest.bool "unsampled root stays live" true (Span.is_live sp);
  check Alcotest.bool "not sampled" false (Span.is_sampled sp);
  let q = Span.start t ~at:0.1 ~parent:sp "query" in
  Span.finish t ~at:0.2 q;
  Span.finish t ~at:0.3 sp;
  check Alcotest.int "discarded" 0 (List.length (Span.finished t));
  check Alcotest.int "sampled_out counted" 1 (Span.sampled_out t);
  check Alcotest.int "kept count untouched" 0 (Span.count t);
  (* force_sample revives the head decision before finish. *)
  let sp2 = Span.start t ~at:1. ~sampled:false "flow-setup" in
  Span.force_sample sp2;
  check Alcotest.bool "revived" true (Span.is_sampled sp2);
  Span.finish t ~at:1.5 sp2;
  check Alcotest.int "kept" 1 (List.length (Span.finished t));
  check Alcotest.int "sampled_out unchanged" 1 (Span.sampled_out t);
  (* Export reports the two drop causes apart. *)
  let j = Span.export t in
  check (Alcotest.option Alcotest.int) "export sampled_out" (Some 1)
    (Option.bind (Json.member "sampled_out" j) Json.to_int);
  check (Alcotest.option Alcotest.int) "export dropped" (Some 0)
    (Option.bind (Json.member "dropped" j) Json.to_int)

let test_span_drop_accounting () =
  (* Capacity drops and sampling drops land in separate fields. *)
  let t = Span.create ~capacity:2 () in
  for i = 1 to 4 do
    let sp = Span.start t ~at:(float_of_int i) "s" in
    Span.finish t ~at:(float_of_int i +. 0.5) sp
  done;
  let sp = Span.start t ~at:5. ~sampled:false "s" in
  Span.finish t ~at:5.5 sp;
  check Alcotest.int "capacity drops" 2 (Span.capacity_dropped t);
  check Alcotest.int "sampling drops" 1 (Span.sampled_out t);
  let j = Span.export t in
  check (Alcotest.option Alcotest.int) "export dropped" (Some 2)
    (Option.bind (Json.member "dropped" j) Json.to_int);
  check (Alcotest.option Alcotest.int) "export sampled_out" (Some 1)
    (Option.bind (Json.member "sampled_out" j) Json.to_int);
  Span.clear t;
  check Alcotest.int "clear resets sampled_out" 0 (Span.sampled_out t)

let test_should_sample () =
  let t = Span.create () in
  check Alcotest.bool "rate 1 keeps all" true (Span.should_sample t ~id:"x");
  Span.set_sample_rate t 0.;
  check Alcotest.bool "rate 0 keeps none" false (Span.should_sample t ~id:"x");
  Span.set_sample_rate t 0.5;
  (* Deterministic: same id, same coin. *)
  let a = Span.should_sample t ~id:"abcd1234deadbeef" in
  check Alcotest.bool "deterministic" a
    (Span.should_sample t ~id:"abcd1234deadbeef");
  Alcotest.check_raises "rate outside [0,1] rejected"
    (Invalid_argument "Obs.Span.set_sample_rate: rate must be in [0, 1]")
    (fun () -> Span.set_sample_rate t 1.5)

let test_trace_context () =
  let module Tc = Obs.Trace_context in
  let ctx = Tc.make ~seed:"tcp 10.0.0.1:50000 -> 10.0.0.2:80" ~seq:0 ~sampled:true in
  check Alcotest.int "trace id is 16 hex" 16 (String.length ctx.Tc.trace_id);
  check Alcotest.int "span id is 8 hex" 8 (String.length ctx.Tc.span_id);
  (* Deterministic: same seed and seq reproduce the ids. *)
  let ctx' = Tc.make ~seed:"tcp 10.0.0.1:50000 -> 10.0.0.2:80" ~seq:0 ~sampled:true in
  check Alcotest.bool "deterministic ids" true (ctx = ctx');
  let other = Tc.make ~seed:"tcp 10.0.0.1:50000 -> 10.0.0.2:80" ~seq:1 ~sampled:true in
  check Alcotest.bool "seq disambiguates" false
    (String.equal ctx.Tc.trace_id other.Tc.trace_id);
  (* Children share the trace id, get fresh span ids, deterministically. *)
  let c1 = Tc.child ctx 1 and c2 = Tc.child ctx 2 in
  check Alcotest.string "child keeps trace id" ctx.Tc.trace_id c1.Tc.trace_id;
  check Alcotest.bool "children differ" false
    (String.equal c1.Tc.span_id c2.Tc.span_id);
  check Alcotest.bool "child deterministic" true (c1 = Tc.child ctx 1);
  (* Wire round trip, both sampling flags. *)
  List.iter
    (fun sampled ->
      let ctx = { ctx with Tc.sampled } in
      match Tc.of_string (Tc.to_string ctx) with
      | Some back -> check Alcotest.bool "round trip" true (ctx = back)
      | None -> Alcotest.failf "no parse: %s" (Tc.to_string ctx))
    [ true; false ];
  (* Malformed tokens are rejected, not mangled. *)
  List.iter
    (fun s ->
      check Alcotest.bool ("rejects " ^ s) true (Tc.of_string s = None))
    [
      ""; "nothex"; "0123456789abcdef-01234567-x";
      "0123456789abcdef-0123456-s"; "0123456789abcde-01234567-s";
      "0123456789ABCDEF-01234567-s"; "0123456789abcdef-01234567-s-extra";
    ];
  (* unit_fraction lands in [0, 1). *)
  let f = Tc.unit_fraction ctx.Tc.trace_id in
  check Alcotest.bool "unit fraction in range" true (f >= 0. && f < 1.)

let test_span_disabled () =
  let t = Span.create ~enabled:false () in
  let sp = Span.start t ~at:0. "flow-setup" in
  check Alcotest.bool "null span" false (Span.is_live sp);
  (* Every operation on the null span is a no-op. *)
  Span.event sp ~at:0.1 "e";
  Span.set_attr sp "k" "v";
  let child = Span.start t ~at:0.2 ~parent:sp "q" in
  check Alcotest.bool "child of null is null" false (Span.is_live child);
  Span.finish t ~at:0.3 sp;
  check Alcotest.int "nothing retained" 0 (List.length (Span.finished t))

(* --- quantile estimation --- *)

let test_estimate_quantile () =
  (* 10 observations: 2 <= 0.01, 6 more <= 0.1 (8 cum), 2 more <= 1. *)
  let buckets = [ (0.01, 2); (0.1, 8); (1., 10) ] in
  let q p = R.estimate_quantile ~buckets ~count:10 p in
  check (Alcotest.option (Alcotest.float 1e-9)) "p50 interpolates"
    (Some (0.01 +. ((0.1 -. 0.01) *. (3. /. 6.))))
    (q 0.5);
  check (Alcotest.option (Alcotest.float 1e-9)) "p10 in first bucket"
    (Some 0.005) (q 0.1);
  check (Alcotest.option (Alcotest.float 1e-9)) "p100 is last bound" (Some 1.)
    (q 1.0);
  (* Rank past every finite bound clamps to the highest finite bound. *)
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "overflow clamps" (Some 0.1)
    (R.estimate_quantile ~buckets:[ (0.01, 2); (0.1, 8) ] ~count:10 0.99);
  check (Alcotest.option (Alcotest.float 1e-9)) "empty" None
    (R.estimate_quantile ~buckets ~count:0 0.5);
  check (Alcotest.option (Alcotest.float 1e-9)) "out of range" None (q 1.5)

(* --- windows --- *)

let test_window_deltas () =
  let r = R.create () in
  let c = R.counter r "c_total" in
  let g = R.gauge r "g_depth" in
  let h = R.histogram r ~buckets:[ 0.01; 0.1 ] "h_seconds" in
  R.Counter.add c 3;
  let w = Window.create ~interval:1. ~now:0. r in
  (* Pre-existing counts are the baseline, not window content. *)
  R.Counter.add c 4;
  R.Gauge.set g 7.;
  R.Histogram.observe h 0.005;
  R.Histogram.observe h 0.05;
  let w1 = Window.close w ~now:2. in
  check Alcotest.int "seq" 1 w1.Window.w_seq;
  (match Window.find w1 ~metric:"c_total" ~labels:[] with
  | Some (Window.W_counter { delta; rate }) ->
      check Alcotest.int "delta excludes baseline" 4 delta;
      check (Alcotest.float 1e-9) "rate over 2s span" 2. rate
  | _ -> Alcotest.fail "no counter wvalue");
  (match Window.find w1 ~metric:"g_depth" ~labels:[] with
  | Some (Window.W_gauge v) -> check (Alcotest.float 1e-9) "gauge" 7. v
  | _ -> Alcotest.fail "no gauge wvalue");
  (match Window.find w1 ~metric:"h_seconds" ~labels:[] with
  | Some (Window.W_histogram { buckets; count; _ }) ->
      check Alcotest.int "hist count" 2 count;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "windowed cumulative buckets"
        [ (0.01, 1); (0.1, 2) ]
        buckets
  | _ -> Alcotest.fail "no histogram wvalue");
  (* The next window starts from the new baseline: no change, zero
     delta; the gauge is still its level. *)
  let w2 = Window.close w ~now:3. in
  (match Window.find w2 ~metric:"c_total" ~labels:[] with
  | Some (Window.W_counter { delta; _ }) ->
      check Alcotest.int "quiet window" 0 delta
  | _ -> Alcotest.fail "no counter wvalue");
  check Alcotest.int "two closed" 2 (Window.closed w)

let test_window_tick_and_ring () =
  let r = R.create () in
  let w = Window.create ~depth:3 ~interval:1. ~now:0. r in
  let w8 = Window.create ~depth:8 ~interval:1. ~now:0. r in
  for i = 1 to 10 do
    ignore (Window.close w8 ~now:(float_of_int i))
  done;
  check Alcotest.(list int) "ring holds exactly its depth, newest first"
    [ 10; 9; 8; 7; 6; 5; 4; 3 ]
    (List.map (fun win -> win.Window.w_seq) (Window.windows w8));
  check Alcotest.bool "early tick is a no-op" true
    (Window.tick w ~now:0.5 = None);
  (* A stalled driver produces one long window, not a burst. *)
  (match Window.tick w ~now:5.5 with
  | Some win ->
      check (Alcotest.float 1e-9) "long window" 5.5
        (win.Window.w_until -. win.Window.w_from)
  | None -> Alcotest.fail "tick should close");
  for i = 0 to 4 do
    ignore (Window.close w ~now:(6. +. float_of_int i))
  done;
  check Alcotest.int "lifetime count" 6 (Window.closed w);
  check Alcotest.int "ring keeps depth" 3 (List.length (Window.windows w));
  match Window.windows w with
  | newest :: _ -> check Alcotest.int "newest first" 6 newest.Window.w_seq
  | [] -> Alcotest.fail "empty ring"

(* Callback series are sampled when the window closes, on the caller's
   clock — not only at export time. *)
let test_window_samples_callbacks () =
  let r = R.create () in
  let level = ref 1. and hits = ref 0 in
  R.gauge_fn r "cb_depth" (fun () -> !level);
  R.counter_fn r "cb_total" (fun () -> !hits);
  let w = Window.create ~interval:1. ~now:0. r in
  level := 42.;
  hits := 5;
  let w1 = Window.close w ~now:1. in
  (match Window.find w1 ~metric:"cb_depth" ~labels:[] with
  | Some (Window.W_gauge v) ->
      check (Alcotest.float 1e-9) "gauge_fn sampled at close" 42. v
  | _ -> Alcotest.fail "no callback gauge");
  (match Window.find w1 ~metric:"cb_total" ~labels:[] with
  | Some (Window.W_counter { delta; _ }) ->
      check Alcotest.int "counter_fn delta vs baseline" 5 delta
  | _ -> Alcotest.fail "no callback counter");
  (* Between closes the window holds the close-time value even if the
     callback has moved on. *)
  level := 99.;
  match Window.find w1 ~metric:"cb_depth" ~labels:[] with
  | Some (Window.W_gauge v) ->
      check (Alcotest.float 1e-9) "window value is frozen" 42. v
  | _ -> Alcotest.fail "no callback gauge"

let test_window_grouped () =
  let r = R.create () in
  let inc ~shard ~src n =
    R.Counter.add
      (R.counter r
         ~labels:[ ("shard", shard); ("src", src) ]
         "pkt_total")
      n
  in
  let w = Window.create ~interval:1. ~now:0. r in
  inc ~shard:"0" ~src:"a" 3;
  inc ~shard:"1" ~src:"a" 4;
  inc ~shard:"1" ~src:"b" 5;
  let win = Window.close w ~now:1. in
  (* Grouping by src sums the shards away. *)
  (match Window.grouped win ~metric:"pkt_total" ~by:[ "src" ] with
  | [
      (la, Window.W_counter { delta = da; _ });
      (lb, Window.W_counter { delta = db; _ });
    ] ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "group a" [ ("src", "a") ] la;
      check Alcotest.int "a merged" 7 da;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "group b" [ ("src", "b") ] lb;
      check Alcotest.int "b alone" 5 db
  | gs -> Alcotest.failf "expected 2 groups, got %d" (List.length gs));
  match Window.grouped win ~metric:"pkt_total" ~by:[] with
  | [ ([], Window.W_counter { delta; _ }) ] ->
      check Alcotest.int "everything merged" 12 delta
  | _ -> Alcotest.fail "expected one catch-all group"

(* --- health engine --- *)

let surge_rule =
  Health.rule ~name:"test_surge" ~help:"rate over 10/s" ~metric:"pkt_total"
    ~group_by:[ "src" ] ~label_as:"host"
    (Health.Threshold { over = 10. })

let test_health_edge_trigger () =
  let r = R.create () in
  let c = R.counter r ~labels:[ ("src", "a") ] "pkt_total" in
  let w = Window.create ~interval:1. ~now:0. r in
  let h = Health.create ~rules:[ surge_rule ] ~registry:r w in
  let fired = ref [] in
  Health.set_on_fire h (fun e -> fired := e :: !fired);
  (* Quiet window: nothing fires. *)
  check Alcotest.int "quiet" 0 (List.length (Health.step h ~now:1.));
  (* Surge: 100/s fires once, with the relabelled group. *)
  R.Counter.add c 100;
  (match Health.step h ~now:2. with
  | [ e ] ->
      check Alcotest.string "rule" "test_surge" e.Health.e_rule;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "label_as rename"
        [ ("host", "a") ]
        e.Health.e_labels;
      check (Alcotest.float 1e-9) "value" 100. e.Health.e_value;
      check (Alcotest.float 1e-9) "threshold" 10. e.Health.e_threshold
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
  check Alcotest.int "on_fire ran" 1 (List.length !fired);
  (* Sustained: the same (rule, group) does not re-fire... *)
  R.Counter.add c 100;
  check Alcotest.int "sustained is silent" 0
    (List.length (Health.step h ~now:3.));
  check Alcotest.int "still active" 1 (List.length (Health.active h));
  (* ...until a quiet window re-arms it. *)
  check Alcotest.int "re-arm window" 0 (List.length (Health.step h ~now:4.));
  check Alcotest.int "re-armed" 0 (List.length (Health.active h));
  R.Counter.add c 100;
  check Alcotest.int "fires again" 1 (List.length (Health.step h ~now:5.));
  check Alcotest.int "lifetime events" 2 (List.length (Health.events h))

let test_health_exports () =
  let r = R.create () in
  let c = R.counter r ~labels:[ ("src", "a") ] "pkt_total" in
  let rec_ = Recorder.create () in
  let w = Window.create ~interval:1. ~now:0. r in
  let h = Health.create ~rules:[ surge_rule ] ~recorder:rec_ ~registry:r w in
  R.Counter.add c 100;
  ignore (Health.force_step h ~now:1.);
  (* The health metrics move... *)
  let v name labels =
    match
      List.find_opt
        (fun (s : R.series) -> s.R.name = name && s.R.labels = labels)
        (R.snapshot r)
    with
    | Some { R.value = R.Counter_v n; _ } -> float_of_int n
    | Some { R.value = R.Gauge_v g; _ } -> g
    | _ -> Alcotest.failf "series %s not found" name
  in
  check (Alcotest.float 1e-9) "windows_total" 1.
    (v "identxx_health_windows_total" []);
  check (Alcotest.float 1e-9) "events_total" 1.
    (v "identxx_health_events_total" [ ("rule", "test_surge") ]);
  check (Alcotest.float 1e-9) "active gauge" 1.
    (v "identxx_health_active" [ ("rule", "test_surge") ]);
  (* ...and the recorder holds the health event itself. *)
  match Recorder.events rec_ with
  | [ e ] ->
      check Alcotest.string "recorder kind" "health" e.Recorder.ev_kind;
      check
        (Alcotest.option Alcotest.string)
        "recorder rule attr" (Some "test_surge")
        (List.assoc_opt "rule" e.Recorder.ev_attrs)
  | es -> Alcotest.failf "expected 1 recorder event, got %d" (List.length es)

(* --- flight recorder --- *)

let test_recorder_ring () =
  List.iter
    (fun cap ->
      let t = Recorder.create ~capacity:cap ~enabled:true () in
      for i = 1 to 10 do
        Recorder.record t ~at:(float_of_int i) "e"
      done;
      check Alcotest.int "count capped" cap (Recorder.count t);
      check Alcotest.int "dropped" (10 - cap) (Recorder.dropped t);
      check Alcotest.(list (float 1e-9)) "the newest, newest first"
        (List.init cap (fun i -> float_of_int (10 - i)))
        (List.map (fun e -> e.Recorder.ev_at) (Recorder.events t)))
    [ 4; 8 ];
  (* The null recorder swallows everything, even set_enabled. *)
  Recorder.set_enabled Recorder.null true;
  check Alcotest.bool "null stays disabled" false (Recorder.enabled Recorder.null);
  Recorder.record Recorder.null ~at:0. "e";
  check Alcotest.int "null retains nothing" 0 (Recorder.count Recorder.null)

let test_recorder_dump_canonical () =
  (* Two recorders fed the same events in different arrival orders dump
     byte-identically: the dump sorts by (at, kind, attrs). *)
  let evs =
    [
      (0.2, "query-sent", [ ("flow", "f1"); ("host", "a") ]);
      (0.1, "packet-in", [ ("flow", "f1") ]);
      (0.2, "query-sent", [ ("flow", "f1"); ("host", "b") ]);
      (0.3, "decision", [ ("flow", "f1"); ("verdict", "pass") ]);
    ]
  in
  let feed order =
    let t = Recorder.create ~enabled:true () in
    List.iter (fun (at, kind, attrs) -> Recorder.record t ~at ~attrs kind) order;
    Recorder.dump ~reason:"test" ~at:1. t
  in
  let a = feed evs and b = feed (List.rev evs) in
  check Alcotest.string "canonical dump" a b;
  let lines = String.split_on_char '\n' (String.trim a) in
  check Alcotest.int "header + events" 5 (List.length lines);
  check Alcotest.string "header"
    "{\"kind\":\"flight-recorder\",\"reason\":\"test\",\"at\":1,\"events\":4,\"dropped\":0}"
    (List.hd lines)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter and gauge basics" `Quick
            test_counter_basics;
          Alcotest.test_case "disabled gate" `Quick test_disabled_gate;
          Alcotest.test_case "label-set identity" `Quick test_label_identity;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram observe allocates nothing" `Quick
            test_histogram_observe_alloc;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "snapshot ordering" `Quick test_snapshot_ordering;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_roundtrip ]);
      ( "export",
        [
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "json round trip" `Quick test_export_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "tree, attrs, events" `Quick test_span_tree;
          Alcotest.test_case "retention cap" `Quick test_span_retention;
          Alcotest.test_case "head sampling" `Quick test_span_sampling;
          Alcotest.test_case "drop accounting" `Quick test_span_drop_accounting;
          Alcotest.test_case "should_sample" `Quick test_should_sample;
          Alcotest.test_case "disabled collector" `Quick test_span_disabled;
        ] );
      ( "trace-context",
        [ Alcotest.test_case "ids and wire form" `Quick test_trace_context ] );
      ( "quantile",
        [ Alcotest.test_case "bucket estimation" `Quick test_estimate_quantile ]
      );
      ( "window",
        [
          Alcotest.test_case "counter/gauge/histogram deltas" `Quick
            test_window_deltas;
          Alcotest.test_case "tick and ring retention" `Quick
            test_window_tick_and_ring;
          Alcotest.test_case "callback series sampled at close" `Quick
            test_window_samples_callbacks;
          Alcotest.test_case "grouped label aggregation" `Quick
            test_window_grouped;
        ] );
      ( "health",
        [
          Alcotest.test_case "edge-triggered firing" `Quick
            test_health_edge_trigger;
          Alcotest.test_case "metrics, recorder, on_fire exports" `Quick
            test_health_exports;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring and null" `Quick test_recorder_ring;
          Alcotest.test_case "canonical dump" `Quick
            test_recorder_dump_canonical;
        ] );
    ]
