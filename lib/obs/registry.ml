type labels = (string * string) list

module Counter = struct
  type t = { on : bool ref; mutable v : int }

  let inc c = if !(c.on) then c.v <- c.v + 1

  let add c n =
    if n < 0 then invalid_arg "Obs.Registry.Counter.add: negative increment";
    if !(c.on) then c.v <- c.v + n

  let value c = c.v
end

module Gauge = struct
  type t = { on : bool ref; mutable v : float }

  let set g v = if !(g.on) then g.v <- v
  let add g v = if !(g.on) then g.v <- g.v +. v
  let value g = g.v
end

module Histogram = struct
  type t = {
    on : bool ref;
    les : float array;  (* finite upper bounds, strictly increasing *)
    counts : int array;  (* per-bucket (non-cumulative); +Inf at the end *)
    sum : float array;
        (* One cell: a float array holds its float unboxed, where a
           mutable float field would box every new sum. *)
    mutable count : int;
  }

  let observe h v =
    if !(h.on) then begin
      let n = Array.length h.les in
      (* Small fixed bucket array: a linear scan is branch-predictable
         and allocation-free. *)
      let i = ref 0 in
      while !i < n && v > h.les.(!i) do
        incr i
      done;
      h.counts.(!i) <- h.counts.(!i) + 1;
      h.sum.(0) <- h.sum.(0) +. v;
      h.count <- h.count + 1
    end

  let count h = h.count
  let sum h = h.sum.(0)

  let buckets h =
    let acc = ref 0 in
    Array.to_list
      (Array.mapi
         (fun i le ->
           acc := !acc + h.counts.(i);
           (le, !acc))
         h.les)
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t
  | I_counter_fn of (unit -> int)
  | I_gauge_fn of (unit -> float)

type metric = {
  m_name : string;
  m_help : string;
  m_labels : labels;
  mutable m_instrument : instrument;
}

type t = {
  on : bool ref;
  tbl : (string, metric) Hashtbl.t;  (* keyed by name + encoded labels *)
  kinds : (string, string) Hashtbl.t;
      (* name -> kind: a metric name carries ONE # TYPE in the
         exposition, so every label set under it must agree on kind. *)
}

let create ?(enabled = true) () =
  { on = ref enabled; tbl = Hashtbl.create 64; kinds = Hashtbl.create 64 }
let enabled t = !(t.on)
let set_enabled t v = t.on := v

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m.m_instrument with
      | I_counter c -> c.Counter.v <- 0
      | I_gauge g -> g.Gauge.v <- 0.
      | I_histogram h ->
          Array.fill h.Histogram.counts 0 (Array.length h.Histogram.counts) 0;
          h.Histogram.sum.(0) <- 0.;
          h.Histogram.count <- 0
      | I_counter_fn _ | I_gauge_fn _ -> ())
    t.tbl

(* Prometheus-compatible identifiers, checked at registration so a typo
   fails fast rather than producing an unscrapable exposition. *)
let valid_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let valid_label_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let normalize_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf "Obs.Registry: bad label name %S on metric %s" k name))
    labels;
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let series_key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function
  | I_counter _ | I_counter_fn _ -> "counter"
  | I_gauge _ | I_gauge_fn _ -> "gauge"
  | I_histogram _ -> "histogram"

let register t ~help ~labels name make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs.Registry: bad metric name %S" name);
  let labels = normalize_labels name labels in
  let key = series_key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
      let m =
        { m_name = name; m_help = help; m_labels = labels; m_instrument = make () }
      in
      let kind = kind_name m.m_instrument in
      (match Hashtbl.find_opt t.kinds name with
      | Some k0 when k0 <> kind ->
          invalid_arg
            (Printf.sprintf "Obs.Registry: %s is a %s, not a %s" name k0 kind)
      | Some _ -> ()
      | None -> Hashtbl.add t.kinds name kind);
      Hashtbl.add t.tbl key m;
      m

let mismatch name ~wanted ~got =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %s is a %s, not a %s" name (kind_name got)
       wanted)

let counter t ?(help = "") ?(labels = []) name =
  let m =
    register t ~help ~labels name (fun () ->
        I_counter { Counter.on = t.on; v = 0 })
  in
  match m.m_instrument with
  | I_counter c -> c
  | got -> mismatch name ~wanted:"counter" ~got

let gauge t ?(help = "") ?(labels = []) name =
  let m =
    register t ~help ~labels name (fun () -> I_gauge { Gauge.on = t.on; v = 0. })
  in
  match m.m_instrument with
  | I_gauge g -> g
  | got -> mismatch name ~wanted:"gauge" ~got

let default_latency_buckets =
  [ 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2;
    5e-2; 1e-1 ]

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets)
    name =
  let check_buckets () =
    if buckets = [] then
      invalid_arg (Printf.sprintf "Obs.Registry: %s: empty bucket list" name);
    let rec increasing = function
      | a :: (b :: _ as rest) -> a < b && increasing rest
      | _ -> true
    in
    if not (increasing buckets) then
      invalid_arg
        (Printf.sprintf "Obs.Registry: %s: buckets must be strictly increasing"
           name)
  in
  let m =
    register t ~help ~labels name (fun () ->
        check_buckets ();
        let les = Array.of_list buckets in
        I_histogram
          {
            Histogram.on = t.on;
            les;
            counts = Array.make (Array.length les + 1) 0;
            sum = [| 0. |];
            count = 0;
          })
  in
  match m.m_instrument with
  | I_histogram h -> h
  | got -> mismatch name ~wanted:"histogram" ~got

let register_fn t ~help ~labels name make replace =
  let m = register t ~help ~labels name make in
  (* Callback series are replaceable: the closure captures state that a
     re-created subsystem (e.g. a rebuilt cache) must re-bind. *)
  match replace m.m_instrument with
  | Some instrument -> m.m_instrument <- instrument
  | None -> mismatch name ~wanted:"callback" ~got:m.m_instrument

let counter_fn t ?(help = "") ?(labels = []) name f =
  register_fn t ~help ~labels name
    (fun () -> I_counter_fn f)
    (function I_counter_fn _ -> Some (I_counter_fn f) | _ -> None)

let gauge_fn t ?(help = "") ?(labels = []) name f =
  register_fn t ~help ~labels name
    (fun () -> I_gauge_fn f)
    (function I_gauge_fn _ -> Some (I_gauge_fn f) | _ -> None)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { buckets : (float * int) list; sum : float; count : int }

type series = { name : string; help : string; labels : labels; value : value }

let estimate_quantile ~buckets ~count q =
  if count <= 0 || q < 0. || q > 1. then None
  else
    let rank = q *. float_of_int count in
    (* Linear interpolation inside the first bucket whose cumulative
       count reaches the rank (the Prometheus histogram_quantile
       estimator). A rank past every finite bound lands in the +Inf
       bucket, where the best point estimate the layout supports is the
       highest finite bound. *)
    let rec go lower prev_cum = function
      | [] -> Some lower
      | (bound, cum) :: rest ->
          if float_of_int cum >= rank && cum > prev_cum then
            let frac =
              (rank -. float_of_int prev_cum) /. float_of_int (cum - prev_cum)
            in
            Some (lower +. ((bound -. lower) *. frac))
          else go bound cum rest
    in
    go 0. 0 buckets

let snapshot t =
  let rec compare_labels a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | (ka, va) :: ra, (kb, vb) :: rb ->
        let c = String.compare ka kb in
        if c <> 0 then c
        else
          let c = String.compare va vb in
          if c <> 0 then c else compare_labels ra rb
  in
  Hashtbl.fold
    (fun _ m acc ->
      let value =
        match m.m_instrument with
        | I_counter c -> Counter_v c.Counter.v
        | I_counter_fn f -> Counter_v (f ())
        | I_gauge g -> Gauge_v g.Gauge.v
        | I_gauge_fn f -> Gauge_v (f ())
        | I_histogram h ->
            Histogram_v
              {
                buckets = Histogram.buckets h;
                sum = Histogram.sum h;
                count = h.Histogram.count;
              }
      in
      { name = m.m_name; help = m.m_help; labels = m.m_labels; value } :: acc)
    t.tbl []
  |> List.sort (fun a b ->
         let c = String.compare a.name b.name in
         if c <> 0 then c else compare_labels a.labels b.labels)
