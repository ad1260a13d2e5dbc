type wvalue =
  | W_counter of { delta : int; rate : float }
  | W_gauge of float
  | W_histogram of { buckets : (float * int) list; sum : float; count : int }

type wseries = {
  ws_name : string;
  ws_labels : Registry.labels;
  ws_value : wvalue;
}

type window = {
  w_seq : int;
  w_from : float;
  w_until : float;
  w_series : wseries list;
}

type t = {
  registry : Registry.t;
  interval : float;
  depth : int;
  mutable opened_at : float;
  mutable baseline : Registry.series list;
  ring : window Queue.t; (* oldest first, at most [depth] *)
  mutable closed : int;
}

let create ?(depth = 64) ~interval ~now registry =
  if interval <= 0. then invalid_arg "Window.create: interval must be > 0";
  if depth < 1 then invalid_arg "Window.create: depth must be >= 1";
  {
    registry;
    interval;
    depth;
    opened_at = now;
    baseline = Registry.snapshot registry;
    ring = Queue.create ();
    closed = 0;
  }

let windows t = Queue.fold (fun acc w -> w :: acc) [] t.ring
let closed t = t.closed

(* Subtract the previous snapshot's cumulative histogram buckets from
   the current ones. Bucket bounds for a given histogram never change
   after creation, so a positional walk suffices; a series absent from
   the baseline deltas against zero. *)
let hist_delta ~prev ~buckets ~sum ~count =
  match prev with
  | Some (Registry.Histogram_v p) ->
      let prev_of bound =
        match List.assoc_opt bound p.buckets with Some c -> c | None -> 0
      in
      let buckets =
        List.map (fun (bound, c) -> (bound, c - prev_of bound)) buckets
      in
      W_histogram { buckets; sum = sum -. p.sum; count = count - p.count }
  | _ -> W_histogram { buckets; sum; count }

let close t ~now =
  let snap = Registry.snapshot t.registry in
  let key (s : Registry.series) = (s.name, s.labels) in
  let prev = Hashtbl.create (List.length t.baseline) in
  List.iter (fun s -> Hashtbl.replace prev (key s) s.Registry.value) t.baseline;
  let span = now -. t.opened_at in
  let series =
    List.map
      (fun (s : Registry.series) ->
        let before = Hashtbl.find_opt prev (key s) in
        let ws_value =
          match s.value with
          | Registry.Counter_v c ->
              let base =
                match before with Some (Registry.Counter_v b) -> b | _ -> 0
              in
              let delta = c - base in
              let rate = if span > 0. then float_of_int delta /. span else 0. in
              W_counter { delta; rate }
          | Registry.Gauge_v g -> W_gauge g
          | Registry.Histogram_v { buckets; sum; count } ->
              (* Drop the +Inf bucket: it always equals [count]. *)
              let finite =
                List.filter (fun (b, _) -> b <> infinity) buckets
              in
              hist_delta ~prev:before ~buckets:finite ~sum ~count
        in
        { ws_name = s.name; ws_labels = s.labels; ws_value })
      snap
  in
  t.closed <- t.closed + 1;
  let w =
    { w_seq = t.closed; w_from = t.opened_at; w_until = now; w_series = series }
  in
  if Queue.length t.ring >= t.depth then ignore (Queue.take t.ring : window);
  Queue.add w t.ring;
  t.opened_at <- now;
  t.baseline <- snap;
  w

let tick t ~now =
  if now -. t.opened_at >= t.interval then Some (close t ~now) else None

let value_of = function
  | W_counter { rate; _ } -> rate
  | W_gauge g -> g
  | W_histogram { count; _ } -> float_of_int count

let merge a b =
  match (a, b) with
  | W_counter x, W_counter y ->
      W_counter { delta = x.delta + y.delta; rate = x.rate +. y.rate }
  | W_gauge x, W_gauge y -> W_gauge (x +. y)
  | W_histogram x, W_histogram y ->
      let of_y bound =
        match List.assoc_opt bound y.buckets with Some c -> c | None -> 0
      in
      let merged =
        List.map (fun (bound, c) -> (bound, c + of_y bound)) x.buckets
      in
      (* Bounds only y has (merging differently-bucketed histograms). *)
      let extra =
        List.filter (fun (b, _) -> not (List.mem_assoc b x.buckets)) y.buckets
      in
      let buckets =
        List.sort (fun (a, _) (b, _) -> compare a b) (merged @ extra)
      in
      W_histogram
        { buckets; sum = x.sum +. y.sum; count = x.count + y.count }
  | other, _ -> other

let grouped w ~metric ~by =
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ws ->
      if ws.ws_name = metric then
        let kept =
          List.filter_map
            (fun k ->
              match List.assoc_opt k ws.ws_labels with
              | Some v -> Some (k, v)
              | None -> None)
            by
        in
        if List.length kept = List.length by then begin
          (match Hashtbl.find_opt groups kept with
          | Some v -> Hashtbl.replace groups kept (merge v ws.ws_value)
          | None ->
              order := kept :: !order;
              Hashtbl.replace groups kept ws.ws_value)
        end)
    w.w_series;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun k -> (k, Hashtbl.find groups k)) !order)

let find w ~metric ~labels =
  List.find_map
    (fun ws ->
      if ws.ws_name = metric && ws.ws_labels = labels then Some ws.ws_value
      else None)
    w.w_series
