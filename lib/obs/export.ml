(* --- Prometheus text exposition (format 0.0.4) --- *)

(* Backslash and newline escape everywhere; a double quote only in a
   label value. *)
let escape ~quote v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Bucket bounds and sums print like JSON numbers so the two exporters
   agree byte-for-byte on every value. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let label_block labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v))
             labels)
      ^ "}"

(* One extra label prepended to a series' label block (for {le=...}).
   The extra label violates sorted order; Prometheus does not care, and
   putting le last matches common exposition practice. *)
let label_block_with labels extra =
  let all = labels @ [ extra ] in
  label_block all

let type_of_value = function
  | Registry.Counter_v _ -> "counter"
  | Registry.Gauge_v _ -> "gauge"
  | Registry.Histogram_v _ -> "histogram"

let prometheus_of_series series =
  let buf = Buffer.create 1024 in
  let last_header = ref "" in
  List.iter
    (fun (s : Registry.series) ->
      (* HELP/TYPE once per metric name; snapshot order groups names. *)
      if s.Registry.name <> !last_header then begin
        last_header := s.Registry.name;
        if s.Registry.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" s.Registry.name
               (escape ~quote:false s.Registry.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.Registry.name
             (type_of_value s.Registry.value))
      end;
      match s.Registry.value with
      | Registry.Counter_v v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.Registry.name
               (label_block s.Registry.labels)
               v)
      | Registry.Gauge_v v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.Registry.name
               (label_block s.Registry.labels)
               (num v))
      | Registry.Histogram_v { buckets; sum; count } ->
          List.iter
            (fun (le, c) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.Registry.name
                   (label_block_with s.Registry.labels ("le", num le))
                   c))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" s.Registry.name
               (label_block_with s.Registry.labels ("le", "+Inf"))
               count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.Registry.name
               (label_block s.Registry.labels)
               (num sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.Registry.name
               (label_block s.Registry.labels)
               count))
    series;
  Buffer.contents buf

let prometheus t = prometheus_of_series (Registry.snapshot t)

(* --- JSON snapshot --- *)

let json_of_series (s : Registry.series) =
  let base = [ ("name", Json.Str s.Registry.name) ] in
  let type_ = [ ("type", Json.Str (type_of_value s.Registry.value)) ] in
  let help =
    if s.Registry.help = "" then []
    else [ ("help", Json.Str s.Registry.help) ]
  in
  let labels =
    match s.Registry.labels with
    | [] -> []
    | labels ->
        [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)) ]
  in
  let value =
    match s.Registry.value with
    | Registry.Counter_v v -> [ ("value", Json.Num (float_of_int v)) ]
    | Registry.Gauge_v v -> [ ("value", Json.Num v) ]
    | Registry.Histogram_v { buckets; sum; count } ->
        [
          ( "buckets",
            Json.List
              (List.map
                 (fun (le, c) ->
                   Json.Obj
                     [ ("le", Json.Num le); ("count", Json.Num (float_of_int c)) ])
                 buckets) );
          ("sum", Json.Num sum);
          ("count", Json.Num (float_of_int count));
        ]
  in
  Json.Obj (base @ type_ @ help @ labels @ value)

let json t =
  Json.Obj
    [ ("metrics", Json.List (List.map json_of_series (Registry.snapshot t))) ]

let json_string ?(pretty = true) t = Json.to_string ~pretty (json t)

(* --- parsing a snapshot back (identxx_ctl metrics) --- *)

let series_of_json v =
  let ( let* ) = Result.bind in
  let str_field name v ctx =
    match Option.bind (Json.member name v) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: missing or non-string %S" ctx name)
  in
  let* name = str_field "name" v "metric" in
  let* type_ = str_field "type" v name in
  let help =
    Option.value ~default:""
      (Option.bind (Json.member "help" v) Json.to_str)
  in
  let* labels =
    match Json.member "labels" v with
    | None -> Ok []
    | Some (Json.Obj fields) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | (k, Json.Str s) :: rest -> conv ((k, s) :: acc) rest
          | (k, _) :: _ ->
              Error (Printf.sprintf "%s: label %S is not a string" name k)
        in
        conv [] fields
    | Some _ -> Error (Printf.sprintf "%s: labels is not an object" name)
  in
  let num_field field =
    match Option.bind (Json.member field v) Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: missing or non-numeric %S" name field)
  in
  let* value =
    match type_ with
    | "counter" ->
        let* f = num_field "value" in
        Ok (Registry.Counter_v (int_of_float f))
    | "gauge" ->
        let* f = num_field "value" in
        Ok (Registry.Gauge_v f)
    | "histogram" ->
        let* sum = num_field "sum" in
        let* count = num_field "count" in
        let* buckets =
          match Json.member "buckets" v with
          | Some (Json.List items) ->
              let rec conv acc = function
                | [] -> Ok (List.rev acc)
                | item :: rest -> (
                    match
                      ( Option.bind (Json.member "le" item) Json.to_float,
                        Option.bind (Json.member "count" item) Json.to_float )
                    with
                    | Some le, Some c ->
                        conv ((le, int_of_float c) :: acc) rest
                    | _ ->
                        Error
                          (Printf.sprintf "%s: malformed histogram bucket" name))
              in
              conv [] items
          | _ -> Error (Printf.sprintf "%s: missing bucket list" name)
        in
        Ok
          (Registry.Histogram_v
             { buckets; sum; count = int_of_float count })
    | other -> Error (Printf.sprintf "%s: unknown metric type %S" name other)
  in
  Ok { Registry.name; help; labels; value }

let of_json v =
  match Json.member "metrics" v with
  | Some (Json.List items) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match series_of_json item with
            | Ok s -> conv (s :: acc) rest
            | Error _ as e -> e)
      in
      conv [] items
  | Some _ -> Error "\"metrics\" is not an array"
  | None -> Error "missing \"metrics\" field"
