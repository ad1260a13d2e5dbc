open Netcore

type t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  sections : Key_value.section list;
}

let make ~(flow : Five_tuple.t) sections =
  {
    proto = flow.proto;
    src_port = flow.src_port;
    dst_port = flow.dst_port;
    sections = List.filter (fun s -> s <> []) sections;
  }

let append_section t section =
  if section = [] then t else { t with sections = t.sections @ [ section ] }

(* The last binding wins: search the later sections first. *)
let rec latest_in key = function
  | [] -> None
  | section :: later -> (
      match latest_in key later with
      | None -> Key_value.find section key
      | found -> found)

let latest t key = latest_in key t.sections

let all_values t key =
  List.concat_map
    (fun section ->
      List.filter_map
        (fun (p : Key_value.pair) -> if p.key = key then Some p.value else None)
        section)
    t.sections

let concat_values t key = String.concat "," (all_values t key)

let keys t =
  let seen = Hashtbl.create 16 in
  List.concat_map (fun s -> s) t.sections
  |> List.filter_map (fun (p : Key_value.pair) ->
         if Hashtbl.mem seen p.key then None
         else begin
           Hashtbl.add seen p.key ();
           Some p.key
         end)

let encode t =
  let header =
    String.concat " "
      [
        String.uppercase_ascii (Proto.to_string t.proto);
        string_of_int t.src_port;
        string_of_int t.dst_port;
      ]
  in
  (* The header's newline, one blank line between sections, and
     "<key>: <value>\n" per pair. *)
  let pairs_len =
    List.fold_left
      (List.fold_left (fun n (p : Key_value.pair) ->
           n + String.length p.key + String.length p.value + 3))
      0 t.sections
  in
  let b =
    Bytes.create
      (String.length header + 1
      + max 0 (List.length t.sections - 1)
      + pairs_len)
  in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  let put_char c =
    Bytes.set b !pos c;
    incr pos
  in
  put header;
  put_char '\n';
  List.iteri
    (fun i section ->
      if i > 0 then put_char '\n';
      List.iter
        (fun (p : Key_value.pair) ->
          put p.key;
          put ": ";
          put p.value;
          put_char '\n')
        section)
    t.sections;
  Bytes.unsafe_to_string b

(* The first [c] in [s] from [i] up to [stop], or [stop]. *)
let rec index_to s c i stop =
  if i >= stop || s.[i] = c then i else index_to s c (i + 1) stop

(* The first ':', LF or CR in [s] from [i], or the end. *)
let rec key_end s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | ':' | '\n' | '\r' -> i
    | _ -> key_end s (i + 1)

(* The first LF or CR in [s] from [i], or the end. *)
let rec value_end s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '\n' | '\r' -> i
    | _ -> value_end s (i + 1)

(* The error for the malformed line starting at [i]: no ':' at all, or
   an empty key or a CR. *)
let line_error s i =
  let e = index_to s '\n' i (String.length s) in
  let line = String.sub s i (e - i) in
  if index_to s ':' i e = e then Error ("response: missing ':' in " ^ line)
  else Error ("response: malformed pair " ^ line)

let decode s =
  let n = String.length s in
  let h = index_to s '\n' 0 n in
  match Query.parse_header (String.sub s 0 h) with
  | Error e -> Error e
  | Ok (proto, src_port, dst_port) ->
      let close current acc =
        match current with [] -> acc | _ -> List.rev current :: acc
      in
      (* One line per '\n' after the header, the last running to the end
         of the payload: a blank line ends the current section, any other
         line is "<key>:<value>" with one optional space after the colon.
         Each line is read once; only each key and value is copied out. *)
      let rec lines i current acc =
        if i > n then
          Ok
            {
              proto;
              src_port;
              dst_port;
              sections = List.rev (close current acc);
            }
        else
          let c = key_end s i in
          if c = i && (c = n || s.[c] = '\n') then lines (c + 1) [] (close current acc)
          else if c = n || s.[c] <> ':' || c = i then line_error s i
          else
            let e = value_end s (c + 1) in
            if e < n && s.[e] = '\r' then line_error s i
            else
              let v = if c + 1 < e && s.[c + 1] = ' ' then c + 2 else c + 1 in
              let pair =
                {
                  Key_value.key = String.sub s i (c - i);
                  value = String.sub s v (e - v);
                }
              in
              lines (e + 1) (pair :: current) acc
      in
      lines (h + 1) [] []

(* --- daemon-side trace piggyback ---

   A daemon answering a traced query returns its own span timings as
   one ordinary key-value section; old controllers see three unknown
   pairs and ignore them. The section is appended after signing — the
   "sign" span's own duration cannot ride inside the bytes being
   signed — so it is diagnostics, not an authenticated claim, per the
   post-signature-section rule of doc/PROTOCOL.md §6. *)

let trace_id_key = "trace-id"
let trace_parent_key = "trace-parent"
let trace_spans_key = "trace-spans"

(* Floats must survive the wire byte-exactly for traces to be
   deterministic: shortest decimal form that round-trips. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let encode_trace_spans spans =
  String.concat ";"
    (List.map
       (fun (name, t0, t1) ->
         Printf.sprintf "%s@%s+%s" name (float_str t0) (float_str (t1 -. t0)))
       spans)

let decode_trace_spans s =
  let parse_one tok =
    match String.index_opt tok '@' with
    | None -> None
    | Some i -> (
        let name = String.sub tok 0 i in
        let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
        match String.index_opt rest '+' with
        | None -> None
        | Some j -> (
            let start = String.sub rest 0 j in
            let dur = String.sub rest (j + 1) (String.length rest - j - 1) in
            match (float_of_string_opt start, float_of_string_opt dur) with
            | Some t0, Some d when name <> "" -> Some (name, t0, t0 +. d)
            | _ -> None))
  in
  let toks = String.split_on_char ';' s |> List.filter (( <> ) "") in
  let parsed = List.filter_map parse_one toks in
  if List.length parsed = List.length toks then Some parsed else None

let attach_trace t ~trace_id ~parent ~spans =
  append_section t
    [
      Key_value.pair trace_id_key trace_id;
      Key_value.pair trace_parent_key parent;
      Key_value.pair trace_spans_key (encode_trace_spans spans);
    ]

let is_trace_section section =
  Key_value.find section trace_id_key <> None
  && Key_value.find section trace_spans_key <> None

let strip_trace t =
  { t with sections = List.filter (fun s -> not (is_trace_section s)) t.sections }

let trace_info t =
  let tagged =
    List.filter_map
      (fun section ->
        match
          ( Key_value.find section trace_id_key,
            Key_value.find section trace_parent_key,
            Key_value.find section trace_spans_key )
        with
        | Some id, Some parent, Some spans -> (
            match decode_trace_spans spans with
            | Some spans -> Some (id, parent, spans)
            | None -> None)
        | _ -> None)
      t.sections
  in
  match tagged with [] -> None | info :: _ -> Some info

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "response %s %d->%d (%d sections)@."
    (Proto.to_string t.proto) t.src_port t.dst_port
    (List.length t.sections);
  List.iteri
    (fun i s ->
      Format.fprintf ppf "-- section %d --@.%a" i Key_value.pp_section s)
    t.sections
