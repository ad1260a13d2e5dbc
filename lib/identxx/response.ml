open Netcore

type t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  sections : Key_value.section list;
}

let is_empty = function [] -> true | _ :: _ -> false

let make ~(flow : Five_tuple.t) sections =
  {
    proto = flow.proto;
    src_port = flow.src_port;
    dst_port = flow.dst_port;
    sections =
      (if List.exists is_empty sections then
         List.filter (fun s -> not (is_empty s)) sections
       else sections);
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

let put b s pos =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_char b c pos =
  Bytes.unsafe_set b pos c;
  pos + 1

let rec put_pairs b pos = function
  | [] -> pos
  | (p : Key_value.pair) :: rest ->
      let pos = put b p.value (put b ": " (put b p.key pos)) in
      put_pairs b (put_char b '\n' pos) rest

(* The sections from [pos], one blank line between two. *)
let rec put_sections b pos = function
  | [] -> ()
  | section :: rest ->
      let pos = put_pairs b pos section in
      if not (is_empty rest) then put_sections b (put_char b '\n' pos) rest

(* The bytes of the sections' lines: "<key>: <value>\n" per pair, and one
   blank line between two sections. *)
let rec pairs_length n = function
  | [] -> n
  | (p : Key_value.pair) :: rest ->
      pairs_length (n + String.length p.key + String.length p.value + 3) rest

let rec sections_length n = function
  | [] -> n
  | [ section ] -> pairs_length n section
  | section :: rest -> sections_length (pairs_length (n + 1) section) rest

let encode t =
  let b =
    Bytes.create
      (sections_length (Header.length t.proto t.src_port t.dst_port) t.sections)
  in
  put_sections b (Header.write b 0 t.proto t.src_port t.dst_port) t.sections;
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

(* Where the section being read ends: the start of the next one, or of
   the first malformed line when [Exit] is raised. *)
type cursor = { mutable next : int }

let malformed c i =
  c.next <- i;
  raise_notrace Exit

(* The pairs of the section whose lines start at [i], in order; [c.next]
   is left at the line after the blank line that ends it, or past the
   payload. One line per '\n' after the header, the last running to the
   end: a blank line ends the section, any other line is
   "<key>:<value>" with a non-empty key, no CR and one optional space
   after the colon. Each line is read once; only each value and each key
   outside the vocabulary is copied out. *)
let rec section_pairs s c i =
  let n = String.length s in
  if i > n then begin
    c.next <- i;
    []
  end
  else
    let k = key_end s i in
    if k = i && (k = n || s.[k] = '\n') then begin
      c.next <- k + 1;
      []
    end
    else if k = n || s.[k] <> ':' || k = i then malformed c i
    else
      let e = value_end s (k + 1) in
      if e < n && s.[e] = '\r' then malformed c i
      else
        let v = if k + 1 < e && s.[k + 1] = ' ' then k + 2 else k + 1 in
        let pair =
          {
            Key_value.key = Key_value.key_of_slice s i (k - i);
            value = String.sub s v (e - v);
          }
        in
        pair :: section_pairs s c (e + 1)

(* The non-empty sections from line [i] on: runs of blank lines make no
   empty sections. *)
let rec sections_from s c i =
  if i > String.length s then []
  else
    match section_pairs s c i with
    | [] -> sections_from s c c.next
    | section -> section :: sections_from s c c.next

let decode s =
  let h = index_to s '\n' 0 (String.length s) in
  let header = Header.parse s 0 h in
  if header < 0 then Error (Header.error "response" header)
  else
    let c = { next = 0 } in
    match sections_from s c (h + 1) with
    | sections ->
        Ok
          {
            proto = Header.proto header;
            src_port = Header.src_port header;
            dst_port = Header.dst_port header;
            sections;
          }
    | exception Exit -> line_error s c.next

(* --- daemon-side trace piggyback ---

   A daemon answering a traced query returns its own span timings as
   one ordinary key-value section; old controllers see three unknown
   pairs and ignore them. The section is appended after signing — the
   "sign" span's own duration cannot ride inside the bytes being
   signed — so it is diagnostics, not an authenticated claim, per the
   post-signature-section rule of doc/PROTOCOL.md §6. *)

let trace_id_key = Key_value.trace_id
let trace_parent_key = Key_value.trace_parent
let trace_spans_key = Key_value.trace_spans

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
  if List.exists is_trace_section t.sections then
    { t with sections = List.filter (fun s -> not (is_trace_section s)) t.sections }
  else t

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
