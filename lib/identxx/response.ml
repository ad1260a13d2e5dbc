open Netcore

type t = Payload.t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  payload : string;
}

let is_empty = function [] -> true | _ :: _ -> false

(* Every section's pairs were checked when built ({!Key_value.pair}), so
   they are written as they are, one blank line between two. *)
let make ~(flow : Five_tuple.t) sections =
  let sections =
    if List.exists is_empty sections then
      List.filter (fun s -> not (is_empty s)) sections
    else sections
  in
  let rec length n = function
    | [] -> n
    | [ section ] -> Payload.pairs_length n section
    | section :: rest -> length (Payload.pairs_length (n + 1) section) rest
  in
  let rec put b pos = function
    | [] -> ()
    | [ section ] -> ignore (Payload.put_pairs b pos section : int)
    | section :: rest ->
        put b (Payload.put_char b (Payload.put_pairs b pos section) '\n') rest
  in
  let proto = flow.proto
  and src_port = flow.src_port
  and dst_port = flow.dst_port in
  let b = Bytes.create (length (Header.length proto src_port dst_port) sections) in
  put b (Header.write b 0 proto src_port dst_port) sections;
  Payload.view ~proto ~src_port ~dst_port b

let has_sections t = String.length t.payload > Payload.body t

let append_section t section =
  if is_empty section then t
  else
    let n = String.length t.payload in
    let sep = if has_sections t then 1 else 0 in
    let b = Bytes.create (Payload.pairs_length (n + sep) section) in
    Bytes.blit_string t.payload 0 b 0 n;
    if sep = 1 then Bytes.unsafe_set b n '\n';
    ignore (Payload.put_pairs b (n + sep) section : int);
    Payload.view ~proto:t.proto ~src_port:t.src_port ~dst_port:t.dst_port b

(* --- reading the view ---

   A view's payload is canonical (see {!Payload}): from {!Payload.body}
   on, each line is a pair line or the one blank line between two
   sections. A key that is not valid binds nothing: no line can carry
   it. *)

(* A {!Payload.fold_lines} step over the lines that start with a key's
   bytes, up to [q]: [user acc s pos len] over the value when the line
   binds that key. *)
let value_of user acc s _ q e =
  if String.unsafe_get s q = ':' then user acc s (q + 2) (e - q - 2) else acc

let fold_values t key f acc =
  if Key_value.valid_key key then
    Payload.fold_lines key value_of f acc t.payload (Payload.body t)
      (String.length t.payload)
  else acc

(* The last binding of [key] from [i] to [stop]. *)
let value_in s i stop key =
  match Payload.find s i stop key with
  | -1 -> None
  | v -> Some (String.sub s v (Payload.line_end s v - v))

(* The last binding wins: the latest section's, and its last. *)
let latest t key =
  if not (Key_value.valid_key key) then None
  else value_in t.payload (Payload.body t) (String.length t.payload) key

(* Which of [keys], from the [j]th on, is [String.sub s i len]; -1 when
   none is. *)
let rec key_index s i len j = function
  | [] -> -1
  | key :: rest ->
      if String.length key = len && Key_value.is_at key s i then j
      else key_index s i len (j + 1) rest

(* Note in [found] where the value of the pair line [i, k, e] sits when
   its key is one of [keys]. *)
let note_latest keys found s i k e =
  (match key_index s i (k - i) 0 keys with
  | -1 -> ()
  | j -> found.(j) <- Slice.v (k + 2) e);
  found

let latest_slices t keys found =
  Array.fill found 0 (Array.length found) Slice.none;
  ignore
    (Payload.fold_pairs note_latest keys found t.payload (Payload.body t)
       (String.length t.payload)
      : Slice.t array)

let all_values t key =
  List.rev (fold_values t key (fun acc s v len -> String.sub s v len :: acc) [])

let add_key () acc s i k _ =
  if key_index s i (k - i) 0 acc >= 0 then acc
  else Key_value.key_of_slice s i (k - i) :: acc

let keys t =
  List.rev
    (Payload.fold_pairs add_key () [] t.payload (Payload.body t)
       (String.length t.payload))

let add_pair () acc s i k e =
  Key_value.pair (Key_value.key_of_slice s i (k - i)) (String.sub s (k + 2) (e - k - 2))
  :: acc

let add_section () acc s i stop = List.rev (Payload.fold_pairs add_pair () [] s i stop) :: acc

let sections t =
  List.rev (Payload.fold_sections add_section () [] t.payload (Payload.body t))

let pair_at (_, pair) acc s i k e = pair acc s i k e
let section_at ((section, _) as st) acc s i stop =
  Payload.fold_pairs pair_at st (section acc) s i stop

let fold_pairs t section pair acc =
  Payload.fold_sections section_at (section, pair) acc t.payload (Payload.body t)

let encode t = t.payload

(* --- decoding ---

   One pass checks the payload's lines and whether it is already
   canonical; a canonical payload becomes the view as it is. *)

(* The error for the malformed line starting at [i]: no ':' at all, or
   an empty key or a CR. *)
let line_error s i =
  let e = Payload.line_end s i in
  let line = String.sub s i (e - i) in
  if Payload.index_in s ':' i e = e then Error ("response: missing ':' in " ^ line)
  else Error ("response: malformed pair " ^ line)

type lines = Canonical | Well_formed | Malformed of int

(* The lines from [i] on, after a pair line when [after_pair]. One line
   per '\n' after the header, the last running to the end: a blank line
   ends a section, any other line is "<key>:<value>" with a non-empty
   key, no CR and one optional space after the colon. [Malformed] names
   where the first line that is neither starts. The payload is
   canonical while [canonical] stays true: each pair has its space and
   its '\n', and each blank line follows a pair line and precedes
   another line (which must then be a pair line, or stop being
   canonical itself). *)
let rec check s i after_pair canonical =
  let n = String.length s in
  if i > n then if canonical then Canonical else Well_formed
  else
    let e = Payload.line_break s i in
    if e < n && String.unsafe_get s e = '\r' then Malformed i
    else if e = i then
      check s (e + 1) false (canonical && (e = n || (after_pair && e + 1 < n)))
    else
      let k = Payload.colon s i in
      if k >= e || k = i then Malformed i
      else
        check s (e + 1) true
          (canonical && e < n && k + 1 < e && String.unsafe_get s (k + 1) = ' ')

(* The canonical payload of a well-formed one from its lines at [i]: the
   header as {!Header.write} writes it, one space after each colon, one
   '\n' after each pair and one blank line between two sections. *)
let canonical s i header =
  let proto = Header.proto header
  and src_port = Header.src_port header
  and dst_port = Header.dst_port header in
  let b = Buffer.create (String.length s + 16) in
  let head = Bytes.create (Header.length proto src_port dst_port) in
  ignore (Header.write head 0 proto src_port dst_port : int);
  Buffer.add_bytes b head;
  (* [gap]: a blank line since the last pair, after some pair. *)
  let rec lines i gap =
    if i < String.length s then
      let e = Payload.line_break s i in
      if e = i then lines (e + 1) (Buffer.length b > Bytes.length head)
      else
        let k = Payload.colon s i in
        let v = if k + 1 < e && s.[k + 1] = ' ' then k + 2 else k + 1 in
        if gap then Buffer.add_char b '\n';
        Buffer.add_substring b s i (k - i);
        Buffer.add_string b ": ";
        Buffer.add_substring b s v (e - v);
        Buffer.add_char b '\n';
        lines (e + 1) false
  in
  lines i false;
  { proto; src_port; dst_port; payload = Buffer.contents b }

let decode s =
  let h = Payload.line_end s 0 in
  let header = Header.parse s 0 h in
  if header < 0 then Error (Header.error "response" header)
  else
    let proto = Header.proto header
    and src_port = Header.src_port header
    and dst_port = Header.dst_port header in
    match check s (h + 1) false (Header.is_written s proto src_port dst_port) with
    | Canonical -> Ok { proto; src_port; dst_port; payload = s }
    | Well_formed -> Ok (canonical s (h + 1) header)
    | Malformed i -> line_error s i

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

(* [n] plus the blank line and the lines of the section [i, stop) when
   it is no trace section. *)
let kept_length () n s i stop = if Payload.is_trace s i stop then n else n + stop - i + 1

(* The same, written at [pos] of [b]; the position after them. *)
let copy_kept b pos s i stop =
  if Payload.is_trace s i stop then pos
  else begin
    Bytes.unsafe_set b pos '\n';
    Bytes.blit_string s i b (pos + 1) (stop - i);
    pos + 1 + stop - i
  end

let strip_trace t =
  let s = t.payload and body = Payload.body t in
  (* No trace section without a [trace-id] line: one pass settles the
     common case. The header's last '\n' stands where the blank line
     before the first section would. *)
  if Payload.find s body (String.length s) trace_id_key < 0 then t
  else
    let n = Payload.fold_sections kept_length () (body - 1) s body in
    if n = String.length s then t
    else begin
      let b = Bytes.create (max n body) in
      Bytes.blit_string s 0 b 0 body;
      ignore (Payload.fold_sections copy_kept b (body - 1) s body : int);
      Payload.view ~proto:t.proto ~src_port:t.src_port ~dst_port:t.dst_port b
    end

(* [found], or the section [i, stop) when none was found yet and it binds
   all three trace keys with spans that parse. *)
let trace_section () found s i stop =
  match found with
  | Some _ -> found
  | None -> (
      match
        ( value_in s i stop trace_id_key,
          value_in s i stop trace_parent_key,
          value_in s i stop trace_spans_key )
      with
      | Some id, Some parent, Some spans -> (
          match decode_trace_spans spans with
          | Some spans -> Some (id, parent, spans)
          | None -> None)
      | _ -> None)

let trace_info t = Payload.fold_sections trace_section () None t.payload (Payload.body t)
