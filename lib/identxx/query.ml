open Netcore

type t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  keys : string list;
  nonce : string option;
  trace : Obs.Trace_context.t option;
}

(* The trace context rides as one more key: a key may contain anything
   but ':', CR and LF (§3.2), so "@trace/<ids>" is a perfectly legal
   hint that a pre-tracing daemon simply does not recognize — keys are
   hints it is free to ignore. That is the whole version-tolerance
   story: no framing change, no flag day. *)
let trace_key_prefix = "@trace/"

(* The nonce rides the same way: "@nonce/<hex>", a hint an older daemon
   ignores and a signing daemon echoes inside its binding tag. *)
let nonce_key_prefix = "@nonce/"

let rec hex_from s i stop =
  i >= stop
  || (match String.unsafe_get s i with '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
     && hex_from s (i + 1) stop

let valid_nonce_at s i stop = stop - i >= 1 && stop - i <= 64 && hex_from s i stop

let make ~(flow : Five_tuple.t) ~keys =
  List.iter
    (fun k ->
      if not (Key_value.valid_key k) then
        invalid_arg ("Query.make: bad key " ^ k))
    keys;
  {
    proto = flow.proto;
    src_port = flow.src_port;
    dst_port = flow.dst_port;
    keys;
    nonce = None;
    trace = None;
  }

let with_trace t trace = { t with trace }

let flow_of t ~src ~dst =
  Five_tuple.make ~src ~dst ~proto:t.proto ~src_port:t.src_port
    ~dst_port:t.dst_port

let blit s b pos =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* A hint line: [prefix], [hint], newline. *)
let put_hint b pos prefix hint =
  let pos = blit hint b (blit prefix b pos) in
  Bytes.unsafe_set b pos '\n';
  pos + 1

let rec put_keys b pos = function
  | [] -> pos
  | k :: rest ->
      let pos = blit k b pos in
      Bytes.unsafe_set b pos '\n';
      put_keys b (pos + 1) rest

let hint_length prefix = function
  | None -> 0
  | Some hint -> String.length prefix + String.length hint + 1

let encode t =
  let trace = Option.map Obs.Trace_context.to_string t.trace in
  let b =
    Bytes.create
      (List.fold_left
         (fun n k -> n + String.length k + 1)
         (Header.length t.proto t.src_port t.dst_port
         + hint_length nonce_key_prefix t.nonce
         + hint_length trace_key_prefix trace)
         t.keys)
  in
  let pos = put_keys b (Header.write b 0 t.proto t.src_port t.dst_port) t.keys in
  let pos =
    match t.nonce with None -> pos | Some n -> put_hint b pos nonce_key_prefix n
  in
  (match trace with
  | None -> ()
  | Some c -> ignore (put_hint b pos trace_key_prefix c));
  Bytes.unsafe_to_string b

(* The end of the line starting at [i]: the next LF, or the end. *)
let rec line_end s i =
  if i >= String.length s || String.unsafe_get s i = '\n' then i
  else line_end s (i + 1)

(* Whether [i, stop) is empty once trimmed, as [String.trim] sees it. *)
let rec blank s i stop =
  i >= stop
  || (match String.unsafe_get s i with
     | ' ' | '\012' | '\n' | '\r' | '\t' -> true
     | _ -> false)
     && blank s (i + 1) stop

(* Whether [i, stop) holds no ':' and no CR. *)
let rec clean s i stop =
  i >= stop
  || (match String.unsafe_get s i with ':' | '\r' -> false | _ -> true)
     && clean s (i + 1) stop

let rec has_prefix prefix s i k =
  k >= String.length prefix
  || String.unsafe_get s (i + k) = String.unsafe_get prefix k
     && has_prefix prefix s i (k + 1)

let starts prefix s i stop =
  stop - i >= String.length prefix && has_prefix prefix s i 0

(* What a key line is. An unparsable "@nonce/..." or "@trace/..." token
   is an ordinary key, exactly as an old decoder saw it; a "@trace/..."
   line is parsed to tell. *)
type line = Blank | Nonce | Trace_hint | Key | Malformed

let classify s i stop =
  if blank s i stop then Blank
  else if not (clean s i stop) then Malformed
  else if
    starts nonce_key_prefix s i stop
    && valid_nonce_at s (i + String.length nonce_key_prefix) stop
  then Nonce
  else if starts trace_key_prefix s i stop then Trace_hint
  else Key

(* The first nonce and trace-context hints, as the key lines are read. *)
type hints = {
  mutable nonce : string option;
  mutable trace : Obs.Trace_context.t option;
}

let hint s prefix i e =
  let i = i + String.length prefix in
  String.sub s i (e - i)

(* The keys of the lines from [i] on, in order, noting the first nonce
   and trace-context hints in [h]; [Exit] at a malformed key. Only each
   kept key the protocol does not name is copied. *)
let rec keys s h i =
  if i > String.length s then []
  else
    let e = line_end s i in
    match classify s i e with
    | Key -> key s h i e
    | Blank -> keys s h (e + 1)
    | Nonce ->
        (match h.nonce with
        | None -> h.nonce <- Some (hint s nonce_key_prefix i e)
        | Some _ -> ());
        keys s h (e + 1)
    | Trace_hint -> (
        match Obs.Trace_context.of_string (hint s trace_key_prefix i e) with
        | Some _ as trace ->
            if Option.is_none h.trace then h.trace <- trace;
            keys s h (e + 1)
        | None -> key s h i e)
    | Malformed -> raise_notrace Exit

and key s h i e =
  let k = Key_value.key_of_slice s i (e - i) in
  k :: keys s h (e + 1)

let decode s =
  let h = line_end s 0 in
  let header = Header.parse s 0 h in
  if header < 0 then Error (Header.error "query" header)
  else
    let hints = { nonce = None; trace = None } in
    match keys s hints (h + 1) with
    | exception Exit -> Error "query: malformed key"
    | keys ->
        Ok
          {
            proto = Header.proto header;
            src_port = Header.src_port header;
            dst_port = Header.dst_port header;
            keys;
            nonce = hints.nonce;
            trace = hints.trace;
          }
