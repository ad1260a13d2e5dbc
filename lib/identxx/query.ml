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

let rec hex_from n i =
  i >= String.length n
  || (match n.[i] with '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
     && hex_from n (i + 1)

let valid_nonce n =
  let len = String.length n in
  len >= 1 && len <= 64 && hex_from n 0

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

let encode t =
  (* Sized for the whole payload, so the buffer never grows. *)
  let buf =
    Buffer.create
      (List.fold_left (fun n k -> n + String.length k + 1) 96 t.keys)
  in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n"
       (String.uppercase_ascii (Proto.to_string t.proto))
       t.src_port t.dst_port);
  List.iter
    (fun k ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\n')
    t.keys;
  (match t.nonce with
  | None -> ()
  | Some n ->
      Buffer.add_string buf nonce_key_prefix;
      Buffer.add_string buf n;
      Buffer.add_char buf '\n');
  (match t.trace with
  | None -> ()
  | Some ctx ->
      Buffer.add_string buf trace_key_prefix;
      Buffer.add_string buf (Obs.Trace_context.to_string ctx);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let parse_header line =
  match String.split_on_char ' ' (String.trim line) with
  | [ proto; sp; dp ] -> (
      match
        (Proto.of_string_opt proto, int_of_string_opt sp, int_of_string_opt dp)
      with
      | Some proto, Some src_port, Some dst_port
        when src_port >= 0 && src_port <= 0xffff && dst_port >= 0
             && dst_port <= 0xffff ->
          Ok (proto, src_port, dst_port)
      | _ -> Error "query: malformed header fields")
  | _ -> Error "query: malformed header line"

let rec same_from prefix k i =
  i >= String.length prefix || (prefix.[i] = k.[i] && same_from prefix k (i + 1))

(* The hint after [prefix] in key [k], when [k] starts with it. Hints
   are checked on every key of every query, so this allocates only for
   a match. *)
let suffix prefix k =
  if String.length k >= String.length prefix && same_from prefix k 0 then
    Some
      (String.sub k (String.length prefix) (String.length k - String.length prefix))
  else None

let parse_nonce k =
  match suffix nonce_key_prefix k with
  | Some n when valid_nonce n -> Some n
  | Some _ | None -> None

let parse_trace k = Option.bind (suffix trace_key_prefix k) Obs.Trace_context.of_string

let decode s =
  match String.split_on_char '\n' s with
  | [] -> Error "query: empty"
  | header :: rest -> (
      match parse_header header with
      | Error _ as e -> e
      | Ok (proto, src_port, dst_port) ->
          (* One pass over the key lines: blank lines are skipped, the
             first parsable nonce and trace-context hints are recognized,
             and every other key — including an unparsable "@nonce/..."
             or "@trace/..." — stays an ordinary hint, exactly as an old
             decoder saw it. *)
          let rec go keys nonce trace = function
            | [] ->
                let keys = List.rev keys in
                Ok { proto; src_port; dst_port; keys; nonce; trace }
            | l :: rest when String.trim l = "" -> go keys nonce trace rest
            | l :: _ when not (Key_value.valid_key l) ->
                Error "query: malformed key"
            | l :: rest -> (
                match parse_nonce l with
                | Some _ as n ->
                    go keys (if nonce = None then n else nonce) trace rest
                | None -> (
                    match parse_trace l with
                    | Some _ as c ->
                        go keys nonce (if trace = None then c else trace) rest
                    | None -> go (l :: keys) nonce trace rest))
          in
          go [] None None rest)

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "query %s %d->%d keys=[%s]%s%s" (Proto.to_string t.proto)
    t.src_port t.dst_port
    (String.concat ";" t.keys)
    (match t.nonce with None -> "" | Some n -> " nonce=" ^ n)
    (match t.trace with
    | None -> ""
    | Some ctx -> " trace=" ^ Obs.Trace_context.to_string ctx)
