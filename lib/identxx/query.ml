open Netcore

type t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  payload : string;
  hint_bits : int;
  nonce_at : Slice.t;
  trace_at : Slice.t;
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

(* Both prefixes are this long. *)
let prefix_length = 7

let rec hex_from s i stop =
  i >= stop
  || (match String.unsafe_get s i with '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
     && hex_from s (i + 1) stop

let valid_nonce_at s i stop = stop - i >= 1 && stop - i <= 64 && hex_from s i stop

(* --- reading lines --- *)

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

let starts prefix s i stop =
  stop - i >= String.length prefix && Key_value.is_at prefix s i

(* What a key line is. An unparsable "@nonce/..." or "@trace/..." token
   is an ordinary key, exactly as an old decoder saw it. *)
type line = Blank | Nonce | Trace | Key | Malformed

let classify s i stop =
  if blank s i stop then Blank
  else if not (clean s i stop) then Malformed
  else if
    starts nonce_key_prefix s i stop
    && valid_nonce_at s (i + prefix_length) stop
  then Nonce
  else if
    starts trace_key_prefix s i stop
    && Obs.Trace_context.is_text_sub s (i + prefix_length) (stop - i - prefix_length)
  then Trace
  else Key

(* A plain hint: a line neither blank nor an extension token (any line
   starting with '@'). *)
let plain s i stop = (not (blank s i stop)) && String.unsafe_get s i <> '@'

(* The {!Payload.key_bit_sub}s of the plain hints from [i] on. *)
let rec plain_bits s i bits =
  if i >= String.length s then bits
  else
    let e = Payload.line_end s i in
    plain_bits s (e + 1)
      (if plain s i e then bits lor Payload.key_bit_sub s i (e - i) else bits)

(* Where the key lines start: after the header line. *)
let keys_start s = Payload.line_end s 0 + 1

let rec exists_from s i f a =
  i < String.length s
  &&
  let e = Payload.line_end s i in
  (plain s i e && f a s i (e - i)) || exists_from s (e + 1) f a

let exists_hint t f a = exists_from t.payload (keys_start t.payload) f a

(* --- writing --- *)

type hints = { block : string; bits : int }

let rec put_keys b pos = function
  | [] -> pos
  | k :: rest ->
      let pos = Payload.put b pos k in
      Bytes.unsafe_set b pos '\n';
      put_keys b (pos + 1) rest

(* The key lines as given, each closed by '\n'. *)
let block keys =
  let b = Bytes.create (List.fold_left (fun n k -> n + String.length k + 1) 0 keys) in
  ignore (put_keys b 0 keys : int);
  let block = Bytes.unsafe_to_string b in
  { block; bits = plain_bits block 0 0 }

let hints keys =
  List.iter
    (fun k ->
      if not (Key_value.valid_key k) then invalid_arg ("Query.hints: bad key " ^ k))
    keys;
  block keys

(* [n] plus the bytes of a hint line carrying [text], if any. *)
let hint_length n = function
  | None -> n
  | Some text -> n + prefix_length + String.length text + 1

(* Where the hint block ends. *)
let body_length h ~proto ~src_port ~dst_port =
  Header.length proto src_port dst_port + String.length h.block

(* The payload's buffer, its header and hint block written: [extra]
   bytes follow them, from {!body_length}. *)
let buffer h ~proto ~src_port ~dst_port extra =
  let n = body_length h ~proto ~src_port ~dst_port in
  let b = Bytes.create (n + extra) in
  ignore (Payload.put b (Header.write b 0 proto src_port dst_port) h.block : int);
  b

(* Put a hint line at [pos]: [prefix], [text], newline; the slice of
   [text]. *)
let put_hint b pos prefix text =
  let p = Payload.put b pos prefix in
  let e = Payload.put b p text in
  Bytes.unsafe_set b e '\n';
  Slice.v p e

(* The view, the trace hint written at [pos] when there is one. *)
let finish b h ~proto ~src_port ~dst_port ~nonce_at pos trace =
  let trace_at =
    match trace with
    | None -> Slice.none
    | Some text -> put_hint b pos trace_key_prefix text
  in
  {
    proto;
    src_port;
    dst_port;
    payload = Bytes.unsafe_to_string b;
    hint_bits = h.bits;
    nonce_at;
    trace_at;
  }

let render h ~proto ~src_port ~dst_port ?nonce trace =
  let trace = Option.map Obs.Trace_context.to_string trace in
  let b = buffer h ~proto ~src_port ~dst_port (hint_length (hint_length 0 trace) nonce) in
  let pos = body_length h ~proto ~src_port ~dst_port in
  match nonce with
  | None -> finish b h ~proto ~src_port ~dst_port ~nonce_at:Slice.none pos trace
  | Some n ->
      let nonce_at = put_hint b pos nonce_key_prefix n in
      finish b h ~proto ~src_port ~dst_port ~nonce_at (Slice.stop nonce_at + 1) trace

(* A drawn nonce is 16 hex digits. *)
let drawn_length = 16

let write h ~(flow : Five_tuple.t) ~nonce ~trace =
  let proto = flow.proto and src_port = flow.src_port and dst_port = flow.dst_port in
  match nonce with
  | None -> render h ~proto ~src_port ~dst_port trace
  | Some prng ->
      let trace = Option.map Obs.Trace_context.to_string trace in
      let b =
        buffer h ~proto ~src_port ~dst_port
          (hint_length (prefix_length + drawn_length + 1) trace)
      in
      let p = Payload.put b (body_length h ~proto ~src_port ~dst_port) nonce_key_prefix in
      let e = p + drawn_length in
      Sim.Prng.write_hex64 prng b p;
      Bytes.unsafe_set b e '\n';
      finish b h ~proto ~src_port ~dst_port ~nonce_at:(Slice.v p e) (e + 1) trace

let make ?nonce ?trace ~(flow : Five_tuple.t) keys =
  (match nonce with
  | Some n when not (valid_nonce_at n 0 (String.length n)) ->
      invalid_arg ("Query.make: bad nonce " ^ n)
  | Some _ | None -> ());
  render (hints keys) ~proto:flow.proto ~src_port:flow.src_port
    ~dst_port:flow.dst_port ?nonce trace

let of_keys ~proto ~src_port ~dst_port ?nonce ?trace keys =
  render (block keys) ~proto ~src_port ~dst_port ?nonce trace

(* --- reading the view --- *)

let nonce t =
  if t.nonce_at = Slice.none then None else Some (Slice.sub t.payload t.nonce_at)

let trace t =
  if t.trace_at = Slice.none then None
  else
    Obs.Trace_context.of_sub t.payload (Slice.start t.trace_at)
      (Slice.length t.trace_at)

(* The keys of the lines from [i] on, in order: each line that is not
   blank, a nonce or a trace context. *)
let rec keys_from s i =
  if i >= String.length s then []
  else
    let e = Payload.line_end s i in
    match classify s i e with
    | Blank | Nonce | Trace -> keys_from s (e + 1)
    | Key | Malformed ->
        let k = Key_value.key_of_slice s i (e - i) in
        k :: keys_from s (e + 1)

let keys t = keys_from t.payload (keys_start t.payload)

let flow_of t ~src ~dst =
  Five_tuple.make ~src ~dst ~proto:t.proto ~src_port:t.src_port
    ~dst_port:t.dst_port

let encode t = t.payload

(* --- decoding --- *)

(* The lines from [i] on, checked, noting the plain hints' bits and the
   first nonce and trace context; [header] is the header line's
   {!Header.parse}. *)
let rec read s header i bits nonce trace =
  if i > String.length s then
    Ok
      {
        proto = Header.proto header;
        src_port = Header.src_port header;
        dst_port = Header.dst_port header;
        payload = s;
        hint_bits = bits;
        nonce_at = nonce;
        trace_at = trace;
      }
  else
    let e = Payload.line_end s i in
    match classify s i e with
    | Blank -> read s header (e + 1) bits nonce trace
    | Malformed -> Error "query: malformed key"
    | Nonce ->
        read s header (e + 1) bits
          (if nonce = Slice.none then Slice.v (i + prefix_length) e else nonce)
          trace
    | Trace ->
        read s header (e + 1) bits nonce
          (if trace = Slice.none then Slice.v (i + prefix_length) e else trace)
    | Key ->
        read s header (e + 1)
          (if String.unsafe_get s i = '@' then bits
           else bits lor Payload.key_bit_sub s i (e - i))
          nonce trace

let decode s =
  let h = Payload.line_end s 0 in
  let header = Header.parse s 0 h in
  if header < 0 then Error (Header.error "query" header)
  else read s header (h + 1) 0 Slice.none Slice.none
