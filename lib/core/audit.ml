open Netcore

type entry = {
  at : Sim.Time.t;
  flow : Five_tuple.t;
  decision : Pf.Ast.action;
  rule : Pf.Ast.rule option;
  flagged : bool;
  src_info : (string * string) list;
  dst_info : (string * string) list;
  trace_id : string option;
}

type rejection = {
  r_at : Sim.Time.t;
  r_flow : Five_tuple.t;
  r_host : Ipv4.t;
  r_signer : string option;
  r_reason : string;
}

type summary = (string * string) list

type t = {
  capacity : int;
  mutable entries : entry list; (* newest first *)
  mutable length : int; (* List.length entries, kept so record is O(1) *)
  mutable buckets : summary list array;
      (* Interned summaries, each the one shared copy, by the hash of
         their values; a power of two long. Emptied when the log trims,
         and whenever they would outnumber the entries. *)
  mutable interned : int;
  found : Identxx.Slice.t array;
      (* Where each interesting key's latest value sits in the answer
         being summarized ({!Identxx.Response.latest_slices}). *)
  mutable count : int;
  mutable blocked : int;
  mutable rejections : rejection list; (* newest first *)
  mutable rejections_length : int;
}

let interesting_keys =
  [
    Identxx.Key_value.user_id;
    Identxx.Key_value.group_id;
    Identxx.Key_value.app_name;
    Identxx.Key_value.version;
    Identxx.Key_value.rule_maker;
  ]

let create ?(capacity = 10_000) () =
  if capacity <= 0 then invalid_arg "Audit.create: capacity must be positive";
  {
    capacity;
    entries = [];
    length = 0;
    buckets = Array.make 16 [];
    interned = 0;
    found = Array.make (List.length interesting_keys) Identxx.Slice.none;
    count = 0;
    blocked = 0;
    rejections = [];
    rejections_length = 0;
  }

(* Trim lazily: only when a list exceeds capacity by a margin, to keep
   recording O(1) amortized. *)
let trimmed t l length =
  if length > t.capacity + (t.capacity / 4) then
    (List.filteri (fun i _ -> i < t.capacity) l, t.capacity)
  else (l, length)

(* --- interning summaries in place ---

   A summary is the [(key, value)] list of the interesting keys an answer
   binds, in the keys' order, each with its latest value. Flows from one
   process carry equal summaries, so each is kept once: an answer's
   values are hashed and compared where they sit in its payload, and a
   list is built only for a summary not yet interned. *)

let mix h c = (h lxor c) * 0x01000193 land 0x3fff_ffff

let rec mix_sub h s i stop =
  if i >= stop then h
  else mix_sub (mix h (Char.code (String.unsafe_get s i))) s (i + 1) stop

(* The [j]th key's value, from [i] to [stop] of [s], into [h]. *)
let mix_value h j s i stop = mix (mix_sub (mix h (j + 256)) s i stop) 0

(* The hash of the values found in [s] from the [j]th key on. *)
let rec hash_found found s j h =
  if j = Array.length found then h
  else
    let f = found.(j) in
    hash_found found s (j + 1)
      (if f = Identxx.Slice.none then h
       else mix_value h j s (Identxx.Slice.start f) (Identxx.Slice.stop f))

(* The same hash of a summary, its pairs in the order of [keys] from the
   [j]th on. *)
let rec hash_summary keys j h (summary : summary) =
  match (keys, summary) with
  | key :: keys, (k, v) :: rest ->
      if String.equal k key then
        hash_summary keys (j + 1) (mix_value h j v 0 (String.length v)) rest
      else hash_summary keys (j + 1) h summary
  | _, [] | [], _ -> h

(* Whether [summary] is exactly the values found in [s] from the [j]th
   of [keys] on. *)
let rec same found s j keys (summary : summary) =
  match keys with
  | [] -> summary = []
  | key :: keys -> (
      let f = found.(j) in
      if f = Identxx.Slice.none then same found s (j + 1) keys summary
      else
        match summary with
        | (k, v) :: rest ->
            String.equal k key
            && String.length v = Identxx.Slice.length f
            && Identxx.Key_value.is_at v s (Identxx.Slice.start f)
            && same found s (j + 1) keys rest
        | [] -> false)

let rec find_in found s = function
  | [] -> []
  | summary :: rest ->
      if same found s 0 interesting_keys summary then summary else find_in found s rest

(* The summary of the values found in [s], copied out. *)
let rec build found s j = function
  | [] -> []
  | key :: keys ->
      let f = found.(j) in
      if f = Identxx.Slice.none then build found s (j + 1) keys
      else (key, Identxx.Slice.sub s f) :: build found s (j + 1) keys

let bucket t h = h land (Array.length t.buckets - 1)

let forget_summaries t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.interned <- 0

(* Twice the buckets once they hold twice as many summaries. *)
let grow t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun summary ->
         let i = bucket t (hash_summary interesting_keys 0 0 summary) in
         t.buckets.(i) <- summary :: t.buckets.(i)))
    old

let add_summary t h summary =
  if t.interned >= 2 * Array.length t.buckets then grow t;
  let i = bucket t h in
  t.buckets.(i) <- summary :: t.buckets.(i);
  t.interned <- t.interned + 1

let rec none_found found j =
  j = Array.length found
  || (found.(j) = Identxx.Slice.none && none_found found (j + 1))

(* An answer's summary: [[]] when absent or binding none of the keys,
   else its interned copy, added on a miss. *)
let intern t = function
  | None -> []
  | Some (response : Identxx.Response.t) ->
      let found = t.found and s = response.Identxx.Response.payload in
      Identxx.Response.latest_slices response interesting_keys found;
      if none_found found 0 then []
      else
        let h = hash_found found s 0 0 in
        match find_in found s t.buckets.(bucket t h) with
        | _ :: _ as shared -> shared
        | [] ->
            if t.interned >= t.length then forget_summaries t;
            let summary = build found s 0 interesting_keys in
            add_summary t h summary;
            summary

let record ?trace_id t ~at ~flow ~(verdict : Pf.Eval.verdict) ~src ~dst =
  let entry =
    {
      at;
      flow;
      trace_id;
      decision = verdict.Pf.Eval.decision;
      rule = verdict.Pf.Eval.matched;
      flagged = verdict.Pf.Eval.log;
      src_info = intern t src;
      dst_info = intern t dst;
    }
  in
  t.count <- t.count + 1;
  if verdict.Pf.Eval.decision = Pf.Ast.Block then t.blocked <- t.blocked + 1;
  let entries, length = trimmed t (entry :: t.entries) (t.length + 1) in
  (* A trim drops entries: drop the table that shares their summaries. *)
  if length <= t.length then forget_summaries t;
  t.entries <- entries;
  t.length <- length

let record_rejection t ~at ~flow ~host ?signer reason =
  let rejections, length =
    trimmed t
      ({ r_at = at; r_flow = flow; r_host = host; r_signer = signer; r_reason = reason }
      :: t.rejections)
      (t.rejections_length + 1)
  in
  t.rejections <- rejections;
  t.rejections_length <- length

let rejections t = t.rejections

let entries t = t.entries
let rule_line e = Option.map (fun (r : Pf.Ast.rule) -> r.Pf.Ast.line) e.rule
let summaries t = t.interned
let flagged t = List.filter (fun e -> e.flagged) t.entries
let count t = t.count
let blocked_count t = t.blocked
let clear t =
  t.entries <- [];
  t.length <- 0;
  forget_summaries t;
  t.count <- 0;
  t.blocked <- 0;
  t.rejections <- [];
  t.rejections_length <- 0

let pp_info ppf info =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s=%s" k v)
    ppf info

let pp_entry ppf e =
  Format.fprintf ppf "%a %s %a%s src{%a} dst{%a}%s%s" Sim.Time.pp e.at
    (match e.decision with Pf.Ast.Pass -> "PASS " | Pf.Ast.Block -> "BLOCK")
    Five_tuple.pp e.flow
    (match rule_line e with
    | Some l -> Printf.sprintf " rule@%d" l
    | None -> " default")
    pp_info e.src_info pp_info e.dst_info
    (if e.flagged then " [LOG]" else "")
    (match e.trace_id with Some id -> " trace=" ^ id | None -> "")

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (List.rev t.entries)
