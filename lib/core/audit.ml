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

(* The log is a ring of columns, one row per held entry: two packed
   flow words with the decision and [log] bits, the time, and the rule
   and both summaries as pointers. The columns double from
   [initial_rows] up to [capacity]; until they reach it they never wrap,
   so the oldest row is row 0. *)
type t = {
  capacity : int;
  mutable lo : int array; (* source address and port, decision bits *)
  mutable hi : int array; (* destination address and port, protocol *)
  mutable at : int array;
  mutable rules : Pf.Ast.rule array; (* [no_rule] for none *)
  mutable src_info : summary array;
  mutable dst_info : summary array;
  mutable trace_ids : string option array;
      (* Empty until a record carries a trace, then as long as [at]. *)
  mutable next : int; (* the row the next record writes *)
  mutable held : int;
  mutable buckets : summary list array;
      (* Interned summaries, each the one shared copy, by the hash of
         their values; a power of two long. Emptied whenever they would
         outnumber the held entries. *)
  mutable interned : int;
  found : Identxx.Slice.t array;
      (* Where each interesting key's latest value sits in the answer
         being summarized ({!Identxx.Response.latest_slices}). *)
  mutable count : int;
  mutable blocked : int;
  rejections : rejection Queue.t; (* oldest first, at most [capacity] *)
}

let interesting_keys =
  [
    Identxx.Key_value.user_id;
    Identxx.Key_value.group_id;
    Identxx.Key_value.app_name;
    Identxx.Key_value.version;
    Identxx.Key_value.rule_maker;
  ]

(* A rule that no verdict carries: the [rules] column's "no rule". *)
let no_rule =
  {
    Pf.Ast.action = Pf.Ast.Pass;
    quick = false;
    log = false;
    proto = None;
    from_ = Pf.Ast.endpoint_any;
    to_ = Pf.Ast.endpoint_any;
    conds = [];
    keep_state = false;
    line = 0;
  }

let initial_rows = 16

let create ?(capacity = 10_000) () =
  if capacity <= 0 then invalid_arg "Audit.create: capacity must be positive";
  let rows = min capacity initial_rows in
  {
    capacity;
    lo = Array.make rows 0;
    hi = Array.make rows 0;
    at = Array.make rows 0;
    rules = Array.make rows no_rule;
    src_info = Array.make rows [];
    dst_info = Array.make rows [];
    trace_ids = [||];
    next = 0;
    held = 0;
    buckets = Array.make 16 [];
    interned = 0;
    found = Array.make (List.length interesting_keys) Identxx.Slice.none;
    count = 0;
    blocked = 0;
    rejections = Queue.create ();
  }

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
let grow_buckets t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun summary ->
         let i = bucket t (hash_summary interesting_keys 0 0 summary) in
         t.buckets.(i) <- summary :: t.buckets.(i)))
    old

let add_summary t h summary =
  if t.interned >= 2 * Array.length t.buckets then grow_buckets t;
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
            if t.interned >= t.held then forget_summaries t;
            let summary = build found s 0 interesting_keys in
            add_summary t h summary;
            summary

(* --- packing a row ---

   [lo] is the flow's first int ({!Five_tuple.pack_src}) with the
   decision and [log] bits above it; [hi] is its second. *)

let block_bit = 1 lsl 48
let log_bit = 1 lsl 49

(* Twice the rows, up to [capacity]. Only a log that has not reached its
   capacity grows, so its rows are in order from row 0. *)
let grow_rows t =
  let rows = min t.capacity (2 * Array.length t.at) in
  (* An empty trace column stays empty; a row past [held] is written
     before it is read, so any value fills it. *)
  let widen col =
    if Array.length col = 0 then col
    else
      let wide = Array.make rows col.(0) in
      Array.blit col 0 wide 0 t.held;
      wide
  in
  t.lo <- widen t.lo;
  t.hi <- widen t.hi;
  t.at <- widen t.at;
  t.rules <- widen t.rules;
  t.src_info <- widen t.src_info;
  t.dst_info <- widen t.dst_info;
  t.trace_ids <- widen t.trace_ids

let record ?trace_id t ~at ~flow ~(verdict : Pf.Eval.verdict) ~src ~dst =
  let src_info = intern t src in
  let dst_info = intern t dst in
  if t.held = Array.length t.at && t.held < t.capacity then grow_rows t;
  let i = t.next in
  let block = verdict.Pf.Eval.decision = Pf.Ast.Block in
  t.lo.(i) <-
    Five_tuple.pack_src flow
    lor (if block then block_bit else 0)
    lor (if verdict.Pf.Eval.log then log_bit else 0);
  t.hi.(i) <- Five_tuple.pack_dst flow;
  t.at.(i) <- (at : Sim.Time.t :> int);
  t.rules.(i) <-
    (match verdict.Pf.Eval.matched with Some r -> r | None -> no_rule);
  t.src_info.(i) <- src_info;
  t.dst_info.(i) <- dst_info;
  if Array.length t.trace_ids > 0 || Option.is_some trace_id then begin
    if Array.length t.trace_ids = 0 then
      t.trace_ids <- Array.make (Array.length t.at) None;
    t.trace_ids.(i) <- trace_id
  end;
  t.next <- (if i + 1 = Array.length t.at then 0 else i + 1);
  if t.held < Array.length t.at then t.held <- t.held + 1;
  t.count <- t.count + 1;
  if block then t.blocked <- t.blocked + 1

let record_rejection t ~at ~flow ~host ?signer reason =
  if Queue.length t.rejections >= t.capacity then
    ignore (Queue.take t.rejections : rejection);
  Queue.add
    { r_at = at; r_flow = flow; r_host = host; r_signer = signer; r_reason = reason }
    t.rejections

let rejections t = Queue.fold (fun acc r -> r :: acc) [] t.rejections

(* The [k]th held entry, oldest first. *)
let entry t k =
  let i =
    if t.held < Array.length t.at then k
    else (t.next + k) mod Array.length t.at
  in
  let lo = t.lo.(i) and rule = t.rules.(i) in
  {
    at = Sim.Time.ns t.at.(i);
    flow = Five_tuple.unpack lo t.hi.(i);
    decision = (if lo land block_bit <> 0 then Pf.Ast.Block else Pf.Ast.Pass);
    rule = (if rule == no_rule then None else Some rule);
    flagged = lo land log_bit <> 0;
    src_info = t.src_info.(i);
    dst_info = t.dst_info.(i);
    trace_id = (if Array.length t.trace_ids = 0 then None else t.trace_ids.(i));
  }

(* The held entries that [keep], newest first. *)
let collect t keep =
  let rec go k acc =
    if k = t.held then acc
    else
      let e = entry t k in
      go (k + 1) (if keep e then e :: acc else acc)
  in
  go 0 []

let entries t = collect t (fun _ -> true)
let flagged t = collect t (fun e -> e.flagged)
let length t = t.held
let rule_line (e : entry) = Option.map (fun (r : Pf.Ast.rule) -> r.Pf.Ast.line) e.rule
let summaries t = t.interned
let count t = t.count
let blocked_count t = t.blocked

let clear t =
  let fresh = create ~capacity:t.capacity () in
  t.lo <- fresh.lo;
  t.hi <- fresh.hi;
  t.at <- fresh.at;
  t.rules <- fresh.rules;
  t.src_info <- fresh.src_info;
  t.dst_info <- fresh.dst_info;
  t.trace_ids <- [||];
  t.next <- 0;
  t.held <- 0;
  forget_summaries t;
  t.count <- 0;
  t.blocked <- 0;
  Queue.clear t.rejections

let pp_info ppf info =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s=%s" k v)
    ppf info

let pp_entry ppf (e : entry) =
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
  for k = 0 to t.held - 1 do
    Format.fprintf ppf "%a@." pp_entry (entry t k)
  done
