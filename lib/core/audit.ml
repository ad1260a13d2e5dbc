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

type t = {
  capacity : int;
  mutable entries : entry list; (* newest first *)
  mutable length : int; (* List.length entries, kept so record is O(1) *)
  summaries : ((string * string) list, (string * string) list) Hashtbl.t;
      (* Interned summaries: each maps to its one shared copy. Reset when
         the log trims, and whenever it would outnumber the entries. *)
  mutable count : int;
  mutable blocked : int;
  mutable rejections : rejection list; (* newest first *)
  mutable rejections_length : int;
}

let create ?(capacity = 10_000) () =
  if capacity <= 0 then invalid_arg "Audit.create: capacity must be positive";
  {
    capacity;
    entries = [];
    length = 0;
    summaries = Hashtbl.create 16;
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

let interesting_keys =
  [
    Identxx.Key_value.user_id;
    Identxx.Key_value.group_id;
    Identxx.Key_value.app_name;
    Identxx.Key_value.version;
    Identxx.Key_value.rule_maker;
  ]

let summarize = function
  | None -> []
  | Some response -> Identxx.Response.latest_each response interesting_keys

(* Flows from one process carry equal summaries; keep one copy of each. *)
let intern t = function
  | [] -> []
  | summary -> (
      match Hashtbl.find_opt t.summaries summary with
      | Some shared -> shared
      | None ->
          if Hashtbl.length t.summaries >= t.length then
            Hashtbl.reset t.summaries;
          Hashtbl.add t.summaries summary summary;
          summary)

let record ?trace_id t ~at ~flow ~(verdict : Pf.Eval.verdict) ~src ~dst =
  let entry =
    {
      at;
      flow;
      trace_id;
      decision = verdict.Pf.Eval.decision;
      rule = verdict.Pf.Eval.matched;
      flagged = verdict.Pf.Eval.log;
      src_info = intern t (summarize src);
      dst_info = intern t (summarize dst);
    }
  in
  t.count <- t.count + 1;
  if verdict.Pf.Eval.decision = Pf.Ast.Block then t.blocked <- t.blocked + 1;
  let entries, length = trimmed t (entry :: t.entries) (t.length + 1) in
  (* A trim drops entries: drop the table that shares their summaries. *)
  if length <= t.length then Hashtbl.reset t.summaries;
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
let summaries t = Hashtbl.length t.summaries
let flagged t = List.filter (fun e -> e.flagged) t.entries
let count t = t.count
let blocked_count t = t.blocked
let clear t =
  t.entries <- [];
  t.length <- 0;
  Hashtbl.reset t.summaries;
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
