(* FDD -> OpenFlow wildcard-rule lowering. See compiler.mli for the
   factoring/spill/priority scheme. *)

open Netcore
module Fdd = Analysis.Fdd
module MF = Openflow.Match_fields

type decision = Decide of Pf.Ast.action | Punt

type entry = {
  e_fields : MF.t;
  e_priority : int;
  e_decision : decision;
  e_lines : int list;
}

type spill = { sp_dim : string; sp_interval : int * int; sp_cost : int }

type table = {
  entries : entry list;
  spills : spill list;
  static_coverage : float;
  installed_coverage : float;
  truncated : bool;
}

let default_max_entries = 4096
let default_region_budget = 512
let priority_floor = 0x5000
let proactive_cookie = 0xFDD

let dim_name = [| "proto"; "src"; "dst"; "sport"; "dport" |]
(* Entries an exact expansion of one interval needs. Computed before
   materializing anything: port widths can be 65536. *)
let cost_of level (lo, hi) =
  if lo = 0 && hi = Fdd.dim_top.(level) then 1
  else
    match level with
    | 1 | 2 -> List.length (Fdd.prefixes_of_interval (lo, hi))
    | _ -> hi - lo + 1

let addr_space = 4294967296.0 (* 2^32 *)

(* The expansion of one interval of one dimension: a list of
   (field-setter, volume fraction) pairs. *)
let atoms_of level (lo, hi) : ((MF.t -> MF.t) * float) list =
  if lo = 0 && hi = Fdd.dim_top.(level) then [ ((fun m -> m), 1.0) ]
  else
    match level with
    | 0 ->
        List.init (hi - lo + 1) (fun i ->
            let p = Proto.of_int (lo + i) in
            ((fun m -> { m with MF.nw_proto = Some p }), 1.0 /. 256.0))
    | 1 ->
        List.map
          (fun p ->
            ( (fun m -> { m with MF.nw_src = Some p }),
              float_of_int (Prefix.size p) /. addr_space ))
          (Fdd.prefixes_of_interval (lo, hi))
    | 2 ->
        List.map
          (fun p ->
            ( (fun m -> { m with MF.nw_dst = Some p }),
              float_of_int (Prefix.size p) /. addr_space ))
          (Fdd.prefixes_of_interval (lo, hi))
    | 3 ->
        List.init (hi - lo + 1) (fun i ->
            let v = lo + i in
            ((fun m -> { m with MF.tp_src = Some v }), 1.0 /. 65536.0))
    | _ ->
        List.init (hi - lo + 1) (fun i ->
            let v = lo + i in
            ((fun m -> { m with MF.tp_dst = Some v }), 1.0 /. 65536.0))

(* A rule during planning: match built bottom-up (only dimensions at or
   below the emitting node are set), plus the static volume it claims,
   as a fraction of the emitting subtree's space. *)
type rule = {
  r_fields : MF.t;
  r_decision : decision;
  r_lines : int list;
  r_vol : float;
}

(* [p_cov] is the subtree's static volume summed in part order, as
   the slice's [s_coverage] sums it; [p_static] leaves out what spilled. *)
type plan = {
  p_rules : rule list;
  p_static : float;
  p_cov : float;
  p_spills : spill list;
}

(* Children are grouped by identity so several intervals sharing one
   subdiagram can be factored into one wildcard rule block. A leaf is
   keyed by its verdict, a subdiagram by its level and node id. *)
type gkey = K_verdict of Fdd.verdict | K_split of int * Fdd.t

let levels = Array.length Fdd.dim_top

let gkey level c =
  if level = levels then K_verdict (Fdd.leaf c) else K_split (level, c)

(* Two generations: [cur] holds the plans the running (or last)
   compile looked up or built, [prev] those of the compile before it,
   which the running one may still take over. Each compile drops
   [prev], so a plan the new diagram no longer reaches is gone after
   one compile. *)
type cache = {
  mutable cur : (int * Fdd.t, plan) Hashtbl.t;
  mutable prev : (int * Fdd.t, plan) Hashtbl.t;
}

let create_cache () = { cur = Hashtbl.create 64; prev = Hashtbl.create 64 }

let next_generation cache =
  let dropped = cache.prev in
  Hashtbl.clear dropped;
  cache.prev <- cache.cur;
  cache.cur <- dropped

(* A plan the running compile already holds, or one the compile before
   it held, which the running one takes over. *)
let find cache key =
  match Hashtbl.find_opt cache.cur key with
  | Some _ as found -> found
  | None ->
      let found = Hashtbl.find_opt cache.prev key in
      Option.iter (Hashtbl.add cache.cur key) found;
      found

let plan_of_verdict = function
  | Fdd.Static { action; lines } ->
      {
        p_rules =
          [ { r_fields = MF.any; r_decision = Decide action; r_lines = lines; r_vol = 1.0 } ];
        p_static = 1.0;
        p_cov = 1.0;
        p_spills = [];
      }
  | Fdd.Reactive _ ->
      {
        p_rules = [ { r_fields = MF.any; r_decision = Punt; r_lines = []; r_vol = 0.0 } ];
        p_static = 0.0;
        p_cov = 0.0;
        p_spills = [];
      }

(* The plan of node [id] read along dimension [level]; a node that
   tests a lower dimension reads as one part covering the level. *)
let rec plan_of cache budget level id =
  if level = levels then plan_of_verdict (Fdd.leaf id)
  else
    match find cache (level, id) with
    | Some p -> p
    | None ->
        let parts =
          List.map
            (fun (iv, c) ->
              (iv, gkey (level + 1) c, plan_of cache budget (level + 1) c))
            (Fdd.parts level id)
        in
        (* Pick the default group: the set of intervals sharing one
           child whose exact expansion would cost the most. It gets
           the dimension wildcarded for free; the totality of the
           other branches' rules keeps that sound. *)
        let groups = Hashtbl.create 8 in
        List.iter
          (fun (iv, k, pl) ->
            let saved = cost_of level iv * List.length pl.p_rules in
            let prev = try Hashtbl.find groups k with Not_found -> 0 in
            Hashtbl.replace groups k (prev + saved))
          parts;
        let default_key, _ =
          Hashtbl.fold
            (fun k saved (bk, bs) -> if saved > bs then (k, saved) else (bk, bs))
            groups
            (let _, k, _ = List.hd parts in (k, -1))
        in
        let spilled = ref [] in
        let expanded =
          List.concat_map
            (fun (iv, k, pl) ->
              if k = default_key then []
              else
                let n = List.length pl.p_rules in
                let cost = cost_of level iv * n in
                if cost > budget then begin
                  spilled :=
                    { sp_dim = dim_name.(level); sp_interval = iv; sp_cost = cost }
                    :: !spilled;
                  []
                end
                else
                  List.concat_map
                    (fun (set, frac) ->
                      List.map
                        (fun r ->
                          { r with r_fields = set r.r_fields; r_vol = r.r_vol *. frac })
                        pl.p_rules)
                    (atoms_of level iv))
            parts
        in
        let default_frac =
          List.fold_left
            (fun acc (iv, k, _) ->
              if k = default_key then acc +. Fdd.width level iv else acc)
            0.0 parts
        in
        let default_plan =
          let _, _, pl = List.find (fun (_, k, _) -> k = default_key) parts in
          pl
        in
        let tail, tail_static =
          if !spilled <> [] then
            (* A spilled branch needs its space punted; one wildcard
               punt here also masks the default group, soundly
               returning the rest of this subtree to the controller. *)
            ( [ { r_fields = MF.any; r_decision = Punt; r_lines = []; r_vol = 0.0 } ],
              0.0 )
          else
            ( List.map
                (fun r -> { r with r_vol = r.r_vol *. default_frac })
                default_plan.p_rules,
              default_plan.p_static *. default_frac )
        in
        let expanded_static =
          List.fold_left
            (fun acc r ->
              match r.r_decision with Decide _ -> acc +. r.r_vol | Punt -> acc)
            0.0 expanded
        in
        let child_spills =
          let seen = Hashtbl.create 8 in
          List.concat_map
            (fun (_, k, pl) ->
              if Hashtbl.mem seen k then []
              else begin
                Hashtbl.add seen k ();
                pl.p_spills
              end)
            parts
        in
        let p =
          {
            p_rules = expanded @ tail;
            p_static = expanded_static +. tail_static;
            p_cov =
              List.fold_left
                (fun acc (iv, _, pl) -> acc +. (Fdd.width level iv *. pl.p_cov))
                0.0 parts;
            p_spills = !spilled @ child_spills;
          }
        in
        Hashtbl.add cache.cur (level, id) p;
        p

(* Provably no packet matches both (used to justify collapsing a rule
   into a later identical-decision wildcard). *)
let fields_disjoint (a : MF.t) (b : MF.t) =
  let exact_ne x y = match (x, y) with Some u, Some v -> u <> v | _ -> false in
  (match (a.MF.nw_proto, b.MF.nw_proto) with
  | Some p, Some q -> not (Proto.equal p q)
  | _ -> false)
  || (match (a.MF.nw_src, b.MF.nw_src) with
     | Some p, Some q -> not (Prefix.overlaps p q)
     | _ -> false)
  || (match (a.MF.nw_dst, b.MF.nw_dst) with
     | Some p, Some q -> not (Prefix.overlaps p q)
     | _ -> false)
  || exact_ne a.MF.tp_src b.MF.tp_src
  || exact_ne a.MF.tp_dst b.MF.tp_dst

(* Drop a rule when the final match-all rule has the same decision and
   every rule in between either shares that decision or is disjoint
   from the dropped one — the packet lands on an equivalent rule.
   Returns the kept rules and the static volume reclaimed by the
   final rule. *)
let collapse_into_tail rules =
  let n = List.length rules in
  if n < 2 || n > 2048 then (rules, 0.0)
  else
    let arr = Array.of_list rules in
    let last = arr.(n - 1) in
    if not (MF.equal last.r_fields MF.any) then (rules, 0.0)
    else begin
      let reclaimed = ref 0.0 in
      let kept = ref [ last ] in
      for i = n - 2 downto 0 do
        let r = arr.(i) in
        let removable =
          r.r_decision = last.r_decision
          && begin
               let ok = ref true in
               for k = i + 1 to n - 2 do
                 let between = arr.(k) in
                 if
                   between.r_decision <> r.r_decision
                   && not (fields_disjoint between.r_fields r.r_fields)
                 then ok := false
               done;
               !ok
             end
        in
        if removable then
          match r.r_decision with
          | Decide _ -> reclaimed := !reclaimed +. r.r_vol
          | Punt -> ()
        else kept := r :: !kept
      done;
      (!kept, !reclaimed)
    end

let rec ends_in_punt = function
  | [] -> false
  | [ { r_decision = Punt; _ } ] -> true
  | _ :: rest -> ends_in_punt rest

let drop_trailing_punts rules =
  if not (ends_in_punt rules) then rules
  else
    let rec skip = function
      | { r_decision = Punt; _ } :: rest -> skip rest
      | l -> l
    in
    List.rev (skip (List.rev rules))

(* A withheld static region punts like any reactive one; one fixed
   verdict lets adjacent withheld regions merge. *)
let withheld = Fdd.Reactive { lines = []; inputs = []; may_default = false }

let offload ~proactive env fdd =
  let unfit = Hashtbl.create 16 in
  List.iter
    (fun (r : Pf.Ast.rule) ->
      if
        r.Pf.Ast.log
        || not (proactive || (r.Pf.Ast.action = Pf.Ast.Block && r.Pf.Ast.quick))
      then Hashtbl.replace unfit r.Pf.Ast.line ())
    (Pf.Env.rules env);
  (* Line 0, the implicit default, is no rule: it may decide a
     proactive region, but it is never a quick block. *)
  let qualifies line = (proactive || line <> 0) && not (Hashtbl.mem unfit line) in
  if proactive && Hashtbl.length unfit = 0 then fdd
  else
    Fdd.map_verdicts
      (function
        | Fdd.Static { lines; _ } when not (List.for_all qualifies lines) ->
            withheld
        | v -> v)
      fdd

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n = function
  | rest when n <= 0 -> rest
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

let compile ?cache ?(max_entries = default_max_entries)
    ?(region_budget = default_region_budget) fdd =
  if max_entries < 1 || max_entries > default_max_entries then
    invalid_arg "Compiler.compile: max_entries outside [1, 4096]";
  let cache = match cache with Some c -> c | None -> create_cache () in
  next_generation cache;
  let pl = plan_of cache region_budget 0 fdd in
  let rules = drop_trailing_punts pl.p_rules in
  let rules, reclaimed = collapse_into_tail rules in
  let rules = drop_trailing_punts rules in
  let truncated, lost, rules =
    if List.length rules > max_entries then
      let keep = take (max_entries - 1) rules in
      let dropped = drop (max_entries - 1) rules in
      let lost =
        List.fold_left
          (fun acc r ->
            match r.r_decision with Decide _ -> acc +. r.r_vol | Punt -> acc)
          0.0 dropped
      in
      ( true,
        lost,
        keep @ [ { r_fields = MF.any; r_decision = Punt; r_lines = []; r_vol = 0.0 } ] )
    else (false, 0.0, rules)
  in
  let n = List.length rules in
  let entries =
    List.mapi
      (fun i r ->
        {
          e_fields = r.r_fields;
          e_priority = priority_floor + (2 * (n - 1 - i));
          e_decision = r.r_decision;
          e_lines = r.r_lines;
        })
      rules
  in
  let installed =
    List.fold_left
      (fun acc r ->
        match r.r_decision with Decide _ -> acc +. r.r_vol | Punt -> acc)
      0.0 rules
    +. reclaimed -. lost
  in
  let installed = max 0.0 (min 1.0 installed) in
  {
    entries;
    spills = pl.p_spills;
    static_coverage = pl.p_cov;
    installed_coverage = installed;
    truncated;
  }

(* --- installed numbering --- *)

(* Highest installed priority: 0x7fff belongs to the controller's
   guards. *)
let priority_top = 0x7ffe

module KMap = Map.Make (struct
  type t = MF.t * decision

  let compare (fa, da) (fb, db) =
    let c = MF.compare fa fb in
    if c <> 0 then c else compare da db
end)

(* One step of a longest increasing run of old indices: cur index,
   old index, and the step before it. *)
type link = { l_cur : int; l_old : int; l_prev : link option }

let same_key a b = a.e_decision = b.e_decision && MF.equal a.e_fields b.e_fields

(* Calls [keep cur_index old_index] on the pairs of a longest common
   subsequence of the two entry arrays under (fields, decision)
   equality. The common prefix and suffix are part of one, so only the
   span between them is searched, by Hunt–Szymanski: each cur entry
   offers its matching old indices in descending order to a
   patience-sorted longest strictly increasing run, O((n + r) log n)
   for r matching pairs in the span. *)
let common_run (old_ : entry array) (cur : entry array) keep =
  let n_old = Array.length old_ and n_cur = Array.length cur in
  let pre = ref 0 in
  while !pre < n_old && !pre < n_cur && same_key old_.(!pre) cur.(!pre) do
    keep !pre !pre;
    incr pre
  done;
  let suf = ref 0 in
  while
    !suf < n_old - !pre && !suf < n_cur - !pre
    && same_key old_.(n_old - 1 - !suf) cur.(n_cur - 1 - !suf)
  do
    keep (n_cur - 1 - !suf) (n_old - 1 - !suf);
    incr suf
  done;
  let pre = !pre and old_end = n_old - !suf and cur_end = n_cur - !suf in
  if pre < old_end && pre < cur_end then begin
    let key e = (e.e_fields, e.e_decision) in
    let at = ref KMap.empty in
    for i = pre to old_end - 1 do
      at :=
        KMap.update (key old_.(i))
          (function None -> Some [ i ] | Some l -> Some (i :: l))
          !at
    done;
    let at = !at in
    let tails = Array.make (cur_end - pre) None and len = ref 0 in
    let old_at k = match tails.(k) with Some l -> l.l_old | None -> max_int in
    for j = pre to cur_end - 1 do
      match KMap.find_opt (key cur.(j)) at with
      | None -> ()
      | Some olds ->
          List.iter
            (fun i ->
              let lo = ref 0 and hi = ref !len in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if old_at mid < i then lo := mid + 1 else hi := mid
              done;
              let l_prev = if !lo = 0 then None else tails.(!lo - 1) in
              tails.(!lo) <- Some { l_cur = j; l_old = i; l_prev };
              if !lo = !len then incr len)
            olds
    done;
    let rec walk = function
      | None -> ()
      | Some l ->
          keep l.l_cur l.l_old;
          walk l.l_prev
    in
    if !len > 0 then walk tails.(!len - 1)
  end

(* Space the entries of [prio] left at -1 evenly between their fixed
   neighbours; the band's edges count as neighbours at
   [priority_top + 1] and [priority_floor - 1]. False if some gap has
   no room. *)
let fill_gaps prio =
  let n = Array.length prio in
  let rec go above j =
    (* [above]: the priority of the nearest fixed entry before [j]. *)
    let k = ref j in
    while !k < n && prio.(!k) < 0 do incr k done;
    let below = if !k = n then priority_floor - 1 else prio.(!k) in
    let free = !k - j and span = above - below in
    if span < free + 1 then false
    else begin
      for x = j to !k - 1 do
        prio.(x) <- above - (span * (x - j + 1) / (free + 1))
      done;
      !k = n || go below (!k + 1)
    end
  in
  go (priority_top + 1) 0

let renumber ~old_ cur =
  let old_a = Array.of_list old_.entries and cur_a = Array.of_list cur.entries in
  let n = Array.length cur_a in
  if n > priority_top - priority_floor + 1 then
    invalid_arg "Compiler.renumber: more entries than the band holds";
  let prio = Array.make n (-1) in
  common_run old_a cur_a (fun j i -> prio.(j) <- old_a.(i).e_priority);
  if not (fill_gaps prio) then begin
    (* No room between two kept entries: spread the whole table. *)
    Array.fill prio 0 n (-1);
    ignore (fill_gaps prio)
  end;
  {
    cur with
    entries =
      List.mapi
        (fun j e -> if e.e_priority = prio.(j) then e else { e with e_priority = prio.(j) })
        cur.entries;
  }

(* --- deltas --- *)

type delta = { d_add : entry list; d_del : entry list }

(* One merge over the two priority-descending entry lists: within a
   table priorities are distinct, so an entry is unchanged exactly when
   the other table holds an entry at its priority with its fields and
   decision. *)
let delta ~old_ cur =
  let same a b =
    a.e_decision = b.e_decision && (a == b || MF.equal a.e_fields b.e_fields)
  in
  let rec go add del olds curs =
    match (olds, curs) with
    | [], [] -> { d_add = List.rev add; d_del = List.rev del }
    | o :: olds', [] -> go add (o :: del) olds' []
    | [], c :: curs' -> go (c :: add) del [] curs'
    | o :: olds', c :: curs' ->
        if o.e_priority > c.e_priority then go add (o :: del) olds' curs
        else if c.e_priority > o.e_priority then go (c :: add) del olds curs'
        else if same o c then go add del olds' curs'
        else go (c :: add) (o :: del) olds' curs'
  in
  go [] [] old_.entries cur.entries

(* --- reference semantics --- *)

let matches_flow (m : MF.t) (fl : Five_tuple.t) =
  (match m.MF.nw_proto with None -> true | Some p -> Proto.equal p fl.proto)
  && (match m.MF.nw_src with None -> true | Some p -> Prefix.mem fl.src p)
  && (match m.MF.nw_dst with None -> true | Some p -> Prefix.mem fl.dst p)
  && (match m.MF.tp_src with None -> true | Some v -> v = fl.src_port)
  && match m.MF.tp_dst with None -> true | Some v -> v = fl.dst_port

let lookup t fl =
  match List.find_opt (fun e -> matches_flow e.e_fields fl) t.entries with
  | Some e -> e.e_decision
  | None -> Punt

let verify t fdd =
  let sl = Fdd.static_slice fdd in
  let lenient = t.spills <> [] || t.truncated || sl.Fdd.s_truncated in
  let checked = ref 0 in
  let fail rg expected got =
    Error
      (Printf.sprintf "region %s: table says %s, diagram says %s"
         (Fdd.region_to_string rg) got expected)
  in
  let act_str = function Pf.Ast.Pass -> "pass" | Pf.Ast.Block -> "block" in
  let rec check_static = function
    | [] -> Ok ()
    | (rg, action, _) :: rest -> (
        incr checked;
        match lookup t (Fdd.region_witness rg) with
        | Decide a when a = action -> check_static rest
        | Punt when lenient -> check_static rest
        | Decide a -> fail rg (act_str action) (act_str a)
        | Punt -> fail rg (act_str action) "punt")
  in
  let rec check_reactive = function
    | [] -> Ok ()
    | (rg, _) :: rest -> (
        incr checked;
        match lookup t (Fdd.region_witness rg) with
        | Punt -> check_reactive rest
        | Decide a -> fail rg "reactive (punt)" (act_str a))
  in
  match check_static sl.Fdd.s_static with
  | Error _ as e -> e
  | Ok () -> (
      match check_reactive sl.Fdd.s_reactive with
      | Error _ as e -> e
      | Ok () -> Ok !checked)

(* --- rendering --- *)

let decision_to_string = function
  | Decide Pf.Ast.Pass -> "pass"
  | Decide Pf.Ast.Block -> "block"
  | Punt -> "punt"

let fields_to_string (m : MF.t) =
  let proto = match m.MF.nw_proto with None -> "any" | Some p -> Proto.to_string p in
  let pfx = function None -> "any" | Some p -> Prefix.to_string p in
  let port = function None -> "any" | Some v -> string_of_int v in
  Printf.sprintf "proto %s from %s port %s to %s port %s" proto
    (pfx m.MF.nw_src) (port m.MF.tp_src) (pfx m.MF.nw_dst) (port m.MF.tp_dst)

let entry_to_string e =
  let lines =
    match e.e_lines with
    | [] -> ""
    | ls ->
        Printf.sprintf "  (line %s)" (Fdd.lines_to_string ls)
  in
  Printf.sprintf "%5d %-5s %s%s" e.e_priority
    (decision_to_string e.e_decision)
    (fields_to_string e.e_fields) lines
