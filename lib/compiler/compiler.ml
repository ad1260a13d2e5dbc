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

(* A rule's decision and possible deciding lines: what the planner
   takes from a diagram leaf. *)
type leaf = { l_decision : decision; l_lines : int list }

let punt_leaf = { l_decision = Punt; l_lines = [] }

(* A subtree's rule list in factored form. A split's rules are, for
   each expanded part in order, each atom of its interval (an aligned
   prefix of an address interval, a value of a protocol or port one)
   over its child's rules, then the tail's rules; [flatten] writes
   them out. So planning a node costs its parts, not the rules below
   it. No expanded part covers its whole level: only a node's sole
   part does, and that is its default group. [p_count] is the number
   of rules; [p_cov] is the subtree's static volume summed in part
   order, as the slice's [s_coverage] sums it. *)
type plan = {
  p_body : body;
  p_count : int;
  p_cov : float;
  p_spills : spill list;
}

and body =
  | Leaf of leaf  (* one match-all rule *)
  | Split of { level : int; parts : part list; tail : tail }

and part = { iv : Fdd.interval; prefixes : Prefix.t list; child : plan }

and tail =
  | Default of plan * float
      (* The default group's rules, the dimension wildcarded and their
         volumes scaled by the group's share of it. *)
  | Punt_rest  (* A branch spilled: one punt over the node's space. *)

let levels = Array.length Fdd.dim_top

(* Entries an exact expansion of one interval needs, given an address
   interval's prefixes. Counted before materializing anything: port
   widths can be 65536. *)
let atom_count level (lo, hi) prefixes =
  match level with 1 | 2 -> List.length prefixes | _ -> hi - lo + 1

(* Among groups whose expansions would cost the same, the default is
   the one a [Hashtbl.fold] over a [Hashtbl.create 8] keyed by these
   would meet first: the lowest bucket, and within a bucket the group
   that appeared last. Installed tables and [identxx_ctl compile]'s
   output depend on that choice, so it stays fixed. *)
type gkey = K_verdict of Fdd.verdict | K_split of int * Fdd.t

let bucket ~buckets level c =
  let key = if level = levels then K_verdict (Fdd.leaf c) else K_split (level, c) in
  Hashtbl.hash key land (buckets - 1)

(* The first of [parts] whose child is [c]. *)
let first_with (parts : (Fdd.interval * Fdd.t) array) c =
  let i = ref 0 in
  while snd parts.(!i) <> c do
    incr i
  done;
  !i

(* The default group: the set of parts sharing one child whose exact
   expansion would cost the most ([saved i] for part [i]), as the index
   of its first part. It gets the dimension wildcarded for free; the
   totality of the other branches' rules keeps that sound. Parts are
   grouped by sorting their indices by child. *)
let default_group level (parts : (Fdd.interval * Fdd.t) array) saved =
  let n = Array.length parts in
  let node i = snd parts.(i) in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> match compare (node a) (node b) with 0 -> compare a b | c -> c)
    order;
  let groups = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || node order.(k) <> node order.(k - 1) then incr groups
  done;
  let buckets = ref 16 in
  while !groups > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let bucket i = bucket ~buckets:!buckets (level + 1) (node i) in
  let best = ref (-1) and best_saved = ref 0 and k = ref 0 in
  while !k < n do
    (* [first]: where the group first appears. *)
    let first = order.(!k) and total = ref 0 in
    while !k < n && node order.(!k) = node first do
      total := !total + saved order.(!k);
      incr k
    done;
    if
      !best < 0 || !total > !best_saved
      || !total = !best_saved
         && (bucket first < bucket !best
            || (bucket first = bucket !best && first > !best))
    then begin
      best := first;
      best_saved := !total
    end
  done;
  !best

(* Two generations: [cur] holds the plans the running (or last)
   compile looked up or built, [prev] those of the compile before it,
   which the running one may still take over. Each compile drops
   [prev], so a plan the new diagram no longer reaches is gone after
   one compile. A node id read at two levels has a plan at each, and
   leaves are kept at level [levels]. *)
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
   it held, which the running one takes over.
   @raise Not_found if neither holds one. *)
let find cache key =
  match Hashtbl.find cache.cur key with
  | p -> p
  | exception Not_found ->
      let p = Hashtbl.find cache.prev key in
      Hashtbl.add cache.cur key p;
      p

let leaf_plan = function
  | Fdd.Static { action; lines } ->
      {
        p_body = Leaf { l_decision = Decide action; l_lines = lines };
        p_count = 1;
        p_cov = 1.0;
        p_spills = [];
      }
  | Fdd.Reactive _ -> { p_body = Leaf punt_leaf; p_count = 1; p_cov = 0.0; p_spills = [] }

(* The plan of node [id] read along dimension [level]; a node that
   tests a lower dimension reads as one part covering the level. *)
let rec plan_of cache budget level id =
  let key = (level, id) in
  match find cache key with
  | p -> p
  | exception Not_found ->
      let p =
        if level = levels then leaf_plan (Fdd.leaf id)
        else split_plan cache budget level id
      in
      Hashtbl.add cache.cur key p;
      p

and split_plan cache budget level id =
  let parts = Fdd.parts level id in
  let n = Array.length parts in
  let node i = snd parts.(i) in
  let plans = Array.map (fun (_, c) -> plan_of cache budget (level + 1) c) parts in
  let prefixes =
    Array.map
      (fun (iv, _) -> if level = 1 || level = 2 then Fdd.prefixes_of_interval iv else [])
      parts
  in
  let cost i = atom_count level (fst parts.(i)) prefixes.(i) * plans.(i).p_count in
  let default = default_group level parts cost in
  let expanded i = node i <> node default && cost i <= budget in
  (* Sums run in part order, as [s_coverage]'s does, so [p_cov]
     matches it bit for bit. *)
  let default_frac = ref 0.0 and cov = ref 0.0 and spilled = ref [] in
  for i = 0 to n - 1 do
    let iv = fst parts.(i) in
    cov := !cov +. (Fdd.width level iv *. plans.(i).p_cov);
    if node i = node default then default_frac := !default_frac +. Fdd.width level iv
    else if not (expanded i) then
      spilled := { sp_dim = dim_name.(level); sp_interval = iv; sp_cost = cost i } :: !spilled
  done;
  let kept = ref [] and count = ref 0 and child_spills = ref [] in
  for i = n - 1 downto 0 do
    if expanded i then begin
      kept := { iv = fst parts.(i); prefixes = prefixes.(i); child = plans.(i) } :: !kept;
      count := !count + cost i
    end;
    (* A child's spills count once, where it first appears. *)
    let sp = plans.(i).p_spills in
    if sp <> [] && first_with parts (node i) = i then child_spills := sp @ !child_spills
  done;
  let tail, tail_count =
    if !spilled <> [] then
      (* A spilled branch needs its space punted; one wildcard punt
         here also masks the default group, soundly returning the rest
         of this subtree to the controller. *)
      (Punt_rest, 1)
    else (Default (plans.(default), !default_frac), plans.(default).p_count)
  in
  {
    p_body = Split { level; parts = !kept; tail };
    p_count = !count + tail_count;
    p_cov = !cov;
    p_spills = !spilled @ !child_spills;
  }

(* The rule list a plan stands for, written out: rule [i] matches
   [fields.(i)], ends in [leaves.(i)] and claims [vols.(i)] of the
   flow space if it decides. [n] shrinks as passes drop rules. *)
type rules = {
  fields : MF.t array;
  leaves : leaf array;
  vols : float array;
  mutable n : int;
}

let addr_space = 4294967296.0 (* 2^32 *)

(* Each rule's match is built once, from the atoms along its path, and
   its volume is its leaf's scaled by each level's share from the
   bottom up; floats do not associate, so that order keeps the
   installed coverage what it is. *)
let flatten root =
  let size = root.p_count in
  let r =
    {
      fields = Array.make size MF.any;
      leaves = Array.make size punt_leaf;
      vols = Array.make size 0.0;
      n = 0;
    }
  in
  let share = Array.make levels 1.0 in
  let proto = ref None and src = ref None and dst = ref None in
  let sport = ref None and dport = ref None in
  let wildcard = function
    | 0 -> proto := None
    | 1 -> src := None
    | 2 -> dst := None
    | 3 -> sport := None
    | _ -> dport := None
  in
  let emit leaf =
    let i = r.n in
    r.fields.(i) <-
      {
        MF.any with
        MF.nw_proto = !proto;
        nw_src = !src;
        nw_dst = !dst;
        tp_src = !sport;
        tp_dst = !dport;
      };
    r.leaves.(i) <- leaf;
    (match leaf.l_decision with
    | Decide _ ->
        let v = ref 1.0 in
        for l = levels - 1 downto 0 do
          v := !v *. share.(l)
        done;
        r.vols.(i) <- !v
    | Punt -> ());
    r.n <- i + 1
  in
  let rec go pl =
    match pl.p_body with
    | Leaf l -> emit l
    | Split { level; parts; tail } -> (
        expand_parts level parts;
        wildcard level;
        match tail with
        | Default (pl, frac) ->
            share.(level) <- frac;
            go pl
        | Punt_rest ->
            for l = level + 1 to levels - 1 do
              wildcard l
            done;
            emit punt_leaf)
  and expand_parts level = function
    | [] -> ()
    | pt :: rest ->
        let lo, hi = pt.iv in
        (match level with
        | 0 ->
            for v = lo to hi do
              proto := Some (Proto.of_int v);
              share.(0) <- 1.0 /. 256.0;
              go pt.child
            done
        | 1 | 2 -> expand_prefixes level pt.child pt.prefixes
        | _ ->
            for v = lo to hi do
              (if level = 3 then sport := Some v else dport := Some v);
              share.(level) <- 1.0 /. 65536.0;
              go pt.child
            done);
        expand_parts level rest
  and expand_prefixes level child = function
    | [] -> ()
    | p :: rest ->
        (if level = 1 then src := Some p else dst := Some p);
        share.(level) <- float_of_int (Prefix.size p) /. addr_space;
        go child;
        expand_prefixes level child rest
  in
  go root;
  r

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
   Returns the static volume reclaimed by the final rule. *)
let collapse_into_tail r =
  let n = r.n in
  if n < 2 || n > 2048 || not (MF.equal r.fields.(n - 1) MF.any) then 0.0
  else begin
    let last = r.leaves.(n - 1).l_decision in
    let dropped = Bytes.make n 'k' in
    let reclaimed = ref 0.0 in
    for i = n - 2 downto 0 do
      let d = r.leaves.(i).l_decision in
      let removable =
        d = last
        &&
        let k = ref (i + 1) in
        while
          !k <= n - 2
          && (r.leaves.(!k).l_decision = d || fields_disjoint r.fields.(!k) r.fields.(i))
        do
          incr k
        done;
        !k > n - 2
      in
      if removable then begin
        Bytes.set dropped i 'd';
        match d with Decide _ -> reclaimed := !reclaimed +. r.vols.(i) | Punt -> ()
      end
    done;
    let w = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get dropped i = 'k' then begin
        r.fields.(!w) <- r.fields.(i);
        r.leaves.(!w) <- r.leaves.(i);
        r.vols.(!w) <- r.vols.(i);
        incr w
      end
    done;
    r.n <- !w;
    !reclaimed
  end

let drop_trailing_punts r =
  while r.n > 0 && r.leaves.(r.n - 1).l_decision = Punt do
    r.n <- r.n - 1
  done

(* The static volume of rules [from] to [n - 1], summed in order. *)
let static_volume r ~from =
  let acc = ref 0.0 in
  for i = from to r.n - 1 do
    match r.leaves.(i).l_decision with Decide _ -> acc := !acc +. r.vols.(i) | Punt -> ()
  done;
  !acc

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

let compile ?cache ?(max_entries = default_max_entries)
    ?(region_budget = default_region_budget) fdd =
  if max_entries < 1 || max_entries > default_max_entries then
    invalid_arg "Compiler.compile: max_entries outside [1, 4096]";
  let cache = match cache with Some c -> c | None -> create_cache () in
  next_generation cache;
  let pl = plan_of cache region_budget 0 fdd in
  let r = flatten pl in
  drop_trailing_punts r;
  let reclaimed = collapse_into_tail r in
  drop_trailing_punts r;
  let truncated = r.n > max_entries in
  let lost =
    if not truncated then 0.0
    else begin
      (* The tail from [max_entries - 1] on becomes one punt-all. *)
      let keep = max_entries - 1 in
      let lost = static_volume r ~from:keep in
      r.fields.(keep) <- MF.any;
      r.leaves.(keep) <- punt_leaf;
      r.n <- max_entries;
      lost
    end
  in
  let n = r.n in
  let entries = ref [] in
  for i = n - 1 downto 0 do
    let leaf = r.leaves.(i) in
    entries :=
      {
        e_fields = r.fields.(i);
        e_priority = priority_floor + (2 * (n - 1 - i));
        e_decision = leaf.l_decision;
        e_lines = leaf.l_lines;
      }
      :: !entries
  done;
  let installed = static_volume r ~from:0 +. reclaimed -. lost in
  let installed = max 0.0 (min 1.0 installed) in
  {
    entries = !entries;
    spills = pl.p_spills;
    static_coverage = pl.p_cov;
    installed_coverage = installed;
    truncated;
  }

(* --- installed numbering --- *)

(* Highest installed priority: 0x7fff belongs to the controller's
   guards. *)
let priority_top = 0x7ffe

let compare_key a b =
  let c = MF.compare a.e_fields b.e_fields in
  if c <> 0 then c else compare a.e_decision b.e_decision

(* One step of a longest increasing run of old indices: cur index,
   old index, and the step before it (a run's start points to the
   sentinel [common_run] makes). *)
type link = { l_cur : int; l_old : int; l_prev : link }

let same_key a b = a.e_decision = b.e_decision && MF.equal a.e_fields b.e_fields

(* Calls [keep cur_index old_index] on the pairs of a longest common
   subsequence of the two entry arrays under (fields, decision)
   equality. The common prefix and suffix are part of one, so only the
   span between them is searched, by Hunt–Szymanski: each cur entry
   offers its matching old indices in descending order to a
   patience-sorted longest strictly increasing run, O((n + r) log n)
   for r matching pairs in the span. The span's old indices are found
   by key in one array sorted by (key, index). *)
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
    let by_key = Array.init (old_end - pre) (fun k -> pre + k) in
    Array.sort
      (fun i i' ->
        match compare_key old_.(i) old_.(i') with 0 -> compare i i' | c -> c)
      by_key;
    let rec no_link = { l_cur = -1; l_old = -1; l_prev = no_link } in
    let tails = Array.make (cur_end - pre) no_link and len = ref 0 in
    for j = pre to cur_end - 1 do
      (* Past the last old index with cur.(j)'s key. *)
      let lo = ref 0 and hi = ref (Array.length by_key) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if compare_key old_.(by_key.(mid)) cur.(j) <= 0 then lo := mid + 1 else hi := mid
      done;
      let m = ref (!lo - 1) in
      while !m >= 0 && compare_key old_.(by_key.(!m)) cur.(j) = 0 do
        let i = by_key.(!m) in
        let lo = ref 0 and hi = ref !len in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if tails.(mid).l_old < i then lo := mid + 1 else hi := mid
        done;
        let l_prev = if !lo = 0 then no_link else tails.(!lo - 1) in
        tails.(!lo) <- { l_cur = j; l_old = i; l_prev };
        if !lo = !len then incr len;
        decr m
      done
    done;
    let rec walk l =
      if l != no_link then begin
        keep l.l_cur l.l_old;
        walk l.l_prev
      end
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
