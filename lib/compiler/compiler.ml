(* FDD -> OpenFlow wildcard-rule lowering. See compiler.mli for the
   factoring/spill/priority scheme. *)

open Netcore
module Fdd = Analysis.Fdd
module MF = Openflow.Match_fields

type decision = Decide of Pf.Ast.action | Punt

type entry = {
  e_fields : MF.t;
  mutable e_priority : int;
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

let is_address level = level = 1 || level = 2

(* A subtree's rule list in factored form. A split's rules are, for
   each expanded part in order, each atom of its interval (an aligned
   prefix of an address interval, a value of a protocol or port one)
   over its child's rules, then the tail's rules; [write] writes them
   out. So planning a node costs its parts, not the rules below it. No
   expanded part covers its whole level: only a node's sole part does,
   and that is its default group. [p_count] is the number of rules;
   [p_cov] is the subtree's static volume summed in part order, as the
   slice's [s_coverage] sums it; [p_dec] has the {!decision_bit} of
   every decision among its rules. *)
type plan = {
  p_body : body;
  p_count : int;
  p_cov : float;
  p_spills : spill list;
  p_dec : int;
}

and body =
  | Leaf of leaf  (* one match-all rule *)
  | Split of { level : int; node : Fdd.t; parts : part array; tail : tail }

and part = { iv : Fdd.interval; prefixes : Prefix.t list; child : plan }

and tail =
  | Default of plan * float
      (* The default group's rules, the dimension wildcarded and their
         volumes scaled by the group's share of it. *)
  | Punt_rest  (* A branch spilled: one punt over the node's space. *)

let decision_bit = function
  | Decide Pf.Ast.Pass -> 1
  | Decide Pf.Ast.Block -> 2
  | Punt -> 4

let punt_plan = { p_body = Leaf punt_leaf; p_count = 1; p_cov = 0.0; p_spills = []; p_dec = 4 }
let no_part = { iv = (0, 0); prefixes = []; child = punt_plan }

let levels = Array.length Fdd.dim_top

(* Entries an exact expansion of one interval needs: an address
   interval's prefixes, or every value of another. Counted without
   materializing anything: port widths can be 65536. *)
let atom_count level lo hi = if is_address level then Fdd.prefix_count (lo, hi) else hi - lo + 1

(* [Fdd.width level (lo, hi)], the same float, without the pair. *)
let width level lo hi = float_of_int (hi - lo + 1) /. float_of_int (Fdd.dim_top.(level) + 1)

(* Part [i] of [id] read along [level] starts here. *)
let part_lo level id i = if i = 0 then 0 else Fdd.part_hi level id (i - 1) + 1

(* Among groups whose expansions would cost the same, the default is
   the one a [Hashtbl.fold] over a [Hashtbl.create 8] keyed by these
   would meet first: the lowest bucket, and within a bucket the group
   that appeared last. Installed tables and [identxx_ctl compile]'s
   output depend on that choice, so it stays fixed. *)
type gkey = K_verdict of Fdd.verdict | K_split of int * Fdd.t

let bucket ~buckets level c =
  let key = if level = levels then K_verdict (Fdd.leaf c) else K_split (level, c) in
  Hashtbl.hash key land (buckets - 1)

(* The first part of [id] read along [level] whose child is [c]. *)
let first_with level id c =
  let i = ref 0 in
  while Fdd.part_child level id !i <> c do
    incr i
  done;
  !i

(* The default group: the set of parts sharing one child whose exact
   expansion would cost the most ([saved i] for part [i]), as the index
   of its first part. It gets the dimension wildcarded for free; the
   totality of the other branches' rules keeps that sound. Parts are
   grouped by sorting their indices by child. *)
let default_group level id (saved : int array) =
  let n = Array.length saved in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match
        Int.compare (Fdd.part_child level id a :> int) (Fdd.part_child level id b :> int)
      with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let groups = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || Fdd.part_child level id order.(k) <> Fdd.part_child level id order.(k - 1)
    then incr groups
  done;
  let buckets =
    let b = ref 16 in
    while !groups > 2 * !b do
      b := 2 * !b
    done;
    !b
  in
  let best = ref (-1) and best_saved = ref 0 and k = ref 0 in
  while !k < n do
    (* [first]: where the group first appears. *)
    let first = order.(!k) and total = ref 0 in
    let c = Fdd.part_child level id first in
    while !k < n && Fdd.part_child level id order.(!k) = c do
      total := !total + saved.(order.(!k));
      incr k
    done;
    if
      !best < 0 || !total > !best_saved
      || !total = !best_saved
         &&
         let b = bucket ~buckets (level + 1) c
         and b' = bucket ~buckets (level + 1) (Fdd.part_child level id !best) in
         b < b' || (b = b' && first > !best)
    then begin
      best := first;
      best_saved := !total
    end
  done;
  !best

(* The priority of a rule the table does not hold. *)
let unnumbered = -1

(* The last compile's atoms of one node, walked beside this compile's:
   in part [c_part], value [c_atom] of a protocol or port level, or the
   head of [c_pfx] of an address level, whose rules start at
   [c_off]. *)
type cursor = {
  mutable c_parts : part array;
  mutable c_part : int;
  mutable c_atom : int;
  mutable c_pfx : Prefix.t list;
  mutable c_off : int;
}

(* Plans by {!plan_key}: open addressing, [keys.(i)] -1 where free.
   Each compile takes over every plan the new diagram still reaches, so
   holding one must allocate nothing: with a [Hashtbl]'s bucket per
   plan, an edit after 1,000 untouched rules allocated 11,873 words
   against 8,833. *)
type plans = { mutable keys : int array; mutable vals : plan array; mutable count : int }

let create_plans () = { keys = Array.make 64 (-1); vals = Array.make 64 punt_plan; count = 0 }

(* The slot of [key] in [t], or the free slot where it would go. *)
let slot t key =
  let mask = Array.length t.keys - 1 in
  let h = key * 0x2545F4914F6CDD1D in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while t.keys.(!i) >= 0 && t.keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let mem_plan t key = t.keys.(slot t key) >= 0

(* @raise Not_found when [t] holds no plan under [key]. *)
let find_plan t key =
  let i = slot t key in
  if t.keys.(i) < 0 then raise Not_found else t.vals.(i)

let rec add_plan t key p =
  if 2 * (t.count + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) punt_plan;
    t.count <- 0;
    Array.iteri (fun i k -> if k >= 0 then add_plan t k vals.(i)) keys
  end;
  let i = slot t key in
  if t.keys.(i) < 0 then t.count <- t.count + 1;
  t.keys.(i) <- key;
  t.vals.(i) <- p

let clear_plans t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  Array.fill t.vals 0 (Array.length t.vals) punt_plan;
  t.count <- 0

(* Two generations: [cur] holds the plans the running (or last)
   compile looked up or built, [prev] those of the compile before it,
   which the running one may still take over. Each compile drops
   [prev], so a plan the new diagram no longer reaches is gone after
   one compile. A node id read at two levels has a plan at each.
   [last_rules] are every rule of the last compile's [last_root], in
   order: each its table holds carries its installed priority, the
   others [unnumbered]. [last_table] is that table's entries, and
   [last_entries] the same as its list. [cursors] are the writer's,
   one per level. Plans are keyed by {!plan_key}. *)
type cache = {
  mutable cur : plans;
  mutable prev : plans;
  mutable last_root : plan;
  mutable last_rules : entry array;
  mutable last_table : entry array;
  mutable last_entries : entry list;
  cursors : cursor array;
}

let create_cache () =
  {
    cur = create_plans ();
    prev = create_plans ();
    last_root = punt_plan;
    last_rules = [||];
    last_table = [||];
    last_entries = [];
    cursors =
      Array.init levels (fun _ -> { c_parts = [||]; c_part = 0; c_atom = 0; c_pfx = []; c_off = 0 });
  }

(* Node [id] read along [level], packed in one int. *)
let plan_key level (id : Fdd.t) = ((id :> int) lsl 3) lor level

let next_generation cache =
  let dropped = cache.prev in
  clear_plans dropped;
  cache.prev <- cache.cur;
  cache.cur <- dropped

(* Take [p], held under [key], and the split plans below it over from
   the compile before: a later compile may look any of them up. Leaves
   are a record each, and are planned again. *)
let rec take_over cache key p =
  if not (mem_plan cache.cur key) then begin
    add_plan cache.cur key p;
    match p.p_body with
    | Split { parts; tail; _ } -> (
        for k = 0 to Array.length parts - 1 do
          take_child cache parts.(k).child
        done;
        match tail with Default (t, _) -> take_child cache t | Punt_rest -> ())
    | Leaf _ -> ()
  end

and take_child cache p =
  match p.p_body with
  | Split { level; node; _ } -> take_over cache (plan_key level node) p
  | Leaf _ -> ()

(* A plan the running compile already holds, or one the compile before
   it held, which the running one takes over.
   @raise Not_found if neither holds one. *)
let find cache key =
  match find_plan cache.cur key with
  | p -> p
  | exception Not_found ->
      let p = find_plan cache.prev key in
      take_over cache key p;
      p

let leaf_plan = function
  | Fdd.Static { action; lines } ->
      {
        p_body = Leaf { l_decision = Decide action; l_lines = lines };
        p_count = 1;
        p_cov = 1.0;
        p_spills = [];
        p_dec = decision_bit (Decide action);
      }
  | Fdd.Reactive _ -> punt_plan

(* The plan of node [id] read along dimension [level]; a node that
   tests a lower dimension reads as one part covering the level. *)
let rec plan_of cache budget level id =
  let key = plan_key level id in
  match find cache key with
  | p -> p
  | exception Not_found ->
      let p =
        if level = levels then leaf_plan (Fdd.leaf id)
        else split_plan cache budget level id
      in
      add_plan cache.cur key p;
      p

and split_plan cache budget level id =
  let n = Fdd.part_count level id in
  let plans = Array.make n punt_plan and costs = Array.make n 0 in
  for i = 0 to n - 1 do
    plans.(i) <- plan_of cache budget (level + 1) (Fdd.part_child level id i);
    costs.(i) <- atom_count level (part_lo level id i) (Fdd.part_hi level id i) * plans.(i).p_count
  done;
  let default = default_group level id costs in
  let default_node = Fdd.part_child level id default in
  (* A part is expanded unless it is in the default group or costs
     more than [budget], which spills it. Sums run in part order, as
     [s_coverage]'s does, so [p_cov] matches it bit for bit. *)
  let default_frac = ref 0.0 and cov = ref 0.0 and spilled = ref [] and n_kept = ref 0 in
  for i = 0 to n - 1 do
    let lo = part_lo level id i and hi = Fdd.part_hi level id i in
    cov := !cov +. (width level lo hi *. plans.(i).p_cov);
    if Fdd.part_child level id i = default_node then
      default_frac := !default_frac +. width level lo hi
    else if costs.(i) <= budget then incr n_kept
    else
      spilled :=
        { sp_dim = dim_name.(level); sp_interval = (lo, hi); sp_cost = costs.(i) } :: !spilled
  done;
  let kept = Array.make !n_kept no_part in
  let count = ref 0 and child_spills = ref [] and dec = ref 0 in
  for i = n - 1 downto 0 do
    let c = Fdd.part_child level id i in
    if c <> default_node && costs.(i) <= budget then begin
      decr n_kept;
      let iv = (part_lo level id i, Fdd.part_hi level id i) in
      (* Only an expanded part keeps its prefixes. *)
      let prefixes = if is_address level then Fdd.prefixes_of_interval iv else [] in
      kept.(!n_kept) <- { iv; prefixes; child = plans.(i) };
      count := !count + costs.(i);
      dec := !dec lor plans.(i).p_dec
    end;
    (* A child's spills count once, where it first appears. *)
    let sp = plans.(i).p_spills in
    if sp <> [] && first_with level id c = i then child_spills := sp @ !child_spills
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
    p_body = Split { level; node = id; parts = kept; tail };
    p_count = !count + tail_count;
    p_cov = !cov;
    p_spills = !spilled @ !child_spills;
    p_dec = (match tail with Punt_rest -> !dec lor 4 | Default (p, _) -> !dec lor p.p_dec);
  }

(* --- writing the table out --- *)

(* Highest installed priority: 0x7fff belongs to the controller's
   guards. *)
let priority_top = 0x7ffe

let no_entry = { e_fields = MF.any; e_priority = unnumbered; e_decision = Punt; e_lines = [] }

(* One compile writing its root plan's rules out beside the last
   compile's rules [old]. Rule [i] is [rules.(i)]; it claims [vols.(i)]
   of the flow space if it decides, its volume scaled by each level's
   [share] from the bottom up (floats do not associate, so that order
   keeps the installed coverage what it is); the tail collapse drops it
   when [dropped] says ['d']. [other] has the decision bits that keep a
   rule from collapsing: all but the final rule's, or none when that
   rule punts. [fresh] says ['f'] for a rule this compile built, which
   nothing else holds yet, so numbering sets its priority in place. *)
type writer = {
  old : entry array;
  rules : entry array;
  fresh : Bytes.t;
  vols : float array;
  dropped : Bytes.t;
  mutable n : int;
  other : int;
  share : float array;
  cursors : cursor array;
}

(* The tail collapse drops a rule when the final, match-all rule has
   its decision and no later rule with another decision overlaps it: a
   packet it takes lands on an equivalent rule. A later rule that
   overlaps rule [i] lies in the tail of a node above [i] whose
   expanded part holds [i], since a later part's atoms are disjoint from
   [i]'s. So the walk carries the plans of those tails, each kept only
   while it holds another decision, and a rule collapses when none is
   left. A plan read above the walk's level stands for all its rules
   there: the path was a wildcard in between. A punt over a node's
   whole space meets all below it: it stands alone, as [punt_plan]. *)
let blocked = function { p_body = Leaf _; _ } :: _ -> true | _ -> false

let add_later w p later =
  if p.p_dec land w.other = 0 || blocked later || List.memq p later then later
  else match p.p_body with Leaf _ -> [ p ] | Split _ -> p :: later

(* The first of [parts] whose interval ends at or after [lo]. *)
let first_meeting parts lo =
  let a = ref 0 and b = ref (Array.length parts) in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if snd parts.(mid).iv < lo then a := mid + 1 else b := mid
  done;
  !a

(* [later] and the plans below [p] that may hold a rule meeting atom
   [lo, hi] of [level]: for a plan read above [level], those of all its
   children; for one read at [level], its tail and the children of its
   parts meeting the atom. *)
let rec meet w level lo hi p later =
  match p.p_body with
  | _ when blocked later -> later
  | Leaf _ -> [ p ]
  | Split { level = l; _ } when l > level -> add_later w p later
  | Split { level = l; parts; tail; _ } ->
      let above = l < level in
      let later =
        ref
          (match tail with
          | Punt_rest -> [ punt_plan ]
          | Default (t, _) -> if above then meet w level lo hi t later else add_later w t later)
      in
      let k = ref (if above then 0 else first_meeting parts lo) in
      while !k < Array.length parts && (above || fst parts.(!k).iv <= hi) do
        let c = parts.(!k).child in
        later := if above then meet w level lo hi c !later else add_later w c !later;
        incr k
      done;
      !later

let rec meet_all w level lo hi ctx later =
  match ctx with [] -> later | p :: rest -> meet_all w level lo hi rest (meet w level lo hi p later)

(* An atom's place in its level's order: a value, or an address
   prefix's network and length. *)
let prefix_key p = (Ipv4.to_int (Prefix.network p) lsl 6) lor Prefix.length p

(* Where the last compile's rules under atom [key] start, or -1. *)
let rec seek level c key =
  let here =
    if c.c_part >= Array.length c.c_parts then max_int
    else if is_address level then match c.c_pfx with p :: _ -> prefix_key p | [] -> max_int
    else fst c.c_parts.(c.c_part).iv + c.c_atom
  in
  if here < key then begin
    let pt = c.c_parts.(c.c_part) in
    c.c_off <- c.c_off + pt.child.p_count;
    (match c.c_pfx with
    | _ :: (_ :: _ as rest) -> c.c_pfx <- rest
    | _ when (not (is_address level)) && fst pt.iv + c.c_atom < snd pt.iv ->
        c.c_atom <- c.c_atom + 1
    | _ ->
        c.c_part <- c.c_part + 1;
        c.c_atom <- 0;
        if c.c_part < Array.length c.c_parts then c.c_pfx <- c.c_parts.(c.c_part).prefixes);
    seek level c key
  end
  else if here = key then c.c_off
  else -1

(* [m] with atom [v] or [p] at [level]. *)
let with_atom level (m : MF.t) v p =
  match level with
  | 0 -> { m with MF.nw_proto = Some (Proto.of_int v) }
  | 1 -> { m with MF.nw_src = Some p }
  | 2 -> { m with MF.nw_dst = Some p }
  | 3 -> { m with MF.tp_src = Some v }
  | _ -> { m with MF.tp_dst = Some v }

(* [m] wildcarded from [level] down. *)
let above level (m : MF.t) =
  let keep l x = if level > l then x else None in
  {
    m with
    MF.nw_proto = keep 0 m.MF.nw_proto;
    nw_src = keep 1 m.MF.nw_src;
    nw_dst = keep 2 m.MF.nw_dst;
    tp_src = keep 3 m.MF.tp_src;
    tp_dst = None;
  }

(* Rule [w.n]: the last compile's rule [old.(o)] when [o >= 0], which
   sat where it does and has its match; else a rule matching [m]. *)
let emit w leaf o m ctx =
  let i = w.n in
  let e = if o < 0 then no_entry else w.old.(o) in
  w.rules.(i) <-
    (if o >= 0 && e.e_decision = leaf.l_decision
        && (e.e_lines == leaf.l_lines || e.e_lines = leaf.l_lines)
     then e
     else begin
       Bytes.set w.fresh i 'f';
       if o < 0 then
         { e_fields = m; e_priority = unnumbered; e_decision = leaf.l_decision; e_lines = leaf.l_lines }
       else if e.e_decision <> leaf.l_decision then
         { e with e_priority = unnumbered; e_decision = leaf.l_decision; e_lines = leaf.l_lines }
       else { e with e_lines = leaf.l_lines }
     end);
  let v = ref 1.0 in
  for l = levels - 1 downto 0 do
    v := !v *. w.share.(l)
  done;
  w.vols.(i) <- !v;
  if ctx = [] && w.other <> 0 && decision_bit leaf.l_decision land w.other = 0 then
    Bytes.set w.dropped i 'd';
  w.n <- i + 1

(* Write out the rules of [pl], under the match [m] when [o < 0]. The
   last compile wrote [op] at this place, its first rule at [old.(o)],
   or nothing when [o < 0]; an [op] that is a leaf above the leaves'
   level is one rule matching all this place does. [ctx] holds the
   plans of the later rules that may overlap this place. *)
let rec write w pl op o m ctx =
  match pl.p_body with
  | Leaf l -> emit w l o m ctx
  | Split { level; parts; tail; _ } -> (
      let here =
        if w.other = 0 then []
        else match tail with Punt_rest -> [ punt_plan ] | Default (t, _) -> add_later w t []
      in
      let c = w.cursors.(level) in
      c.c_parts <- (match op.p_body with Split s when o >= 0 -> s.parts | _ -> [||]);
      c.c_part <- 0;
      c.c_atom <- 0;
      c.c_pfx <- (if Array.length c.c_parts = 0 then [] else c.c_parts.(0).prefixes);
      c.c_off <- o;
      let at_level =
        if w.other = 0 || Array.length parts = 0 then ctx
        else meet_all w (level - 1) 0 max_int ctx []
      in
      (* Fresh rules under this place: their match above [level]. *)
      let base = ref m and based = ref (o < 0) in
      for k = 0 to Array.length parts - 1 do
        let pt = parts.(k) in
        let ps = ref pt.prefixes in
        for v = fst pt.iv to if is_address level then fst pt.iv + List.length !ps - 1 else snd pt.iv do
          let p = match !ps with p :: rest -> ps := rest; p | [] -> Prefix.all in
          let oa = seek level c (if is_address level then prefix_key p else v) in
          w.share.(level) <-
            float_of_int (if is_address level then Prefix.size p else 1)
            /. float_of_int (Fdd.dim_top.(level) + 1);
          if oa < 0 && not !based then begin
            base := above level w.old.(o).e_fields;
            based := true
          end;
          let lo = if is_address level then Ipv4.to_int (Prefix.first p) else v
          and hi = if is_address level then Ipv4.to_int (Prefix.last p) else v in
          write w pt.child
            (if oa < 0 then pt.child else c.c_parts.(c.c_part).child)
            oa
            (if oa < 0 then with_atom level !base v p else m)
            (if w.other = 0 then [] else meet_all w level lo hi at_level here)
        done
      done;
      (* The tail's rules: a Default group's in the last compile's, or
         else its last rule, which matches all this tail does. *)
      let last = if o < 0 then -1 else o + op.p_count - 1 in
      match (tail, op.p_body) with
      | Default (t, frac), Split { tail = Default (t', _); _ } when o >= 0 ->
          w.share.(level) <- frac;
          write w t t' (o + op.p_count - t'.p_count) m ctx
      | Default (t, frac), _ ->
          w.share.(level) <- frac;
          write w t punt_plan last m ctx
      | Punt_rest, _ -> emit w punt_leaf last m ctx)

(* The decision of a plan's last rule, which matches every flow. *)
let rec final_decision pl =
  match pl.p_body with
  | Leaf l -> l.l_decision
  | Split { tail = Default (t, _); _ } -> final_decision t
  | Split { tail = Punt_rest; _ } -> Punt

(* The first entry of [t] from [k] on that has a priority. *)
let rec next_numbered t k =
  if k < Array.length t && t.(k).e_priority = unnumbered then next_numbered t (k + 1) else k

(* [t.(i)] at priority [p]: set in place when [fresh] says ['f'] at
   [i], else a copy. *)
let reprioritize t fresh i p =
  if t.(i).e_priority <> p then
    if Bytes.get fresh i = 'f' then t.(i).e_priority <- p
    else t.(i) <- { (t.(i)) with e_priority = p }

(* [t.(j)] to [t.(k - 1)], spaced evenly between [above] and [below]. *)
let spread t fresh above below j k =
  for x = j to k - 1 do
    reprioritize t fresh x (above - ((above - below) * (x - j + 1) / (k - j + 1)))
  done

(* Whether each gap from [t.(j)] on, below [above], has room for the
   unnumbered entries in it; unless [dry], space them in it. *)
let rec fill ~dry t fresh above j =
  let k = next_numbered t j in
  let below = if k = Array.length t then priority_floor - 1 else t.(k).e_priority in
  above - below > k - j
  && (dry || (spread t fresh above below j k; true))
  && (k = Array.length t || fill ~dry t fresh below (k + 1))

(* Give each entry of [t] left [unnumbered] a priority, strictly
   descending inside [\[priority_floor, priority_top\]]: spaced evenly
   between its numbered neighbours, the band's edges counting as
   neighbours at [priority_top + 1] and [priority_floor - 1]. When some
   gap has no room, the whole table is spread evenly over the band, as
   it is on a first install. *)
let number t fresh =
  let top = priority_top + 1 in
  if not (fill ~dry:true t fresh top 0 && fill ~dry:false t fresh top 0) then
    spread t fresh top (priority_floor - 1) 0 (Array.length t)

(* [t] as a list that shares the longest run of entries ending it that
   the last compile's table ends in too, record for record. *)
let share_suffix cache t =
  let m = Array.length cache.last_table and n = Array.length t in
  let k = ref 0 in
  while !k < m && !k < n && t.(n - 1 - !k) == cache.last_table.(m - 1 - !k) do
    incr k
  done;
  let rec drop l i = if i = 0 then l else drop (List.tl l) (i - 1) in
  let entries = ref (drop cache.last_entries (m - !k)) in
  for i = n - 1 - !k downto 0 do
    entries := t.(i) :: !entries
  done;
  !entries

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
  let size = pl.p_count in
  let w =
    {
      old = cache.last_rules;
      rules = Array.make size no_entry;
      fresh = Bytes.make size ' ';
      vols = Array.create_float size;
      dropped = Bytes.make size 'k';
      n = 0;
      other =
        (match final_decision pl with Punt -> 0 | d -> 7 land lnot (decision_bit d));
      share = Array.make levels 1.0;
      cursors = cache.cursors;
    }
  in
  write w pl cache.last_root (if Array.length cache.last_rules = 0 then -1 else 0) MF.any [];
  let rules = w.rules in
  (* The final rule never collapses. With no collapse, trailing punts
     go: a miss punts as well. *)
  Bytes.set w.dropped (size - 1) 'k';
  let i = ref (size - 1) in
  while w.other = 0 && !i >= 0 && rules.(!i).e_decision = Punt do
    Bytes.set w.dropped !i 'd';
    decr i
  done;
  let kept i = Bytes.get w.dropped i = 'k' in
  let reclaimed = ref 0.0 and count = ref 0 in
  for i = size - 1 downto 0 do
    if kept i then incr count else if w.other <> 0 then reclaimed := !reclaimed +. w.vols.(i)
  done;
  (* Past [max_entries], the tail from [max_entries - 1] on becomes one
     punt-all. The last compile's, if it ended in one, keeps its place:
     only a truncated table ends in a punt. *)
  let truncated = !count > max_entries in
  let keep = if truncated then max_entries - 1 else !count in
  let table = Array.make (if truncated then max_entries else keep) no_entry in
  let table_fresh = Bytes.make (Array.length table) ' ' in
  let m = Array.length cache.last_table in
  if truncated && m > 0 && cache.last_table.(m - 1).e_decision = Punt then
    table.(keep) <- cache.last_table.(m - 1);
  (* The static volume installed and the volume the punt-all takes,
     each summed in order. *)
  let installed = ref 0.0 and lost = ref 0.0 and j = ref 0 in
  for i = 0 to size - 1 do
    if kept i then begin
      let static = match rules.(i).e_decision with Decide _ -> true | Punt -> false in
      if !j < keep then begin
        table.(!j) <- rules.(i);
        Bytes.set table_fresh !j (Bytes.get w.fresh i)
      end;
      if static && !j < keep then installed := !installed +. w.vols.(i)
      else if static then lost := !lost +. w.vols.(i);
      incr j
    end
  done;
  number table table_fresh;
  (* What the next compile keeps: every rule the table holds at its
     priority, the others unnumbered. *)
  let j = ref 0 in
  for i = 0 to size - 1 do
    if kept i && !j < keep then begin
      rules.(i) <- table.(!j);
      incr j
    end
    else reprioritize rules w.fresh i unnumbered
  done;
  let entries = share_suffix cache table in
  cache.last_root <- pl;
  cache.last_rules <- rules;
  cache.last_table <- table;
  cache.last_entries <- entries;
  {
    entries;
    spills = pl.p_spills;
    static_coverage = pl.p_cov;
    installed_coverage = max 0.0 (min 1.0 (!installed +. !reclaimed -. !lost));
    truncated;
  }

(* --- deltas --- *)

type delta = { d_add : entry list; d_del : entry list }

(* One merge over the two priority-descending entry lists: within a
   table priorities are distinct, so an entry is unchanged exactly when
   the other table holds an entry at its priority with its fields and
   decision. *)
let delta ~old_ cur =
  let same a b =
    a == b || (a.e_decision = b.e_decision && MF.equal a.e_fields b.e_fields)
  in
  let rec go add del olds curs =
    if olds == curs then { d_add = List.rev add; d_del = List.rev del }
    else
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
