(* Reduced ordered interval decision diagrams over the five header
   dimensions, with exact quick/last-match abstract evaluation at the
   leaves. See fdd.mli for the semantic contract. *)

open Netcore

type interval = int * int

let levels = 5

(* Inclusive upper bound of each dimension: proto, src, dst, sport,
   dport. *)
let dim_top = [| 255; 0xFFFF_FFFF; 0xFFFF_FFFF; 0xFFFF; 0xFFFF |]

type reason = {
  lines : int list;
  inputs : Pf.Ast.cond_input list;
  may_default : bool;
}

type verdict =
  | Static of { action : Pf.Ast.action; lines : int list }
  | Reactive of reason

(* The abstract evaluation state threaded through the rule fold, per
   point of flow space. [finals] are (action, line) pairs already
   locked in by a quick rule on some assignment of condition truth
   values; [running] is whether evaluation can still reach later rules
   (false once an unconditional quick rule fired); [currents] are the
   possible current last-matches if evaluation runs off the end;
   [deps] are the conditional rule lines the distinction between the
   possibilities hinges on. Line 0 stands for the implicit default. *)
type st = {
  finals : (Pf.Ast.action * int) list;
  running : bool;
  currents : (Pf.Ast.action * int) list;
  deps : int list;
}

(* [L_space] leaves make a diagram a flow space: in or out. *)
type leaf = L_state of st | L_verdict of verdict | L_space of bool

type t = int

(* --- the global hash-consed store --- *)

(* Node [id] is [nodes.(id)]. An interior node is one flat array: its
   level, then its parts as (hi, child) pairs, part [i] at [1 + 2i] and
   [2 + 2i]. Part [i] runs from the previous part's hi + 1 (0 for the
   first) to its own hi; his strictly ascending, the last
   [dim_top.(level)]; adjacent children distinct; at least two parts.
   Every leaf is the one [leaf_mark], whose level is [levels], and its
   value is [leaves.(id)]. *)
let leaf_mark = [| levels |]
let parts_of a = (Array.length a - 1) / 2

(* An int-keyed memo of node ids, open addressing; [clear] empties it
   in O(1) by starting a new generation. *)
module Memo = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable gens : int array;  (* a slot is live iff its generation is [gen] *)
    mutable gen : int;
    mutable count : int;
  }

  let create n =
    { keys = Array.make n 0; vals = Array.make n 0; gens = Array.make n 0; gen = 1; count = 0 }

  let clear m =
    m.gen <- m.gen + 1;
    m.count <- 0

  let length m = m.count

  let slot key mask =
    let h = key * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land mask

  (* The value under [key], or -1. *)
  let find m key =
    let mask = Array.length m.keys - 1 in
    let i = ref (slot key mask) and r = ref (-2) in
    while !r = -2 do
      if m.gens.(!i) <> m.gen then r := -1
      else if m.keys.(!i) = key then r := m.vals.(!i)
      else i := (!i + 1) land mask
    done;
    !r

  (* [key] must be absent. *)
  let rec add m key v =
    if 2 * (m.count + 1) > Array.length m.keys then grow m;
    let mask = Array.length m.keys - 1 in
    let i = ref (slot key mask) in
    while m.gens.(!i) = m.gen do
      i := (!i + 1) land mask
    done;
    m.keys.(!i) <- key;
    m.vals.(!i) <- v;
    m.gens.(!i) <- m.gen;
    m.count <- m.count + 1

  and grow m =
    let keys = m.keys and vals = m.vals and gens = m.gens in
    let n = 2 * Array.length keys in
    m.keys <- Array.make n 0;
    m.vals <- Array.make n 0;
    m.gens <- Array.make n 0;
    m.count <- 0;
    for i = 0 to Array.length keys - 1 do
      if gens.(i) = m.gen then add m keys.(i) vals.(i)
    done
end

(* The store: [size] nodes, interior ones found by content through
   [slots] (ids by hash, -1 free), leaves through [leaf_ids]. [buf] is
   a stack of the (hi, child) parts of nodes under construction, up to
   [top]; [memo] is the memo of one rule application or space
   operation, cleared when the next starts. *)
type store = {
  mutable nodes : int array array;
  mutable leaves : leaf array;
  mutable size : int;
  mutable slots : int array;
  leaf_ids : (leaf, int) Hashtbl.t;
  mutable buf : int array;
  mutable top : int;
  memo : Memo.t;
}

let no_leaf = L_space false

let store =
  let nodes = Array.make 256 leaf_mark in
  {
    nodes;
    leaves = Array.make 256 no_leaf;
    size = 0;
    slots = Array.make 512 (-1);
    leaf_ids = Hashtbl.create 64;
    buf = Array.make 64 0;
    top = 0;
    memo = Memo.create 64;
  }

let mix h w = (h lxor w) * 0x100000001b3

(* The hash of a node at [level] whose parts are [a.(off)] to
   [a.(off + len - 1)]. *)
let node_hash level a off len =
  let h = ref (mix 0 level) in
  for i = off to off + len - 1 do
    h := mix !h a.(i)
  done;
  !h lxor (!h lsr 32)

let add_node a l =
  let s = store in
  if s.size = Array.length s.nodes then begin
    let nodes = Array.make (2 * s.size) leaf_mark and leaves = Array.make (2 * s.size) no_leaf in
    Array.blit s.nodes 0 nodes 0 s.size;
    Array.blit s.leaves 0 leaves 0 s.size;
    s.nodes <- nodes;
    s.leaves <- leaves
  end;
  let id = s.size in
  s.nodes.(id) <- a;
  s.leaves.(id) <- l;
  s.size <- id + 1;
  id

let place slots h id =
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- id

let grow_slots () =
  let s = store in
  let slots = Array.make (2 * Array.length s.slots) (-1) in
  for i = 0 to Array.length s.slots - 1 do
    let id = s.slots.(i) in
    if id >= 0 then
      let a = s.nodes.(id) in
      place slots (node_hash a.(0) a 1 (Array.length a - 1)) id
  done;
  s.slots <- slots

let same_node level buf base len a =
  Array.length a = len + 1
  && a.(0) = level
  &&
  let i = ref 0 in
  while !i < len && a.(!i + 1) = buf.(base + !i) do
    incr i
  done;
  !i = len

(* The interior node at [level] whose parts are [buf.(base)] to
   [buf.(top - 1)], interned: found, or copied out of the stack. *)
let intern_parts level base top =
  let s = store in
  let len = top - base in
  let mask = Array.length s.slots - 1 in
  let i = ref (node_hash level s.buf base len land mask) and found = ref (-1) in
  while !found < 0 && s.slots.(!i) >= 0 do
    let id = s.slots.(!i) in
    if same_node level s.buf base len s.nodes.(id) then found := id
    else i := (!i + 1) land mask
  done;
  if !found >= 0 then !found
  else begin
    let a = Array.make (len + 1) level in
    Array.blit s.buf base a 1 len;
    let id = add_node a no_leaf in
    s.slots.(!i) <- id;
    if 2 * s.size > Array.length s.slots then grow_slots ();
    id
  end

let intern_leaf l =
  match Hashtbl.find store.leaf_ids l with
  | id -> id
  | exception Not_found ->
      let id = add_node leaf_mark l in
      Hashtbl.add store.leaf_ids l id;
      id

let sorted l = List.sort_uniq compare l
let mk_state s = intern_leaf (L_state s)
let mk_verdict v = intern_leaf (L_verdict v)

(* Building a node: its parts are pushed in order above the stack's
   [top] at the time it started, its [base], and [build] canonicalizes
   them: adjacent equal children merge as they are pushed, and a node
   left with one part is its child. A child is built above its
   parent's parts, and popped before the parent pushes it. *)
let push base hi c =
  let s = store in
  let top = s.top in
  if top > base && s.buf.(top - 1) = c then s.buf.(top - 2) <- hi
  else begin
    if top + 2 > Array.length s.buf then begin
      let buf = Array.make (2 * Array.length s.buf) 0 in
      Array.blit s.buf 0 buf 0 top;
      s.buf <- buf
    end;
    s.buf.(top) <- hi;
    s.buf.(top + 1) <- c;
    s.top <- top + 2
  end

let build level base =
  let s = store in
  let r = if s.top - base = 2 then s.buf.(base + 1) else intern_parts level base s.top in
  s.top <- base;
  r

(* --- reading a node along a level --- *)

(* A node that tests a dimension below [level] (or a leaf) reads there
   as one part covering the level, whose child is the node itself.
   Every traversal here reads a node at its own level or above. *)
let level_of id = store.nodes.(id).(0)

let part_count level id =
  let a = store.nodes.(id) in
  if a.(0) = level then parts_of a else 1

let part_hi level id i =
  let a = store.nodes.(id) in
  if a.(0) = level then a.(1 + (2 * i)) else dim_top.(level)

let part_child level id i =
  let a = store.nodes.(id) in
  if a.(0) = level then a.(2 + (2 * i)) else id

(* Walk [a] and [b] read at [level] in lockstep, calling
   [k lo hi child_a child_b] for each aligned piece. *)
let merge_parts level a b k =
  let na = part_count level a and nb = part_count level b in
  let i = ref 0 and j = ref 0 and lo = ref 0 in
  while !i < na && !j < nb do
    let ha = part_hi level a !i and hb = part_hi level b !j in
    let hi = min ha hb in
    k !lo hi (part_child level a !i) (part_child level b !j);
    lo := hi + 1;
    if ha = hi then incr i;
    if hb = hi then incr j
  done

(* --- rule header constraints as interval lists per dimension --- *)

(* Sort, drop empties, merge overlapping or adjacent intervals. *)
let norm_ivals ivs =
  let ivs = List.sort compare (List.filter (fun (a, b) -> a <= b) ivs) in
  let rec merge = function
    | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge ((a, max b d) :: rest)
    | p :: rest -> p :: merge rest
    | [] -> []
  in
  merge ivs

(* Complement of a normalized interval list within [0, top]. *)
let complement_ivals top ivs =
  let rec gaps lo = function
    | [] -> if lo <= top then [ (lo, top) ] else []
    | (a, b) :: rest ->
        (if lo < a then [ (lo, a - 1) ] else []) @ gaps (b + 1) rest
  in
  gaps 0 ivs

let prefix_ival p = (Ipv4.to_int (Prefix.first p), Ipv4.to_int (Prefix.last p))
let addr_top = dim_top.(1)

(* A normalized interval list as one flat array of (lo, hi) pairs. *)
let flat ivs =
  let a = Array.make (2 * List.length ivs) 0 in
  List.iteri
    (fun i (lo, hi) ->
      a.(2 * i) <- lo;
      a.((2 * i) + 1) <- hi)
    ivs;
  a

(* Each dimension whole, flat. Never written: steps share them. *)
let whole = Array.map (fun top -> [| 0; top |]) dim_top

let addr_ivals ~lookup (spec : Pf.Ast.addr_spec option) =
  match spec with
  | None | Some { Pf.Ast.negated = false; addr = Pf.Ast.Addr_any } -> Some whole.(1)
  | Some { Pf.Ast.negated = false; addr = Pf.Ast.Addr_prefix p } ->
      Some [| Ipv4.to_int (Prefix.first p); Ipv4.to_int (Prefix.last p) |]
  | Some { Pf.Ast.negated; addr } -> (
      let positive =
        match addr with
        | Pf.Ast.Addr_any -> Some [ (0, addr_top) ]
        | Pf.Ast.Addr_prefix p -> Some [ prefix_ival p ]
        | Pf.Ast.Addr_list ps -> Some (List.map prefix_ival ps)
        | Pf.Ast.Addr_table n -> Option.map (List.map prefix_ival) (lookup n)
      in
      match positive with
      | None -> None
      | Some ivs ->
          let ivs = norm_ivals ivs in
          Some (flat (if negated then complement_ivals addr_top ivs else ivs)))

let port_ivals level = function
  | None -> whole.(level)
  | Some pm ->
      let lo, hi = Pf.Ast.port_interval pm in
      let lo = max 0 lo and hi = min dim_top.(level) hi in
      if lo <= hi then [| lo; hi |] else [||]

(* One normalized interval list per dimension, flat, or [None] when the
   rule names a table the [lookup] cannot resolve. *)
let dims_of_rule ~lookup (r : Pf.Ast.rule) =
  match
    (addr_ivals ~lookup r.Pf.Ast.from_.addr, addr_ivals ~lookup r.Pf.Ast.to_.addr)
  with
  | Some src, Some dst ->
      let proto =
        match r.Pf.Ast.proto with
        | None -> whole.(0)
        | Some p ->
            let v = Proto.to_int p in
            [| v; v |]
      in
      Some [| proto; src; dst; port_ivals 3 r.Pf.Ast.from_.port; port_ivals 4 r.Pf.Ast.to_.port |]
  | _ -> None

(* --- abstract state transitions (§3.3 quick/last-match) --- *)

(* An unconditional rule whose header matches. Once it fires with no
   earlier quick possibility pending, everything before it is dead:
   clear [deps] so reactive classification stays precise. *)
let apply_uncond stt ~action ~line ~quick =
  if not stt.running then stt
  else
    let deps = if stt.finals = [] then [] else stt.deps in
    if quick then
      { finals = sorted ((action, line) :: stt.finals);
        running = false;
        currents = [];
        deps }
    else { stt with currents = [ (action, line) ]; deps }

(* A conditional rule whose header matches: it may or may not fire, so
   merge the fired branch into the current possibilities. *)
let apply_cond stt ~action ~line ~quick =
  if not stt.running then stt
  else
    let merged =
      if quick then { stt with finals = sorted ((action, line) :: stt.finals) }
      else { stt with currents = sorted ((action, line) :: stt.currents) }
    in
    if merged = stt then stt else { merged with deps = sorted (line :: stt.deps) }

(* --- applying one rule to the whole diagram --- *)

(* Split the diagram along the rule's header intervals [dims]: inside
   every dimension, rewrite the leaf with [tr]; anywhere outside, keep
   the existing subdiagram. Memoized on (level, node) in the store's
   memo, so an application allocates the nodes it interns and what
   [tr] makes, nothing else. *)
let rec inside dims tr level id =
  if level = levels then tr id
  else
    let key = (id lsl 3) lor level in
    let r = Memo.find store.memo key in
    if r >= 0 then r
    else begin
      let base = store.top in
      let a = store.nodes.(id) in
      if a.(0) = level then begin
        let lo = ref 0 in
        for p = 0 to parts_of a - 1 do
          let hi = a.(1 + (2 * p)) in
          split dims tr level base !lo hi a.(2 + (2 * p));
          lo := hi + 1
        done
      end
      else split dims tr level base 0 dim_top.(level) id;
      let r = build level base in
      Memo.add store.memo key r;
      r
    end

(* The parts of the segment [lo, hi] whose child is [child]: inside
   each of the rule's intervals it meets, the child rewritten below;
   elsewhere, the child. *)
and split dims tr level base lo hi child =
  let ivs = dims.(level) in
  let cur = ref lo in
  for k = 0 to (Array.length ivs / 2) - 1 do
    let a = max ivs.(2 * k) lo and b = min ivs.((2 * k) + 1) hi in
    if a <= b then begin
      if a > !cur then push base (a - 1) child;
      push base b (inside dims tr (level + 1) child);
      cur := b + 1
    end
  done;
  if !cur <= hi then push base hi child

let apply_rule root dims tr =
  Memo.clear store.memo;
  inside dims tr 0 root

(* [root] with every leaf [l] replaced by [f l], memoized by node in
   [memo]. *)
let rec map_leaves memo f id =
  let r = Memo.find memo id in
  if r >= 0 then r
  else begin
    let a = store.nodes.(id) in
    let r =
      if a == leaf_mark then f store.leaves.(id)
      else begin
        let base = store.top in
        for p = 0 to parts_of a - 1 do
          let c = map_leaves memo f a.(2 + (2 * p)) in
          push base a.(1 + (2 * p)) c
        done;
        build a.(0) base
      end
    in
    Memo.add memo id r;
    r
  end

let map_verdicts f root =
  map_leaves (Memo.create 64)
    (function L_verdict v -> mk_verdict (f v) | l -> intern_leaf l)
    root

(* --- compilation --- *)

let finalize_state line_inputs stt =
  let possible = stt.finals @ if stt.running then stt.currents else [] in
  match sorted (List.map fst possible) with
  | [ a ] -> Static { action = a; lines = sorted (List.map snd possible) }
  | _ ->
      Reactive
        {
          lines = stt.deps;
          inputs = sorted (List.concat_map line_inputs stt.deps);
          may_default = List.exists (fun (_, l) -> l = 0) possible;
        }

(* One applied rule of a compile's fold, keyed by the root it was
   applied to, the rule's intervals, action, line, [quick] and whether
   it is conditional; [s_root] is the root that resulted. [s_rule] and
   [s_inputs] let an unchanged rule be recognized, and its [with]
   inputs reused, without recomputing its intervals. *)
type step = {
  s_prev : int;
  s_rule : Pf.Ast.rule;
  s_dims : int array array;
  s_inputs : Pf.Ast.cond_input list;
  s_root : int;
}

(* [finals] maps nodes of folded diagrams to their finalized nodes
   under [inputs], the [with] inputs by line; it is shared by every
   compile whose [inputs] are equal, and started afresh once it holds
   more than [4 * full], its size after its last whole pass. *)
type steps = {
  fold : step list;
  inputs : (int, Pf.Ast.cond_input list) Hashtbl.t;
  finals : Memo.t option;
  full : int;
}

(* Without [finals], [inputs] is never read. *)
let no_steps = { fold = []; inputs = Hashtbl.create 1; finals = None; full = 0 }

(* Whether [r], applied to [root], is the rule [s] recorded, but for
   its intervals: a rule structurally equal in its headers and naming
   no table ([same_headers]) has the same; any other is compared by
   its intervals. *)
let same_key root (r : Pf.Ast.rule) s =
  let o = s.s_rule in
  s.s_prev = root && r.action = o.action && r.line = o.line && r.quick = o.quick
  && Pf.Ast.cond_free r = Pf.Ast.cond_free o

let same_headers (r : Pf.Ast.rule) s =
  let o = s.s_rule in
  r.proto = o.proto && r.from_ = o.from_ && r.to_ = o.to_ && Pf.Ast.tables_of_rule r = []

(* The step [s] for [r], which differs from its rule at most in its
   [with] conditions. *)
let keep_step (r : Pf.Ast.rule) s =
  if r.conds = s.s_rule.conds then s else { s with s_rule = r; s_inputs = Pf.Ast.rule_inputs r }

let same_inputs a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun line i same ->
         same
         && match Hashtbl.find b line with i' -> i = i' | exception Not_found -> false)
       a true

let recompile_rules ?(default = Pf.Ast.Pass) prev ~lookup rules =
  let init =
    mk_state
      { finals = []; running = true; currents = [ (default, 0) ]; deps = [] }
  in
  let inputs = Hashtbl.create 16 in
  let note_inputs (r : Pf.Ast.rule) i =
    if not (Pf.Ast.cond_free r) then Hashtbl.replace inputs r.line i
  in
  (* This compile's steps, in order. [prev]: the previous compile's
     steps not yet passed, while every key so far has matched. *)
  let[@tail_mod_cons] rec fold root prev = function
    | [] -> []
    | (r : Pf.Ast.rule) :: rest -> (
        match prev with
        | s :: prev' when same_key root r s && same_headers r s ->
            let s = keep_step r s in
            note_inputs r s.s_inputs;
            s :: fold s.s_root prev' rest
        | _ -> (
            (* The intervals, computed once: to compare, then to apply. *)
            match (dims_of_rule ~lookup r, prev) with
            | Some dims, s :: prev' when same_key root r s && dims = s.s_dims ->
                let s = keep_step r s in
                note_inputs r s.s_inputs;
                s :: fold s.s_root prev' rest
            | Some dims, _ when not (Array.exists (fun ivs -> Array.length ivs = 0) dims) ->
                let i = Pf.Ast.rule_inputs r in
                note_inputs r i;
                let tr =
                  if Pf.Ast.cond_free r then
                    apply_uncond ~action:r.action ~line:r.line ~quick:r.quick
                  else apply_cond ~action:r.action ~line:r.line ~quick:r.quick
                in
                let root' =
                  apply_rule root dims (fun id ->
                      match store.leaves.(id) with
                      | L_state s -> mk_state (tr s)
                      | _ -> invalid_arg "Fdd: rule applied to a finalized diagram")
                in
                { s_prev = root; s_rule = r; s_dims = dims; s_inputs = i; s_root = root' }
                :: fold root' [] rest
            | (Some _ | None), _ -> fold root prev rest))
  in
  let fold = fold init prev.fold rules in
  let root = List.fold_left (fun _ s -> s.s_root) init fold in
  let finals, full =
    match prev.finals with
    | Some m when Memo.length m <= 4 * prev.full && same_inputs inputs prev.inputs ->
        (m, prev.full)
    | Some _ | None -> (Memo.create 64, 0)
  in
  let line_inputs l = Option.value ~default:[] (Hashtbl.find_opt inputs l) in
  let fdd =
    map_leaves finals
      (function
        | L_state s -> mk_verdict (finalize_state line_inputs s)
        | l -> intern_leaf l)
      root
  in
  let full = if full = 0 then Memo.length finals else full in
  (fdd, { fold; inputs; finals = Some finals; full })

let compile_rules ?default ~lookup rules =
  fst (recompile_rules ?default no_steps ~lookup rules)

let recompile ?default prev env =
  recompile_rules ?default prev ~lookup:(Pf.Env.table env) (Pf.Env.rules env)

let compile ?default env = fst (recompile ?default no_steps env)

(* --- lookup --- *)

let dim_value (fl : Five_tuple.t) = function
  | 0 -> Proto.to_int fl.proto
  | 1 -> Ipv4.to_int fl.src
  | 2 -> Ipv4.to_int fl.dst
  | 3 -> fl.src_port
  | _ -> fl.dst_port

(* At each node, a binary search for the first part whose hi is at
   least the flow's value. *)
let rec lookup id flow =
  let a = store.nodes.(id) in
  if a == leaf_mark then
    match store.leaves.(id) with
    | L_verdict v -> v
    | _ -> invalid_arg "Fdd.lookup: not a finalized diagram"
  else begin
    let v = dim_value flow a.(0) in
    let lo = ref 0 and hi = ref (parts_of a - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(1 + (2 * mid)) >= v then hi := mid else lo := mid + 1
    done;
    lookup a.(2 + (2 * !lo)) flow
  end

(* --- statistics --- *)

let node_count root =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let a = store.nodes.(id) in
      for p = 0 to parts_of a - 1 do
        go a.(2 + (2 * p))
      done
    end
  in
  go root;
  Hashtbl.length seen

let width level (lo, hi) =
  float_of_int (hi - lo + 1) /. float_of_int (dim_top.(level) + 1)

(* Volume fraction of flow space whose leaf satisfies [pred]. Widths
   are dyadic fractions with < 53 significant bits per product, so the
   float arithmetic is exact. *)
let volume pred root =
  let memo = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
        let a = store.nodes.(id) in
        let v =
          if a == leaf_mark then
            match store.leaves.(id) with L_verdict v -> if pred v then 1.0 else 0.0 | _ -> 0.0
          else begin
            let lo = ref 0 and acc = ref 0.0 in
            for p = 0 to parts_of a - 1 do
              let hi = a.(1 + (2 * p)) in
              acc := !acc +. (width a.(0) (!lo, hi) *. go a.(2 + (2 * p)));
              lo := hi + 1
            done;
            !acc
          end
        in
        Hashtbl.add memo id v;
        v
  in
  go root

let is_static = function Static _ -> true | Reactive _ -> false
let static_coverage root = volume is_static root

(* --- product walks --- *)

type outcome = O_pass | O_block | O_reactive

let outcome = function
  | Static { action = Pf.Ast.Pass; _ } -> O_pass
  | Static { action = Pf.Ast.Block; _ } -> O_block
  | Reactive _ -> O_reactive

let leaf_verdict id =
  match store.leaves.(id) with
  | L_verdict v -> v
  | _ -> invalid_arg "Fdd: not a finalized diagram"

type counterexample = { flow : Five_tuple.t; left : verdict; right : verdict }

type region = {
  r_proto : interval;
  r_src : interval;
  r_dst : interval;
  r_sport : interval;
  r_dport : interval;
}

let region_of bounds =
  {
    r_proto = bounds.(0);
    r_src = bounds.(1);
    r_dst = bounds.(2);
    r_sport = bounds.(3);
    r_dport = bounds.(4);
  }

let flow_of_point pt =
  Five_tuple.make
    ~proto:(Proto.of_int pt.(0))
    ~src:(Ipv4.of_int pt.(1)) ~dst:(Ipv4.of_int pt.(2)) ~src_port:pt.(3)
    ~dst_port:pt.(4)

exception Found of counterexample

let equiv a b =
  let visited = Hashtbl.create 256 in
  let pt = Array.make levels 0 in
  let rec go level ida idb =
    if ida <> idb then
      if level = levels then begin
        let va = leaf_verdict ida and vb = leaf_verdict idb in
        if outcome va <> outcome vb then
          raise (Found { flow = flow_of_point pt; left = va; right = vb })
      end
      else if not (Hashtbl.mem visited (level, ida, idb)) then begin
        Hashtbl.add visited (level, ida, idb) ();
        merge_parts level ida idb (fun lo _hi ca cb ->
            pt.(level) <- lo;
            go (level + 1) ca cb)
      end
  in
  try
    go 0 a b;
    Ok ()
  with Found cex -> Error cex

type delta = { d_region : region; d_left : verdict; d_right : verdict }

type diff_report = {
  deltas : delta list;
  changed_fraction : float;
  truncated : bool;
}

let diff ?(limit = 64) a b =
  (* Exact changed volume first; its memo also prunes the bounded
     region enumeration below (identical-outcome subdiagram pairs have
     fraction 0 and contribute no delta). *)
  let memo = Hashtbl.create 256 in
  let rec frac level ida idb =
    if ida = idb then 0.0
    else if level = levels then
      if outcome (leaf_verdict ida) <> outcome (leaf_verdict idb) then 1.0
      else 0.0
    else
      match Hashtbl.find_opt memo (level, ida, idb) with
      | Some v -> v
      | None ->
          let acc = ref 0.0 in
          merge_parts level ida idb (fun lo hi ca cb ->
              acc := !acc +. (width level (lo, hi) *. frac (level + 1) ca cb));
          Hashtbl.add memo (level, ida, idb) !acc;
          !acc
  in
  let changed_fraction = frac 0 a b in
  let bounds = Array.init levels (fun l -> (0, dim_top.(l))) in
  let deltas = ref [] and n = ref 0 and truncated = ref false in
  let rec go level ida idb =
    if frac level ida idb > 0.0 then
      if level = levels then
        if !n >= limit then begin
          truncated := true;
          raise Exit
        end
        else begin
          incr n;
          deltas :=
            {
              d_region = region_of bounds;
              d_left = leaf_verdict ida;
              d_right = leaf_verdict idb;
            }
            :: !deltas
        end
      else
        merge_parts level ida idb (fun lo hi ca cb ->
            bounds.(level) <- (lo, hi);
            go (level + 1) ca cb)
  and frac level ida idb =
    if ida = idb then 0.0
    else if level = levels then
      if outcome (leaf_verdict ida) <> outcome (leaf_verdict idb) then 1.0
      else 0.0
    else match Hashtbl.find_opt memo (level, ida, idb) with
      | Some v -> v
      | None -> 1.0 (* unseen pair under truncation: conservatively walk *)
  in
  (try go 0 a b with Exit -> ());
  { deltas = List.rev !deltas; changed_fraction; truncated = !truncated }

(* --- region enumeration --- *)

(* Every root-to-leaf path as (region, leaf id), in ascending order. *)
let iter_leaves ?(limit = max_int) root f =
  let bounds = Array.init levels (fun l -> (0, dim_top.(l))) in
  let n = ref 0 and truncated = ref false in
  let rec go level id =
    if level = levels then
      if !n >= limit then begin
        truncated := true;
        raise Exit
      end
      else begin
        incr n;
        f (region_of bounds) id
      end
    else begin
      let lo = ref 0 in
      for i = 0 to part_count level id - 1 do
        let hi = part_hi level id i in
        bounds.(level) <- (!lo, hi);
        go (level + 1) (part_child level id i);
        lo := hi + 1
      done
    end
  in
  (try go 0 root with Exit -> ());
  !truncated

let iter_regions ?limit root f =
  iter_leaves ?limit root (fun rg id -> f rg (leaf_verdict id))

type slice = {
  s_static : (region * Pf.Ast.action * int list) list;
  s_reactive : (region * reason) list;
  s_coverage : float;
  s_truncated : bool;
}

let static_slice ?(limit = 4096) root =
  let stat = ref [] and react = ref [] in
  let truncated =
    iter_regions ~limit root (fun rg v ->
        match v with
        | Static { action; lines } -> stat := (rg, action, lines) :: !stat
        | Reactive r -> react := (rg, r) :: !react)
  in
  {
    s_static = List.rev !stat;
    s_reactive = List.rev !react;
    s_coverage = static_coverage root;
    s_truncated = truncated;
  }

let may_default = function
  | Static { lines; _ } -> List.mem 0 lines
  | Reactive r -> r.may_default

let fallthrough root =
  let acc = ref [] in
  ignore (iter_regions root (fun rg v -> if may_default v then acc := rg :: !acc));
  List.rev !acc

(* --- regions as text --- *)

(* Greedy aligned decomposition of an address interval into CIDR
   blocks: repeatedly take the largest block aligned at [lo] that does
   not overshoot [hi], whose prefix length [block_len] gives. At most
   62 blocks per interval. *)
let block_len lo hi =
  let len = ref 0 in
  while
    !len < 32
    && (lo land ((1 lsl (32 - !len)) - 1) <> 0 || lo + (1 lsl (32 - !len)) - 1 > hi)
  do
    incr len
  done;
  !len

let prefixes_of_interval (ilo, ihi) =
  let acc = ref [] in
  let lo = ref ilo in
  while !lo <= ihi do
    let len = block_len !lo ihi in
    acc := Prefix.make (Ipv4.of_int !lo) len :: !acc;
    lo := !lo + (1 lsl (32 - len))
  done;
  List.rev !acc

let prefix_count (ilo, ihi) =
  let n = ref 0 and lo = ref ilo in
  while !lo <= ihi do
    lo := !lo + (1 lsl (32 - block_len !lo ihi));
    incr n
  done;
  !n

(* A protocol interval as a set: listed when narrow, as the excluded
   protocols when wide. *)
let proto_set_to_string (lo, hi) =
  let names vs =
    String.concat "|" (List.map (fun v -> Proto.to_string (Proto.of_int v)) vs)
  in
  if lo = 0 && hi = dim_top.(0) then "any"
  else if hi - lo < 128 then names (List.init (hi - lo + 1) (( + ) lo))
  else
    "!("
    ^ names (List.init lo Fun.id @ List.init (dim_top.(0) - hi) (( + ) (hi + 1)))
    ^ ")"

let port_set_to_string (lo, hi) =
  if lo = 0 && hi = dim_top.(3) then "any"
  else if lo = hi then string_of_int lo
  else Printf.sprintf "%d:%d" lo hi

(* Regions print as atoms: one per (source block, destination block)
   pair of their CIDR decompositions, the first four shown. *)
let regions_to_string regions =
  let atoms =
    List.concat_map
      (fun rg ->
        let dsts = prefixes_of_interval rg.r_dst in
        List.concat_map
          (fun src -> List.map (fun dst -> (rg, src, dst)) dsts)
          (prefixes_of_interval rg.r_src))
      regions
  in
  let atom_to_string (rg, src, dst) =
    Printf.sprintf "proto %s from %s port %s to %s port %s"
      (proto_set_to_string rg.r_proto)
      (Prefix.to_string src)
      (port_set_to_string rg.r_sport)
      (Prefix.to_string dst)
      (port_set_to_string rg.r_dport)
  in
  let n = List.length atoms in
  if n = 0 then "(empty)"
  else
    String.concat "; "
      (List.map atom_to_string (List.filteri (fun i _ -> i < 4) atoms))
    ^ if n > 4 then Printf.sprintf "; ... (%d more)" (n - 4) else ""

let region_to_string rg = regions_to_string [ rg ]

let region_witness rg =
  Five_tuple.make
    ~proto:(Proto.of_int (fst rg.r_proto))
    ~src:(Ipv4.of_int (fst rg.r_src))
    ~dst:(Ipv4.of_int (fst rg.r_dst))
    ~src_port:(fst rg.r_sport) ~dst_port:(fst rg.r_dport)

let lines_to_string lines =
  String.concat ","
    (List.map (function 0 -> "default" | l -> string_of_int l) lines)

(* --- flow spaces: diagrams whose leaves are in or out --- *)

module Space = struct
  type nonrec t = t

  let empty = intern_leaf (L_space false)
  let all = intern_leaf (L_space true)
  let is_empty s = s = empty
  let equal = Int.equal

  let of_rule ~lookup r =
    match dims_of_rule ~lookup r with
    | None -> empty
    | Some dims -> apply_rule empty dims (fun _ -> all)

  (* One product walk, memoized by pair in the store's memo. [settle a
     b] is the result when it follows without descending, or -1. *)
  let rec combine_in settle a b =
    match settle a b with
    | -1 ->
        let key = (a lsl 31) lor b in
        let r = Memo.find store.memo key in
        if r >= 0 then r
        else begin
          let level = min (level_of a) (level_of b) in
          let base = store.top in
          merge_parts level a b (fun _ hi ca cb -> push base hi (combine_in settle ca cb));
          let r = build level base in
          Memo.add store.memo key r;
          r
        end
    | r -> r

  let combine settle a b =
    Memo.clear store.memo;
    combine_in settle a b

  let union =
    combine (fun a b ->
        if a = all || b = all then all
        else if a = empty || a = b then b
        else if b = empty then a
        else -1)

  let inter =
    combine (fun a b ->
        if a = empty || b = empty then empty
        else if a = all || a = b then b
        else if b = all then a
        else -1)

  let diff =
    combine (fun a b ->
        if a = empty || b = all || a = b then empty
        else if b = empty then a
        else -1)

  let covers ~outer ~inner = is_empty (diff inner outer)
  let overlaps a b = not (is_empty (inter a b))

  let rec overlaps_in (box : interval array) id =
    let a = store.nodes.(id) in
    if a == leaf_mark then id = all
    else begin
      let lo, hi = box.(a.(0)) in
      let n = parts_of a and i = ref 0 and plo = ref 0 and hit = ref false in
      while (not !hit) && !i < n && !plo <= hi do
        let phi = a.(1 + (2 * !i)) in
        hit := phi >= lo && overlaps_in box a.(2 + (2 * !i));
        plo := phi + 1;
        incr i
      done;
      !hit
    end

  let overlaps_box s box = overlaps_in box s

  (* Tried first in the proto dimension, so witnesses read as the
     common protocols. *)
  let preferred_protos = List.map Proto.to_int [ Proto.Tcp; Proto.Udp; Proto.Icmp ]

  (* At each level, the first preferred protocol whose part is in the
     space, else the lowest value of the first part that is. *)
  let witness s =
    if is_empty s then None
    else begin
      let pt = Array.make levels 0 in
      let rec go level id =
        if level < levels then begin
          let live i = part_child level id i <> empty in
          let holding v =
            let i = ref 0 in
            while part_hi level id !i < v do
              incr i
            done;
            !i
          in
          let preferred =
            if level = 0 then List.find_opt (fun v -> live (holding v)) preferred_protos
            else None
          in
          let v, i =
            match preferred with
            | Some v -> (v, holding v)
            | None ->
                let i = ref 0 in
                while not (live !i) do
                  incr i
                done;
                ((if !i = 0 then 0 else part_hi level id (!i - 1) + 1), !i)
          in
          pt.(level) <- v;
          go (level + 1) (part_child level id i)
        end
      in
      go 0 s;
      Some (flow_of_point pt)
    end

  let to_string s =
    let acc = ref [] in
    ignore (iter_leaves s (fun rg id -> if id = all then acc := rg :: !acc));
    regions_to_string (List.rev !acc)
end

(* --- structural export for the flow-table compiler --- *)

let leaf = leaf_verdict
let store_size () = store.size
let of_id i = if i < 0 || i >= store.size then invalid_arg "Fdd.of_id" else i
