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

type node =
  | Leaf of leaf
  | N of { level : int; parts : (int * int) array }
      (* parts.(i) = (hi, child id): child for values in
         (previous hi + 1 .. hi]; his strictly ascending, last =
         dim_top.(level); adjacent children distinct; >= 2 parts. *)

type t = int

(* --- the global hash-consed store --- *)

module Tab = Hashtbl.Make (struct
  type t = node

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let dummy = Leaf (L_state { finals = []; running = false; currents = []; deps = [] })
let store = ref (Array.make 1024 dummy)
let store_size = ref 0
let tab : int Tab.t = Tab.create 4096
let get id = !store.(id)

let intern nd =
  match Tab.find_opt tab nd with
  | Some id -> id
  | None ->
      if !store_size >= Array.length !store then begin
        let bigger = Array.make (2 * Array.length !store) dummy in
        Array.blit !store 0 bigger 0 !store_size;
        store := bigger
      end;
      let id = !store_size in
      !store.(id) <- nd;
      incr store_size;
      Tab.add tab nd id;
      id

let sorted l = List.sort_uniq compare l
let mk_state s = intern (Leaf (L_state s))
let mk_verdict v = intern (Leaf (L_verdict v))

(* Canonicalize a (hi, child) partition: merge adjacent equal children,
   collapse the node when only one part remains. *)
let mk_node level parts =
  let rec merge acc = function
    | [] -> List.rev acc
    | [ p ] -> List.rev (p :: acc)
    | (_, c1) :: ((_, c2) :: _ as rest) when c1 = c2 -> merge acc rest
    | p :: rest -> merge (p :: acc) rest
  in
  match merge [] parts with
  | [ (_, c) ] -> c
  | ps -> intern (N { level; parts = Array.of_list ps })

(* The behaviour of [id] along [level] as full-coverage (lo, hi, child)
   segments. Only valid when [id] tests no dimension below [level],
   which every traversal here maintains. *)
let segments level id =
  match get id with
  | N { level = l; parts } when l = level ->
      let segs = ref [] and lo = ref 0 in
      Array.iter
        (fun (hi, c) ->
          segs := (!lo, hi, c) :: !segs;
          lo := hi + 1)
        parts;
      List.rev !segs
  | _ -> [ (0, dim_top.(level), id) ]

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

let addr_ivals ~lookup (spec : Pf.Ast.addr_spec option) =
  match spec with
  | None -> Some [ (0, addr_top) ]
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
          Some (if negated then complement_ivals addr_top ivs else ivs))

let port_ivals top = function
  | None -> [ (0, top) ]
  | Some pm ->
      let lo, hi = Pf.Ast.port_interval pm in
      norm_ivals [ (max 0 lo, min top hi) ]

(* One normalized interval list per dimension, or [None] when the rule
   names a table the [lookup] cannot resolve. *)
let dims_of_rule ~lookup (r : Pf.Ast.rule) =
  match
    (addr_ivals ~lookup r.Pf.Ast.from_.addr, addr_ivals ~lookup r.Pf.Ast.to_.addr)
  with
  | Some src, Some dst ->
      let proto =
        match r.Pf.Ast.proto with
        | None -> [ (0, dim_top.(0)) ]
        | Some p ->
            let v = Proto.to_int p in
            [ (v, v) ]
      in
      Some
        [|
          proto;
          src;
          dst;
          port_ivals dim_top.(3) r.Pf.Ast.from_.port;
          port_ivals dim_top.(4) r.Pf.Ast.to_.port;
        |]
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

(* Split the diagram along the rule's header intervals: inside every
   dimension, rewrite the leaf with [tr]; anywhere outside, keep the
   existing subdiagram. Memoized on (level, node). *)
let apply_rule root dims tr =
  let memo = Hashtbl.create 64 in
  let rec inside level id =
    if level = levels then tr id
    else
      let key = (level, id) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let parts = ref [] in
          List.iter
            (fun (lo, hi, child) ->
              let cur = ref lo in
              List.iter
                (fun (a, b) ->
                  let a = max a lo and b = min b hi in
                  if a <= b then begin
                    if a > !cur then parts := (a - 1, child) :: !parts;
                    parts := (b, inside (level + 1) child) :: !parts;
                    cur := b + 1
                  end)
                dims.(level);
              if !cur <= hi then parts := (hi, child) :: !parts)
            (segments level id);
          let r = mk_node level (List.rev !parts) in
          Hashtbl.add memo key r;
          r
  in
  inside 0 root

let map_leaves ?(memo = Hashtbl.create 64) f root =
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
        let r =
          match get id with
          | Leaf l -> f l
          | N { level; parts } ->
              mk_node level
                (Array.to_list (Array.map (fun (hi, c) -> (hi, go c)) parts))
        in
        Hashtbl.add memo id r;
        r
  in
  go root

let map_verdicts f root =
  map_leaves
    (function L_verdict v -> mk_verdict (f v) | l -> intern (Leaf l))
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
  s_dims : interval list array;
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
  finals : (int, int) Hashtbl.t option;
  full : int;
}

(* Without [finals], [inputs] is never read. *)
let no_steps = { fold = []; inputs = Hashtbl.create 1; finals = None; full = 0 }

(* Whether [r], applied to [root], is the rule [s] recorded. A rule
   structurally equal in its headers and naming no table has the same
   intervals; any other is compared by its intervals. *)
let same_step ~lookup root (r : Pf.Ast.rule) s =
  let o = s.s_rule in
  s.s_prev = root && r.action = o.action && r.line = o.line && r.quick = o.quick
  && Pf.Ast.cond_free r = Pf.Ast.cond_free o
  && ((r.proto = o.proto && r.from_ = o.from_ && r.to_ = o.to_
      && Pf.Ast.tables_of_rule r = [])
     || dims_of_rule ~lookup r = Some s.s_dims)

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
        | s :: prev' when same_step ~lookup root r s ->
            let s =
              if r.conds = s.s_rule.conds then s
              else { s with s_rule = r; s_inputs = Pf.Ast.rule_inputs r }
            in
            note_inputs r s.s_inputs;
            s :: fold s.s_root prev' rest
        | _ -> (
            match dims_of_rule ~lookup r with
            | Some dims when not (Array.exists (fun ivs -> ivs = []) dims) ->
                let i = Pf.Ast.rule_inputs r in
                note_inputs r i;
                let tr =
                  if Pf.Ast.cond_free r then
                    apply_uncond ~action:r.action ~line:r.line ~quick:r.quick
                  else apply_cond ~action:r.action ~line:r.line ~quick:r.quick
                in
                let root' =
                  apply_rule root dims (fun id ->
                      match get id with
                      | Leaf (L_state s) -> mk_state (tr s)
                      | _ -> invalid_arg "Fdd: rule applied to a finalized diagram")
                in
                { s_prev = root; s_rule = r; s_dims = dims; s_inputs = i; s_root = root' }
                :: fold root' [] rest
            | Some _ | None -> fold root prev rest))
  in
  let fold = fold init prev.fold rules in
  let root = List.fold_left (fun _ s -> s.s_root) init fold in
  let finals, full =
    match prev.finals with
    | Some m when Hashtbl.length m <= 4 * prev.full && same_inputs inputs prev.inputs
      ->
        (m, prev.full)
    | Some _ | None -> (Hashtbl.create 64, 0)
  in
  let line_inputs l = Option.value ~default:[] (Hashtbl.find_opt inputs l) in
  let fdd =
    map_leaves ~memo:finals
      (function
        | L_state s -> mk_verdict (finalize_state line_inputs s)
        | l -> intern (Leaf l))
      root
  in
  let full = if full = 0 then Hashtbl.length finals else full in
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

let lookup root flow =
  let rec go id =
    match get id with
    | Leaf (L_verdict v) -> v
    | Leaf _ -> invalid_arg "Fdd.lookup: not a finalized diagram"
    | N { level; parts } ->
        let v = dim_value flow level in
        (* first part with hi >= v *)
        let lo = ref 0 and hi = ref (Array.length parts - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if fst parts.(mid) >= v then hi := mid else lo := mid + 1
        done;
        go (snd parts.(!lo))
  in
  go root

(* --- statistics --- *)

let node_count root =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      match get id with
      | Leaf _ -> ()
      | N { parts; _ } -> Array.iter (fun (_, c) -> go c) parts
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
        let v =
          match get id with
          | Leaf (L_verdict v) -> if pred v then 1.0 else 0.0
          | Leaf _ -> 0.0
          | N { level; parts } ->
              let lo = ref 0 and acc = ref 0.0 in
              Array.iter
                (fun (hi, c) ->
                  acc := !acc +. (width level (!lo, hi) *. go c);
                  lo := hi + 1)
                parts;
              !acc
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
  match get id with
  | Leaf (L_verdict v) -> v
  | _ -> invalid_arg "Fdd: not a finalized diagram"

(* Walk two full-coverage segment lists in lockstep, calling
   [k lo hi child_a child_b] for each aligned piece. *)
let merge_segments sa sb k =
  let rec go sa sb =
    match (sa, sb) with
    | [], [] -> ()
    | (lo, hi1, c1) :: ra, (_, hi2, c2) :: rb ->
        let hi = min hi1 hi2 in
        k lo hi c1 c2;
        let ra = if hi1 = hi then ra else (hi + 1, hi1, c1) :: ra in
        let rb = if hi2 = hi then rb else (hi + 1, hi2, c2) :: rb in
        go ra rb
    | _ -> ()
  in
  go sa sb

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
        merge_segments (segments level ida) (segments level idb)
          (fun lo _hi ca cb ->
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
          merge_segments (segments level ida) (segments level idb)
            (fun lo hi ca cb ->
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
        merge_segments (segments level ida) (segments level idb)
          (fun lo hi ca cb ->
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
    else
      List.iter
        (fun (lo, hi, c) ->
          bounds.(level) <- (lo, hi);
          go (level + 1) c)
        (segments level id)
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

  let empty = intern (Leaf (L_space false))
  let all = intern (Leaf (L_space true))
  let is_empty s = s = empty
  let equal = Int.equal
  let level_of id = match get id with N { level; _ } -> level | Leaf _ -> levels

  let of_rule ~lookup r =
    match dims_of_rule ~lookup r with
    | None -> empty
    | Some dims -> apply_rule empty dims (fun _ -> all)

  (* One memoized product walk. [settle a b] is the result when it
     follows without descending, or -1. *)
  let combine settle a b =
    let memo = Hashtbl.create 16 in
    let rec go a b =
      match settle a b with
      | -1 -> (
          match Hashtbl.find_opt memo (a, b) with
          | Some r -> r
          | None ->
              let level = min (level_of a) (level_of b) in
              let parts = ref [] in
              merge_segments (segments level a) (segments level b)
                (fun _ hi ca cb -> parts := (hi, go ca cb) :: !parts);
              let r = mk_node level (List.rev !parts) in
              Hashtbl.add memo (a, b) r;
              r)
      | r -> r
    in
    go a b

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

  let overlaps_box s (box : interval array) =
    let rec go id =
      match get id with
      | Leaf l -> l = L_space true
      | N { level; parts } ->
          let lo, hi = box.(level) in
          let rec scan i plo =
            i < Array.length parts
            && plo <= hi
            &&
            let phi, c = parts.(i) in
            (phi >= lo && go c) || scan (i + 1) (phi + 1)
          in
          scan 0 0
    in
    go s

  (* Tried first in the proto dimension, so witnesses read as the
     common protocols. *)
  let preferred_protos = List.map Proto.to_int [ Proto.Tcp; Proto.Udp; Proto.Icmp ]

  let witness s =
    if is_empty s then None
    else begin
      let pt = Array.make levels 0 in
      let rec go level id =
        if level < levels then begin
          let live = List.filter (fun (_, _, c) -> c <> empty) (segments level id) in
          let pick v =
            List.find_map
              (fun (lo, hi, c) -> if lo <= v && v <= hi then Some (v, c) else None)
              live
          in
          let lowest = List.map (fun (lo, _, _) -> lo) live in
          let v, c =
            Option.get
              (List.find_map pick
                 ((if level = 0 then preferred_protos else []) @ lowest))
          in
          pt.(level) <- v;
          go (level + 1) c
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

let parts level id =
  match get id with
  | N { level = l; parts } when l = level ->
      Array.mapi
        (fun i (hi, c) -> (((if i = 0 then 0 else fst parts.(i - 1) + 1), hi), c))
        parts
  | _ -> [| ((0, dim_top.(level)), id) |]

let leaf = leaf_verdict
