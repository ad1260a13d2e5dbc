(* The flat decision-diagram fold (lib/analysis/fdd.ml) against a
   list-based reference: the fold as it was written before nodes were
   flat arrays, each node an array of (hi, child) tuples that
   [segments] and [mk_node] copied through lists.

   The reference keeps a node store of its own, which mirrors the
   library's from the first node on: this executable runs nothing but
   the property, so every node the library interns is one a compile
   here asked for, and the reference compiles the same policies in the
   same order. Interning is idempotent, so the reference may fold every
   revision from its first rule while the library reuses the steps of
   the revision before: both intern the same new nodes. After each
   revision the two stores must hold the same nodes under the same ids,
   node for node, and the compiled diagrams must be one. *)

open Netcore
module Fdd = Analysis.Fdd

(* --- the reference: a list-based fold over a store of its own --- *)

module Ref = struct
  let levels = 5
  let dim_top = Fdd.dim_top

  type st = {
    finals : (Pf.Ast.action * int) list;
    running : bool;
    currents : (Pf.Ast.action * int) list;
    deps : int list;
  }

  type leaf = L_state of st | L_verdict of Fdd.verdict | L_space of bool

  type node =
    | Leaf of leaf
    | N of { level : int; parts : (int * int) array }
        (* parts.(i) = (hi, child id), as {!Fdd}'s are read. *)

  let tab : (node, int) Hashtbl.t = Hashtbl.create 4096
  let store = ref (Array.make 1024 (Leaf (L_space false)))
  let size = ref 0
  let get id = !store.(id)

  let intern nd =
    match Hashtbl.find_opt tab nd with
    | Some id -> id
    | None ->
        if !size >= Array.length !store then begin
          let bigger = Array.make (2 * Array.length !store) (Leaf (L_space false)) in
          Array.blit !store 0 bigger 0 !size;
          store := bigger
        end;
        let id = !size in
        !store.(id) <- nd;
        incr size;
        Hashtbl.add tab nd id;
        id

  (* The library interns these two first, as [Fdd.Space]'s empty and
     whole spaces. *)
  let () = ignore (intern (Leaf (L_space false)))
  let () = ignore (intern (Leaf (L_space true)))
  let sorted l = List.sort_uniq compare l
  let mk_state s = intern (Leaf (L_state s))
  let mk_verdict v = intern (Leaf (L_verdict v))

  (* Canonicalize a (hi, child) partition: merge adjacent equal
     children, collapse the node when only one part remains. *)
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

  (* The behaviour of [id] along [level] as full-coverage (lo, hi,
     child) segments. *)
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

  let norm_ivals ivs =
    let ivs = List.sort compare (List.filter (fun (a, b) -> a <= b) ivs) in
    let rec merge = function
      | (a, b) :: (c, d) :: rest when c <= b + 1 -> merge ((a, max b d) :: rest)
      | p :: rest -> p :: merge rest
      | [] -> []
    in
    merge ivs

  let complement_ivals top ivs =
    let rec gaps lo = function
      | [] -> if lo <= top then [ (lo, top) ] else []
      | (a, b) :: rest -> (if lo < a then [ (lo, a - 1) ] else []) @ gaps (b + 1) rest
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

  let dims_of_rule ~lookup (r : Pf.Ast.rule) =
    match (addr_ivals ~lookup r.from_.addr, addr_ivals ~lookup r.to_.addr) with
    | Some src, Some dst ->
        let proto =
          match r.proto with
          | None -> [ (0, dim_top.(0)) ]
          | Some p ->
              let v = Proto.to_int p in
              [ (v, v) ]
        in
        let sport = port_ivals dim_top.(3) r.from_.port
        and dport = port_ivals dim_top.(4) r.to_.port in
        Some [| proto; src; dst; sport; dport |]
    | _ -> None

  let apply_uncond stt ~action ~line ~quick =
    if not stt.running then stt
    else
      let deps = if stt.finals = [] then [] else stt.deps in
      if quick then
        { finals = sorted ((action, line) :: stt.finals); running = false; currents = []; deps }
      else { stt with currents = [ (action, line) ]; deps }

  let apply_cond stt ~action ~line ~quick =
    if not stt.running then stt
    else
      let merged =
        if quick then { stt with finals = sorted ((action, line) :: stt.finals) }
        else { stt with currents = sorted ((action, line) :: stt.currents) }
      in
      if merged = stt then stt else { merged with deps = sorted (line :: stt.deps) }

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

  let map_leaves f root =
    let memo = Hashtbl.create 64 in
    let rec go id =
      match Hashtbl.find_opt memo id with
      | Some r -> r
      | None ->
          let r =
            match get id with
            | Leaf l -> f l
            | N { level; parts } ->
                mk_node level (Array.to_list (Array.map (fun (hi, c) -> (hi, go c)) parts))
          in
          Hashtbl.add memo id r;
          r
    in
    go root

  let finalize_state line_inputs stt =
    let possible = stt.finals @ if stt.running then stt.currents else [] in
    match sorted (List.map fst possible) with
    | [ a ] -> Fdd.Static { action = a; lines = sorted (List.map snd possible) }
    | _ ->
        Fdd.Reactive
          {
            lines = stt.deps;
            inputs = sorted (List.concat_map line_inputs stt.deps);
            may_default = List.exists (fun (_, l) -> l = 0) possible;
          }

  (* A whole compile: every rule folded from the initial state, then
     each state leaf finalized. *)
  let compile ~default env =
    let lookup = Pf.Env.table env in
    let inputs = Hashtbl.create 16 in
    let root =
      List.fold_left
        (fun root (r : Pf.Ast.rule) ->
          match dims_of_rule ~lookup r with
          | Some dims when not (Array.exists (fun ivs -> ivs = []) dims) ->
              if not (Pf.Ast.cond_free r) then
                Hashtbl.replace inputs r.line (Pf.Ast.rule_inputs r);
              let tr =
                if Pf.Ast.cond_free r then
                  apply_uncond ~action:r.action ~line:r.line ~quick:r.quick
                else apply_cond ~action:r.action ~line:r.line ~quick:r.quick
              in
              apply_rule root dims (fun id ->
                  match get id with
                  | Leaf (L_state s) -> mk_state (tr s)
                  | _ -> invalid_arg "rule applied to a finalized diagram")
          | Some _ | None -> root)
        (mk_state { finals = []; running = true; currents = [ (default, 0) ]; deps = [] })
        (Pf.Env.rules env)
    in
    let line_inputs l = Option.value ~default:[] (Hashtbl.find_opt inputs l) in
    map_leaves
      (function L_state s -> mk_verdict (finalize_state line_inputs s) | l -> intern (Leaf l))
      root
end

(* --- the two stores, node for node --- *)

(* Whether the library's node [id] is the reference's. *)
let same_node id =
  let d = Fdd.of_id id in
  let one_part level = Fdd.part_count level d = 1 && Fdd.part_child level d 0 = d in
  match Ref.get id with
  | Ref.N { level; parts } ->
      List.for_all one_part (List.init level Fun.id)
      && Fdd.part_count level d = Array.length parts
      && Array.for_all Fun.id
           (Array.mapi
              (fun i (hi, c) -> Fdd.part_hi level d i = hi && (Fdd.part_child level d i :> int) = c)
              parts)
  | Ref.Leaf l -> (
      List.for_all one_part (List.init Ref.levels Fun.id)
      &&
      match (l, Fdd.leaf d) with
      | Ref.L_verdict v, v' -> v = v'
      | (Ref.L_state _ | Ref.L_space _), _ -> false
      | exception Invalid_argument _ -> (
          match l with Ref.L_verdict _ -> false | Ref.L_state _ | Ref.L_space _ -> true))

(* The ids checked so far: every node below it is the same in both. *)
let checked = ref 0

let check_stores what =
  let n = Fdd.store_size () in
  if n <> !Ref.size then
    QCheck.Test.fail_reportf "%s: the library holds %d nodes, the reference %d" what n !Ref.size;
  for id = !checked to n - 1 do
    if not (same_node id) then QCheck.Test.fail_reportf "%s: node %d differs" what id
  done;
  checked := n

(* --- policies and edits --- *)

let env_of s =
  match Pf.Env.of_string s with Ok env -> env | Error e -> failwith ("env error: " ^ e)

(* Rules over a small pool of headers, so random lists share regions:
   quick and conditional rules, a table, negated addresses, one of
   which matches nothing. *)
let rule_fields =
  [|
    [| "pass"; "block" |];
    [| ""; " quick" |];
    [| ""; " proto tcp"; " proto udp" |];
    [| "any"; "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16"; "!10.1.0.0/16"; "<lan>"; "!0.0.0.0/0" |];
    [| "any"; "10.0.0.0/8"; "10.1.0.0/16"; "10.3.0.0/16"; "<lan>" |];
    [| ""; " port 22"; " port 80"; " port 8080"; " port 1000:2000" |];
    [| ""; ""; " with eq(@src[name], skype)"; " with lookup(@src[name])" |];
  |]

let gen_rule =
  QCheck.Gen.(
    map
      (function
        | [ action; quick; proto; src; dst; port; cond ] ->
            Printf.sprintf "%s%s%s from %s to %s%s%s" action quick proto src dst port cond
        | _ -> assert false)
      (flatten_l (List.init (Array.length rule_fields) (fun i -> oneofa rule_fields.(i)))))

(* proactive-churn's edit: one to three rules between two /16s of the
   fabric, on one of four ports. *)
let gen_edit_rule =
  QCheck.Gen.(
    map
      (fun (((action, a), b), port) ->
        Printf.sprintf "%s proto tcp from 10.%d.0.0/16 to 10.%d.0.0/16 port %d" action a b port)
      (pair (pair (pair (oneofl [ "pass"; "block" ]) (int_bound 3)) (int_bound 3))
         (oneofl [ 8080; 8443; 22; 25 ])))

(* A later revision's edit: a new edit file, or 1-3 base rules
   replaced, each at a position taken modulo the base's length. *)
type edit = File of string list | Base of (int * string) list

let gen_edit =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun rules -> File rules) (list_size (int_range 1 3) gen_edit_rule));
        (1, map (fun rules -> Base rules) (list_size (int_range 1 3) (pair nat gen_rule)));
      ])

let edit (base, file) = function
  | File file -> (base, file)
  | Base rules ->
      let replace base (at, r) =
        let at = at mod max 1 (List.length base) in
        List.mapi (fun i r' -> if i = at then r else r') base
      in
      (List.fold_left replace base rules, file)

(* A policy: its default, a base of up to 10 rules and an edit file
   of 1-3 after them; then 1-4 edits, each to the revision before. *)
let gen_revisions =
  QCheck.Gen.(
    let* default = oneofl [ Pf.Ast.Pass; Pf.Ast.Block ]
    and* base = list_size (int_range 0 10) gen_rule
    and* file = list_size (int_range 1 3) gen_edit_rule
    and* edits = list_size (int_range 1 4) gen_edit in
    let revisions =
      List.rev (List.fold_left (fun revs e -> edit (List.hd revs) e :: revs) [ (base, file) ] edits)
    in
    return (List.map (fun (base, file) -> (default, base, file)) revisions))

let policy_text (_, base, edit) =
  String.concat "\n" (("table <lan> { 10.1.2.0/24 10.3.0.0/16 }" :: base) @ edit)

let print_revisions revs =
  String.concat "\n-- then --\n"
    (List.map
       (fun ((default, _, _) as rev) ->
         Printf.sprintf "(default %s)\n%s"
           (if default = Pf.Ast.Pass then "pass" else "block")
           (policy_text rev))
       revs)

(* A table with its entries' priorities left out: a compile numbers
   after the tables its cache compiled before. *)
let unranked (t : Compiler.table) =
  ( { t with Compiler.entries = [] },
    List.map
      (fun (e : Compiler.entry) -> (e.Compiler.e_fields, e.Compiler.e_decision, e.Compiler.e_lines))
      t.Compiler.entries )

(* Each revision, recompiled from the steps of the one before, interns
   the nodes the reference's whole fold interns, in its order and under
   its ids, and is the reference's diagram; a cached compile of it
   lowers to the table a fresh one does. *)
let prop_flat_fold_is_the_list_fold =
  QCheck.Test.make ~name:"the flat fold interns what the list-based fold does" ~count:300
    (QCheck.make gen_revisions ~print:print_revisions)
    (fun revs ->
      let cache = Compiler.create_cache () in
      ignore
        (List.fold_left
           (fun (steps, i) ((default, _, _) as rev) ->
             let env = env_of (policy_text rev) in
             let fdd, steps = Fdd.recompile ~default steps env in
             let expected = Ref.compile ~default env in
             check_stores (Printf.sprintf "revision %d" i);
             if (fdd :> int) <> expected then
               QCheck.Test.fail_reportf "revision %d: diagram %d, the reference's %d" i
                 (fdd :> int) expected;
             if unranked (Compiler.compile ~cache fdd) <> unranked (Compiler.compile fdd) then
               QCheck.Test.fail_reportf "revision %d: cached and fresh tables differ" i;
             (steps, i + 1))
           (Fdd.no_steps, 0) revs);
      true)

(* Before any compile, the two stores hold the two space leaves. *)
let test_stores_start_together () =
  Alcotest.(check int) "nodes before any compile" !Ref.size (Fdd.store_size ());
  check_stores "start"

let () =
  Alcotest.run "fdd-oracle"
    [
      ( "list fold",
        [
          Alcotest.test_case "stores start together" `Quick test_stores_start_together;
          QCheck_alcotest.to_alcotest prop_flat_fold_is_the_list_fold;
        ] );
    ]
