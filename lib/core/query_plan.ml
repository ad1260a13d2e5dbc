type ends = { src : bool; dst : bool }

let both = { src = true; dst = true }
let none = { src = false; dst = false }

type t = {
  epoch : int;
  env : (Pf.Env.t, string) result;
  shape : Fastpath.decision_shape;
  hints : string list;
  hint_key : string;
  query_hints : Identxx.Query.hints;
  diagram : Analysis.Fdd.t option;
  steps : Analysis.Fdd.steps;  (* the diagram's compile, for the next *)
  every_end : bool;  (* allowed(), or no diagram: ask both ends *)
  line_ends : (int, ends) Hashtbl.t;
      (* What each source line's rules read. Lines of different policy
         files may share a number; their reads are joined. *)
  by_leaf : (int list, ends) Hashtbl.t;
      (* Memo, keyed by a leaf's candidate lines. *)
  (* The [intercept] lines by kind, in policy order: whether the target
     covers an address, and the section (each answer boxed once). *)
  answers : ((Netcore.Ipv4.t -> bool) * Identxx.Key_value.section option) list;
  augments : ((Netcore.Ipv4.t -> bool) * Identxx.Key_value.section) list;
}

let rule_ends (r : Pf.Ast.rule) =
  let inputs = Pf.Ast.rule_inputs r in
  {
    src = List.mem Pf.Ast.Needs_src_response inputs;
    dst = List.mem Pf.Ast.Needs_dst_response inputs;
  }

let join a b = { src = a.src || b.src; dst = a.dst || b.dst }

(* [env]'s [kind] intercepts in policy order: each target's test, with
   its section through [box]. A pair the wire cannot carry is left out. *)
let intercepts env kind box =
  List.filter_map
    (fun (i : Pf.Ast.intercept) ->
      if i.Pf.Ast.ikind <> kind then None
      else
        Some
          ( Pf.Env.addr_spec_matches env i.Pf.Ast.target,
            box
              (List.filter_map
                 (fun (k, v) ->
                   if Identxx.Key_value.(valid_key k && valid_value v) then
                     Some (Identxx.Key_value.pair k v)
                   else None)
                 i.Pf.Ast.pairs) ))
    (Pf.Env.intercepts env)

let make ~default ?prev rev =
  let steps = match prev with Some p -> p.steps | None -> Analysis.Fdd.no_steps in
  let epoch = Policy_store.Revision.epoch rev and result = Policy_store.Revision.env rev in
  match result with
  | Error _ ->
      {
        epoch;
        env = result;
        shape = { Fastpath.src_port = true; reads = None };
        hints = [];
        hint_key = "";
        query_hints = Identxx.Query.hints [];
        diagram = None;
        steps;
        every_end = true;
        line_ends = Hashtbl.create 1;
        by_leaf = Hashtbl.create 1;
        answers = [];
        augments = [];
      }
  | Ok env ->
      let shape = Fastpath.decision_shape env in
      (* [allowed()] is what makes the shape read every pair. *)
      let calls_allowed = shape.Fastpath.reads = None in
      (* A key the wire cannot carry is left out: no answer binds it. *)
      let hints =
        if calls_allowed then []
        else
          List.filter Identxx.Key_value.valid_key
            (List.sort_uniq String.compare
               ((Fastpath.Answers.expires_key :: Audit.interesting_keys)
               @ Pf.Env.referenced_keys env))
      in
      let line_ends = Hashtbl.create 16 in
      List.iter
        (fun (r : Pf.Ast.rule) ->
          let e = rule_ends r in
          Hashtbl.replace line_ends r.Pf.Ast.line
            (match Hashtbl.find_opt line_ends r.Pf.Ast.line with
            | Some e' -> join e e'
            | None -> e))
        (Pf.Env.rules env);
      let diagram, steps = Analysis.Fdd.recompile ~default steps env in
      {
        epoch;
        env = result;
        shape;
        hints;
        hint_key = Fastpath.Answers.hint_key hints;
        query_hints = Identxx.Query.hints hints;
        diagram = Some diagram;
        steps;
        every_end = calls_allowed;
        line_ends;
        by_leaf = Hashtbl.create 16;
        answers = intercepts env Pf.Ast.Answer_query Option.some;
        augments = intercepts env Pf.Ast.Augment_response Fun.id;
      }

let ends t flow =
  match t.diagram with
  | Some d when not t.every_end -> (
      let lines =
        match Analysis.Fdd.lookup d flow with
        | Analysis.Fdd.Static { lines; _ } -> lines
        | Analysis.Fdd.Reactive r -> r.Analysis.Fdd.lines
      in
      match Hashtbl.find_opt t.by_leaf lines with
      | Some e -> e
      | None ->
          let e =
            List.fold_left
              (fun acc line ->
                match Hashtbl.find_opt t.line_ends line with
                | Some e -> join acc e
                | None -> acc)
              none lines
          in
          Hashtbl.replace t.by_leaf lines e;
          e)
  | Some _ | None -> both

let rec first_answer ip = function
  | [] -> None
  | (covers, answer) :: rest -> if covers ip then answer else first_answer ip rest

let answer_for t ip = first_answer ip t.answers

let rec join_augments ip = function
  | [] -> []
  | (covers, section) :: rest ->
      let tail = join_augments ip rest in
      if not (covers ip) then tail else if tail = [] then section else section @ tail

let augment_for t ip = join_augments ip t.augments

let epoch t = t.epoch
let env t = t.env
let hints t = t.hints
let hint_key t = t.hint_key
let query_hints t = t.query_hints
let shape t = t.shape
let diagram t = t.diagram
