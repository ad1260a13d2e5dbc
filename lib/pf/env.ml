open Netcore
module Texts = Fifo_map.Make (String)

type t = {
  macros : (string * string) list;
  tables : (string * Prefix.t list) list;
  dicts : (string * (string * string) list) list;
  rules : Ast.rule list;
  intercepts : Ast.intercept list;
  spec_lists : (string, Items.t) Hashtbl.t;
  multi_lists : (string, Items.t) Hashtbl.t;
      (* The lists [member] and [includes] take from the policy itself,
         split once, by their text. *)
  requirements : (Ast.rule list, string) result Texts.t Lazy.t;
      (* allowed()'s rules texts, parsed; made by the first allowed() *)
}

let ( let* ) = Result.bind

(* Resolve one table's items, chasing references. [stack] detects cycles. *)
let rec resolve_table defs stack name =
  if List.mem name stack then Error ("table reference cycle involving <" ^ name ^ ">")
  else
    match List.assoc_opt name defs with
    | None -> Error ("unknown table <" ^ name ^ ">")
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Ast.Item_prefix p -> Ok (p :: acc)
            | Ast.Item_ref r ->
                let* sub = resolve_table defs (name :: stack) r in
                Ok (List.rev_append sub acc))
          (Ok []) items
        |> Result.map List.rev

let tables_in_rule (rule : Ast.rule) =
  let of_endpoint (e : Ast.endpoint_spec) =
    match e.addr with
    | Some { addr = Ast.Addr_table n; _ } -> [ n ]
    | Some _ | None -> []
  in
  of_endpoint rule.from_ @ of_endpoint rule.to_

(* allowed() gets the same requirements text for every flow of an
   application, so its parse is memoized. The memo is bounded against
   daemons that cycle texts, and evicts one entry at a time, so such a
   daemon cannot force every other application's text to be re-parsed. *)
let requirement_limit = 1024

let build decls =
  (* Later definitions shadow earlier ones: keep the last binding. *)
  let last_wins l =
    List.fold_left (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc) [] l
  in
  let table_defs =
    last_wins
      (List.filter_map
         (function Ast.Table_def (n, items) -> Some (n, items) | _ -> None)
         decls)
  in
  let* tables =
    List.fold_left
      (fun acc (name, _) ->
        let* acc = acc in
        let* prefixes = resolve_table table_defs [] name in
        Ok ((name, prefixes) :: acc))
      (Ok []) table_defs
  in
  let macros =
    last_wins
      (List.filter_map
         (function Ast.Macro_def (n, v) -> Some (n, v) | _ -> None)
         decls)
  in
  let dicts =
    last_wins
      (List.filter_map
         (function Ast.Dict_def (n, entries) -> Some (n, entries) | _ -> None)
         decls)
  in
  let rules = Ast.rules decls in
  let intercepts =
    List.filter_map
      (function Ast.Intercept_def i -> Some i | _ -> None)
      decls
  in
  let* () =
    List.fold_left
      (fun acc rule ->
        let* () = acc in
        List.fold_left
          (fun acc name ->
            let* () = acc in
            if List.mem_assoc name tables then Ok ()
            else
              Error
                (Printf.sprintf "line %d: unknown table <%s>" rule.Ast.line name))
          (Ok ()) (tables_in_rule rule))
      (Ok ()) rules
  in
  let* () =
    List.fold_left
      (fun acc (i : Ast.intercept) ->
        let* () = acc in
        match i.Ast.target.Ast.addr with
        | Ast.Addr_table name when not (List.mem_assoc name tables) ->
            Error (Printf.sprintf "line %d: unknown table <%s>" i.Ast.iline name)
        | Ast.Addr_table _ | Ast.Addr_any | Ast.Addr_prefix _
        | Ast.Addr_list _ ->
            Ok ())
      (Ok ()) intercepts
  in
  (* The text of a policy-written argument; [None] for an answer's, or
     an undefined name (evaluation reports that). *)
  let text = function
    | Ast.Lit s -> Some s
    | Ast.Macro_ref name -> List.assoc_opt name macros
    | Ast.Dict_access { dict = "src" | "dst"; _ } -> None
    | Ast.Dict_access { dict; key; _ } ->
        Option.bind (List.assoc_opt dict dicts) (List.assoc_opt key)
  in
  let spec_lists = Hashtbl.create 8 and multi_lists = Hashtbl.create 8 in
  let split table of_text arg =
    match text arg with
    | Some s when not (Hashtbl.mem table s) -> Hashtbl.add table s (of_text s)
    | Some _ | None -> ()
  in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun (fc : Ast.funcall) ->
          match (fc.fname, fc.args) with
          | "member", [ _; l ] -> split spec_lists Items.of_spec l
          | "includes", [ l; _ ] -> split multi_lists Items.of_multi l
          | _ -> ())
        r.Ast.conds)
    rules;
  let requirements = lazy (Texts.create ~capacity:requirement_limit 16) in
  Ok { macros; tables; dicts; rules; intercepts; spec_lists; multi_lists; requirements }

let of_string s =
  let* decls = Parser.parse s in
  build decls

let rules t = t.rules
let intercepts t = t.intercepts
let macro t name = List.assoc_opt name t.macros
let table t name = List.assoc_opt name t.tables

let rec assoc_exn name = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if String.equal k name then v else assoc_exn name rest

let macro_exn t name = assoc_exn name t.macros
let table_exn t name = assoc_exn name t.tables
let spec_list t s = Hashtbl.find t.spec_lists s
let multi_list t s = Hashtbl.find t.multi_lists s
let dict t name = List.assoc_opt name t.dicts

let table_names t = List.map fst t.tables

let requirement t text =
  let m = Lazy.force t.requirements in
  match Texts.find m text with
  | r -> r
  | exception Not_found ->
      let r = Parser.parse_rules text in
      Texts.add m text r;
      r

let referenced_keys t =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun (r : Ast.rule) ->
      List.concat_map
        (fun (fc : Ast.funcall) ->
          List.filter_map
            (function
              | Ast.Dict_access { dict = "src" | "dst"; key; _ }
                when not (Hashtbl.mem seen key) ->
                  Hashtbl.add seen key ();
                  Some key
              | Ast.Dict_access _ | Ast.Macro_ref _ | Ast.Lit _ -> None)
            fc.Ast.args)
        r.Ast.conds)
    t.rules

let addr_spec_matches t (spec : Ast.addr_spec) ip =
  let base =
    match spec.Ast.addr with
    | Ast.Addr_any -> true
    | Ast.Addr_prefix p -> Prefix.mem ip p
    | Ast.Addr_table name -> (
        match table t name with
        | Some prefixes -> List.exists (Prefix.mem ip) prefixes
        | None -> false)
    | Ast.Addr_list prefixes -> List.exists (Prefix.mem ip) prefixes
  in
  if spec.Ast.negated then not base else base
