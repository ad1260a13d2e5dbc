open Netcore

let arg = function
  | Ast.Lit s ->
      if s = "" || String.exists (fun c -> c = ' ' || c = '"' || c = '{') s
      then Printf.sprintf "\"%s\"" s
      else s
  | Ast.Macro_ref m -> "$" ^ m
  | Ast.Dict_access { star; dict; key } ->
      Printf.sprintf "%s@%s[%s]" (if star then "*" else "") dict key

let funcall (fc : Ast.funcall) =
  Printf.sprintf "%s(%s)" fc.fname (String.concat ", " (List.map arg fc.args))

let addr_spec (s : Ast.addr_spec) =
  let body =
    match s.addr with
    | Ast.Addr_any -> "any"
    | Ast.Addr_table n -> Printf.sprintf "<%s>" n
    | Ast.Addr_prefix p ->
        if Prefix.length p = 32 then Ipv4.to_string (Prefix.network p)
        else Prefix.to_string p
    | Ast.Addr_list prefixes ->
        Printf.sprintf "{ %s }"
          (String.concat " "
             (List.map
                (fun p ->
                  if Prefix.length p = 32 then Ipv4.to_string (Prefix.network p)
                  else Prefix.to_string p)
                prefixes))
  in
  if s.negated then "!" ^ body else body

let endpoint (e : Ast.endpoint_spec) =
  let addr = Option.map addr_spec e.addr in
  let port =
    Option.map
      (function
        | Ast.Port_eq p -> Printf.sprintf "port %d" p
        | Ast.Port_range (lo, hi) -> Printf.sprintf "port %d:%d" lo hi)
      e.port
  in
  String.concat " " (List.filter_map Fun.id [ addr; port ])

let rule (r : Ast.rule) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (match r.action with Ast.Pass -> "pass" | Ast.Block -> "block");
  if r.quick then Buffer.add_string buf " quick";
  if r.log then Buffer.add_string buf " log";
  (match r.proto with
  | Some p ->
      Buffer.add_string buf " proto ";
      Buffer.add_string buf (Netcore.Proto.to_string p)
  | None -> ());
  if Ast.is_all r && r.conds = [] && r.proto = None then Buffer.add_string buf " all"
  else begin
    if r.from_ <> Ast.endpoint_any then begin
      Buffer.add_string buf " from ";
      Buffer.add_string buf (endpoint r.from_)
    end;
    if r.to_ <> Ast.endpoint_any then begin
      Buffer.add_string buf " to ";
      Buffer.add_string buf (endpoint r.to_)
    end;
    if r.from_ = Ast.endpoint_any && r.to_ = Ast.endpoint_any then
      Buffer.add_string buf " all"
  end;
  List.iter
    (fun fc ->
      Buffer.add_string buf " with ";
      Buffer.add_string buf (funcall fc))
    r.conds;
  if r.keep_state then Buffer.add_string buf " keep state";
  Buffer.contents buf

let table_item = function
  | Ast.Item_prefix p ->
      if Prefix.length p = 32 then Ipv4.to_string (Prefix.network p)
      else Prefix.to_string p
  | Ast.Item_ref r -> Printf.sprintf "<%s>" r

let decl = function
  | Ast.Macro_def (name, v) -> Printf.sprintf "%s = \"%s\"" name v
  | Ast.Table_def (name, items) ->
      Printf.sprintf "table <%s> { %s }" name
        (String.concat " " (List.map table_item items))
  | Ast.Dict_def (name, entries) ->
      Printf.sprintf "dict <%s> { %s }" name
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s : %s" k v) entries))
  | Ast.Intercept_def i ->
      Printf.sprintf "intercept %s to %s %s { %s }"
        (match i.ikind with
        | Ast.Answer_query -> "query"
        | Ast.Augment_response -> "response")
        (addr_spec i.target)
        (match i.ikind with
        | Ast.Answer_query -> "answer"
        | Ast.Augment_response -> "augment")
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s : %s" k v) i.pairs))
  | Ast.Rule_decl r -> rule r

let ruleset decls = String.concat "\n" (List.map decl decls) ^ "\n"
