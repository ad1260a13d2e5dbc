type app_block = { path : string; pairs : Key_value.section }
type t = { globals : Key_value.section; apps : app_block list }

let empty = { globals = []; apps = [] }

(* Strip a comment that starts at an unquoted '#'. The daemon config
   syntax has no quoting, so any '#' starts a comment. *)
let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Join backslash-continued lines: a line whose last non-blank char is
   '\' absorbs the next line, separated by a single space. *)
let join_continuations lines =
  let rec go acc current = function
    | [] -> List.rev (match current with None -> acc | Some c -> c :: acc)
    | line :: rest -> (
        let line = strip_comment line in
        let trimmed = String.trim line in
        let continued =
          String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\'
        in
        let body =
          if continued then String.trim (String.sub trimmed 0 (String.length trimmed - 1))
          else trimmed
        in
        match current with
        | None ->
            if continued then go acc (Some body) rest
            else go (body :: acc) None rest
        | Some prefix ->
            let joined =
              if body = "" then prefix
              else if prefix = "" then body
              else prefix ^ " " ^ body
            in
            if continued then go acc (Some joined) rest
            else go (joined :: acc) None rest)
  in
  go [] None lines

let parse_pair line =
  match String.index_opt line ':' with
  | None -> Error ("config: expected 'key : value' in " ^ line)
  | Some i ->
      let key = String.trim (String.sub line 0 i) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      if Key_value.valid_key key && Key_value.valid_value value then
        Ok (Key_value.pair key value)
      else Error ("config: malformed pair " ^ line)

let parse_app_header line =
  (* "@app /usr/bin/skype {" *)
  let line = String.trim line in
  let without_prefix = String.sub line 4 (String.length line - 4) in
  let without_prefix = String.trim without_prefix in
  if String.length without_prefix = 0 then Error "config: @app missing path"
  else if without_prefix.[String.length without_prefix - 1] <> '{' then
    Error "config: @app header must end with '{'"
  else
    let path =
      String.trim (String.sub without_prefix 0 (String.length without_prefix - 1))
    in
    if path = "" then Error "config: @app missing path" else Ok path

let parse content =
  let lines = join_continuations (String.split_on_char '\n' content) in
  let rec go globals apps current = function
    | [] -> (
        match current with
        | Some _ -> Error "config: unterminated @app block"
        | None -> Ok { globals = List.rev globals; apps = List.rev apps })
    | "" :: rest -> go globals apps current rest
    | line :: rest -> (
        match current with
        | None ->
            if String.length line >= 4 && String.sub line 0 4 = "@app" then
              match parse_app_header line with
              | Error _ as e -> e
              | Ok path -> go globals apps (Some (path, [])) rest
            else (
              match parse_pair line with
              | Error _ as e -> e
              | Ok pair -> go (pair :: globals) apps None rest)
        | Some (path, pairs) ->
            if String.trim line = "}" then
              go globals
                ({ path; pairs = List.rev pairs } :: apps)
                None rest
            else (
              match parse_pair line with
              | Error _ as e -> e
              | Ok pair -> go globals apps (Some (path, pair :: pairs)) rest))
  in
  go [] [] None lines

let merge a b = { globals = a.globals @ b.globals; apps = a.apps @ b.apps }

let app t ~path =
  match
    List.concat_map
      (fun block -> if block.path = path then block.pairs else [])
      t.apps
  with
  | [] -> None
  | pairs -> Some pairs

let render t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (p : Key_value.pair) ->
      Buffer.add_string buf (Printf.sprintf "%s : %s\n" p.key p.value))
    t.globals;
  List.iter
    (fun block ->
      Buffer.add_string buf (Printf.sprintf "@app %s {\n" block.path);
      List.iter
        (fun (p : Key_value.pair) ->
          Buffer.add_string buf (Printf.sprintf "%s : %s\n" p.key p.value))
        block.pairs;
      Buffer.add_string buf "}\n")
    t.apps;
  Buffer.contents buf
