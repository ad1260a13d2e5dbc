(* A file, parsed at its first line in the concatenation. *)
type file = {
  name : string;
  text : string;
  first_line : int;
  parsed : Pf.Parser.file;
}

type t = {
  mutable files : file list; (* sorted by name *)
  mutable compiled : (Pf.Env.t, string) result option;
  mutable listeners : (unit -> unit) list;
  mutable epoch : int;
}

let create () = { files = []; compiled = None; listeners = []; epoch = 0 }

let epoch t = t.epoch
let bump t = t.epoch <- t.epoch + 1

let notify t = List.iter (fun f -> f ()) (List.rev t.listeners)

let strip_suffix name =
  let suffix = ".control" in
  if String.length name > String.length suffix
     && String.sub name (String.length name - String.length suffix)
          (String.length suffix)
        = suffix
  then String.sub name 0 (String.length name - String.length suffix)
  else name

let sort_files files = List.sort (fun a b -> String.compare a.name b.name) files

(* Lines [text] takes in the concatenation, with the newline that joins
   it to the next file. *)
let line_count text =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 text

(* Give each file its first line in the concatenation, re-parsing the
   files whose first line moved. *)
let rec place line = function
  | [] -> []
  | f :: rest ->
      let f =
        if f.first_line = line then f
        else
          match Pf.Parser.parse_file ~first_line:line f.text with
          | Ok parsed -> { f with first_line = line; parsed }
          | Error e ->
              (* It parsed when it was added, and lines number tokens
                 without changing them. *)
              invalid_arg ("Policy_store: " ^ e)
      in
      f :: place (line + line_count f.text) rest

let concatenated t = String.concat "\n" (List.map (fun f -> f.text) t.files)

(* The concatenation's declarations: the files' own, unless a file's
   last rule reads on into the next file. *)
let ruleset t =
  match Pf.Parser.joined (List.map (fun f -> f.parsed) t.files) with
  | Some decls -> Ok decls
  | None -> Pf.Parser.parse (concatenated t)

let recompile t =
  let result = Result.bind (ruleset t) Pf.Env.build in
  t.compiled <- Some result;
  result

let add t ~name content =
  let name = strip_suffix name in
  let others = List.filter (fun f -> f.name <> name) t.files in
  let first_line =
    List.fold_left
      (fun line f -> if String.compare f.name name < 0 then line + line_count f.text else line)
      1 others
  in
  (* The file must parse alone before it is accepted. *)
  match Pf.Parser.parse_file ~first_line content with
  | Error e ->
      (* Report the line as the file numbers it. *)
      let e = match Pf.Parser.parse content with Error e -> e | Ok _ -> e in
      Error (name ^ ": " ^ e)
  | Ok parsed -> (
      let previous = t.files in
      t.files <-
        place 1 (sort_files ({ name; text = content; first_line; parsed } :: others));
      match recompile t with
      | Ok _ ->
          bump t;
          notify t;
          Ok ()
      | Error e ->
          (* Roll back: the file broke the concatenated config. The env
             was (briefly) replaced and restored: bump anyway so any
             observer that sampled mid-load cannot keep stale state. *)
          t.files <- previous;
          ignore (recompile t);
          bump t;
          Error (name ^ ": " ^ e))

let add_exn t ~name content =
  match add t ~name content with Ok () -> () | Error e -> invalid_arg e

let remove t ~name =
  let name = strip_suffix name in
  t.files <- place 1 (List.filter (fun f -> f.name <> name) t.files);
  ignore (recompile t);
  bump t;
  notify t

let files t = List.map (fun f -> (f.name, f.text)) t.files

let env t =
  match t.compiled with Some r -> r | None -> recompile t

let on_change t f = t.listeners <- f :: t.listeners

let env_exn t =
  match env t with Ok e -> e | Error e -> invalid_arg ("Policy_store: " ^ e)
