(* A file, parsed at its first line in the concatenation. [name] is
   the name it was added under, which reports use; the store knows it
   by that name without the [.control] suffix (see [compare_names]). *)
type file = {
  name : string;
  text : string;
  first_line : int;
  parsed : Pf.Parser.file;
}

type t = {
  mutable files : file list; (* sorted by [compare_names] *)
  mutable compiled : (Pf.Env.t, string) result option;
  mutable listeners : (unit -> unit) list;
  mutable epoch : int;
}

let create () = { files = []; compiled = None; listeners = []; epoch = 0 }

let epoch t = t.epoch
let bump t = t.epoch <- t.epoch + 1

let notify t = List.iter (fun f -> f ()) (List.rev t.listeners)

(* The length of [name] without its [.control] suffix. *)
let stem_length name =
  let n = String.length name in
  if n > 8 && String.ends_with ~suffix:".control" name then n - 8 else n

(* [String.compare] of the two names without their suffixes, building
   neither: the first [la] bytes of [a] against the first [lb] of [b],
   from byte [i]. *)
let rec compare_from a la b lb i =
  if i = la || i = lb then Int.compare la lb
  else
    match Char.compare a.[i] b.[i] with
    | 0 -> compare_from a la b lb (i + 1)
    | c -> c

let compare_names a b = compare_from a (stem_length a) b (stem_length b) 0

let sort_files files = List.sort (fun a b -> compare_names a.name b.name) files

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

(* [text], parsed alone at [first_line]; an error names the file and
   its line as the file numbers it. *)
let parse_alone ~name ~first_line text =
  match Pf.Parser.parse_file ~first_line text with
  | Ok _ as parsed -> parsed
  | Error e ->
      let e = match Pf.Parser.parse text with Error e -> e | Ok _ -> e in
      Error (name ^ ": " ^ e)

let concatenated t = String.concat "\n" (List.map (fun f -> f.text) t.files)

(* The concatenation's declarations: the files' own, unless a file's
   last rule reads on into the next file. *)
let declarations t =
  match Pf.Parser.joined (List.map (fun f -> f.parsed) t.files) with
  | Some decls -> Ok decls
  | None -> Pf.Parser.parse (concatenated t)

let locate t line =
  let rec find = function
    | _ :: (next :: _ as rest) when next.first_line <= line -> find rest
    | f :: _ when f.first_line <= line -> (f.name, line - f.first_line + 1)
    | _ -> ("", line)
  in
  find t.files

(* An error that names a line of the concatenation ("line N: ..."), as
   the file holding that line names it ("a.control: line M: ...");
   [None] when the error names no line of a file. *)
let locate_error t e =
  match String.index_opt e ':' with
  | Some colon when String.starts_with ~prefix:"line " e -> (
      match Option.map (locate t) (int_of_string_opt (String.sub e 5 (colon - 5))) with
      | None | Some ("", _) -> None
      | Some (name, line) ->
          Some
            (Printf.sprintf "%s: line %d%s" name line
               (String.sub e colon (String.length e - colon))))
  | _ -> None

let located t = function
  | Ok _ as ok -> ok
  | Error e -> Error (Option.value (locate_error t e) ~default:e)

let ruleset t = located t (declarations t)

(* The environment's error is stored located; [recompile] returns it as
   the concatenation names it. *)
let recompile t =
  let result = Result.bind (declarations t) Pf.Env.build in
  t.compiled <- Some (located t result);
  result

let add t ~name content =
  let others = List.filter (fun f -> compare_names f.name name <> 0) t.files in
  let first_line =
    List.fold_left
      (fun line f -> if compare_names f.name name < 0 then line + line_count f.text else line)
      1 others
  in
  (* The file must parse alone before it is accepted. *)
  match parse_alone ~name ~first_line content with
  | Error e -> Error e
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
          (* An error without a line is the new file's to answer for. *)
          let e = match locate_error t e with Some e -> e | None -> name ^ ": " ^ e in
          (* Roll back: the file broke the concatenated config. The env
             was (briefly) replaced and restored: bump anyway so any
             observer that sampled mid-load cannot keep stale state. *)
          t.files <- previous;
          ignore (recompile t);
          bump t;
          Error e)

let load named =
  let rec parse_all line = function
    | [] -> Ok []
    | (name, _) :: (name', _) :: _ when compare_names name name' = 0 ->
        Error (Printf.sprintf "%s and %s name the same policy file" name name')
    | (name, text) :: rest ->
        Result.bind (parse_alone ~name ~first_line:line text) (fun parsed ->
            Result.map
              (fun files -> { name; text; first_line = line; parsed } :: files)
              (parse_all (line + line_count text) rest))
  in
  Result.map
    (fun files -> { (create ()) with files })
    (parse_all 1 (List.stable_sort (fun (a, _) (b, _) -> compare_names a b) named))

let add_exn t ~name content =
  match add t ~name content with Ok () -> () | Error e -> invalid_arg e

let remove t ~name =
  t.files <- place 1 (List.filter (fun f -> compare_names f.name name <> 0) t.files);
  ignore (recompile t);
  bump t;
  notify t

let files t = List.map (fun f -> (String.sub f.name 0 (stem_length f.name), f.text)) t.files

let env t =
  match t.compiled with
  | Some r -> r
  | None -> located t (recompile t)

let on_change t f = t.listeners <- f :: t.listeners

let env_exn t =
  match env t with Ok e -> e | Error e -> invalid_arg ("Policy_store: " ^ e)
