(* A file, parsed at its first line in the concatenation. [name] is
   the name it was given, which reports use; the store knows it by that
   name without the [.control] suffix (see [compare_names]). *)
type file = {
  name : string;
  text : string;
  first_line : int;
  parsed : Pf.Parser.file;
}

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

(* Lines [text] takes in the concatenation, with the newline that joins
   it to the next file. *)
let line_count text =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 text

(* [text], parsed alone at [first_line]; an error names the file and
   its line as the file numbers it. *)
let parse_alone ~name ~first_line text =
  match Pf.Parser.parse_file ~first_line text with
  | Ok _ as parsed -> parsed
  | Error e ->
      let e = match Pf.Parser.parse text with Error e -> e | Ok _ -> e in
      Error (name ^ ": " ^ e)

let locate files line =
  let rec find = function
    | _ :: (next :: _ as rest) when next.first_line <= line -> find rest
    | f :: _ when f.first_line <= line -> (f.name, line - f.first_line + 1)
    | _ -> ("", line)
  in
  find files

(* An error that names a line of the concatenation ("line N: ..."), as
   the file holding that line names it ("a.control: line M: ..."). *)
let located files = function
  | Ok _ as ok -> ok
  | Error e as error -> (
      match String.index_opt e ':' with
      | Some colon when String.starts_with ~prefix:"line " e -> (
          match Option.map (locate files) (int_of_string_opt (String.sub e 5 (colon - 5))) with
          | None | Some ("", _) -> error
          | Some (name, line) ->
              Error
                (Printf.sprintf "%s: line %d%s" name line
                   (String.sub e colon (String.length e - colon))))
      | _ -> error)

module Revision = struct
  type t = {
    epoch : int;
    files : file list; (* sorted by [compare_names] *)
    ruleset : (Pf.Ast.ruleset, string) result;
    env : (Pf.Env.t, string) result;
  }

  let epoch r = r.epoch
  let files r = List.map (fun f -> (String.sub f.name 0 (stem_length f.name), f.text)) r.files
  let ruleset r = r.ruleset
  let env r = r.env
  let locate r line = locate r.files line
end

exception Refused of string

(* [name]'s file at [line]: the file of [before] with that text at that
   line, or [text] parsed there. *)
let rec place ~line name text = function
  | [] -> (
      match parse_alone ~name ~first_line:line text with
      | Ok parsed -> { name; text; first_line = line; parsed }
      | Error e -> raise (Refused e))
  | f :: _ when f.first_line = line && String.equal f.text text && compare_names f.name name = 0 ->
      if String.equal f.name name then f else { f with name }
  | _ :: before -> place ~line name text before

let rec place_all ~before line = function
  | [] -> []
  | (name, _) :: (name', _) :: _ when compare_names name name' = 0 ->
      raise (Refused (Printf.sprintf "%s and %s name the same policy file" name name'))
  | (name, text) :: rest ->
      let f = place ~line name text before in
      f :: place_all ~before (line + line_count text) rest

(* The revision of [named] ([(name, text)], in any order), each file
   placed at its first line reusing [prev]'s parse where it can. Fails
   on the first file in name order that does not parse alone, or on two
   names of one file. *)
let build ?prev named =
  let before = match prev with Some (r : Revision.t) -> r.files | None -> [] in
  match place_all ~before 1 (List.stable_sort (fun (a, _) (b, _) -> compare_names a b) named) with
  | exception Refused e -> Error e
  | files ->
      (* The files' own declarations, unless a file's last rule reads on
         into the next file. *)
      let ruleset =
        match Pf.Parser.joined (List.map (fun f -> f.parsed) files) with
        | Some decls -> Ok decls
        | None -> Pf.Parser.parse (String.concat "\n" (List.map (fun f -> f.text) files))
      in
      Ok
        {
          Revision.epoch = (match prev with Some r -> r.epoch + 1 | None -> 0);
          files;
          ruleset = located files ruleset;
          env = located files (Result.bind ruleset Pf.Env.build);
        }

let load named = build named

type t = {
  mutable current : Revision.t;
  mutable listeners : (Revision.t -> unit) list; (* in registration order *)
}

let create () = { current = Result.get_ok (build []); listeners = [] }
let current t = t.current

let replace t rev =
  t.current <- rev;
  List.iter (fun f -> f rev) t.listeners

(* Install [named] if its environment builds. An error that names no
   line is the edit's to answer for: it names the first file the edit
   placed anew (added, changed or moved). *)
let set t named =
  match build ~prev:t.current named with
  | Error e -> Error e
  | Ok ({ env = Ok _; _ } as rev) ->
      replace t rev;
      Ok ()
  | Ok { env = Error e; files; _ } -> (
      let names_a_line = List.exists (fun f -> String.starts_with ~prefix:(f.name ^ ": line ") e) in
      match List.find_opt (fun f -> not (List.memq f t.current.files)) files with
      | Some f when not (names_a_line files) -> Error (f.name ^ ": " ^ e)
      | Some _ | None -> Error e)

(* The current files but [name], as given. *)
let others t name =
  List.filter_map
    (fun f -> if compare_names f.name name = 0 then None else Some (f.name, f.text))
    t.current.files

let add t ~name content = set t ((name, content) :: others t name)

let add_exn t ~name content =
  match add t ~name content with Ok () -> () | Error e -> invalid_arg e

(* Every file parsed when it was added, and lines number tokens without
   changing them, so the rest parse wherever they move. *)
let remove t ~name =
  let rest = others t name in
  let held = List.compare_lengths rest t.current.files <> 0 in
  if held then replace t (Result.get_ok (build ~prev:t.current rest));
  held

let env t = t.current.env

let on_change t f = t.listeners <- t.listeners @ [ f ]

let env_exn t =
  match env t with Ok e -> e | Error e -> invalid_arg ("Policy_store: " ^ e)
