(* Rendering of analysis findings for humans (text) and machines
   (JSON). The controller evaluates the alphabetical concatenation of
   many .control files (§3.4) while findings should point into the file
   an operator can edit: the caller's locator maps a concatenated line
   back to its file. *)

type located = { file : string; local_line : int; finding : Check.finding }

let locate loc findings =
  List.map
    (fun (f : Check.finding) ->
      if f.Check.line = 0 then { file = ""; local_line = 0; finding = f }
      else
        let file, local_line = loc f.Check.line in
        { file; local_line; finding = f })
    findings

let text_line l =
  let f = l.finding in
  let where =
    if l.file = "" then "(whole ruleset)"
    else Printf.sprintf "%s:%d" l.file l.local_line
  in
  let witness =
    match f.Check.witness with
    | None -> ""
    | Some w -> Printf.sprintf " (witness: %s)" (Netcore.Five_tuple.to_string w)
  in
  Printf.sprintf "%s: %s [%s] %s%s" where
    (Check.severity_string f.Check.severity)
    f.Check.code f.Check.message witness

(* --- JSON --- *)

let json_str s = Obs.Json.to_string (Obs.Json.Str s)

let json_finding l =
  let f = l.finding in
  let fields =
    [
      Printf.sprintf "\"file\": %s" (json_str l.file);
      Printf.sprintf "\"line\": %d" l.local_line;
      Printf.sprintf "\"severity\": \"%s\"" (Check.severity_string f.Check.severity);
      Printf.sprintf "\"code\": %s" (json_str f.Check.code);
      Printf.sprintf "\"message\": %s" (json_str f.Check.message);
    ]
    @
    match f.Check.witness with
    | None -> []
    | Some w ->
        [
          Printf.sprintf "\"witness\": %s"
            (json_str (Netcore.Five_tuple.to_string w));
        ]
  in
  "{" ^ String.concat ", " fields ^ "}"

let to_json located =
  "[" ^ String.concat ",\n " (List.map json_finding located) ^ "]"

(* Exit-code contract: 1 iff any error-severity finding — warnings and
   info never fail CI. *)
let exit_code findings = if Check.has_errors findings then 1 else 0
