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
  strict : bool;
}

let create ?(strict = false) () =
  { files = []; compiled = None; listeners = []; epoch = 0; strict }

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

let analyze t =
  match ruleset t with
  | Error _ -> [] (* compilation reports parse errors already *)
  | Ok decls -> Analysis.Check.run decls

(* In strict mode, error-severity analysis findings (undefined macros,
   dictionaries, table cycles — things Eval would only hit at flow
   time) reject the load just like a compile failure. *)
let strict_error t =
  if not t.strict then None
  else
    let errors =
      List.filter
        (fun (f : Analysis.Check.finding) ->
          f.Analysis.Check.severity = Analysis.Check.Error)
        (analyze t)
    in
    match errors with
    | [] -> None
    | f :: rest ->
        Some
          (Printf.sprintf "strict analysis: line %d: [%s] %s%s"
             f.Analysis.Check.line f.Analysis.Check.code
             f.Analysis.Check.message
             (match rest with
             | [] -> ""
             | _ -> Printf.sprintf " (and %d more)" (List.length rest)))

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
      let rollback e =
        t.files <- previous;
        ignore (recompile t);
        (* The env was (briefly) replaced and restored: bump anyway so
           any observer that sampled mid-load cannot keep stale state. *)
        bump t;
        Error (name ^ ": " ^ e)
      in
      match recompile t with
      | Ok _ -> (
          match strict_error t with
          | None ->
              bump t;
              notify t;
              Ok ()
          | Some e -> rollback e)
      | Error e ->
          (* Roll back: the file broke the concatenated config. *)
          rollback e)

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

(* --- automatic differential analysis on reload --- *)

type change = {
  old_epoch : int;
  new_epoch : int;
  report : Analysis.Fdd.diff_report;
  nodes : int;
  coverage : float;
}

let watch_changes ?registry ?(limit = 16) t k =
  let current () =
    match env t with
    | Ok e -> Some (Analysis.Fdd.compile e)
    | Error _ -> None
  in
  let set_stats, record_diff =
    match registry with
    | None -> ((fun _ _ -> ()), fun _ -> ())
    | Some reg ->
        let open Obs.Registry in
        let diffs =
          counter reg
            ~help:"Differential policy-reload reports emitted by watchers"
            "identxx_analysis_policy_diffs_total"
        in
        let nodes =
          gauge reg ~help:"Nodes in the current policy decision diagram"
            "identxx_analysis_fdd_nodes"
        in
        let cov =
          gauge reg
            ~help:
              "Fraction of flow space the current policy decides statically"
            "identxx_analysis_fdd_static_coverage"
        in
        let frac =
          gauge reg
            ~help:"Flow-space fraction whose verdict the last reload changed"
            "identxx_analysis_policy_diff_changed_fraction"
        in
        ( (fun n c ->
            Gauge.set nodes (float_of_int n);
            Gauge.set cov c),
          fun f ->
            Counter.inc diffs;
            Gauge.set frac f )
  in
  let initial = current () in
  (match initial with
  | Some fdd ->
      set_stats (Analysis.Fdd.node_count fdd) (Analysis.Fdd.static_coverage fdd)
  | None -> ());
  let prev = ref initial and prev_epoch = ref t.epoch in
  on_change t (fun () ->
      let after = current () in
      (match (!prev, after) with
      | Some before, Some fdd ->
          let report = Analysis.Fdd.diff ~limit before fdd in
          let ch =
            {
              old_epoch = !prev_epoch;
              new_epoch = t.epoch;
              report;
              nodes = Analysis.Fdd.node_count fdd;
              coverage = Analysis.Fdd.static_coverage fdd;
            }
          in
          record_diff report.Analysis.Fdd.changed_fraction;
          set_stats ch.nodes ch.coverage;
          k ch
      | _ -> ());
      prev := after;
      prev_epoch := t.epoch)
