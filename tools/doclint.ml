(* doclint: the documentation gate on the @lint path.

   The container this repo builds in has no odoc, so `dune build @doc`
   cannot run here; this tool performs the structural checks that @doc
   would subsume and tells you when odoc is available to do the real
   render. Checks:

   1. every module under lib/ has an interface (.mli) — the odoc unit
      of documentation — modulo a short allowlist of type-only modules;
   2. every .mli opens with a documentation comment;
   3. every repo-relative path mentioned in backticks in the operator
      documentation (README.md, DESIGN.md, EXPERIMENTS.md, doc/*.md)
      exists, so the docs cannot drift from the tree they describe; a
      built executable [dir/name.exe] exists when [dir/name.ml] does
      and [dir/dune] declares the executable [name], so the check reads
      the same in the source tree as in the build tree;
   4. the metric catalog in doc/OBSERVABILITY.md and the metric-name
      literals in lib/, bin/, bench/, and tools/ agree, in both
      directions: a series
      the code can emit must have a catalog row, and a catalog row
      must name a series the code still emits;
   5. the health-rule catalog ("Health rules" table in
      doc/OBSERVABILITY.md) and the [~name:"..."] rule literals in
      lib/obs/health.ml agree, in both directions: every shipped rule
      has a documented row and every documented row names a rule the
      registry still ships;
   6. the flight-recorder kinds ("Flight recorder" table in
      doc/OBSERVABILITY.md) and the kinds lib/ records agree, in both
      directions: a kind's literal is the first string literal at the
      call's own level after each [Recorder.record]/[record_lazy];
   7. every value a lib/**/*.mli exports has a reference outside its
      own module in lib/, bin/, bench/, perfbench/, tools/ or
      examples/ (see [references] for what the lexical scan resolves).
      A reference from test/ does not count: a value kept exported for
      tests needs a line with a reason in tools/exports.allow. Both
      directions again: an allowlist line whose value is gone or has
      gained a caller is a finding too;
   8. every block EXPERIMENTS.md carries between
      [<!-- experiments: ID -->] and [<!-- /experiments -->] is a
      contiguous run of the lines bin/experiments.exe prints under its
      section [ID], as test/experiments.t pins them (2-space indent
      stripped). Both directions: a block that drifts from the output
      or names a section the output lacks is a finding, and so is a
      table row of the output that lies in no block;
   9. lib/core/controller.ml reports every flow-lifecycle point through
      its [Events] module: outside [module Events = struct ... end] it
      calls no sink ([Recorder.record*], [Audit.record*],
      [Span.start|finish|event|set_attr|force_sample|is_live],
      [Counter.inc|add], [Histogram.observe]);
  10. simulator events are data: outside lib/sim/engine.ml, nothing in
      lib/ passes a [fun] literal to [Sim.Engine.schedule*] or
      [Shard.Engine.post*] (a [fun] or [function] at the call's own
      level or directly inside one of its parenthesised arguments), or
      names a [(unit -> unit) Queue.t]. A layer schedules its own typed
      [Sim.Engine.event] cases and posts typed messages; the closure API
      is for callers outside lib/;
  11. lib/ keeps no module-level mutable state: no top-level [let] of a
      lib/**/*.ml (one at the start of a line) binds a value whose
      right-hand side starts with [ref], or with [create] or [make] of
      [Hashtbl], [Queue], [Stack], [Buffer], [Weak], [Atomic], [Array]
      or [Bytes], or of a module the file makes with a functor
      ([module Tab = Hashtbl.Make (...)]), or with a local [let x = ...
      in] of one of those (state a function closes over), unless
      tools/globals.allow names it with a reason. An allowlist line
      that names no such binding is a finding too;
  12. only the controller's adapter touches the network and the
      simulator: outside the top-level [let create] of
      lib/core/controller.ml (up to the next line that starts at column
      0), neither that file nor lib/core/proactive.ml names
      [Openflow.Network] or a module alias of it, or [Sim.Engine]; and
      inside it, the network's [send_batch] is named only as
      [Shard.Batch.create]'s [~send], the controller's one way out.
      And outside that [create], lib/core/controller.ml reads the policy
      store's current revision ([Policy_store.current],
      [Policy_store.env], directly or through a module alias) nowhere:
      what it derives from a revision is the query plan the [Revision]
      step replaces.

   Usage: doclint <repo-root>. Exit 1 on any finding. *)

let mli_allowlist = [ "lib/pf/ast.ml" (* pure AST type definitions *) ]
let errors = ref 0

let err fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      Printf.printf "doclint: %s\n" s)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let list_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path) |> List.sort String.compare
  else []

(* --- 1 + 2: interface coverage and leading doc comments --- *)

let check_interfaces root =
  List.iter
    (fun lib ->
      let dir = Filename.concat (Filename.concat root "lib") lib in
      List.iter
        (fun f ->
          let rel = Printf.sprintf "lib/%s/%s" lib f in
          if Filename.check_suffix f ".ml" then begin
            if
              (not (Sys.file_exists (Filename.concat dir (f ^ "i"))))
              && not (List.mem rel mli_allowlist)
            then err "%s has no interface (.mli)" rel
          end
          else if Filename.check_suffix f ".mli" then begin
            let body = String.trim (read_file (Filename.concat dir f)) in
            let starts p =
              String.length body >= String.length p
              && String.sub body 0 (String.length p) = p
            in
            if not (starts "(**") then
              err "%s does not open with a (** documentation comment" rel
          end)
        (list_dir dir))
    (list_dir (Filename.concat root "lib"))

(* --- 3: backticked path references in the markdown docs --- *)

(* A backticked token is treated as a repo path when its first segment
   is a directory of the repo root (lib/..., doc/..., test/...), or
   when it is a bare *.md name; everything else in backticks (flags,
   code, metric names like obs/counter-inc) is left alone. Candidates
   resolve against the referencing file's directory first, then the
   repo root. *)
let path_chars =
  String.for_all (function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | '/' -> true
    | _ -> false)

let inline_code_spans line =
  let out = ref [] and buf = Buffer.create 16 and inside = ref false in
  String.iter
    (fun c ->
      if c = '`' then begin
        if !inside && Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
        Buffer.clear buf;
        inside := not !inside
      end
      else if !inside then Buffer.add_char buf c)
    line;
  List.rev !out

(* The names a dune file's [executable]/[executables] stanzas declare
   in their [name]/[names] fields. *)
let dune_executables path =
  if not (Sys.file_exists path) then []
  else begin
    (* Tokens: "(", ")" and atoms; comments dropped, a quoted string
       one opaque atom. *)
    let s = read_file path in
    let n = String.length s in
    let toks = ref [] and buf = Buffer.create 16 in
    let flush () =
      if Buffer.length buf > 0 then begin
        toks := Buffer.contents buf :: !toks;
        Buffer.clear buf
      end
    in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | ';' -> while !i < n - 1 && s.[!i + 1] <> '\n' do incr i done
      | '"' ->
          flush ();
          incr i;
          while !i < n && s.[!i] <> '"' do
            if s.[!i] = '\\' then incr i;
            incr i
          done;
          toks := "\"\"" :: !toks
      | ('(' | ')') as c ->
          flush ();
          toks := String.make 1 c :: !toks
      | ' ' | '\t' | '\n' | '\r' -> flush ()
      | c -> Buffer.add_char buf c);
      incr i
    done;
    flush ();
    (* [heads]: the head atom of each open list, innermost first. *)
    let rec walk heads acc = function
      | [] -> acc
      | "(" :: h :: rest when h <> "(" && h <> ")" -> walk (h :: heads) acc rest
      | "(" :: rest -> walk ("" :: heads) acc rest
      | ")" :: rest -> walk (match heads with _ :: up -> up | [] -> []) acc rest
      | atom :: rest ->
          let acc =
            match heads with
            | [ ("name" | "names"); ("executable" | "executables") ] -> atom :: acc
            | _ -> acc
          in
          walk heads acc rest
    in
    walk [] [] (List.rev !toks)
  end

(* [tok], a path [dir/name.exe] under [base], names a built executable:
   [dir/name.ml] exists and [dir/dune] declares [name]. *)
let declared_exe base tok =
  Filename.check_suffix tok ".exe"
  &&
  let stem = Filename.chop_suffix tok ".exe" in
  Sys.file_exists (Filename.concat base (stem ^ ".ml"))
  && List.mem (Filename.basename stem)
       (dune_executables
          (Filename.concat (Filename.concat base (Filename.dirname stem)) "dune"))

let check_doc_refs root =
  let docs =
    List.filter
      (fun p -> Sys.file_exists (Filename.concat root p))
      [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]
    @ List.filter_map
        (fun f ->
          if Filename.check_suffix f ".md" then Some ("doc/" ^ f) else None)
        (list_dir (Filename.concat root "doc"))
  in
  List.iter
    (fun doc ->
      let dir = Filename.dirname (Filename.concat root doc) in
      String.split_on_char '\n' (read_file (Filename.concat root doc))
      |> List.iteri (fun lineno line ->
             List.iter
               (fun tok ->
                 let tok =
                   (* `policies/` means the directory *)
                   if String.length tok > 1 && tok.[String.length tok - 1] = '/'
                   then String.sub tok 0 (String.length tok - 1)
                   else tok
                 in
                 let is_path =
                   path_chars tok && tok <> ""
                   && tok.[0] <> '.'
                   &&
                   match String.index_opt tok '/' with
                   | Some i ->
                       i > 0
                       && Sys.file_exists
                            (Filename.concat root (String.sub tok 0 i))
                       && Sys.is_directory
                            (Filename.concat root (String.sub tok 0 i))
                   | None -> Filename.check_suffix tok ".md"
                 in
                 let exists base =
                   if Filename.check_suffix tok ".exe" then declared_exe base tok
                   else Sys.file_exists (Filename.concat base tok)
                 in
                 if is_path && (not (exists dir)) && not (exists root) then
                   err "%s:%d: `%s` does not exist" doc (lineno + 1) tok)
               (inline_code_spans line)))
    docs

(* --- 4: metric-catalog drift --- *)

(* A metric name is an [identxx_]-prefixed snake_case literal with at
   least two underscores — which excludes tool names like
   [identxx_ctl] while matching every registry series. *)
let is_metric_char = function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false

let is_metric_name s =
  String.length s > 8
  && String.sub s 0 8 = "identxx_"
  && String.for_all is_metric_char s
  && String.fold_left (fun n c -> if c = '_' then n + 1 else n) 0 s >= 2

(* Every ["identxx_..."] string literal in a source file. *)
let scan_literals acc path =
  let s = read_file path in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && is_metric_char s.[!j] do incr j done;
      if !j < n && s.[!j] = '"' then begin
        let lit = String.sub s (!i + 1) (!j - !i - 1) in
        if is_metric_name lit then Hashtbl.replace acc lit path
      end;
      i := !j
    end
    else incr i
  done

let metric_names_in_code root =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun lib ->
      let dir = Printf.sprintf "%s/lib/%s" root lib in
      List.iter
        (fun f ->
          if Filename.check_suffix f ".ml" then
            scan_literals acc (Filename.concat dir f))
        (list_dir dir))
    (list_dir (Filename.concat root "lib"));
  List.iter
    (fun sub ->
      List.iter
        (fun f ->
          if Filename.check_suffix f ".ml" then
            scan_literals acc (Filename.concat root (sub ^ "/" ^ f)))
        (list_dir (Filename.concat root sub)))
    [ "bin"; "bench"; "tools" ];
  acc

(* Catalog rows look like [| `identxx_..._total` | counter | ...]; a
   backticked span with spaces (a command synopsis) is not a row. *)
let metric_rows_in_doc root doc =
  let acc = Hashtbl.create 32 in
  (if Sys.file_exists (Filename.concat root doc) then
     String.split_on_char '\n' (read_file (Filename.concat root doc))
     |> List.iteri (fun lineno line ->
            if String.length line > 3 && String.sub line 0 3 = "| `" then
              match inline_code_spans line with
              | first :: _ when is_metric_name first ->
                  Hashtbl.replace acc first (lineno + 1)
              | _ -> ()));
  acc

let check_metric_catalog root =
  let doc = "doc/OBSERVABILITY.md" in
  let code = metric_names_in_code root in
  let rows = metric_rows_in_doc root doc in
  Hashtbl.iter
    (fun name path ->
      if not (Hashtbl.mem rows name) then
        err "%s emits `%s` but %s has no catalog row for it"
          (String.sub path (String.length root + 1)
             (String.length path - String.length root - 1))
          name doc)
    code;
  Hashtbl.iter
    (fun name lineno ->
      if not (Hashtbl.mem code name) then
        err "%s:%d: catalog row `%s` names a series no code emits" doc lineno
          name)
    rows

(* --- 5: health-rule catalog drift --- *)

(* The rule registry is the [rule ~name:"..."] literals in
   lib/obs/health.ml; the doc side is the "Health rules" table of
   doc/OBSERVABILITY.md (rows up to the next section heading whose
   first code span is a snake_case rule name). *)
let is_rule_name s =
  s <> ""
  && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) s
  && not (is_metric_name s)

let rule_names_in_code root =
  let acc = Hashtbl.create 8 in
  let path = Filename.concat root "lib/obs/health.ml" in
  if Sys.file_exists path then begin
    let s = read_file path in
    let marker = "~name:\"" in
    let mlen = String.length marker in
    let n = String.length s in
    for i = 0 to n - mlen - 1 do
      if String.sub s i mlen = marker then begin
        let j = ref (i + mlen) in
        while !j < n && s.[!j] <> '"' do incr j done;
        if !j < n then begin
          let name = String.sub s (i + mlen) (!j - i - mlen) in
          if is_rule_name name then Hashtbl.replace acc name ()
        end
      end
    done
  end;
  acc

(* The rows of the table in [doc]'s section whose "## " heading
   contains [section] (up to the next such heading) whose first code
   span passes [accept], with their line numbers. *)
let section_rows root doc ~section ~accept =
  let acc = Hashtbl.create 8 in
  (if Sys.file_exists (Filename.concat root doc) then
     let in_section = ref false in
     String.split_on_char '\n' (read_file (Filename.concat root doc))
     |> List.iteri (fun lineno line ->
            let starts p =
              String.length line >= String.length p
              && String.sub line 0 (String.length p) = p
            in
            let contains hay needle =
              let hn = String.length hay and nn = String.length needle in
              let rec go i =
                i + nn <= hn && (String.sub hay i nn = needle || go (i + 1))
              in
              go 0
            in
            if starts "## " then in_section := contains line section
            else if !in_section && starts "| `" then
              match inline_code_spans line with
              | first :: _ when accept first ->
                  Hashtbl.replace acc first (lineno + 1)
              | _ -> ()));
  acc

let check_rule_catalog root =
  let doc = "doc/OBSERVABILITY.md" in
  let code = rule_names_in_code root in
  let rows =
    section_rows root doc ~section:"Health rules" ~accept:is_rule_name
  in
  Hashtbl.iter
    (fun name () ->
      if not (Hashtbl.mem rows name) then
        err
          "lib/obs/health.ml ships rule `%s` but the %s health-rule table has \
           no row for it"
          name doc)
    code;
  Hashtbl.iter
    (fun name lineno ->
      if not (Hashtbl.mem code name) then
        err "%s:%d: health-rule row `%s` names a rule the registry no longer \
             ships"
          doc lineno name)
    rows

(* --- 6: flight-recorder kind drift --- *)

let is_kind_name s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
       s

(* Every kind lib/ records, with the file recording it. After each
   [Recorder.record] or [Recorder.record_lazy], the kind is the first
   string literal outside any bracket the call's arguments open (so an
   attribute pair in [~attrs:(...)] is not taken for it). *)
let recorder_kinds_in_code root =
  let acc = Hashtbl.create 8 in
  let marker = "Recorder.record" in
  let mlen = String.length marker in
  let scan rel =
    let s = read_file (Filename.concat root rel) in
    let n = String.length s in
    let rec literal_end j =
      if j >= n || s.[j] = '"' then j
      else literal_end (j + if s.[j] = '\\' then 2 else 1)
    in
    (* The kind literal at nesting [depth] 0 from [j] on, if any. *)
    let rec kind j depth =
      if j >= n || depth < 0 then None
      else
        match s.[j] with
        | '(' | '[' | '{' -> kind (j + 1) (depth + 1)
        | ')' | ']' | '}' -> kind (j + 1) (depth - 1)
        | '"' ->
            let e = literal_end (j + 1) in
            if depth = 0 then Some (String.sub s (j + 1) (e - j - 1))
            else kind (e + 1) depth
        | _ -> kind (j + 1) depth
    in
    for i = 0 to n - mlen do
      if String.sub s i mlen = marker then
        match kind (i + mlen) 0 with
        | Some k when is_kind_name k -> Hashtbl.replace acc k rel
        | Some _ | None ->
            err "%s: a Recorder.record call with no kind literal" rel
    done
  in
  List.iter
    (fun lib ->
      List.iter
        (fun f ->
          if Filename.check_suffix f ".ml" then
            scan (Printf.sprintf "lib/%s/%s" lib f))
        (list_dir (Printf.sprintf "%s/lib/%s" root lib)))
    (list_dir (Filename.concat root "lib"));
  acc

let check_recorder_catalog root =
  let doc = "doc/OBSERVABILITY.md" in
  let code = recorder_kinds_in_code root in
  let rows =
    section_rows root doc ~section:"Flight recorder" ~accept:is_kind_name
  in
  Hashtbl.iter
    (fun kind path ->
      if not (Hashtbl.mem rows kind) then
        err "%s records kind `%s` but the %s flight-recorder table has no row \
             for it"
          path kind doc)
    code;
  Hashtbl.iter
    (fun kind lineno ->
      if not (Hashtbl.mem code kind) then
        err "%s:%d: flight-recorder row `%s` names a kind lib/ no longer \
             records"
          doc lineno kind)
    rows

(* --- 7: exported values with no caller --- *)

(* [s] with comments, string literals (quoted ones too) and character
   literals blanked to spaces (newlines kept), so a name in prose or in
   a literal is not taken for a reference and offsets still give line
   numbers. *)
let code_only s =
  let b = Bytes.of_string s and n = String.length s in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec string_end j =
    if j >= n then j
    else if s.[j] = '\\' then string_end (j + 2)
    else if s.[j] = '"' then j
    else string_end (j + 1)
  in
  let rec comment_end j depth =
    if j >= n - 1 then n - 1
    else if s.[j] = '(' && s.[j + 1] = '*' then comment_end (j + 2) (depth + 1)
    else if s.[j] = '*' && s.[j + 1] = ')' then
      if depth = 1 then j + 1 else comment_end (j + 2) (depth - 1)
    else if s.[j] = '"' then comment_end (string_end (j + 1) + 1) depth
    else comment_end (j + 1) depth
  in
  (* The delimiter id of a quoted string literal opening at [i]. *)
  let quoted_id i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && s.[!j] = '|' then Some (String.sub s (i + 1) (!j - i - 1))
    else None
  in
  let rec go i =
    if i < n then
      if i < n - 1 && s.[i] = '(' && s.[i + 1] = '*' then begin
        let e = min (n - 1) (comment_end (i + 2) 1) in
        for k = i to e do blank k done;
        go (e + 1)
      end
      else if s.[i] = '"' then begin
        let e = min (n - 1) (string_end (i + 1)) in
        for k = i to e do blank k done;
        go (e + 1)
      end
      else if s.[i] = '{' && quoted_id i <> None then begin
        (* a quoted string literal *)
        let id = Option.get (quoted_id i) in
        let close = "|" ^ id ^ "}" in
        let e = ref (i + String.length id + 2) in
        while
          !e + String.length close <= n
          && String.sub s !e (String.length close) <> close
        do
          incr e
        done;
        let e = min (n - 1) (!e + String.length close - 1) in
        for k = i to e do blank k done;
        go (e + 1)
      end
      else if s.[i] = '\'' && i + 2 < n && (s.[i + 1] = '\\' || s.[i + 2] = '\'')
      then begin
        (* a character literal; ['a] alone is a type variable *)
        let e = ref (if s.[i + 1] = '\\' then i + 3 else i + 2) in
        while !e < n && s.[!e] <> '\'' do incr e done;
        for k = i to min (n - 1) !e do blank k done;
        go (!e + 1)
      end
      else go (i + 1)
  in
  go 0;
  Bytes.to_string b

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_op_char c = String.contains "!$%&*+-/:<=>?@^|~" c

(* The tokens of [code_only] text, with their offsets: identifiers,
   runs of operator characters, and single punctuation characters. *)
let tokens s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let span p =
        let j = ref i in
        while !j < n && p s.[!j] do incr j done;
        !j
      in
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | c when is_ident_char c ->
          let j = span is_ident_char in
          go j ((String.sub s i (j - i), i) :: acc)
      | c when is_op_char c ->
          let j = span is_op_char in
          go j ((String.sub s i (j - i), i) :: acc)
      | c -> go (i + 1) ((String.make 1 c, i) :: acc)
  in
  go 0 []

let is_module_name t = t <> "" && match t.[0] with 'A' .. 'Z' -> true | _ -> false
let is_value_name t =
  t <> "" && match t.[0] with 'a' .. 'z' | '_' -> true | c -> is_op_char c

let line_of s off =
  let l = ref 1 in
  for i = 0 to off - 1 do if s.[i] = '\n' then incr l done;
  !l

(* The values an interface exports: (qualifier, name, line), where the
   qualifier is the innermost module ([Counter] for a [val] inside
   [module Counter : sig]) and the name is an identifier or an
   operator. A [val] inside a [module type] exports nothing. *)
let exported_values ~modname path =
  let src = code_only (read_file path) in
  (* [stack]: the signatures open around the current token, innermost
     first; [None] for a module type's. *)
  let rec go toks stack acc =
    let owner =
      match stack with
      | [] -> Some modname
      | top :: _ -> if List.mem None stack then None else top
    in
    match toks with
    | [] -> List.rev acc
    | ("module", _) :: (m, _) :: (":", _) :: ("sig", _) :: rest ->
        go rest (Some m :: stack) acc
    | ("module", _) :: (m, _) :: ("(", _) :: rest when is_module_name m -> (
        (* A functor's values are [m]'s: a caller names them through an
           alias of its application ([module V = F.Make (K)]). *)
        let rec result = function
          | (")", _) :: (":", _) :: ("sig", _) :: rest -> Some rest
          | (")", _) :: _ | [] -> None
          | _ :: rest -> result rest
        in
        match result rest with
        | Some rest -> go rest (Some m :: stack) acc
        | None -> go rest stack acc)
    | ("module", _) :: ("type", _) :: _ :: ("=", _) :: ("sig", _) :: rest ->
        go rest (None :: stack) acc
    | ("sig", _) :: rest -> go rest (owner :: stack) acc
    | ("end", _) :: rest -> go rest (match stack with _ :: up -> up | [] -> []) acc
    | ("val", _) :: ("(", _) :: (v, off) :: (")", _) :: rest
    | ("val", _) :: (v, off) :: rest -> (
        match owner with
        | Some q when is_value_name v && v <> "(" ->
            go rest stack ((q, v, line_of src off) :: acc)
        | _ -> go rest stack acc)
    | _ :: rest -> go rest stack acc
  in
  go (tokens src) [] []

(* What one source file references: each value-name token with the
   module path component written just before it ([Some "Trace"] for
   [Sim.Trace.entries], [None] for a bare name), the modules it opens
   ([open P], [let open P in], [include P], [P.( ... )]), its local
   aliases ([module X = ...M] maps [X] to [M]), and the modules it
   hands to a functor ([Hashtbl.Make (M)]). Module paths are reduced to
   their last component. *)
type refs = {
  words : (string, string option) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;
  functor_args : (string, unit) Hashtbl.t;
}

let scan_refs path =
  let r =
    {
      words = Hashtbl.create 256;
      opened = Hashtbl.create 4;
      aliases = Hashtbl.create 4;
      functor_args = Hashtbl.create 2;
    }
  in
  (* The last component of the module path starting the token list. *)
  let rec last_module = function
    | _ :: (".", _) :: ((m, _) :: _ as rest) when is_module_name m ->
        last_module rest
    | (m, _) :: _ when is_module_name m -> Some m
    | _ -> None
  in
  let rec go prev = function
    | [] -> ()
    | (("open" | "include"), _) :: ("!", _) :: rest
    | (("open" | "include"), _) :: rest ->
        Option.iter (fun m -> Hashtbl.replace r.opened m ()) (last_module rest);
        go None rest
    | ("module", _) :: (x, _) :: ("=", _) :: rest when is_module_name x ->
        Option.iter (fun m -> Hashtbl.replace r.aliases x m) (last_module rest);
        go None rest
    | (m, _) :: (".", _) :: ((("(" | "[" | "{"), _) :: _ as rest)
      when is_module_name m ->
        Hashtbl.replace r.opened m ();
        go None rest
    | (m, _) :: (".", _) :: rest when is_module_name m -> go (Some m) rest
    | (f, _) :: ("(", _) :: (m, _) :: (")", _) :: rest
      when is_module_name f && is_module_name m ->
        Hashtbl.replace r.functor_args m ();
        go None rest
    | (w, _) :: rest ->
        if is_value_name w then Hashtbl.add r.words w prev;
        go None rest
  in
  go None (tokens (code_only (read_file path)));
  r

(* Does [r] reference value [name] of module [q]? A reference is [Q.name]
   with [Q] being [q] or a local alias of it, a bare [name] in a file
   that opens [q], or, for [compare], [equal] and [hash], [q] handed to
   a functor. The scan is lexical: it does not resolve which library a
   module name belongs to ([Sim.Engine] and [Shard.Engine] are both
   [Engine]), nor a module reached only through a functor parameter, a
   first-class module or a re-exporting [include]. *)
let references r ~q ~name =
  let names_q m = m = q || Hashtbl.find_opt r.aliases m = Some q in
  let opens_q =
    Hashtbl.fold (fun m () acc -> acc || names_q m) r.opened false
  in
  List.exists
    (function Some m -> names_q m | None -> opens_q)
    (Hashtbl.find_all r.words name)
  || (List.mem name [ "compare"; "equal"; "hash" ]
     && Hashtbl.fold (fun m () acc -> acc || names_q m) r.functor_args false)

let rec source_files root rel =
  List.concat_map
    (fun f ->
      let rel = if rel = "" then f else rel ^ "/" ^ f in
      let path = Filename.concat root rel in
      if f.[0] = '.' || f.[0] = '_' then []
      else if Sys.is_directory path then source_files root rel
      else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
      then [ rel ]
      else [])
    (list_dir (Filename.concat root rel))

(* The committed allowlist: one [<interface> <value> <reason>] line per
   value kept exported with no caller outside its module; [#] starts a
   comment line. *)
let exports_allowlist = "tools/exports.allow"

let read_exports_allowlist root =
  let path = Filename.concat root exports_allowlist in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (lineno, line) ->
           if line = "" || line.[0] = '#' then None
           else
             match
               String.split_on_char ' ' line |> List.filter (( <> ) "")
             with
             | mli :: value :: _ :: _ -> Some (lineno, mli, value)
             | _ ->
                 err "%s:%d: expected `<interface> <value> <reason>`"
                   exports_allowlist lineno;
                 None)

let check_exports root =
  let scanned dirs =
    List.concat_map
      (fun d ->
        List.map
          (fun rel -> (rel, scan_refs (Filename.concat root rel)))
          (source_files root d))
      dirs
  in
  let callers = scanned [ "lib"; "bin"; "bench"; "perfbench"; "tools"; "examples" ]
  and tests = scanned [ "test" ] in
  let allowed = read_exports_allowlist root in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun mli ->
      let modname =
        String.capitalize_ascii (Filename.chop_suffix (Filename.basename mli) ".mli")
      in
      let own = [ mli; Filename.chop_suffix mli "i" ] in
      List.iter
        (fun (q, name, line) ->
          let value = if q = modname then name else q ^ "." ^ name in
          let used files =
            List.exists
              (fun (rel, r) -> (not (List.mem rel own)) && references r ~q ~name)
              files
          in
          let listed =
            List.find_opt (fun (_, m, v) -> m = mli && v = value) allowed
          in
          Option.iter (fun l -> Hashtbl.replace seen l ()) listed;
          match (used callers, listed) with
          | true, Some (lineno, _, _) ->
              err "%s:%d: `%s` now has a caller outside %s; drop the line"
                exports_allowlist lineno value mli
          | true, None | false, Some _ -> ()
          | false, None ->
              err "%s:%d: `%s` has no caller outside its module%s" mli line
                value
                (if used tests then
                   " but test/ (test through the public path, or allowlist \
                    it in " ^ exports_allowlist ^ " with a reason)"
                 else ""))
        (exported_values ~modname (Filename.concat root mli)))
    (List.filter (fun f -> Filename.check_suffix f ".mli") (source_files root "lib"));
  List.iter
    (fun ((lineno, mli, value) as l) ->
      if not (Hashtbl.mem seen l) then
        err "%s:%d: `%s %s` names no exported value" exports_allowlist lineno
          mli value)
    allowed

(* --- 8: EXPERIMENTS.md's tables against the pinned experiments --- *)

let experiments_doc = "EXPERIMENTS.md"
let experiments_cram = "test/experiments.t/run.t"

(* The cram's output lines (commands, their input and prose dropped,
   the 2-space indent stripped), grouped under the binary's "## ID ..."
   headings: each section's id with its lines, each line with its line
   number in the cram. *)
let pinned_sections root =
  let path = Filename.concat root experiments_cram in
  if not (Sys.file_exists path) then []
  else begin
    let sections = ref [] and current = ref None in
    let close () =
      Option.iter
        (fun (id, lines) ->
          sections := (id, Array.of_list (List.rev lines)) :: !sections)
        !current
    in
    String.split_on_char '\n' (read_file path)
    |> List.iteri (fun i line ->
           let prefix p = String.starts_with ~prefix:p line in
           if prefix "  " && not (prefix "  $ " || prefix "  > ") then begin
             let out = String.sub line 2 (String.length line - 2) in
             if String.starts_with ~prefix:"## " out then begin
               close ();
               let heading = String.sub out 3 (String.length out - 3) in
               let id =
                 List.hd (String.split_on_char ' ' heading)
                 |> String.split_on_char ':' |> List.hd
               in
               current := Some (id, [])
             end
             else
               Option.iter
                 (fun (id, lines) -> current := Some (id, (i + 1, out) :: lines))
                 !current
           end);
    close ();
    List.rev !sections
  end

(* EXPERIMENTS.md's marked blocks: each one's id, the line number of
   its opening marker, and its lines with their line numbers. *)
let experiment_blocks root =
  let path = Filename.concat root experiments_doc in
  if not (Sys.file_exists path) then []
  else begin
    let blocks = ref [] and current = ref None in
    let opening = "<!-- experiments:" and closing = "<!-- /experiments -->" in
    let unclosed (id, at, _) =
      err "%s:%d: block `%s` is not closed" experiments_doc at id
    in
    String.split_on_char '\n' (read_file path)
    |> List.iteri (fun i line ->
           let lineno = i + 1 and t = String.trim line in
           if String.starts_with ~prefix:opening t
              && String.ends_with ~suffix:"-->" t then begin
             Option.iter unclosed !current;
             let id =
               String.sub t (String.length opening)
                 (String.length t - String.length opening - 3)
             in
             current := Some (String.trim id, lineno, [])
           end
           else if t = closing then begin
             match !current with
             | Some (id, at, lines) ->
                 blocks := (id, at, Array.of_list (List.rev lines)) :: !blocks;
                 current := None
             | None ->
                 err "%s:%d: closing marker with no open block" experiments_doc
                   lineno
           end
           else
             Option.iter
               (fun (id, at, lines) ->
                 current := Some (id, at, (lineno, line) :: lines))
               !current);
    Option.iter unclosed !current;
    List.rev !blocks
  end

let check_experiments root =
  let sections = pinned_sections root in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (id, at, block) ->
      match List.assoc_opt id sections with
      | None ->
          err "%s:%d: block `%s` names a section %s does not print"
            experiments_doc at id experiments_cram
      | Some out ->
          (* The offset into the section where the most leading lines of
             the block agree; a drifted block still claims the lines it
             was copied from, so its drift is one finding, not two. *)
          let nb = Array.length block and no = Array.length out in
          let agree o =
            let rec go k =
              if k < nb && o + k < no && snd out.(o + k) = snd block.(k) then
                go (k + 1)
              else k
            in
            go 0
          in
          let best = ref 0 and best_len = ref 0 in
          for o = 0 to no - 1 do
            let a = agree o in
            if a > !best_len then begin
              best := o;
              best_len := a
            end
          done;
          if !best_len > 0 then
            for k = 0 to min nb (no - !best) - 1 do
              Hashtbl.replace covered (fst out.(!best + k)) ()
            done;
          if nb = 0 then err "%s:%d: block `%s` is empty" experiments_doc at id
          else if !best_len < nb then begin
            let lineno, text = block.(!best_len) in
            err "%s:%d: block `%s` drifts from %s: `%s` is not the next line \
                 of its section"
              experiments_doc lineno id experiments_cram text
          end)
    (experiment_blocks root);
  (* One finding per run of table rows no block claims. *)
  List.iter
    (fun (id, out) ->
      ignore
        (Array.fold_left
           (fun in_run (lineno, text) ->
             let unclaimed =
               String.starts_with ~prefix:"|" text
               && not (Hashtbl.mem covered lineno)
             in
             if unclaimed && not in_run then
               err "%s:%d: `%s` table row `%s` is in no %s block"
                 experiments_cram lineno id text experiments_doc;
             unclaimed)
           false out))
    sections

(* --- 9: one instrumentation point for flow setup --- *)

let emitter_file = "lib/core/controller.ml"

(* Whether [m.v] calls a sink, [m] the last component of its module
   path. *)
let sink_call m v =
  match m with
  | "Recorder" | "Audit" -> String.starts_with ~prefix:"record" v
  | "Span" ->
      List.mem v [ "start"; "finish"; "event"; "set_attr"; "force_sample"; "is_live" ]
  | "Counter" -> v = "inc" || v = "add"
  | "Histogram" -> v = "observe"
  | _ -> false

(* The scan is lexical, like check 7's: a module alias is followed
   ([module S = Obs.Span] makes [S.event] a sink call), an [open] or a
   local open is not. *)
let check_emitter root =
  let path = Filename.concat root emitter_file in
  if Sys.file_exists path then begin
    let src = code_only (read_file path) in
    let aliases = (scan_refs path).aliases in
    let resolve m = Option.value ~default:m (Hashtbl.find_opt aliases m) in
    (* [depth]: the structures, signatures and [begin] blocks open inside
       [Events], 0 outside it. *)
    let rec go depth = function
      | [] -> ()
      | ("module", _) :: ("Events", _) :: ("=", _) :: ("struct", _) :: rest
        when depth = 0 ->
          go 1 rest
      | (("struct" | "sig" | "begin" | "object"), _) :: rest when depth > 0 ->
          go (depth + 1) rest
      | ("end", _) :: rest when depth > 0 -> go (depth - 1) rest
      | (m, _) :: (".", _) :: (v, off) :: rest
        when depth = 0 && is_module_name m && sink_call (resolve m) v ->
          err "%s:%d: `%s.%s` outside module Events: report flow-lifecycle \
               points through the emitter"
            emitter_file (line_of src off) (resolve m) v;
          go 0 rest
      | _ :: rest -> go depth rest
    in
    go 0 (tokens src)
  end

(* --- 10: simulator events are data --- *)

let thunk_exempt = "lib/sim/engine.ml"

(* Whether [m.v], [m] the last component of its module path, schedules
   on the simulator or posts to a shard. The scan is lexical, so both
   [Sim.Engine] and [Shard.Engine] read as [Engine]. *)
let scheduling_call m v =
  m = "Engine"
  && (String.starts_with ~prefix:"schedule" v || String.starts_with ~prefix:"post" v)

(* The offset of a [fun] or [function] among a call's argument tokens:
   at the call's level ([@@ fun]) or directly inside a parenthesised
   argument ([(fun () -> ...)]), not deeper. The arguments end at a
   closing bracket or a keyword or separator at the call's level. *)
let rec fun_argument depth = function
  | [] -> None
  | (("fun" | "function"), off) :: _ when depth <= 1 -> Some off
  | (("(" | "[" | "{" | "begin"), _) :: rest -> fun_argument (depth + 1) rest
  | ((")" | "]" | "}" | "end"), _) :: rest ->
      if depth = 0 then None else fun_argument (depth - 1) rest
  | ( ( ";" | ";;" | "in" | "let" | "and" | "then" | "else" | "do" | "done"
      | "with" | "|" | "->" ),
      _ )
    :: _
    when depth = 0 ->
      None
  | _ :: rest -> fun_argument depth rest

let check_thunks root =
  List.iter
    (fun rel ->
      if rel <> thunk_exempt then begin
        let path = Filename.concat root rel in
        let src = code_only (read_file path) in
        let aliases = (scan_refs path).aliases in
        let resolve m = Option.value ~default:m (Hashtbl.find_opt aliases m) in
        let rec go = function
          | [] -> ()
          | ("(", _) :: ("unit", off) :: ("->", _) :: ("unit", _) :: (")", _)
            :: ("Queue", _) :: (".", _) :: ("t", _) :: rest ->
              err "%s:%d: a `(unit -> unit) Queue.t`: queue typed messages, not \
                   closures" rel (line_of src off);
              go rest
          | (m, _) :: (".", _) :: (v, _) :: rest
            when is_module_name m && scheduling_call (resolve m) v ->
              (match fun_argument 0 rest with
              | Some off ->
                  err "%s:%d: a `fun` literal passed to `%s.%s`: schedule a \
                       typed event or post a typed message" rel (line_of src off)
                    (resolve m) v
              | None -> ());
              go rest
          | _ :: rest -> go rest
        in
        go (tokens src)
      end)
    (source_files root "lib")

(* --- 11: no module-level mutable state in lib/ --- *)

let globals_allowlist = "tools/globals.allow"

(* [Make] stands for every functor application: a scanned alias maps a
   module to the last component of its path. *)
let containers =
  [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Weak"; "Atomic"; "Array"; "Bytes"; "Make" ]

(* Whether a right-hand side starts by making a mutable container,
   directly or as the first local binding it closes over. *)
let rec makes_container resolve = function
  | ("(", _) :: rest -> makes_container resolve rest
  | ("let", _) :: (x, _) :: ("=", _) :: rhs when is_value_name x -> makes_container resolve rhs
  | ("ref", _) :: _ -> true
  | (m, _) :: (".", _) :: (((n, _) :: _) as rest) when is_module_name m && is_module_name n ->
      makes_container resolve rest
  | (m, _) :: (".", _) :: (("create" | "make"), _) :: _ when is_module_name m ->
      List.mem (resolve m) containers
  | _ -> false

(* The tokens after a binding's type annotation. *)
let rec after_equals = function
  | [] -> None
  | ("=", _) :: rhs -> Some rhs
  | _ :: rest -> after_equals rest

(* The allowlist: one [<file> <name> <reason>] line per binding kept. *)
let read_globals_allowlist root =
  let path = Filename.concat root globals_allowlist in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (lineno, line) ->
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | file :: name :: _ :: _ -> Some (lineno, file, name)
             | _ ->
                 err "%s:%d: expected `<file> <name> <reason>`" globals_allowlist lineno;
                 None)

let check_globals root =
  let allowed = read_globals_allowlist root in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun rel ->
      if Filename.check_suffix rel ".ml" then begin
        let path = Filename.concat root rel in
        let src = code_only (read_file path) in
        let aliases = (scan_refs path).aliases in
        let resolve m = Option.value ~default:m (Hashtbl.find_opt aliases m) in
        let rec go = function
          | [] -> ()
          | ("let", off) :: (name, _) :: rest
            when (off = 0 || src.[off - 1] = '\n') && is_value_name name && name <> "rec" ->
              let rhs =
                match rest with
                | ("=", _) :: rhs -> Some rhs
                | (":", _) :: annotated -> after_equals annotated
                | _ -> None
              in
              (match rhs with
              | Some rhs when makes_container resolve rhs -> (
                  match List.find_opt (fun (_, f, n) -> f = rel && n = name) allowed with
                  | Some l -> Hashtbl.replace seen l ()
                  | None ->
                      err "%s:%d: `%s` is module-level mutable state: keep it in a value \
                           its owner creates, or list it in %s with a reason"
                        rel (line_of src off) name globals_allowlist)
              | Some _ | None -> ());
              go rest
          | _ :: rest -> go rest
        in
        go (tokens src)
      end)
    (source_files root "lib");
  List.iter
    (fun ((lineno, file, name) as l) ->
      if not (Hashtbl.mem seen l) then
        err "%s:%d: `%s %s` names no module-level container" globals_allowlist lineno file
          name)
    allowed

(* --- 12: one way into the controller and one way out --- *)

let seam_files = [ "lib/core/controller.ml"; "lib/core/proactive.ml" ]

let check_seam root =
  List.iter
    (fun rel ->
      let path = Filename.concat root rel in
      if Sys.file_exists path then begin
        let src = code_only (read_file path) in
        let aliases = (scan_refs path).aliases in
        let named_as q m = m = q || Hashtbl.find_opt aliases m = Some q in
        let network = named_as "Network" and store = named_as "Policy_store" in
        let at_col0 off = off = 0 || src.[off - 1] = '\n' in
        (* Whether tokens before a [send_batch], nearest first, are
           [Shard.Batch.create ... ~send:(]. *)
        let rec batch_send = function
          | "." :: "Openflow" :: prev -> batch_send prev
          | "(" :: ":" :: "send" :: "~" :: prev ->
              let rec created = function
                | "create" :: "." :: "Batch" :: _ -> true
                | ("let" | "in" | ";") :: _ | [] -> false
                | _ :: prev -> created prev
              in
              created prev
          | _ -> false
        in
        (* [adapter]: inside the controller's top-level [let create];
           [prev]: the tokens before, nearest first. *)
        let rec go adapter prev = function
          | [] -> ()
          | ("let", off) :: ("create", _) :: rest
            when at_col0 off && rel = "lib/core/controller.ml" ->
              go true [] rest
          | ("module", off) :: _ :: rest ->
              (* An alias's own name; what it aliases is checked. *)
              go (adapter && not (at_col0 off)) prev rest
          | (m, off) :: rest ->
              let adapter = adapter && not (at_col0 off) in
              let named =
                match (m, rest) with
                | "Sim", (".", _) :: ("Engine", _) :: _ -> Some "Sim.Engine"
                | m, _ when is_module_name m && network m -> Some m
                | _ -> None
              in
              (match (named, rest) with
              | None, (".", _) :: (("current" | "env") as read, _) :: _
                when store m && (not adapter) && rel = "lib/core/controller.ml" ->
                  err "%s:%d: `%s.%s` outside Controller.create: the controller \
                       reads the policy through its query plan"
                    rel (line_of src off) m read
              | Some name, _ when not adapter ->
                  err "%s:%d: `%s` outside Controller.create: only its adapter \
                       touches the network and the simulator"
                    rel (line_of src off) name
              | Some name, (".", _) :: ("send_batch", _) :: _ when not (batch_send prev) ->
                  err "%s:%d: `%s.send_batch` other than as Shard.Batch.create's \
                       ~send: every message to a switch leaves through the tick's batch"
                    rel (line_of src off) name
              | _ -> ());
              go adapter (m :: prev) rest
        in
        go false [] (tokens src)
      end)
    seam_files

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  check_interfaces root;
  check_doc_refs root;
  check_metric_catalog root;
  check_rule_catalog root;
  check_recorder_catalog root;
  check_exports root;
  check_experiments root;
  check_emitter root;
  check_thunks root;
  check_globals root;
  check_seam root;
  let have_odoc = Sys.command "command -v odoc >/dev/null 2>&1" = 0 in
  if !errors > 0 then begin
    Printf.printf "doclint: %d finding(s)\n" !errors;
    exit 1
  end;
  Printf.printf
    "doclint: interfaces documented, doc cross-references resolve, metric, \
     health-rule and flight-recorder catalogs in sync, every exported value \
     called or allowlisted%s; EXPERIMENTS.md blocks match test/experiments.t\n"
    (if have_odoc then " (odoc present: run `dune build @doc` for the render)"
     else " (odoc not installed: rendered-doc build gated off)")
