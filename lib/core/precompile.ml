open Netcore
module MF = Openflow.Match_fields

let max_range_expansion = 16

(* The prefixes an address spec covers, or None when not compilable
   (negation, unknown table). [None] addr means unconstrained. *)
let prefixes_of env (spec : Pf.Ast.addr_spec option) =
  match spec with
  | None -> Some [ None ]
  | Some { Pf.Ast.negated = true; _ } -> None
  | Some { Pf.Ast.negated = false; addr } -> (
      match addr with
      | Pf.Ast.Addr_any -> Some [ None ]
      | Pf.Ast.Addr_prefix p -> Some [ Some p ]
      | Pf.Ast.Addr_table name -> (
          match Pf.Env.table env name with
          | Some ps -> Some (List.map (fun p -> Some p) ps)
          | None -> None)
      | Pf.Ast.Addr_list ps -> Some (List.map (fun p -> Some p) ps))

let ports_of (pm : Pf.Ast.port_match option) =
  match pm with
  | None -> Some [ None ]
  | Some (Pf.Ast.Port_eq p) -> Some [ Some p ]
  | Some (Pf.Ast.Port_range (lo, hi)) ->
      if hi - lo + 1 > max_range_expansion then None
      else Some (List.init (hi - lo + 1) (fun i -> Some (lo + i)))

let compilable_rule env (rule : Pf.Ast.rule) =
  rule.Pf.Ast.action = Pf.Ast.Block
  && rule.Pf.Ast.quick
  && (not rule.Pf.Ast.log)
  && rule.Pf.Ast.conds = []
  && prefixes_of env rule.Pf.Ast.from_.addr <> None
  && prefixes_of env rule.Pf.Ast.to_.addr <> None
  && ports_of rule.Pf.Ast.from_.port <> None
  && ports_of rule.Pf.Ast.to_.port <> None

let matches_of_rule env (rule : Pf.Ast.rule) =
  let get = Option.get in
  let srcs = get (prefixes_of env rule.Pf.Ast.from_.addr) in
  let dsts = get (prefixes_of env rule.Pf.Ast.to_.addr) in
  let sports = get (ports_of rule.Pf.Ast.from_.port) in
  let dports = get (ports_of rule.Pf.Ast.to_.port) in
  List.concat_map
    (fun nw_src ->
      List.concat_map
        (fun nw_dst ->
          List.concat_map
            (fun tp_src ->
              List.map
                (fun tp_dst ->
                  {
                    MF.any with
                    MF.dl_type =
                      (* Network-layer constraints imply an IPv4 match. *)
                      (if nw_src <> None || nw_dst <> None
                          || rule.Pf.Ast.proto <> None || tp_src <> None
                          || tp_dst <> None
                       then Some Ethertype.Ipv4
                       else None);
                    MF.nw_src;
                    nw_dst;
                    nw_proto = rule.Pf.Ast.proto;
                    tp_src;
                    tp_dst;
                  })
                dports)
            sports)
        dsts)
    srcs

let state_spaces env =
  let space = Analysis.Fdd.Space.of_rule ~lookup:(Pf.Env.table env) in
  List.fold_left
    (fun (fwd, rev) (r : Pf.Ast.rule) ->
      if r.Pf.Ast.keep_state && r.Pf.Ast.action = Pf.Ast.Pass then
        ( Analysis.Fdd.Space.union fwd (space r),
          Analysis.Fdd.Space.union rev
            (space { r with Pf.Ast.from_ = r.Pf.Ast.to_; to_ = r.Pf.Ast.from_ }) )
      else (fwd, rev))
    (Analysis.Fdd.Space.empty, Analysis.Fdd.Space.empty)
    (Pf.Env.rules env)

(* Most policies keep no state: the empty space answers without
   building the box. *)
let meets_state space (m : MF.t) =
  let field level f = function
    | None -> (0, Analysis.Fdd.dim_top.(level))
    | Some v -> f v
  in
  let point v = (v, v) in
  let prefix p = (Ipv4.to_int (Prefix.first p), Ipv4.to_int (Prefix.last p)) in
  (not (Analysis.Fdd.Space.is_empty space))
  && Analysis.Fdd.Space.overlaps_box space
       [|
         field 0 (fun p -> point (Proto.to_int p)) m.MF.nw_proto;
         field 1 prefix m.MF.nw_src;
         field 2 prefix m.MF.nw_dst;
         field 3 point m.MF.tp_src;
         field 4 point m.MF.tp_dst;
       |]

(* A compilable [block quick] rule is safe to offload as a dataplane
   drop iff no earlier non-compilable quick rule can decide one of its
   flows differently first. Rule order gives the precise condition: the
   flow-spaces must be disjoint. Earlier compilable quick rules are
   drops themselves (consistent), and non-quick rules never decide
   before a later quick match. [Fdd.Space.of_rule] over-approximates
   conditional rules, so disjointness is conservative. This generalizes
   the old "stop at the first non-compilable quick rule" cutoff: a
   network-only block behind an unrelated informational quick rule now
   still offloads.

   State matching precedes the ruleset: a drop meeting the keep-state
   reverse space would sit above the entries a reply needs, so it is
   withheld. *)
let drop_matches env =
  let space = Analysis.Fdd.Space.of_rule ~lookup:(Pf.Env.table env) in
  let _, replies = state_spaces env in
  let rec go blockers = function
    | [] -> []
    | (rule : Pf.Ast.rule) :: rest ->
        if not rule.Pf.Ast.quick then go blockers rest
        else if compilable_rule env rule then
          if Analysis.Fdd.Space.overlaps (space rule) blockers then
            go blockers rest
          else
            List.filter
              (fun m -> not (meets_state replies m))
              (matches_of_rule env rule)
            @ go blockers rest
        else go (Analysis.Fdd.Space.union blockers (space rule)) rest
  in
  go Analysis.Fdd.Space.empty (Pf.Env.rules env)
