(** Whole-ruleset static checks over PF+=2 policies.

    The effective ruleset is concatenated from fragments written by
    mutually-distrustful parties (§3.3–§3.5 of the paper: the
    administrator's header/footer, vendors' [allowed]/[verify] rules,
    third-party rule-makers), which makes shadowed, conflicting, and
    unanswerable rules easy to ship. These checks reason symbolically
    about rule match-spaces ({!Fdd.Space}) under real quick/last-match
    semantics.

    Finding codes and severities:
    - [undefined-table], [table-cycle], [undefined-macro],
      [undefined-dict] — {e error}: evaluation fails at flow time;
    - [shadowed-rule] — {e warning}: the rule never decides a flow
      (covered by earlier [quick] rules, or always overridden by later
      rules under last-match);
    - [unmatchable-rule] — {e warning}: empty flow-space;
    - [rule-conflict] — {e warning}: two unconditional pass/block rules
      partially overlap with opposite actions (rule order alone decides
      the overlap), with a witness flow;
    - [unanswerable-key] — {e warning}: a [@src]/[@dst] key no daemon
      config, built-in section, or intercept can supply;
    - [duplicate-rule] — {e warning}: two textually identical rules
      (the earlier is redundant under last-match, or the later one when
      the pair is [quick]);
    - [unknown-function] — {e warning}: a [with] predicate that is not
      a built-in (evaluation fails unless a deployment registers it);
    - [default-fallthrough] — {e info}: the residual flow-space that
      reaches the implicit default. *)

type severity = Error | Warning | Info
(** [Error] findings make the ruleset unsafe to load (evaluation can
    fail at flow time); [Warning] marks rules that cannot behave as
    written; [Info] is advisory. *)

val severity_string : severity -> string

type finding = {
  line : int;  (** 0 when the finding has no single source line. *)
  severity : severity;
  code : string;
  message : string;
  witness : Netcore.Five_tuple.t option;
      (** A concrete flow exhibiting the finding, when one exists. *)
}

val run :
  ?configs:(string * Identxx.Config.t) list ->
  ?where:(int -> string) ->
  Pf.Ast.ruleset ->
  finding list
(** All findings, sorted by line then severity. [configs] are parsed
    ident++ daemon configurations ([*.identxx.conf]); when none are
    given the cross-config key check is skipped (nothing to check
    against). [where] formats cross-references to rule lines inside
    messages (default ["line N"]) — pass one built on the policy
    store's [locate] when analyzing a concatenation of files. *)

val has_errors : finding list -> bool

val daemon_builtin_keys : string list
(** Keys every honest daemon answers from its built-in section,
    regardless of configuration. *)
