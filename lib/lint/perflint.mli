(** perflint — hot-path cost & allocation static analysis.

    The cost-discipline sibling of {!Lint} (detlint): the same
    compiler-libs AST driver, but the rules target per-message and
    per-event code.  See DESIGN.md "Cost discipline" for the rationale;
    each rule's [summary] is the one-line version.

    Hot paths are declared rather than inferred: a [[@perf.hot]]
    attribute on a binding marks it (and nested bindings) hot, and a
    small built-in table marks the known dispatch spines (lib/consensus
    message handlers, the lib/sim engine, the lib/kvstore apply path)
    hot by name.  The allocation rule ([alloc-in-handler]) fires only
    inside explicitly attributed functions — it is too noisy for
    name-matched ones.

    Suppression mirrors detlint with its own namespace:
    [[@perf.allow "rule-id"]] on an expression, [[@@perf.allow ...]] on
    a binding, or a floating [[@@@perf.allow ...]] for the whole file;
    the id ["all"] matches every rule.  There is no baseline: every
    unsuppressed finding fails the gate. *)

val rules : Lint.rule list
(** All rules, in the order they are documented. *)

val lint_string : filename:string -> string -> Finding.t list
(** Lint source text.  [filename] determines rule scoping (rules run
    under [lib/]; default-hot name tables key off [consensus]/[sim]/
    [kvstore] segments) and appears in findings.  A syntax error yields
    a single [parse-error] finding. *)

val lint_file : string -> Finding.t list

val lint_paths : string list -> Finding.t list
(** {!Lint.collect_files} then [lint_file] on each, findings sorted. *)
