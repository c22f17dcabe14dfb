(** perflint — hot-path cost rules, run on {!Lint}'s per-file walk.

    The cost-discipline sibling of detlint: the rules target
    per-message and per-event code that walks or scans what it could
    index (see DESIGN.md "Cost discipline"; each rule's [summary] is the
    one-line version).  Allocation is measured instead of guessed: the
    engine bench's exact [minor_words_per_op] and
    [promoted_words_per_op] rows gate it per core.

    Hot paths are declared rather than inferred: a [[@perf.hot]]
    attribute on a binding marks it (and nested bindings) hot, and
    {!hot_names} marks the per-message spines hot by name.  Suppression
    is {!Lint}'s: [[@lint.allow "rule-id"]]. *)

val rules : Lint.rule list
(** All rules, in the order they are documented.  They run under
    [lib/]. *)

val hot_names : (string * string list) list
(** Per library path segment ([consensus], [sim], [kvstore]), the
    function names that are hot without an attribute. *)

val is_function : Parsetree.expression -> bool
(** Is the bound expression a function (through type constraints and
    locally abstract types)?  Only a function binding is hot. *)
