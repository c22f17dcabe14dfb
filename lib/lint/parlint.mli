(** parlint — cross-file knob-threading static analysis.

    The cross-file pass.  Unlike the per-file rules of {!Lint}
    (detlint) and {!Perflint}, which judge one file at a time, parlint
    parses the whole scanned corpus into a fact base (the [params]
    declaration, plus identifiers and string literals per file) and
    cross-references it across files: a [Types.params] field that some
    config surface cannot reach is drift.  The other parity obligations
    are enforced by construction; see DESIGN.md "Porting discipline".

    Rule: [knob-threading].  File roles are detected by path segments
    and basenames, so the rule runs over the real tree and over
    miniature fixture corpora; a surface absent from the scanned corpus
    is skipped.

    Suppression mirrors detlint ([[@lint.allow "rule-id" "reason"]]) and
    attaches to the record-label declaration of the field, or floats
    over the whole file.  The second payload string is the human
    justification. *)

val rules : Lint.rule list
(** All rules, in the order they are documented. *)

val rule_by_id : string -> Lint.rule option

val lint_sources : (string * string) list -> Finding.t list
(** Cross-reference a corpus given as [(filename, source)] pairs.
    Files that fail to parse yield a [parse-error] finding each and are
    excluded from the fact base.  A corpus of one file has every
    surface absent, so only a parse error can surface.  {!Lint.sources}
    reads a tree into a corpus. *)
