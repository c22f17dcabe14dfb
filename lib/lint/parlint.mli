(** parlint — cross-file knob-threading static analysis.

    The third pass on the compiler-libs AST driver.  Unlike {!Lint}
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
    excluded from the fact base. *)

val lint_string : filename:string -> string -> Finding.t list
(** Single-file corpus: every surface is absent, so only parse errors
    can surface. *)

val collect_files : string list -> string list
(** Like {!Lint.collect_files}, but also skips [lint_fixtures]
    directories: the broken fixture corpus deliberately violates the
    rule and must not pollute the real tree's fact base.  Explicitly
    given roots are never filtered. *)

val lint_paths : string list -> Finding.t list
(** [collect_files], then one {!lint_sources} run over the lot. *)
