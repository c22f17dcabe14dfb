(** detlint — determinism & protocol-discipline static analysis.

    An AST-driven pass over [.ml] sources (via compiler-libs' parser; no
    type information) enforcing the discipline the replay/fingerprint
    subsystems assume.  See DESIGN.md "Determinism discipline" for the
    rules' rationale; each rule's [summary] is the one-line version.

    Suppression: attach [[@lint.allow "rule-id"]] to an expression,
    [[@@lint.allow "rule-id"]] to a value binding, or a floating
    [[@@@lint.allow "rule-id"]] anywhere in a module to exempt the whole
    file.  Multiple ids may be given ([[@lint.allow "a" "b"]]); the id
    ["all"] matches every rule.  There is no baseline: every
    unsuppressed finding fails the gate. *)

type rule = {
  id : string;
  severity : Finding.severity;
  summary : string;
  applies : string -> bool;  (** does the rule run on this (normalized) path? *)
}

val rules : rule list
(** All rules, in the order they are documented. *)

val normalize_path : string -> string
(** '\\' to '/', strip a leading ["./"]. *)

val has_segment : seg:string -> string -> bool
(** Does the normalized path contain [seg] as a whole '/'-separated
    segment?  Shared by the path-scoping predicates of all the lint
    passes. *)

val in_lib : string -> bool
val in_consensus : string -> bool

val everywhere : string -> bool
(** [applies] predicate for rules with no path scoping. *)

val contains_sub : string -> string -> bool
(** [contains_sub hay needle]: substring containment. *)

val ends_with : suffix:string -> string -> bool

val last : string list -> string
(** Last element, or [""] on an empty list. *)

val allows_of_attrs : Parsetree.attributes -> string list
(** Rule ids granted by [[@lint.allow ...]] attributes (any payload
    strings; extra strings such as human reasons pass through
    harmlessly). *)

val lint_string : filename:string -> string -> Finding.t list
(** Lint source text.  [filename] determines rule scoping (rules look
    for [lib/] and [lib/consensus] segments) and appears in findings.
    A syntax error yields a single [parse-error] finding. *)

val lint_file : string -> Finding.t list

val collect_files : string list -> string list
(** Expand files/directories into a sorted list of [.ml] files,
    skipping [_build], [.git] and other dot-directories. *)

val lint_paths : string list -> Finding.t list
(** [collect_files] then [lint_file] on each, findings sorted. *)
