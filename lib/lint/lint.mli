(** The per-file lint driver, and detlint's rules.

    One walk of each [.ml] file's surface syntax (compiler-libs' parser;
    no type information) runs every per-file rule it is given: detlint's
    four ({!rules}, determinism; DESIGN.md "Determinism discipline") and
    perflint's four ({!Perflint.rules}, hot-path cost).  A rule's
    [check] judges one {!site} and returns the finding's message; the
    walk keeps the {!ctx} and files the finding.

    Suppression is one attribute for every rule: [[@lint.allow
    "rule-id"]] on an expression, [[@@lint.allow "rule-id"]] on a
    binding, or a floating [[@@@lint.allow "rule-id"]] anywhere in a
    file to exempt the whole file.  Multiple ids may be given
    ([[@lint.allow "a" "b"]]); the id ["all"] matches every rule.
    There is no baseline: every unsuppressed finding fails the gate. *)

type site =
  | Expr of Parsetree.expression
  | Top_value of Parsetree.value_binding  (** a structure-level binding *)
  | Module of Parsetree.module_expr

type ctx = private {
  file : string;  (** the normalized path *)
  compare_shadowed : bool;  (** is a [compare] bound anywhere in the file? *)
  mutable ancestors : Parsetree.expression list;  (** innermost first *)
  mutable bindings : Parsetree.value_binding list;
      (** the enclosing bindings, innermost first *)
}

type rule = {
  id : string;
  severity : Finding.severity;
  summary : string;
  applies : string -> bool;  (** does the rule run on this (normalized) path? *)
  check : ctx -> site -> string option;  (** the message of a finding here *)
}

val rules : rule list
(** detlint's rules, in the order they are documented. *)

val normalize_path : string -> string
(** '\\' to '/', strip a leading ["./"]. *)

val has_segment : seg:string -> string -> bool
(** Does the normalized path contain [seg] as a whole '/'-separated
    segment?  Shared by the path-scoping predicates of all the rules. *)

val in_lib : string -> bool
val in_consensus : string -> bool

val everywhere : string -> bool
(** [applies] predicate for rules with no path scoping. *)

val path_of_expr : Parsetree.expression -> string list
(** The flattened path of an identifier, [[]] for any other expression. *)

val strip_stdlib : string list -> string list

val last : string list -> string
(** Last element, or [""] on an empty list. *)

val allows_of_attrs : Parsetree.attributes -> string list
(** Rule ids granted by [[@lint.allow ...]] attributes (any payload
    strings; extra strings such as human reasons pass through
    harmlessly). *)

val parse : file:string -> string -> (Parsetree.structure, Finding.t) result
(** Parse source text; a syntax error is one [parse-error] finding. *)

val lint_string : rule list -> filename:string -> string -> Finding.t list
(** Run [rules] over source text in one walk.  [filename] determines
    rule scoping (rules look for [lib/] and [lib/consensus] segments)
    and appears in findings. *)

val sources : string list -> (string * string) list
(** Expand files/directories into the sorted [.ml] files under them,
    each with its contents, skipping [_build], dot-directories and,
    below a given root, [lint_fixtures].  Every pass reads its corpus
    here. *)
