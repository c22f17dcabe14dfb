(** The pass registry: one record per static-analysis pass (detlint,
    perflint, parlint), so the one driver ({!Cli}) iterates data
    instead of duplicating flag plumbing. *)

type pass = {
  tool : string;  (** pass name, printed in summaries and rule tables *)
  default_paths : string list;
  rules : Lint.rule list;
  lint_paths : string list -> Finding.t list;
  collect : string list -> string list;  (** the pass's file collector *)
}

val passes : pass list
