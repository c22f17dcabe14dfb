(** The pass registry: one record per lint pass — the per-file rules
    (detlint's and perflint's, on one walk) and parlint — so the one
    driver ({!Cli}) iterates data instead of duplicating flag plumbing. *)

type pass = {
  tool : string;  (** pass name, printed in summaries and rule tables *)
  default_paths : string list;
  rules : Lint.rule list;
  lint : (string * string) list -> Finding.t list;
      (** lint a corpus of [(filename, source)] pairs ({!Lint.sources}) *)
}

val passes : pass list
