(* The pass registry: one record per lint pass, so the driver iterates
   data instead of duplicating flag plumbing. *)

type pass = {
  tool : string;
  default_paths : string list;
  rules : Lint.rule list;
  lint : (string * string) list -> Finding.t list;
}

let per_file = Lint.rules @ Perflint.rules

let passes =
  [
    {
      tool = "lint";
      default_paths = [ "lib"; "bin"; "bench" ];
      rules = per_file;
      lint =
        List.concat_map (fun (filename, source) ->
            Lint.lint_string per_file ~filename source);
    };
    {
      tool = "parlint";
      default_paths = [ "lib"; "bench" ];
      rules = Parlint.rules;
      lint = Parlint.lint_sources;
    };
  ]
