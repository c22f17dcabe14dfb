(* The pass registry: one record per static-analysis pass, so the bin
   entry points and `repro lint` iterate data instead of duplicating
   flag plumbing — adding a fourth pass is one record here plus a
   one-line executable. *)

type pass = {
  tool : string;
  default_paths : string list;
  rules : Lint.rule list;
  lint_paths : string list -> Finding.t list;
  collect : string list -> string list;
}

let passes =
  [
    {
      tool = "detlint";
      default_paths = [ "lib"; "bin"; "bench" ];
      rules = Lint.rules;
      lint_paths = Lint.lint_paths;
      collect = Lint.collect_files;
    };
    {
      tool = "perflint";
      default_paths = [ "lib" ];
      rules = Perflint.rules;
      lint_paths = Perflint.lint_paths;
      collect = Lint.collect_files;
    };
    {
      tool = "parlint";
      default_paths = [ "lib"; "bench" ];
      rules = Parlint.rules;
      lint_paths = Parlint.lint_paths;
      collect = Parlint.collect_files;
    };
  ]

let find tool = List.find (fun p -> p.tool = tool) passes
