(* lint — every static-analysis pass behind one command: the per-file
   rules (detlint's determinism rules and perflint's hot-path cost
   rules, on one walk of each file) and parlint (knob threading, across
   files).

   Usage: lint [--list-rules] [--json] [paths...]
   With no paths each pass scans its own default roots (per-file: lib
   bin bench; parlint: lib bench); explicit paths apply to every pass.
   Exits 1 on any finding. *)

let () = Raftpax_lint.Cli.main ()
