(* lint — every static-analysis pass behind one command: detlint
   (determinism), perflint (hot-path cost) and parlint (knob threading).

   Usage: lint [--list-rules] [--json] [paths...]
   With no paths each pass scans its own default roots (detlint: lib
   bin bench; perflint: lib; parlint: lib bench); explicit paths apply
   to every pass.  Exits 1 on any finding. *)

let () = Raftpax_lint.Cli.main ()
