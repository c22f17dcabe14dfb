(* parlint CLI — the cross-file knob-threading lint (see also
   `repro lint`).

   Usage: parlint [options] [paths...]
   Parses every .ml under the given files/directories (default:
   lib bench, skipping lint_fixtures corpora) into one fact base,
   cross-references it, and exits 1 on any unsuppressed finding. *)

let () = Raftpax_lint.Cli.main "parlint"
