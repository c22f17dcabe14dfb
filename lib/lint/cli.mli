(** The one command-line driver for every lint pass ([bin/lint.exe]).

    Every {!Registry} pass runs on its own default roots, or on the
    explicit paths when any are given.  The findings of all passes are
    merged, sorted and printed, followed by one summary line per pass.
    Any finding fails: there is no grandfathering, so a site is either
    fixed or carries a reasoned [[@lint.allow]]. *)

val main : unit -> unit
(** Parse [Sys.argv], lint, report, and [exit] 0 when no pass has a
    finding, 1 otherwise.  Flags: [--list-rules] prints every pass's
    rule table and exits 0; [--json] prints the merged findings as one
    JSON array instead of the text report. *)
