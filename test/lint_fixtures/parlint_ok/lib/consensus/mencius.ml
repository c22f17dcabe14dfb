(* The msg type carries a handler-parity allow: this miniature has no
   MCommit (commit rides MAppend here), and the make_probes binding
   carries a probe-parity allow for the missing revocation-outcome
   counter (leader-change-won) — both are the suppressed-fixture half of
   those rules. *)
type msg =
  | MAppend of { from : int; items : int list }
  | MAck of { from : int; insts : int list }
[@@lint.allow "handler-parity" "commit piggybacks on MAppend"]

let handle m =
  match m with
  | MAppend _ -> 1
  | MAck _ -> 2

let make_probes c =
  ignore (c "revocations_started");
  ignore (c "appends_sent");
  ignore (c "skips_announced")
[@@lint.allow "probe-parity" "no revocation-outcome counter in the miniature runtime"]
