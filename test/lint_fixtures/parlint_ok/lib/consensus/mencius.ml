(* The msg type carries a handler-parity allow: this miniature has no
   MCommitMulti (commit-batched rides MAppendMulti here), and the
   make_probes binding carries a probe-parity allow for the missing
   revocation-outcome counter (leader-change-won) — both are the
   suppressed-fixture half of those rules. *)
type msg =
  | MAppend of { from : int }
  | MAck of { from : int }
  | MCommit of { inst : int }
  | MAppendMulti of { from : int }
  | MAckMulti of { from : int }
[@@lint.allow "handler-parity" "commit-batched piggybacks on MAppendMulti"]

let handle m =
  match m with
  | MAppend _ -> 1
  | MAck _ -> 2
  | MCommit _ -> 3
  | MAppendMulti _ -> 4
  | MAckMulti _ -> 5

let make_probes c =
  ignore (c "revocations_started");
  ignore (c "appends_sent");
  ignore (c "skips_announced")
[@@lint.allow "probe-parity" "no revocation-outcome counter in the miniature runtime"]
