(* Two deliberate faults: handle never dispatches LearnMulti
   (handler-parity declared-but-never-matched) and make_probes drops
   "elections" (probe-parity: leader-change-started is registered by
   the other two protocols). *)
type msg =
  | Accept of { bal : int }
  | AcceptOk of { bal : int }
  | Learn of { inst : int }
  | AcceptMulti of { bal : int }
  | AcceptOkMulti of { bal : int }
  | LearnMulti of { insts : int list }

let handle m =
  match m with
  | Accept _ -> 1
  | AcceptOk _ -> 2
  | Learn _ -> 3
  | AcceptMulti _ -> 4
  | AcceptOkMulti _ -> 5
  | _ -> 0

let make_probes c =
  ignore (c "leader_wins");
  ignore (c "ballot_changes");
  ignore (c "accepts_sent");
  ignore (c "forwards")
