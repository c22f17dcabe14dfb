(* Two deliberate faults: handle never dispatches Learn (handler-parity
   declared-but-never-matched) and make_probes drops "elections"
   (probe-parity: leader-change-started is registered by the other two
   protocols). *)
type msg =
  | Accept of { bal : int; items : int list }
  | AcceptOk of { bal : int; insts : int list }
  | Learn of { items : int list }

let handle m =
  match m with
  | Accept _ -> 1
  | AcceptOk _ -> 2
  | _ -> 0

let make_probes c =
  ignore (c "leader_wins");
  ignore (c "ballot_changes");
  ignore (c "accepts_sent");
  ignore (c "forwards")
