type msg =
  | Accept of { bal : int; items : int list }
  | AcceptOk of { bal : int; insts : int list }
  | Learn of { items : int list }

let handle m =
  match m with
  | Accept _ -> 1
  | AcceptOk _ -> 2
  | Learn _ -> 3

let make_probes c =
  ignore (c "elections");
  ignore (c "leader_wins");
  ignore (c "ballot_changes");
  ignore (c "accepts_sent");
  ignore (c "forwards")
