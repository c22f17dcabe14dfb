(* Deliberate fault: MAck is missing from the msg type with no allow,
   while multipaxos has AcceptOk — handler-parity missing-member must
   fire on the ack family. *)
type msg =
  | MAppend of { from : int; items : int list }
  | MCommit of { insts : int list }

let handle m =
  match m with
  | MAppend _ -> 1
  | MCommit _ -> 2

let make_probes c =
  ignore (c "elections");
  ignore (c "revocations_value");
  ignore (c "appends_sent");
  ignore (c "skips_announced");
  ignore (c "forwards")
