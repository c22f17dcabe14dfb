(* Deliberate fault: MAckMulti is missing from the msg type with no
   allow, while multipaxos has AcceptOkMulti — handler-parity
   missing-member must fire on the ack-batched family. *)
type msg =
  | MAppend of { from : int }
  | MAck of { from : int }
  | MCommit of { inst : int }
  | MAppendMulti of { from : int }
  | MCommitMulti of { insts : int list }

let handle m =
  match m with
  | MAppend _ -> 1
  | MAck _ -> 2
  | MCommit _ -> 3
  | MAppendMulti _ -> 4
  | MCommitMulti _ -> 5

let make_probes c =
  ignore (c "elections");
  ignore (c "revocations_value");
  ignore (c "appends_sent");
  ignore (c "skips_announced");
  ignore (c "forwards")
