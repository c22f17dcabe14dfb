(* Probe deliberately has no wire coverage. *)
let put_raft w m = match m with Append _ -> w 0 | Ack _ -> w 1 | _ -> w 9
let get_raft r = if r = 0 then Append { term = 0 } else Ack { from = 0 }

let put_multipaxos w m =
  match m with
  | Accept _ -> w 0
  | AcceptOk _ -> w 1
  | Learn _ -> w 2

let get_multipaxos r =
  match r with
  | 0 -> Accept { bal = 0; items = [] }
  | 1 -> AcceptOk { bal = 0; insts = [] }
  | _ -> Learn { items = [] }

let put_mencius w m = match m with MAppend _ -> w 0 | MCommit _ -> w 1

let get_mencius r =
  match r with
  | 0 -> MAppend { from = 0; items = [] }
  | _ -> MCommit { insts = [] }
