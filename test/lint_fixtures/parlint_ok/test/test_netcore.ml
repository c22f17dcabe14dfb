let gen_raft_msg = [ Raft.Append { term = 1 }; Raft.Ack { from = 0 } ]

let gen_multipaxos_msg =
  [
    Multipaxos.Accept { bal = 1; items = [ 1 ] };
    Multipaxos.AcceptOk { bal = 1; insts = [ 1 ] };
    Multipaxos.Learn { items = [ 1 ] };
  ]

let gen_mencius_msg =
  [
    Mencius.MAppend { from = 1; items = [ 1 ] };
    Mencius.MAck { from = 1; insts = [ 1 ] };
  ]

let golden_table =
  [
    ("raft-append", `M (Raft.Append { term = 1 }), "00");
    ("raft-ack", `M (Raft.Ack { from = 0 }), "01");
    ("mp-accept", `M (Multipaxos.Accept { bal = 1; items = [] }), "02");
    ("mp-accept-ok", `M (Multipaxos.AcceptOk { bal = 1; insts = [] }), "03");
    ("mp-learn", `M (Multipaxos.Learn { items = [] }), "04");
    ("mencius-mappend", `M (Mencius.MAppend { from = 1; items = [] }), "05");
    ("mencius-mack", `M (Mencius.MAck { from = 1; insts = [] }), "06");
  ]
