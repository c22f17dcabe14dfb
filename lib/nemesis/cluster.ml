module C = Raftpax_consensus
module Types = C.Types
module Net = Raftpax_sim.Net
module Protocol = Raftpax_kvstore.Protocol

type protocol = Protocol.t =
  | Raft
  | Raft_star
  | Raft_ll
  | Raft_pql
  | Mencius
  | Multipaxos

(* Every protocol faces the chaos matrix except Raft-LL, which fails
   linearizability under partitions and message chaos: repro nemesis
   raft-ll --seed 564 --seeds 1 exits 1 (ROADMAP, Raft-LL lease scope).
   Its crash churn is covered in test_chaos. *)
let all_protocols = List.filter (fun p -> p <> Raft_ll) Protocol.all
let protocol_name = Protocol.name
let protocol_of_name = Protocol.of_name

type t = {
  protocol : protocol;
  n : int;
  fifo_required : bool;
  submit : node:int -> Types.op -> (Types.reply -> unit) -> unit;
  crash : node:int -> unit;
  restart : node:int -> unit;
  leader_hint : unit -> int option;
  committed_ops : node:int -> Types.op list;
  digest : node:int -> string;
  dump : node:int -> string;
  state : rename:(int -> int) -> node:int -> string;
  mono : node:int -> int array;
  invariant : unit -> string option;
  raft_peek : (node:int -> C.Raft.peek) option;
}

let make ?telemetry ?batch_size ?batch_delay_us ?raft_config ?mencius_config
    ?multipaxos_config protocol net =
  let r =
    Protocol.make ?telemetry ?batch_size ?batch_delay_us ?raft_config
      ?mencius_config ?multipaxos_config protocol net ~leader:0
  in
  {
    protocol;
    n = Net.size net;
    fifo_required = Protocol.fifo_required protocol;
    submit = r.submit;
    crash = r.crash;
    restart = r.restart;
    leader_hint = r.leader_hint;
    committed_ops = r.committed_ops;
    digest = r.digest;
    dump = r.dump;
    state = r.state;
    mono = r.mono;
    invariant = r.invariant;
    raft_peek = r.raft_peek;
  }
