(** Protocol-generic cluster driver: {!Raftpax_kvstore.Protocol.runtime}
    reduced to what the nemesis, the model checker, the chaos tests and
    the seed-sweep tool use.  Adding a protocol means adding one
    {!Raftpax_kvstore.Protocol.make} arm — no test changes. *)

type protocol = Raftpax_kvstore.Protocol.t =
  | Raft
  | Raft_star
  | Raft_ll
  | Raft_pql
  | Mencius
  | Multipaxos

val all_protocols : protocol list
(** The protocols the chaos matrix runs: every one but Raft-LL. *)

val protocol_name : protocol -> string
(** {!Raftpax_kvstore.Protocol.name} *)

val protocol_of_name : string -> protocol option
(** {!Raftpax_kvstore.Protocol.of_name} *)

type t = {
  protocol : protocol;
  n : int;  (** replica count *)
  fifo_required : bool;  (** {!Raftpax_kvstore.Protocol.fifo_required} *)
  submit :
    node:int ->
    Raftpax_consensus.Types.op ->
    (Raftpax_consensus.Types.reply -> unit) ->
    unit;
  crash : node:int -> unit;
  restart : node:int -> unit;
  leader_hint : unit -> int option;
  committed_ops : node:int -> Raftpax_consensus.Types.op list;
  digest : node:int -> string;
  dump : node:int -> string;  (** appended to the trace when a run fails *)
  state : rename:(int -> int) -> node:int -> string;
  mono : node:int -> int array;
  invariant : unit -> string option;
      (** checked by the model checker at every state and by the nemesis
          sanitizer ([debug_invariants]) at every digest poll *)
  raft_peek : (node:int -> Raftpax_consensus.Raft.peek) option;
}
(** The remaining fields are those of {!Raftpax_kvstore.Protocol.runtime}. *)

val make :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  ?raft_config:Raftpax_consensus.Raft.config ->
  ?mencius_config:Raftpax_consensus.Mencius.config ->
  ?multipaxos_config:Raftpax_consensus.Multipaxos.config ->
  protocol ->
  Raftpax_sim.Net.t ->
  t
(** {!Raftpax_kvstore.Protocol.make} on the net's nodes, with node 0 as
    the initial leader of the single-leader protocols. *)
