(** The runtime protocol family, written once.

    Raft, Raft*, Raft*-LL, Raft*-PQL, Mencius and MultiPaxos differ in
    their cores, not in what a driver needs from them (PAPER.md,
    Section 4).  {!make} creates and starts any of them; the harness,
    the nemesis, the model checker and the network shell all project
    its one {!runtime} record.  Adding a protocol means adding a
    constructor, its two names and one [make] arm. *)

type t =
  | Raft  (** vanilla Raft, log reads *)
  | Raft_star
  | Raft_ll  (** leader-lease reads *)
  | Raft_pql  (** quorum-lease reads *)
  | Mencius
  | Multipaxos

val all : t list
val name : t -> string  (** ["Raft*-PQL"] *)

val cli_name : t -> string  (** ["raft-pql"] *)

val of_name : string -> t option
(** Case-insensitive; accepts both {!name} and {!cli_name}. *)

val fifo_required : t -> bool
(** The protocol assumes FIFO channels (Mencius, per its paper), so a
    nemesis must not reorder messages against it. *)

type runtime = {
  submit :
    node:int ->
    Raftpax_consensus.Types.op ->
    (Raftpax_consensus.Types.reply -> unit) ->
    unit;
  submit_id :
    node:int ->
    Raftpax_consensus.Types.op ->
    (Raftpax_consensus.Types.reply -> unit) ->
    int;  (** returns the command id, which is the span trace id *)
  crash : node:int -> unit;
  restart : node:int -> unit;
  leader_hint : unit -> int option;
      (** where to submit; [None] for Mencius, which has no leader *)
  committed_ops : node:int -> Raftpax_consensus.Types.op list;
      (** the committed prefix in commit order — the safety oracle *)
  digest : node:int -> string;  (** compact state line for traces *)
  dump : node:int -> string;  (** the full log or slot view *)
  state : rename:(int -> int) -> node:int -> string;
      (** the core's [dump_state], the model checker's fingerprint *)
  mono : node:int -> int array;  (** the core's [mono_view] *)
  invariant : unit -> string option;  (** [None] when every one holds *)
  raft_peek : (node:int -> Raftpax_consensus.Raft.peek) option;
      (** Raft-family cores only *)
  set_wire :
    (src:int ->
    dst:int ->
    size:int ->
    Raftpax_netcore.Wire.protocol_msg ->
    unit)
    option ->
    unit;
      (** intercept cross-replica sends, in the {!Raftpax_netcore.Wire}
          envelope, before the simulated net sees them *)
  deliver : node:int -> Raftpax_netcore.Wire.protocol_msg -> unit;
      (** inject a received envelope; another protocol's is dropped *)
  set_cmd_ids : base:int -> stride:int -> unit;
      (** process [i] of [n] takes [base:i stride:n], so leader-side
          dedup by command id stays sound across processes *)
}

val make :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  ?raft_config:Raftpax_consensus.Raft.config ->
  ?mencius_config:Raftpax_consensus.Mencius.config ->
  ?multipaxos_config:Raftpax_consensus.Multipaxos.config ->
  t ->
  Raftpax_sim.Net.t ->
  leader:int ->
  runtime
(** Create and start a core over [net]'s nodes, with the initial leader
    at replica [leader] (Mencius ignores it).  A config override
    replaces its own protocol's standard config; the model checker
    injects mutation flags this way.  [?batch_size] / [?batch_delay_us]
    (defaults 1 / 0) arm leader-side batching on the resolved config;
    size 1 leaves its params untouched, so a config override's own batch
    knobs (mcheck's -batched scopes) are kept unless the caller asks for
    batching. *)
