(** Runtime MultiPaxos (Figure 1): a stable-leader multi-decree Paxos over
    the simulated WAN.

    The leader runs Phase 1 once (batched over all instances, as the paper
    describes) and then commits one instance per client operation with a
    single Phase-2 round.  Instances commit out of order — the
    characteristic MultiPaxos behaviour Raft lacks — and replicas execute
    the log in order once the prefix is decided.

    Failure handling: when the leader dies, the replica with the lowest id
    among the live ones takes over with a higher ballot, re-running
    Phase 1; acceptors reject lower-ballot traffic. *)

type config = {
  params : Types.params;
  takeover_timeout_us : int;  (** leader-failure detection *)
  bug_no_takeover_after_restart : bool;
      (** test-only mutation (default [false]): the takeover watchdog
          only fires for a *down* leader, re-introducing the
          restarted-leader livelock the fault-injection PR fixed.  Exists
          so the model checker's mutation smoke test can prove it detects
          the bug. *)
}

val default_config : config

(** {1 Wire messages} — exposed for the {!Raftpax_netcore} codec. *)

type msg =
  | Prepare of { bal : int; from : int }
  | PrepareOk of {
      bal : int;
      from : int;
      accepted : (int * int * Types.cmd option) list;
          (** (instance, ballot, value) for every accepted instance *)
    }
  | Accept of {
      bal : int;
      from : int;
      items : (int * Types.cmd option) list;
          (** (instance, value) per command: one item unbatched, a whole
              flushed leader batch otherwise *)
    }
  | AcceptOk of { bal : int; from : int; insts : int list }
  | Learn of { items : (int * Types.cmd option) list }
  | Forward of Types.cmd
  | Complete of { cmd_id : int; reply : Types.reply }

type t

val create :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?leader:int ->
  config ->
  Raftpax_sim.Net.t ->
  t
(** [?telemetry] attaches protocol probes (elections, ballot changes,
    accepts, acks, retransmits, forwards, commits) and span marks; defaults
    to the disabled instance. *)

val start : t -> unit

val submit : t -> node:int -> Types.op -> (Types.reply -> unit) -> unit

val submit_id : t -> node:int -> Types.op -> (Types.reply -> unit) -> int
(** Like {!submit} but returns the command id (the span trace id). *)

(** {1 Network-shell hooks} — see {!Raft.set_wire}; same contract. *)

val set_wire : t -> (src:int -> dst:int -> size:int -> msg -> unit) option -> unit
val deliver : t -> node:int -> msg -> unit
val set_cmd_ids : t -> base:int -> stride:int -> unit

val leader_of : t -> int
val ballot_of : t -> node:int -> int
val chosen_count : t -> node:int -> int
(** Instances this replica knows to be chosen. *)

val executed_prefix : t -> node:int -> int
(** Length of the executed (in-order decided) prefix. *)

val committed_ops : t -> node:int -> Types.op list
(** Operations in the executed prefix, in instance order — the oracle for
    consistency checking. *)

val applied_value : t -> node:int -> key:int -> int option

val crash : t -> node:int -> unit
val restart : t -> node:int -> unit

(** {1 Model-checker hooks} *)

val dump_state : ?rename:(int -> int) -> t -> node:int -> string
(** Canonical rendering of every behaviour-relevant field of one replica,
    for state fingerprinting. *)

val mono_view : t -> node:int -> int array
(** Non-decreasing components: ballot, executed prefix, chosen count. *)

val invariant_violation : t -> string option
(** Cluster-wide safety: chosen-instance agreement and no command chosen
    at two instances. *)
