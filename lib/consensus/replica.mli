(** The replica base under {!Raft}, {!Mencius} and {!Multipaxos}: the
    plumbing off the paper's Section-4 list of differences, written once
    (see DESIGN.md, "Replica base").  A core hands it a record of
    closures ({!hooks}) once, and keeps its messages and handlers. *)

(** The per-node half: cores read it, only the base writes it. *)
type node = private {
  id : int;
  cpu : Raftpax_sim.Cpu.t;
  rng : Raftpax_sim.Rng.t;  (** split from the engine's, in node order *)
  commits : Raftpax_telemetry.Metrics.counter;
  acks_sent : Raftpax_telemetry.Metrics.counter;
  retransmits : Raftpax_telemetry.Metrics.counter;
  batch_cmds : Raftpax_telemetry.Metrics.histogram;
      (** commands per flush, observed on the batched path only *)
  store : Itbl.t;  (** applied key -> write id; written only by {!apply} *)
  mutable held : int;  (** commands in the open batch *)
  mutable flush_armed : bool;
  mutable flush_timer : unit -> unit;  (** built once per node *)
}

type 'msg hooks = {
  size : 'msg -> int;
  render : (int -> int) -> 'msg -> string;  (** under a node renaming *)
  complete : int -> Types.reply -> 'msg;  (** the core's [Complete] *)
  handle : int -> 'msg -> unit;  (** replica [dst]'s handler *)
  client : int -> Types.cmd -> unit;  (** a command reaches its replica *)
  live : int -> bool;  (** may the replica flush now *)
  flush : int -> unit;  (** send the held batch in the core's message *)
}

type 'msg t

val create :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  params:Types.params ->
  Raftpax_sim.Net.t ->
  'msg t

val bind : 'msg t -> 'msg hooks -> unit
(** Attach the core's hooks; called once, at the end of its [create]. *)

val node : 'msg t -> int -> node

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Through the [wire] hook when one is set and [src <> dst]; otherwise
    {!Raftpax_sim.Net.post} with [hooks.render] and [hooks.handle], so the
    message travels as its payload plus the net's one delivery closure. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit  (** to the others, by id *)

val set_wire :
  'msg t -> (src:int -> dst:int -> size:int -> 'msg -> unit) option -> unit

val submit_id : 'msg t -> node:int -> Types.op -> (Types.reply -> unit) -> int
val set_cmd_ids : 'msg t -> base:int -> stride:int -> unit

val reply : 'msg t -> src:int -> Types.cmd -> Types.reply -> unit
(** Send the command's [Complete] to its origin. *)

val render_complete : int -> Types.reply -> string
(** A core's [Complete] in model-checker renderings. *)

val complete : 'msg t -> node:int -> int -> Types.reply -> unit
(** Run a command's callback once; a duplicate [Complete] is dropped. *)

(** {1 Applied state}

    How a committed entry is applied lies outside the paper's
    correspondence, so one store per node serves all three cores. *)

val apply : node -> key:int -> int -> unit
(** Apply a committed write of [key]. *)

val read : node -> key:int -> int option
(** The applied value a read returns: ordered, lease and local reads. *)

val applied_value : 'msg t -> node:int -> key:int -> int option

val commit : 'msg t -> node -> reply:bool -> Types.cmd -> unit
(** Execute a committed command at the node: {!apply} a [Put], then, if
    [reply], {!answer} it. *)

val answer : 'msg t -> node -> Types.cmd -> unit
(** Mark the command's [quorum_commit] span and send its [Complete]; a
    [Get] returns its key's {!read}. *)

(** {1 Model-checker fingerprints} *)

val permuted : rename:(int -> int) -> 'a array -> 'a array
(** A node-indexed array in canonical order: slot [rename i] holds node
    [i]'s value. *)

val mask : rename:(int -> int) -> bool array -> string
(** {!permuted}, as ['0']/['1'] characters. *)

val render_tallies : rename:(int -> int) -> n:int -> 'v Log.t -> string
(** The log's open tallies, by ascending index, as [i=m] joined by [';'],
    where [m] is the {!mask} of the peers the tally counts. *)

val sorted_bindings : (int, 'a) Hashtbl.t -> (int * 'a) list
(** Bindings by ascending key, independent of insertion history. *)

val render_store : node -> string
(** ["|st:"] and the store's {!Itbl.render}. *)

val hold : 'msg t -> node -> unit
(** Count one queued command into the open batch.  It flushes at
    [batch_size], or when the timer its first command armed fires
    [max 1 batch_delay_us] later and [hooks.live] holds; the timer is
    never cancelled.  Every client command of every core comes here, so
    at [batch_size = 1] each one flushes alone, at once, and no timer is
    ever armed. *)

val drop_batch : node -> unit
(** Forget the held count; an armed timer stays armed. *)
