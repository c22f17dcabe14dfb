(** A closed-loop client: one outstanding op at a time, retried when no
    reply arrives within 20 s of virtual time.  Shared by {!Harness} and
    {!Shard}; the retry deadline is kept by one lazily re-armed watchdog
    event per client, never a timer per op. *)

type t

val create : region:int -> t

val region : t -> int
(** The client's region, which is also its entry replica. *)

val cur_op : t -> Raftpax_consensus.Types.op
(** The op of the latest attempt. *)

val started_us : t -> int
(** Submission time of the latest attempt. *)

val trace : t -> int
(** Command id of the latest attempt, as recorded by {!set_trace}. *)

val set_trace : t -> int -> unit

val attempt :
  Raftpax_sim.Engine.t ->
  t ->
  Raftpax_consensus.Types.op ->
  on_timeout:(t -> unit) ->
  int
(** Start an attempt at [op] now and return its generation.  If it is
    still unanswered 20 s later, the watchdog abandons it
    and calls [on_timeout], which typically counts a retry and attempts
    [cur_op] again. *)

val accept : t -> gen:int -> bool
(** [accept c ~gen] is true, once, for the completion of the live
    attempt [gen]; a late or duplicate completion gets false. *)
