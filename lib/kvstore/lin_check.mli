(** Per-key linearizability checking for read results.

    The oracle is the committed operation order (one protocol-supplied
    list; all replicas apply the same order).  For each key, writes get
    positions in that order.  A read that started at time [t] must return
    a write at least as new as every write whose {e completion} the system
    acknowledged before [t] (an acknowledged write is committed, so its
    position lower-bounds what any linearizable read may see), and the
    returned id must be a committed write of that key (or none, if the key
    was never written).

    This is a sound partial check: it cannot produce false alarms, and it
    catches the failure modes that matter here — stale lease reads,
    reads served from an un-replicated log, lost committed writes.

    Exactly: a write's position is the index in [committed_order] of its
    last [Put] with the same key and [write_id].  The {e floor} of a read
    of key [k] that started at [t] is the largest position among the
    [Write_complete] events of [k] with [at_us <= t] whose write is
    committed, or [-1] if there is none.  The read is a violation if it
    returned an id with no position for [k], or if the position it
    returned ([-1] for [None]) is below its floor; [v_expected_after] is
    then the write at the floor ([-1] if the floor is [-1]).  Violations
    come in event order.

    Cost: O(W log W + R log w + C) time and O(W + R + C) space for W
    acknowledged writes, R reads, C committed operations and at most w
    acknowledged writes of the key a read reads.  A history is checked
    from its {!History} columns: the acknowledged writes are sorted by
    key and completion time once, with a running maximum of their
    positions inside each key's run; a read finds its key's run with one
    [Itbl] probe and its floor by a binary search inside the run; a
    returned id finds its position with one [Itbl] probe by write id.
    A history with no read returns at once. *)

type event =
  | Write_complete of { write_id : int; key : int; at_us : int }
      (** the client's completion callback fired at [at_us] *)
  | Read of { key : int; started_us : int; returned : int option }

type violation = {
  v_key : int;
  v_returned : int option;
  v_expected_after : int;  (** write_id the read should have seen *)
  v_started_us : int;
}

type result = { reads_checked : int; violations : violation list }

(** A client history in two growable [int] arrays, recorded as
    operations complete: each read is three ints and each acknowledged
    write three,
    with no per-event box, list cell or table bucket.  Read results and
    violations come in recording order, which is {e event order}.
    [min_int] stands for a read that returned [None], so it may be
    neither a key nor a write id. *)
module History : sig
  type t

  val create : unit -> t

  val read : t -> key:int -> started_us:int -> returned:int option -> unit
  (** @raise Invalid_argument on a [min_int] key or returned id. *)

  val write_complete : t -> write_id:int -> key:int -> at_us:int -> unit
  (** @raise Invalid_argument on a [min_int] key or write id. *)

  val iter_write_ids : (int -> unit) -> t -> unit
  (** The acknowledged writes' ids, in recording order. *)

  val check :
    committed_order:Raftpax_consensus.Types.op list -> t -> result
  (** The oracle.  Its cost is one [Itbl] probe plus O(log w{_k}) per
      read of a key with w{_k} acknowledged writes. *)
end

val check :
  committed_order:Raftpax_consensus.Types.op list -> event list -> result
(** The oracle of {!History.check}: the list's writes are recorded into a
    {!History} and its reads checked in list order, without a copy.
    @raise Invalid_argument on a [min_int] key or id. *)

val check_sharded :
  committed_orders:Raftpax_consensus.Types.op list array ->
  group_of_key:(int -> int) ->
  event list ->
  result array
(** Per-group oracles for a sharded run: slices the events by key
    ownership ([group_of_key]) and runs {!check} on each group's slice
    against that group's own committed order ([committed_orders.(g)]),
    as {!Shard.run} does with one {!History} per group.  Sound for
    the same reason the single-group check is — each key lives in exactly
    one group's state machine, so per-key linearizability is decided
    entirely by that group's order. *)

val pp_violation : Format.formatter -> violation -> unit
