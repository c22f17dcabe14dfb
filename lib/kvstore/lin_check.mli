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

    Cost: O((W + R) log W + C) time and O(W + C) space for W
    acknowledged writes, R reads and C committed operations.  Each key's
    acknowledged writes are sorted by completion time once, with a
    running maximum of their positions, so a read finds its floor by
    binary search.  A history with no read returns at once. *)

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

val check :
  committed_order:Raftpax_consensus.Types.op list -> event list -> result

val check_sharded :
  committed_orders:Raftpax_consensus.Types.op list array ->
  group_of_key:(int -> int) ->
  event list ->
  result array
(** Per-group oracles for a sharded run: slices the events by key
    ownership ([group_of_key]) and runs {!check} for each group against
    that group's own committed order ([committed_orders.(g)]).  Sound for
    the same reason the single-group check is — each key lives in exactly
    one group's state machine, so per-key linearizability is decided
    entirely by that group's order. *)

val pp_violation : Format.formatter -> violation -> unit
