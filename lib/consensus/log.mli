(** The instance log of all three cores (DESIGN.md, "Replica base").  A
    Raft* entry, a MultiPaxos instance and a Mencius slot are one object
    in the paper's Section 4: a value and a ballot, and in the
    Paxos-family cores a chosen flag and an ack tally.  This is its one
    layout, structure-of-arrays: a length and a column per field, with
    absolute indices from 0.  A column reads as its default wherever it
    was never written, past the end included, and is allocated at its
    first write: Raft never pays for the chosen or tally column, and
    {!create} allocates only the header. *)

type 'v t

val create : 'v -> 'v t
(** An empty log whose value column defaults to the argument. *)

val length : 'v t -> int

val ensure : 'v t -> int -> unit
(** [ensure t i] grows the log to hold index [i]. *)

val push : 'v t -> 'v -> unit

val truncate : 'v t -> int -> unit
(** [truncate t n] keeps the first [n] indices. *)

(** {1 Columns}

    A write outside [[0, length t)] raises [Invalid_argument].  The
    ballot column defaults to {!no_ballot}, [-1]; the chosen flag to
    [false], and only {!truncate} clears it.  {!iteri} and {!to_list}
    visit the values. *)

val get : 'v t -> int -> 'v
val set : 'v t -> int -> 'v -> unit
val ballot : 'v t -> int -> int
val set_ballot : 'v t -> int -> int -> unit
val no_ballot : int
val chosen : 'v t -> int -> bool
val choose : 'v t -> int -> unit
val iteri : (int -> 'v -> unit) -> 'v t -> unit
val to_list : 'v t -> 'v list

(** {1 Ack tallies}

    An index's tally is an [int] whose bit [p] is set once peer [p]
    acked: a duplicated ack sets a bit already set, so it never counts
    twice, and the tally allocates nothing. *)

val no_tally : int
(** [-1], the tally column's default: no tally open.  No tally of at most
    [Sys.int_size - 1] replicas has the sign bit set. *)

val check_tally_width : who:string -> int -> unit
(** @raise Invalid_argument if [n] replicas do not fit a tally, that is
    [n > Sys.int_size - 1]; [who] names the core's constructor. *)

val acks : 'v t -> int -> int  (** the tally at an index *)

val open_tally : 'v t -> int -> unit  (** an empty tally, dropping any acks *)

val popcount : int -> int  (** the peers a tally counts *)

val tally : 'v t -> majority:int -> from:int -> int list -> int list
(** [tally t ~majority ~from is] counts [from]'s ack of each index in
    [is] with a tally open, ignoring the rest, and chooses each index
    whose acks plus the caller's own reach [majority]; it returns the
    newly chosen indices in the order of [is]. *)
