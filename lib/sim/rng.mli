(** Deterministic pseudo-random numbers (SplitMix64).

    Every simulation source of randomness goes through an explicit [Rng.t]
    seeded by the experiment, so runs replay bit-for-bit — the property the
    test suite relies on.

    The state after [k] draws is [seed + k * golden] (mod 2^64), so a
    generator holds its seed and a mutable draw count: a draw stores an
    immediate [int], boxes no [int64], and allocates nothing.  The
    stream is the classic one, bit for bit. *)

type t

val create : int64 -> t
val split : t -> t
(** A statistically independent stream; used to give each node its own
    stream so adding randomness in one node does not perturb another. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val shuffle : t -> 'a array -> unit
