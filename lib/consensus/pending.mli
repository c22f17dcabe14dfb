(** An int-keyed table of values, taken out once: the replica base's
    callbacks of commands awaiting their [Complete].

    Keys sit in one [int] array and values in a parallel array, probed
    linearly from {!Itbl}'s Fibonacci hash of the key.  A removal shifts
    the rest of its probe run back into the hole, so no tombstone is
    left and a probe ends at the first free slot.  Neither {!replace} of
    a new key nor {!take} allocates; the arrays double once more than
    4/5 of their slots are taken. *)

type 'a t

val create : empty:'a -> 'a t
(** An 8-slot table.  [empty] fills the free value slots and is what
    {!take} returns for an absent key. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind a key, overwriting any earlier value.
    @raise Invalid_argument on [min_int], which marks a free slot. *)

val take : 'a t -> int -> 'a
(** Remove a key's binding and return its value, or [empty] if the key
    is not bound. *)

val length : 'a t -> int

(** {1 Layout, for tests} *)

val capacity : 'a t -> int
(** The number of slots, a power of two. *)

val home : 'a t -> int -> int
(** The slot where a key's probe starts at the current capacity. *)
