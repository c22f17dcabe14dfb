(** An int-keyed, int-valued hash table: the replicas' applied state,
    and the cores' sets of command ids already placed in the log.

    Keys and values sit side by side in one flat [int] array, probed
    linearly from a multiplicative hash of the key.  Unlike
    [Stdlib.Hashtbl] it calls no C hash or compare and allocates nothing
    per new key; the array doubles once more than 4/5 of its slots are
    taken, so it holds at most 5 words per binding (see DESIGN.md,
    "Replica base").  There is no removal and no unordered iteration:
    keys come out only in ascending order. *)

type t

val reserved : int
(** [min_int]: marks a free slot, so it can never be a key. *)

val create : unit -> t

val replace : t -> int -> int -> unit
(** Bind a key, overwriting any earlier value.
    @raise Invalid_argument on {!reserved}. *)

val find_opt : t -> int -> int option

val find_or : t -> int -> default:int -> int
(** {!find_opt} without the option. *)

val mem : t -> int -> bool

val sorted_keys : t -> int list
(** The keys in ascending order, so independent of insertion history. *)

val render : t -> string
(** The bindings as [k=v], joined by [';'] in ascending key order, so
    independent of insertion history. *)
