(** Growable array (OCaml 5.1 predates [Dynarray]); used for accumulators
    that refill, such as votes and phase-1 replies.  Replica logs are
    {!Log}. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit

val clear : 'a t -> unit
(** [clear v] empties [v] without releasing its storage — the natural
    reset for per-election/per-takeover accumulators that refill to a
    similar size. *)

val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
