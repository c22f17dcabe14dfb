(** A specification state: a finite assignment of {!Value.t} to named state
    variables.  States compare structurally, so they can be used directly as
    keys in the explorer's visited set. *)

type t

val empty : t
val of_list : (string * Value.t) list -> t
val to_list : t -> (string * Value.t) list

val get : t -> string -> Value.t
(** Raises [Invalid_argument] naming the variable when it is unbound — an
    unbound read is always a specification bug. *)

val get_opt : t -> string -> Value.t option
val set : t -> string -> Value.t -> t
val mem : t -> string -> bool
val vars : t -> string list

val restrict : t -> string list -> t
(** [restrict s vars] keeps only the bindings for [vars] (missing variables
    are ignored). *)

val merge : t -> t -> t
(** [merge base overlay]: bindings of [overlay] win. *)

val unchanged : t -> t -> string list -> bool
(** [unchanged s s' vars] is true iff every variable of [vars] has equal
    values in [s] and [s']. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
