(** Non-mutating optimizations, represented as the paper's Section 4.2
    difference between [A^Δ] and [A].

    A delta owns a set of new state variables ([delta_vars]) and consists of
    items that are either:

    - {b added} subactions — brand-new subactions that may read the base
      protocol's variables but only write the delta variables; or
    - {b modified} subactions — extra conjunctive clauses attached to an
      existing base subaction; the extra clauses may read base variables and
      parameters but only write delta variables.

    Base subactions not mentioned by any item are {b unchanged}.

    The representation makes the non-mutating restriction hold {e by
    construction}: an added subaction's [enum] and a clause's [update]
    return a state binding only delta variables, so the base variables
    cannot be written.  {!Port.check_non_mutating} additionally verifies
    this semantically on explored states (guarding against a delta that
    smuggles base variables into its output). *)

type clause = {
  reads : string list;
      (** the base-protocol variables the clause reads, for documentation
          and for the porting report *)
  extra_guard : a_view:State.t -> d_state:State.t -> label:string -> bool;
      (** extra enabling condition; [a_view] is the base-protocol state (for
          a ported clause: the refinement image [f(Var_B)]), [label] is the
          (parameter-mapped) action label *)
  extra_update :
    a_view:State.t ->
    a_view':State.t ->
    d_state:State.t ->
    label:string ->
    State.t;
      (** next value of the delta variables; must bind exactly the delta
          variables *)
}

type item =
  | Added of {
      name : string;
      descr : string;
      enum : a_view:State.t -> d_state:State.t -> (string * State.t) list;
          (** successors of the delta variables only *)
    }
  | Modified of { base : string; clause : clause }

type t = {
  name : string;
  delta_vars : string list;
  delta_init : State.t;
  items : item list;
}

val make :
  name:string -> delta_vars:string list -> delta_init:State.t -> item list -> t
(** Checks that [delta_init] binds exactly [delta_vars]. *)

val added : ?descr:string ->
  string ->
  (a_view:State.t -> d_state:State.t -> (string * State.t) list) ->
  item

val modified :
  base:string ->
  ?reads:string list ->
  ?guard:(a_view:State.t -> d_state:State.t -> label:string -> bool) ->
  (a_view:State.t ->
  a_view':State.t ->
  d_state:State.t ->
  label:string ->
  State.t) ->
  item
(** [guard] defaults to always-enabled. *)

val pp : Format.formatter -> t -> unit
