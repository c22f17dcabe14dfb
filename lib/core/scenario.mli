(** Deterministic scenario driving for specs: pick a specific enabled
    transition by action name and label.  Used by tests and examples to
    steer a spec into an interesting corner (e.g. vanilla Raft's erase
    step) instead of waiting for breadth-first search to reach it. *)

val step : Spec.t -> State.t -> action:string -> label:string -> State.t
(** Applies the unique successor of [action] whose label starts with
    [label]; raises [Failure] (naming the candidates) when none or several
    match. *)

val run : Spec.t -> State.t -> (string * string) list -> State.t
(** Folds {!step} over a list of [(action, label)] picks. *)
