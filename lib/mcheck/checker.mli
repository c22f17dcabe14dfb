(** Explicit-state exploration of a {!Model.scenario}: TLC-style BFS over
    every message-delivery / timer / crash interleaving at small scope.

    States are deduplicated by {!Model.fingerprint} — since link queues
    are per-link FIFOs, two delivery orders of independent messages reach
    the same fingerprint and the diamond collapses, which is the
    commutative-delivery pruning.  BFS order makes the first
    counterexample (and the first goal hit) shortest.

    Every explored transition is checked against the runtime's invariant
    library, the client read oracle and the per-node monotonicity views;
    the first failure stops the search with a schedule replayable by
    {!narrate} / the CLI's [--replay]. *)

type violation = {
  v_schedule : Model.choice list;  (** shortest failing schedule *)
  v_reason : string;
  v_trace : string list;  (** narrated replay of the schedule *)
}

type result = {
  r_scenario : string;
  r_states : int;  (** distinct states visited *)
  r_transitions : int;
  r_complete : bool;
      (** the frontier was exhausted within [max_states] / [max_depth]:
          together with the scenario budgets this makes "no violation"
          and "goal unreachable" exhaustive verdicts at scope *)
  r_goal_reached : bool;  (** some state acknowledged every command *)
  r_goal_schedule : Model.choice list option;  (** shortest such schedule *)
  r_prefix_len : int;  (** scripted policy prefix length *)
  r_violation : violation option;
}

val ok : result -> bool

val check : ?max_states:int -> ?max_depth:int -> Model.scenario -> result

val replay :
  Model.scenario -> Model.choice list -> Model.choice list -> Model.t
(** [replay sc prefix rev_suffix]: fresh world with [prefix] then
    [List.rev rev_suffix] applied. *)

val narrate : Model.scenario -> Model.choice list -> string list
(** Re-execute a schedule on a fresh world, one descriptive line per
    choice plus any safety failure it surfaces. *)

val pp_result : Format.formatter -> result -> unit
