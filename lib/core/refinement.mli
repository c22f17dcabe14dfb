(** Refinement-mapping checker (Abadi & Lamport).

    [B] refines [A] under a state mapping [f : State_B -> State_A] when
    every initial state of [B] maps to an initial state of [A], and every
    transition [s -> s'] of [B] maps either to a stuttering step
    ([f s = f s']) or to some transition [f s -> f s'] allowed by [A]'s
    next-state relation.

    The check is {!Explorer.search} over [B] with one obligation on each
    transition, discharged against [A] by {!Explorer.within} from [f s].
    This is exactly the obligation in the paper's Section 4.1:
    [b_i => a_j \/ f(Var'_B) = f(Var_B)].

    The paper's Appendix C additionally maps one batched Raft* step to a
    {e sequence} of Paxos steps (e.g. [AppendEntries] implies a run of
    [Phase2a]s; [BecomeLeader] implies [Phase1Succeed] followed by implicit
    propose/accepts).  [max_hops] enables this: a low-level transition is
    discharged if [f s'] is reachable from [f s] in at most [max_hops]
    high-level steps.  [max_hops = 1] (the default) is the classic
    single-step refinement obligation. *)

type failure = {
  kind : [ `Init | `Transition ];
  b_state : State.t;
  b_action : string;  (** "" for an init failure *)
  b_label : string;
  b_state' : State.t;  (** = [b_state] for an init failure *)
  a_state : State.t;
  a_state' : State.t;
  b_trace : Explorer.step list;  (** shortest path in B to [b_state] *)
}

type report = {
  checked_states : int;
  checked_transitions : int;
  stuttering : int;  (** transitions discharged as stuttering steps *)
  complete : bool;
  (* For each B action, how often it implied each A action path (actions
     joined by "+") — this is the machine-checked version of the paper's
     Figure 3 function mapping. *)
  action_map : (string * (string * int) list) list;
}

type result = Refines of report | Fails of failure * report

val discharge :
  high:Spec.t -> max_hops:int -> State.t -> State.t -> string list option
(** [discharge ~high ~max_hops a a'] asks whether the (already mapped)
    high-level transition [a -> a'] is allowed: returns the action names of
    a shortest path of at most [max_hops] high-level steps from [a] to
    [a'], or [None].  [Some []] means a stuttering step.  This is the
    per-transition obligation of {!check}; tests also use it to exhibit a
    single offending transition. *)

val check :
  ?max_states:int ->
  ?max_hops:int ->
  low:Spec.t ->
  high:Spec.t ->
  map:(State.t -> State.t) ->
  unit ->
  result
(** Explores [low] (default [max_states = 1_000_000]) and stops at the
    first init state or transition that has no image in [high].  An
    init failure comes with a one-step [b_trace] and an empty report. *)

val pp_result : Format.formatter -> result -> unit
