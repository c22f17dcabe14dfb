(** Bounded breadth-first model checker, in the style of TLC.

    Explores the reachable state space of a {!Spec.t} from its initial
    states, up to a bound on distinct states.  {!search} is the one loop:
    it keeps the predecessor map, so every callback can ask for the
    shortest trace to the state it is looking at.  {!check} runs it with
    a set of named invariants checked on every reached state; a
    refinement check ({!Refinement.check}) runs it with an obligation on
    every transition. *)

type step = { action : string; label : string; state : State.t }

type stats = {
  states : int;  (** distinct states reached *)
  transitions : int;  (** transitions examined *)
  depth : int;  (** BFS depth reached *)
  complete : bool;  (** false when [max_states] cut exploration short *)
}

val search :
  ?max_states:int ->
  on_state:(State.t -> trace:(unit -> step list) -> 'a option) ->
  on_transition:
    (State.t -> trace:(unit -> step list) -> string * string * State.t -> 'a option) ->
  Spec.t ->
  'a option * stats
(** Breadth-first search from [spec.init] (default [max_states =
    1_000_000]).  [on_state] sees each state once, when it is first
    reached; [on_transition s ~trace] is applied once per expanded state
    [s], and the function it returns sees each [(action, label, s')]
    transition out of [s] before [s'] is visited.  [trace ()] is the
    shortest path from an initial state to the state at hand, initial
    state first with action ["Init"].  The first [Some x] either callback
    returns stops the search with [x]. *)

type result =
  | Pass of stats
  | Violation of {
      invariant : string;
      trace : step list;  (** initial state first; its action is ["Init"] *)
      stats : stats;
    }

val check :
  ?max_states:int -> invariants:(string * (State.t -> bool)) list -> Spec.t -> result
(** {!search} with the invariants checked on every reached state; the
    first state that breaks one is reported with its shortest trace.  A
    state with no enabled action is not an error: most of the paper's
    specs reach one legitimately (e.g. all messages consumed). *)

val within :
  Spec.t -> max_hops:int -> State.t -> (string list * State.t) Seq.t
(** [within spec ~max_hops s]: every state at most [max_hops] steps from
    [s], each once, in breadth-first order, with the action names of a
    shortest path to it ([s] itself comes first, with [[]]).  The search
    is lazy, so a consumer that stops at its first match pays only for
    the states discovered before it.  Each traversal from the head
    restarts the search; a node past the head must be forced once, so
    share a partial traversal through [Seq.memoize]. *)

val pp_trace : Format.formatter -> step list -> unit
val pp_result : Format.formatter -> result -> unit
