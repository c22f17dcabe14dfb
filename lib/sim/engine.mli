(** Discrete-event simulation core: a virtual clock and a hierarchical
    timing wheel of events, whose push and pop cost the same however
    many events are pending.  Time is in integer microseconds.

    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps runs deterministic. *)

type t

val create : ?seed:int64 -> unit -> t
val now : t -> int
(** Current virtual time, microseconds. *)

val rng : t -> Rng.t

type kind =
  | Timer  (** protocol timers — subject to clock-skew fault injection *)
  | Message  (** network deliveries — faulted by {!Net}, never skewed here *)
  | Exact  (** harness bookkeeping — never warped *)

val schedule :
  ?kind:kind ->
  ?node:int ->
  ?label:string ->
  t ->
  delay:int ->
  (unit -> unit) ->
  unit
(** Enqueue a callback [delay] µs from now ([delay >= 0]).  [kind]
    defaults to [Timer].  [node]/[label] are advisory identities used by
    the model checker's manual mode to name timer choices; they default
    to [-1]/[""] and are ignored in normal simulation. *)

type timer

val schedule_cancellable :
  ?kind:kind ->
  ?node:int ->
  ?label:string ->
  t ->
  delay:int ->
  (unit -> unit) ->
  timer

val cancel : timer -> unit
(** Cancelling an already-fired timer is a no-op. *)

val set_timer_skew : t -> (int -> int) option -> unit
(** Clock-skew fault injection: while set, every [Timer]-kind delay is
    passed through the hook before scheduling (clamped to [>= 0]).
    [Message] and [Exact] events are unaffected, so network semantics and
    the test harness keep exact time. *)

val run : t -> until:int -> unit
(** Process events in time order until the clock would pass [until] (µs)
    or no events remain. *)

val run_all : t -> unit
(** Drain every event (use only when the event set is known finite). *)

val pending : t -> int
(** Number of queued events (including cancelled-but-unpopped timers). *)

val events_executed : t -> int
(** Total events run so far (cancelled events are not counted) — the
    denominator-free half of the BENCH_engine events/sec metric. *)

val next_deadline : t -> int option
(** Virtual time of the earliest queued event, if any.  May name a
    cancelled event (waking early is harmless); used by the network
    shell to size its [select] timeout. *)

(** {1 Manual mode} — used by the {!Raftpax_mcheck} model checker.

    While manual mode is on, newly scheduled [Timer]-kind events are
    held in a pending set instead of the wheel and only run when
    explicitly fired; [Message]/[Exact]-kind events go to a FIFO
    trampoline drained by {!manual_drain} (or automatically after a
    {!manual_fire}).  Firing a timer advances the clock to that timer's
    nominal deadline (never backwards), so elapsed-time guards inside
    the runtimes still observe time passing; everything else runs at the
    current clock. *)

val set_manual : t -> bool -> unit

val is_manual : t -> bool
(** Whether manual mode is on.  Runtimes that coalesce timer reschedules
    in simulation (e.g. a lazily re-armed election timer) must keep the
    one-event-per-reset shape under the model checker, where each held
    timer is an explicit choice. *)

val manual_pending : t -> timer list
(** Live (uncancelled, unfired) manually-held timers, in scheduling
    order. *)

val manual_fire : t -> timer -> bool
(** Fire one held timer: advance the clock to [max clock deadline], run
    it, then drain the trampoline.  Returns [false] if it was already
    cancelled. *)

val manual_drain : t -> unit

val event_seq : timer -> int
val event_node : timer -> int
val event_label : timer -> string
val event_time : timer -> int

(** {1 Milliseconds helpers} — the protocol code thinks in ms. *)

val ms : int -> int
val us_to_ms : int -> float
