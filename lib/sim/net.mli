(** Message transport over the simulated WAN.

    Delivery time combines: a serialisation delay on the sender's NIC
    (size / bandwidth, FIFO per sender — this is what saturates a leader's
    uplink in the 4 KB experiments), the one-way propagation latency of the
    site pair, and a small jitter.  Delivery is FIFO per (src, dst) link —
    the TCP-stream assumption real implementations (etcd) make.  Messages
    can be dropped by probability or cut by a partition predicate.

    The transport is payload-agnostic: the caller hands over the typed
    message with a handler and a renderer ({!post}), so the network needs
    no knowledge of protocol message types.  A message in flight is its
    payload plus one delivery closure (7 words); the renderer is applied
    only under a {!capture} hook.  {!send} is the same path for a
    message that is already a thunk. *)

type t

type node = {
  id : int;
  site : Topology.site;
}

val create :
  ?drop_probability:float ->
  ?jitter_us:int ->
  Engine.t ->
  nodes:node list ->
  t
(** Raises [Invalid_argument] when [nodes] has more than 65 536 entries
    (a link packs both node ids into one int), before allocating. *)

val engine : t -> Engine.t
val nodes : t -> node list

val size : t -> int
(** Cluster size, cached at creation — use this instead of recomputing
    [List.length (nodes t)] when sizing per-replica state. *)


val node_site : t -> int -> Topology.site

val set_partition : t -> (int -> int -> bool) option -> unit
(** [set_partition t (Some cut)]: messages from [a] to [b] are silently
    dropped whenever [cut a b] is true.  [None] heals. *)

(** {1 Fault injection hooks} *)

type chaos = {
  delay_us : int;  (** extra per-message delay, uniform in [0, delay_us) *)
  dup_probability : float;  (** chance a message is delivered twice *)
  drop_probability : float;  (** extra drop chance on top of the base *)
  reorder : bool;
      (** exempt chaotic messages from the per-link FIFO clamp, so a
          delayed message can overtake later ones on the same link *)
}

val set_chaos : t -> chaos option -> unit
(** While set, every message is subject to the chaos parameters; [None]
    restores clean TCP-like semantics.  All randomness is drawn from the
    net's seeded RNG, so runs stay deterministic. *)

type monitor = now:int -> src:int -> dst:int -> size:int -> dropped:bool -> unit

val set_monitor : t -> monitor option -> unit
(** Observation tap: called once per {!post} or {!send} with the send-time fault
    decision ([dropped] covers probability drops, partition cuts and chaos
    drops; a mid-flight crash loss is not reported). *)

type capture =
  src:int ->
  dst:int ->
  size:int ->
  info:((int -> int) -> string) ->
  (unit -> unit) ->
  unit

val set_capture : t -> capture option -> unit
(** Model-checker interception: while set, {!post} and {!send} hand
    every message (a delivery thunk plus a payload renderer, both built
    only on this path) to the hook instead of scheduling it, bypassing
    timing, chaos and probes.  The hook decides if/when to invoke the
    thunk.  The renderer takes a node-id
    renaming so the checker can re-fingerprint captured messages under a
    symmetry permutation; pass [Fun.id] for the plain rendering.  A down
    sender is still silenced at send time; delivery-time down/partition
    checks become the checker's responsibility. *)

val set_metrics : t -> Raftpax_telemetry.Metrics.t -> unit
(** Attach per-node probes: [net_msgs_sent] / [net_msgs_dropped] /
    [net_bytes_sent] counters and the [net_queue_us] (uplink FIFO wait)
    and [net_flight_us] (departure-to-arrival) histograms, all keyed by
    the sending node.  A disabled registry attaches nothing. *)

val set_node_down : t -> int -> bool -> unit
(** A down node neither sends nor receives. *)

val node_down : t -> int -> bool

val post :
  t ->
  src:int ->
  dst:int ->
  size:int ->
  render:((int -> int) -> 'msg -> string) ->
  handle:(int -> 'msg -> unit) ->
  'msg ->
  unit
(** [post t ~src ~dst ~size ~render ~handle msg] transmits [msg], a
    message of [size] bytes; [handle dst msg] runs at the destination's
    delivery time unless the message is dropped.  Sending to self
    delivers after {!Topology.local_us}.  The only allocation is the
    delivery closure, so pass a [handle] and a [render] built once, not
    per message.  [render] shows the payload to the capture hook, under
    the node-id renaming it is given (protocols pass their
    [render_msg ~rename]); it is never applied on the normal path. *)

val send :
  ?info:((int -> int) -> string) ->
  t ->
  src:int ->
  dst:int ->
  size:int ->
  (unit -> unit) ->
  unit
(** [send t ~src ~dst ~size deliver] is {!post} for a message that is
    its own thunk: [deliver] runs at the destination's delivery time,
    with the same timing, faults and counters.  [info] renders it for the
    capture hook; the default renders [""]. *)

(** {1 Introspection for tests and benches} *)

val sent_count : t -> int
val dropped_count : t -> int
val bytes_sent : t -> int -> int
(** Total bytes a node has put on the wire. *)
