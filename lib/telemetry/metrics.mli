(** Per-node metric registry: counters, gauges and log-bucketed streaming
    histograms.

    Handles are registered once (a hashtable lookup) and then updated
    through direct field mutation, so probe sites on the protocols' hot
    paths cost an increment, not a lookup.  A disabled registry hands out
    shared dummy cells: updates still mutate the dummy (one word store)
    but register nothing and allocate nothing.

    Snapshots are deterministic — metric names sorted, per-node values in
    node order — so the same seeded run always produces byte-identical
    output (checked by the telemetry determinism test). *)

type t

val create : n:int -> t
(** A live registry for an [n]-node cluster. *)

val disabled : t
(** Shared no-op registry: every handle it returns is a dummy. *)

val enabled : t -> bool

(** {1 Counters and gauges} *)

type counter

val counter : t -> string -> node:int -> counter
(** Register (or re-fetch) the named per-node counter. *)

val inc : counter -> unit
val add : counter -> int -> unit

val gauge : t -> string -> node:int -> counter
(** A gauge is a counter updated with {!set_gauge} instead of {!inc};
    snapshots list it under the same counters table. *)

val set_gauge : counter -> int -> unit

val counter_value : t -> string -> node:int -> int
(** 0 when the metric or registry does not exist. *)

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> node:int -> histogram

val observe : histogram -> int -> unit
(** Record a sample (µs, bytes, …).  Negative samples clamp to 0. *)

val bucket_of : int -> int
(** The bucket a sample falls in: the index of its highest set bit, 0
    below 2, capped at the last bucket.  Constant time. *)

val quantile : histogram -> float -> int
(** [quantile h 0.99]: an upper bound on the exact percentile with
    power-of-two bucket resolution — for a sample x at that rank,
    [x <= quantile h p <= 2 * max 1 x].  0 when empty. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Deep copy of every metric at this instant (sorted, deterministic). *)

val snapshot_to_json : snapshot -> Json.t
(** [{ "counters": {name: [per-node]}, "histograms": {name: [{...}]} }] *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** One line per metric: name then per-node values; histograms as
    [count/p50/p99]. *)

val nonzero_nodes : snapshot -> name:string -> int list
(** Nodes whose value for the named counter is non-zero. *)

val counter_names : snapshot -> string list
