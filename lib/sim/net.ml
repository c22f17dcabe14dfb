module Metrics = Raftpax_telemetry.Metrics

type node = { id : int; site : Topology.site }

type chaos = {
  delay_us : int;
  dup_probability : float;
  drop_probability : float;
  reorder : bool;
}

type monitor = now:int -> src:int -> dst:int -> size:int -> dropped:bool -> unit

type capture =
  src:int ->
  dst:int ->
  size:int ->
  info:((int -> int) -> string) ->
  (unit -> unit) ->
  unit

type probes = {
  sent : Metrics.counter array;  (** net_msgs_sent, per src *)
  dropped_c : Metrics.counter array;  (** net_msgs_dropped, per src *)
  bytes : Metrics.counter array;  (** net_bytes_sent, per src *)
  queue : Metrics.histogram array;
      (** net_queue_us: wait for the FIFO uplink before transmission *)
  flight : Metrics.histogram array;
      (** net_flight_us: departure to arrival (propagation + jitter + chaos) *)
}

type t = {
  engine : Engine.t;
  nodes : node list;
  sites : Topology.site array;
  drop_probability : float;
  jitter_us : int;
  rng : Rng.t;
  mutable partition : (int -> int -> bool) option;
  mutable chaos : chaos option;
  mutable monitor : monitor option;
  mutable capture : capture option;
  mutable probes : probes option;
  down : bool array;
  (* FIFO NIC model: the time at which each node's uplink frees up. *)
  uplink_free_at : int array;
  (* TCP-like per-link ordering: the last scheduled arrival per (src,dst);
     a later message never overtakes an earlier one on the same link. *)
  link_last_arrival : int array array;
  bytes_out : int array;
  mutable sent : int;
  mutable dropped : int;
}

(* A delivery closure carries its link as one int, [src lsl link_bits lor
   dst]: one word less than two ids, so it is 7 words with [t], the
   payload and the handler. *)
let link_bits = 16
let max_nodes = 1 lsl link_bits

let create ?(drop_probability = 0.0) ?(jitter_us = 200) engine ~nodes =
  let n = List.length nodes in
  (* Before any allocation: [link_last_arrival] alone is n*n words. *)
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf "Net.create: %d nodes, at most %d fit a packed link" n
         max_nodes);
  let sites = Array.make n Topology.Oregon in
  List.iter (fun node -> sites.(node.id) <- node.site) nodes;
  {
    engine;
    nodes;
    sites;
    drop_probability;
    jitter_us;
    rng = Rng.split (Engine.rng engine);
    partition = None;
    chaos = None;
    monitor = None;
    capture = None;
    probes = None;
    down = Array.make n false;
    uplink_free_at = Array.make n 0;
    link_last_arrival = Array.make_matrix n n 0;
    bytes_out = Array.make n 0;
    sent = 0;
    dropped = 0;
  }

let engine t = t.engine
let nodes t = t.nodes
let size t = Array.length t.sites
let node_site t id = t.sites.(id)
let set_partition t p = t.partition <- p
let set_chaos t c = t.chaos <- c
let set_monitor t m = t.monitor <- m
let set_capture t c = t.capture <- c

let set_metrics t m =
  if Metrics.enabled m then begin
    let n = Array.length t.sites in
    let per name f = Array.init n (fun node -> f m name ~node) in
    t.probes <-
      Some
        {
          sent = per "net_msgs_sent" Metrics.counter;
          dropped_c = per "net_msgs_dropped" Metrics.counter;
          bytes = per "net_bytes_sent" Metrics.counter;
          queue = per "net_queue_us" Metrics.histogram;
          flight = per "net_flight_us" Metrics.histogram;
        }
  end

let set_node_down t id b = t.down.(id) <- b
let node_down t id = t.down.(id)

let cut t src dst =
  match t.partition with Some p -> p src dst | None -> false

(* Top level rather than local to [transmit], so a send allocates only
   the delivery closure, not a helper closure as well. *)
let deliver_at t ~now ~link ~handle msg when_us =
  Engine.schedule ~kind:Engine.Message t.engine ~delay:(when_us - now)
    (fun () ->
      let src = link lsr link_bits and dst = link land (max_nodes - 1) in
      (* Faults are evaluated at delivery time as well, so a node that
         crashes (or a link that is cut) mid-flight loses the message. *)
      if t.down.(dst) || t.down.(src) || cut t src dst then begin
        t.dropped <- t.dropped + 1;
        match t.probes with
        | Some p -> Metrics.inc p.dropped_c.(src)
        | None -> ()
      end
      else handle dst msg)

(* The timed path every send takes when no capture hook is set. *)
let transmit t ~src ~dst ~size ~handle msg =
  if t.down.(src) then ()
  else begin
    t.sent <- t.sent + 1;
    t.bytes_out.(src) <- t.bytes_out.(src) + size;
    let now = Engine.now t.engine in
    (* Serialisation: the sender's NIC is FIFO; a message waits for the
       uplink then occupies it for size/bandwidth. *)
    let bw = Topology.bandwidth_bytes_per_sec t.sites.(src) in
    let tx_us = size * 1_000_000 / bw in
    let start = max now t.uplink_free_at.(src) in
    let departure = start + tx_us in
    t.uplink_free_at.(src) <- departure;
    let propagation = Topology.one_way_us t.sites.(src) t.sites.(dst) in
    let jitter = if t.jitter_us = 0 then 0 else Rng.int t.rng t.jitter_us in
    (* Chaos faults: an extra delay, an extra drop chance, a duplicate
       delivery, and (with [reorder]) an exemption from the per-link FIFO
       clamp so a delayed copy can overtake its successors.  Self-sends
       (the client-to-colocated-replica hop) are local calls, not WAN
       traffic, so chaos leaves them alone: duplicating one would model a
       duplicate client *submission*, which none of the protocols claim
       to dedupe. *)
    let extra, chaos_drop, duplicate, reorder =
      match t.chaos with
      | None -> (0, false, false, false)
      | Some _ when src = dst -> (0, false, false, false)
      | Some c ->
          let extra = if c.delay_us > 0 then Rng.int t.rng c.delay_us else 0 in
          let drop =
            c.drop_probability > 0.0 && Rng.bool t.rng c.drop_probability
          in
          let dup =
            c.dup_probability > 0.0 && Rng.bool t.rng c.dup_probability
          in
          (extra, drop, dup, c.reorder)
    in
    let base = departure + propagation + jitter + extra in
    let arrival =
      if reorder then base else max base t.link_last_arrival.(src).(dst)
    in
    if not reorder then t.link_last_arrival.(src).(dst) <- arrival;
    let dropped_at_send =
      Rng.bool t.rng t.drop_probability || cut t src dst || chaos_drop
    in
    (match t.monitor with
    | Some m -> m ~now ~src ~dst ~size ~dropped:dropped_at_send
    | None -> ());
    (match t.probes with
    | Some p ->
        Metrics.inc p.sent.(src);
        Metrics.add p.bytes.(src) size;
        Metrics.observe p.queue.(src) (start - now);
        if dropped_at_send then Metrics.inc p.dropped_c.(src)
        else Metrics.observe p.flight.(src) (arrival - departure)
    | None -> ());
    if dropped_at_send then t.dropped <- t.dropped + 1
    else begin
      let link = (src lsl link_bits) lor dst in
      deliver_at t ~now ~link ~handle msg arrival;
      if duplicate then
        (* The copy takes its own (unclamped) path, arriving a little
           later — or, relative to subsequent traffic, out of order. *)
        deliver_at t ~now ~link ~handle msg
          (arrival + 1 + Rng.int t.rng 50_000)
    end
  end

let post t ~src ~dst ~size ~render ~handle msg =
  match t.capture with
  | Some hook ->
      (* Model-checker interception: every send becomes an explicit
         pending message under the checker's control; timing, chaos and
         probes are bypassed.  A down sender still silently loses the
         message at send time, mirroring [transmit].  Only here are the
         renderer and the delivery thunk built. *)
      if not t.down.(src) then
        hook ~src ~dst ~size
          ~info:(fun rename -> render rename msg)
          (fun () -> handle dst msg)
  | None -> transmit t ~src ~dst ~size ~handle msg

let no_render _ _ = ""
let run_thunk _dst deliver = deliver ()

let send ?info t ~src ~dst ~size deliver =
  let render =
    match info with None -> no_render | Some info -> fun rename _ -> info rename
  in
  post t ~src ~dst ~size ~render ~handle:run_thunk deliver

let sent_count t = t.sent
let dropped_count t = t.dropped
let bytes_sent t id = t.bytes_out.(id)
