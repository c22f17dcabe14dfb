module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Stats = Sim.Stats
module Rng = Sim.Rng
module Cpu = Sim.Cpu

(* ---- engine ---- *)

let test_event_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~delay:30 (fun () -> order := 3 :: !order);
  Engine.schedule e ~delay:10 (fun () -> order := 1 :: !order);
  Engine.schedule e ~delay:20 (fun () -> order := 2 :: !order);
  Engine.run_all e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_fifo_same_instant () =
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun i -> Engine.schedule e ~delay:5 (fun () -> order := i :: !order))
    [ 1; 2; 3; 4 ];
  Engine.run_all e;
  Alcotest.(check (list int)) "FIFO at same time" [ 1; 2; 3; 4 ] (List.rev !order)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:100 (fun () -> incr fired);
  Engine.schedule e ~delay:200 (fun () -> incr fired);
  Engine.run e ~until:150;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check int) "clock moved to until" 150 (Engine.now e);
  Engine.run e ~until:300;
  Alcotest.(check int) "second fired" 2 !fired

let test_cancellation () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule_cancellable e ~delay:10 (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run_all e;
  Alcotest.(check bool) "cancelled" false !fired

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun () ->
      log := Engine.now e :: !log;
      Engine.schedule e ~delay:5 (fun () -> log := Engine.now e :: !log));
  Engine.run_all e;
  Alcotest.(check (list int)) "nested times" [ 10; 15 ] (List.rev !log)

(* ---- engine against a reference model ---- *)

(* The reference queue: a list kept stably sorted by time, so in
   (time, seq) order since seq is insertion order.  Cancelled entries
   stay queued until popped, and a push first drops them by the
   engine's documented sweep rule (every [max 1024 len] pushes, when at
   least a quarter are cancelled), so [pending] is compared exactly. *)
module Model = struct
  type entry = { time : int; id : int; fire : unit -> unit }

  type t = {
    mutable clock : int;
    mutable queue : entry list;
    mutable pushes : int;
    mutable sweeps : int;  (* sweeps that dropped at least one entry *)
    mutable peak : int;  (* most entries queued at once *)
    cancelled : (int, unit) Hashtbl.t;
  }

  let create () =
    {
      clock = 0;
      queue = [];
      pushes = 0;
      sweeps = 0;
      peak = 0;
      cancelled = Hashtbl.create 64;
    }

  let live m e = not (Hashtbl.mem m.cancelled e.id)

  let schedule m ~delay id fire =
    m.pushes <- m.pushes + 1;
    let len = List.length m.queue in
    if m.pushes >= max 1024 len then begin
      m.pushes <- 0;
      let live_q = List.filter (live m) m.queue in
      let dead = len - List.length live_q in
      if dead * 4 >= len then begin
        m.queue <- live_q;
        if dead > 0 then m.sweeps <- m.sweeps + 1
      end
    end;
    let e = { time = m.clock + delay; id; fire } in
    let rec insert = function
      | x :: rest when x.time <= e.time -> x :: insert rest
      | rest -> e :: rest
    in
    m.queue <- insert m.queue;
    m.peak <- max m.peak (List.length m.queue)

  let rec run m ~until =
    match m.queue with
    | e :: rest when e.time <= until ->
        m.queue <- rest;
        m.clock <- e.time;
        if live m e then e.fire ();
        run m ~until
    | _ -> if m.clock < until then m.clock <- until
end

(* One interface over both queues, so a single script drives each. *)
type world = {
  schedule : delay:int -> int -> (unit -> unit) -> unit;
  cancel : int -> unit;
  run : until:int -> unit;
  now : unit -> int;
  pending : unit -> int;
  next_deadline : unit -> int option;
}

let engine_world () =
  let e = Engine.create () in
  let timers = Hashtbl.create 64 in
  {
    schedule =
      (fun ~delay id f ->
        Hashtbl.replace timers id (Engine.schedule_cancellable e ~delay f));
    cancel = (fun id -> Option.iter Engine.cancel (Hashtbl.find_opt timers id));
    run = (fun ~until -> Engine.run e ~until);
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending e);
    next_deadline = (fun () -> Engine.next_deadline e);
  }

let model_world () =
  let m = Model.create () in
  ( {
      schedule = (fun ~delay id f -> Model.schedule m ~delay id f);
      cancel = (fun id -> Hashtbl.replace m.Model.cancelled id ());
      run = (fun ~until -> Model.run m ~until);
      now = (fun () -> m.Model.clock);
      pending = (fun () -> List.length m.Model.queue);
      next_deadline =
        (fun () ->
          match m.Model.queue with [] -> None | e :: _ -> Some e.Model.time);
    },
    m )

(* A seeded script of at least [min_pushes] schedules: bursts from
   outside (hundreds at once, so the engine outgrows its initial
   capacity), delays drawn to collide often at one instant or to sit
   far in the future, events that schedule children (0.8 on average, so
   the drain ends) and cancel earlier ids when they fire, and
   [run ~until] at random boundaries, a third of them exactly on the
   earliest queued time.  Returns what it observed: [pending]
   after every push, each firing with its clock, and after every run
   the clock, [pending] and [next_deadline]. *)
let script ~seed ~min_pushes w =
  let obs = ref [] in
  let note x = obs := x :: !obs in
  let outside = Random.State.make [| seed |] in
  let next_id = ref 0 in
  let delay r =
    match Random.State.int r 4 with
    | 0 -> 0
    | 1 -> Random.State.int r 3
    | 2 -> Random.State.int r 1_000
    | _ -> 10_000 + Random.State.int r 100_000
  in
  let rec spawn r =
    let id = !next_id in
    incr next_id;
    w.schedule ~delay:(delay r) id (fire id);
    note (w.pending ())
  and fire id () =
    note id;
    note (w.now ());
    let r = Random.State.make [| seed; id |] in
    let children =
      match Random.State.int r 5 with 0 | 1 -> 0 | 2 | 3 -> 1 | _ -> 2
    in
    for _ = 1 to children do
      spawn r
    done;
    if Random.State.int r 3 = 0 then w.cancel (Random.State.int r !next_id)
  in
  while !next_id < min_pushes do
    for _ = 1 to Random.State.int outside 400 do
      spawn outside
    done;
    for _ = 1 to Random.State.int outside 200 do
      (* An empty first burst leaves nothing to cancel: id 0 is not yet
         scheduled, so the engine world ignores it and the model would
         not. *)
      let victim = Random.State.int outside (max 1 !next_id) in
      if victim < !next_id then w.cancel victim
    done;
    let until =
      match (Random.State.int outside 3, w.next_deadline ()) with
      | 0, Some d -> d (* stop exactly on a queued event's time *)
      | _ -> w.now () + Random.State.int outside 50_000
    in
    w.run ~until;
    note (w.now ());
    note (w.pending ());
    note (Option.value ~default:(-1) (w.next_deadline ()))
  done;
  w.run ~until:max_int;
  note (w.pending ());
  List.rev !obs

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine matches a sorted-list model" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let got = script ~seed ~min_pushes:3000 (engine_world ()) in
      let want = script ~seed ~min_pushes:3000 (fst (model_world ())) in
      let rec check i = function
        | a :: x, b :: y -> if a = b then check (i + 1) (x, y) else Some (i, a, b)
        | [], b :: _ -> Some (i, min_int, b)
        | a :: _, [] -> Some (i, a, min_int)
        | [], [] -> None
      in
      match check 0 (got, want) with
      | None -> true
      | Some (i, a, b) ->
          QCheck.Test.fail_reportf "observation %d: engine %d, model %d" i a b)

let test_model_covers_sweep () =
  (* The property proves only what its scripts reach: check they reach
     growth well past the initial 64 slots and a sweep that drops
     entries. *)
  let w, m = model_world () in
  ignore (script ~seed:1 ~min_pushes:3000 w);
  Alcotest.(check bool) "grows past 256 pending" true (m.Model.peak > 256);
  Alcotest.(check bool) "a sweep drops cancelled entries" true (m.Model.sweeps > 0)

let test_sweep_to_live_count () =
  let e = Engine.create () in
  let timers =
    List.init 1000 (fun _ -> Engine.schedule_cancellable e ~delay:1_000_000 ignore)
  in
  List.iteri (fun i t -> if i < 600 then Engine.cancel t) timers;
  for _ = 1 to 23 do
    Engine.schedule e ~delay:5 ignore
  done;
  Alcotest.(check int) "cancelled entries still queued" 1023 (Engine.pending e);
  (* the 1024th push sweeps: 600 of 1023 are dead, more than a quarter *)
  Engine.schedule e ~delay:5 ignore;
  Alcotest.(check int) "pending is the live count" 424 (Engine.pending e);
  Alcotest.(check (option int)) "earliest live deadline" (Some 5)
    (Engine.next_deadline e)

(* ---- rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_split_independent () =
  let r = Rng.create 5L in
  let a = Rng.split r and b = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let prop_rng_float_range =
  QCheck.Test.make ~name:"float in [0,x)" ~count:200
    QCheck.(pair small_int (float_range 0.001 100.0))
    (fun (seed, x) ->
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.float r x in
      v >= 0.0 && v < x)

(* ---- topology ---- *)

let test_topology_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) "symmetric rtt" (Topology.rtt_ms a b)
            (Topology.rtt_ms b a))
        Topology.sites)
    Topology.sites

let test_topology_paper_range () =
  let rtts =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a = b then None else Some (Topology.rtt_ms a b))
          Topology.sites)
      Topology.sites
  in
  Alcotest.(check int) "min 25ms (paper)" 25 (List.fold_left min max_int rtts);
  Alcotest.(check int) "max 292ms (paper)" 292 (List.fold_left max 0 rtts)

let test_nearest_majority () =
  (* Oregon's two nearest peers are Ohio (50) and Canada (60). *)
  Alcotest.(check int) "oregon majority rtt" 60
    (Topology.nearest_majority_rtt_ms Topology.Oregon);
  Alcotest.(check bool) "seoul is worse" true
    (Topology.nearest_majority_rtt_ms Topology.Seoul
    > Topology.nearest_majority_rtt_ms Topology.Oregon)

(* ---- network ---- *)

let mk_net ?drop_probability ?(jitter_us = 0) () =
  let e = Engine.create () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  (e, Net.create ?drop_probability ~jitter_us e ~nodes)

let test_net_latency () =
  let e, net = mk_net () in
  let arrival = ref 0 in
  Net.send net ~src:0 ~dst:1 ~size:100 (fun () -> arrival := Engine.now e);
  Engine.run_all e;
  (* one way Oregon->Ohio = 25ms + tx time (~1us for 100B) *)
  Alcotest.(check bool) "about 25ms" true (!arrival >= 25_000 && !arrival < 26_000)

let test_net_local_delivery () =
  let e, net = mk_net () in
  let arrival = ref 0 in
  Net.send net ~src:2 ~dst:2 ~size:10 (fun () -> arrival := Engine.now e);
  Engine.run_all e;
  Alcotest.(check bool) "local is sub-ms" true (!arrival < 1_000)

let test_net_bandwidth_serialisation () =
  (* two 1MB messages on the same uplink: the second waits for the first's
     transmission *)
  let e, net = mk_net () in
  let t1 = ref 0 and t2 = ref 0 in
  let mb = 1_000_000 in
  Net.send net ~src:0 ~dst:1 ~size:mb (fun () -> t1 := Engine.now e);
  Net.send net ~src:0 ~dst:1 ~size:mb (fun () -> t2 := Engine.now e);
  Engine.run_all e;
  let tx = mb * 1_000_000 / Topology.bandwidth_bytes_per_sec Topology.Oregon in
  Alcotest.(check bool) "second delayed by ~tx time" true (!t2 - !t1 >= tx - 100);
  Alcotest.(check int) "bytes accounted" (2 * mb) (Net.bytes_sent net 0)

let test_net_drop_all () =
  let e, net = mk_net ~drop_probability:1.0 () in
  let got = ref false in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> got := true);
  Engine.run_all e;
  Alcotest.(check bool) "dropped" false !got;
  Alcotest.(check int) "counted" 1 (Net.dropped_count net)

let test_net_partition () =
  let e, net = mk_net () in
  Net.set_partition net (Some (fun a b -> (a < 2 && b >= 2) || (b < 2 && a >= 2)));
  let got_cut = ref false and got_ok = ref false in
  Net.send net ~src:0 ~dst:3 ~size:10 (fun () -> got_cut := true);
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> got_ok := true);
  Engine.run_all e;
  Alcotest.(check bool) "cut link dropped" false !got_cut;
  Alcotest.(check bool) "same side ok" true !got_ok;
  Net.set_partition net None;
  let healed = ref false in
  Net.send net ~src:0 ~dst:3 ~size:10 (fun () -> healed := true);
  Engine.run_all e;
  Alcotest.(check bool) "healed" true !healed

let test_net_down_node () =
  let e, net = mk_net () in
  Net.set_node_down net 1 true;
  let got = ref false in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> got := true);
  Net.send net ~src:1 ~dst:0 ~size:10 (fun () -> got := true);
  Engine.run_all e;
  Alcotest.(check bool) "down node isolated" false !got

let test_net_crash_in_flight () =
  let e, net = mk_net () in
  let got = ref false in
  Net.send net ~src:0 ~dst:4 ~size:10 (fun () -> got := true);
  (* crash the destination before the ~62ms delivery *)
  Engine.schedule e ~delay:10_000 (fun () -> Net.set_node_down net 4 true);
  Engine.run_all e;
  Alcotest.(check bool) "message lost mid-flight" false !got

(* ---- cpu ---- *)

let test_cpu_queueing () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let t1 = ref 0 and t2 = ref 0 in
  Cpu.exec cpu ~cost_us:100 (fun () -> t1 := Engine.now e);
  Cpu.exec cpu ~cost_us:50 (fun () -> t2 := Engine.now e);
  Engine.run_all e;
  Alcotest.(check int) "first done at 100" 100 !t1;
  Alcotest.(check int) "second queued behind" 150 !t2;
  Alcotest.(check int) "consumed" 150 (Cpu.busy_us cpu)

let test_cpu_idle_gap () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let t = ref 0 in
  Cpu.exec cpu ~cost_us:10 ignore;
  Engine.schedule e ~delay:1000 (fun () ->
      Cpu.exec cpu ~cost_us:10 (fun () -> t := Engine.now e));
  Engine.run_all e;
  Alcotest.(check int) "no queueing after idle" 1010 !t

(* ---- stats ---- *)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.record s ~latency_us:(i * 1000) ~at_us:(i * 10_000)
  done;
  Alcotest.(check int) "p50" 50_000 (Stats.percentile_us s 0.50);
  Alcotest.(check int) "p99" 99_000 (Stats.percentile_us s 0.99);
  Alcotest.(check int) "min" 1000 (Stats.min_us s);
  Alcotest.(check int) "max" 100_000 (Stats.max_us s)

(* samples arrive out of order and with repeats; every percentile must
   match the one read off a reference sort *)
let test_stats_unordered () =
  let s = Stats.create () in
  let samples = List.init 997 (fun i -> i * 389 mod 997 / 3 * 10) in
  List.iteri (fun i l -> Stats.record s ~latency_us:l ~at_us:i) samples;
  let sorted = Array.of_list (List.sort Int.compare samples) in
  for k = 0 to 100 do
    let p = float_of_int k /. 100. in
    let idx = int_of_float (p *. float_of_int (Array.length sorted - 1)) in
    Alcotest.(check int)
      (Printf.sprintf "p%d" k) sorted.(idx) (Stats.percentile_us s p)
  done

(* the sorted-sample cache must be invalidated by record: a percentile
   read between records must not freeze the distribution *)
let test_stats_cache_invalidation () =
  let s = Stats.create () in
  for i = 1 to 10 do
    Stats.record s ~latency_us:(i * 1000) ~at_us:(i * 10_000)
  done;
  Alcotest.(check int) "p50 before" 5_000 (Stats.percentile_us s 0.50);
  for i = 1 to 90 do
    Stats.record s ~latency_us:100_000 ~at_us:((10 + i) * 10_000)
  done;
  Alcotest.(check int) "p50 after more samples" 100_000
    (Stats.percentile_us s 0.50);
  Alcotest.(check int) "max after more samples" 100_000 (Stats.max_us s)

let test_stats_window_throughput () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.record s ~latency_us:1000 ~at_us:(i * 10_000)
  done;
  (* 50 samples in [250ms..750ms) => 50 / 0.5s = 100 ops/s *)
  let tput = Stats.throughput_ops s ~from_us:250_000 ~until_us:750_000 in
  Alcotest.(check (float 1.0)) "windowed" 100.0 tput

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.record a ~latency_us:10 ~at_us:0;
  Stats.record b ~latency_us:20 ~at_us:0;
  let m = Stats.merge [ a; b ] in
  Alcotest.(check int) "merged count" 2 (Stats.count m)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "empty percentile" 0 (Stats.percentile_us s 0.9);
  Alcotest.(check (float 0.01)) "empty mean" 0.0 (Stats.mean_us s)

(* determinism of a whole network run *)
let test_network_determinism () =
  let run () =
    let e = Engine.create ~seed:11L () in
    let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
    let net = Net.create ~jitter_us:500 e ~nodes in
    let trace = ref [] in
    for i = 0 to 19 do
      Net.send net ~src:(i mod 5) ~dst:((i + 1) mod 5) ~size:100 (fun () ->
          trace := Engine.now e :: !trace)
    done;
    Engine.run_all e;
    !trace
  in
  Alcotest.(check (list int)) "replayable" (run ()) (run ())

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_event_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_same_instant;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "nested" `Quick test_nested_scheduling;
          Alcotest.test_case "sweep to live count" `Quick test_sweep_to_live_count;
          Alcotest.test_case "model scripts reach sweep" `Quick
            test_model_covers_sweep;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
        ] );
      ( "rng",
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic
        :: Alcotest.test_case "bounds" `Quick test_rng_bounds
        :: Alcotest.test_case "split" `Quick test_rng_split_independent
        :: List.map QCheck_alcotest.to_alcotest [ prop_rng_float_range ] );
      ( "topology",
        [
          Alcotest.test_case "symmetric" `Quick test_topology_symmetric;
          Alcotest.test_case "paper range" `Quick test_topology_paper_range;
          Alcotest.test_case "nearest majority" `Quick test_nearest_majority;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency" `Quick test_net_latency;
          Alcotest.test_case "local" `Quick test_net_local_delivery;
          Alcotest.test_case "bandwidth" `Quick test_net_bandwidth_serialisation;
          Alcotest.test_case "drops" `Quick test_net_drop_all;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "down node" `Quick test_net_down_node;
          Alcotest.test_case "crash in flight" `Quick test_net_crash_in_flight;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "queueing" `Quick test_cpu_queueing;
          Alcotest.test_case "idle gap" `Quick test_cpu_idle_gap;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "unordered samples" `Quick test_stats_unordered;
          Alcotest.test_case "cache invalidation" `Quick
            test_stats_cache_invalidation;
          Alcotest.test_case "window" `Quick test_stats_window_throughput;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "determinism",
        [ Alcotest.test_case "replay" `Quick test_network_determinism ] );
    ]
