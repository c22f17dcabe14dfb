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
   (time, seq) order since seq is insertion order.  Only ids scheduled
   as cancellable can be cancelled; the others stand for plain
   [Engine.schedule] events, which have no handle.  Cancelled entries
   stay queued until popped, and a push first drops them by the
   engine's documented sweep rule (every [max 1024 len] pushes, when at
   least a quarter are cancelled), so [pending] is compared exactly.

   The model also counts the far entries that reach their time.  The
   engine files an entry by the highest bit in which its time differs
   from a cursor at or before the clock, so that difference is at least
   the delay: an entry with a delay of 2^25 or more starts on level 5 or
   higher (2^60: level 12, the top) and can only fire, cancelled or not,
   after a cascade from there. *)
module Model = struct
  type entry = { time : int; id : int; delay : int; fire : unit -> unit }

  type t = {
    mutable clock : int;
    mutable queue : entry list;
    mutable pushes : int;
    mutable mixed_sweeps : int;
        (* sweeps that dropped an entry and kept a plain one *)
    mutable peak : int;  (* most entries queued at once *)
    mutable reuses : int;
        (* pushes with fewer entries queued than [peak]: the engine
           hands these a slot an earlier entry freed *)
    mutable deep_pops : int;  (* entries reached from level 5 or higher *)
    mutable top_pops : int;  (* entries reached from level 12 *)
    cancellable : (int, unit) Hashtbl.t;
    cancelled : (int, unit) Hashtbl.t;
  }

  let create () =
    {
      clock = 0;
      queue = [];
      pushes = 0;
      mixed_sweeps = 0;
      peak = 0;
      reuses = 0;
      deep_pops = 0;
      top_pops = 0;
      cancellable = Hashtbl.create 64;
      cancelled = Hashtbl.create 64;
    }

  let live m e = not (Hashtbl.mem m.cancelled e.id)
  let plain m e = not (Hashtbl.mem m.cancellable e.id)

  let cancel m id =
    if Hashtbl.mem m.cancellable id then Hashtbl.replace m.cancelled id ()

  let schedule m ~delay ~cancellable id fire =
    m.pushes <- m.pushes + 1;
    let len = List.length m.queue in
    if m.pushes >= max 1024 len then begin
      m.pushes <- 0;
      let live_q = List.filter (live m) m.queue in
      let dead = len - List.length live_q in
      if dead * 4 >= len then begin
        m.queue <- live_q;
        if dead > 0 && List.exists (plain m) live_q then
          m.mixed_sweeps <- m.mixed_sweeps + 1
      end
    end;
    if cancellable then Hashtbl.replace m.cancellable id ();
    if List.length m.queue < m.peak then m.reuses <- m.reuses + 1;
    let e = { time = m.clock + delay; id; delay; fire } in
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
        if e.delay >= 1 lsl 25 then m.deep_pops <- m.deep_pops + 1;
        if e.delay >= 1 lsl 60 then m.top_pops <- m.top_pops + 1;
        if live m e then e.fire ();
        run m ~until
    | _ -> if m.clock < until then m.clock <- until
end

(* One interface over both queues, so a single script drives each. *)
type world = {
  schedule : delay:int -> cancellable:bool -> int -> (unit -> unit) -> unit;
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
      (fun ~delay ~cancellable id f ->
        if cancellable then
          Hashtbl.replace timers id (Engine.schedule_cancellable e ~delay f)
        else Engine.schedule e ~delay f);
    cancel = (fun id -> Option.iter Engine.cancel (Hashtbl.find_opt timers id));
    run = (fun ~until -> Engine.run e ~until);
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending e);
    next_deadline = (fun () -> Engine.next_deadline e);
  }

let model_world () =
  let m = Model.create () in
  ( {
      schedule =
        (fun ~delay ~cancellable id f -> Model.schedule m ~delay ~cancellable id f);
      cancel = (fun id -> Model.cancel m id);
      run = (fun ~until -> Model.run m ~until);
      now = (fun () -> m.Model.clock);
      pending = (fun () -> List.length m.Model.queue);
      next_deadline =
        (fun () ->
          match m.Model.queue with [] -> None | e :: _ -> Some e.Model.time);
    },
    m )

(* A seeded script of at least [min_pushes] schedules, half of them
   cancellable and half plain: bursts from outside (hundreds at once,
   so the engine outgrows its initial capacity) followed by cancels
   aimed at the burst, delays drawn to collide often at one instant, to
   sit far in the future (up to 2^41 µs, and rarely near 2^61, so every
   level of the engine's wheel is used), events that schedule children
   (0.8 on average, so the drain ends) and cancel recent ids when they
   fire, and [run ~until] at random boundaries: a quarter of them
   exactly on the earliest queued time, and a quarter strictly before
   it, each followed by pushes that land between the stop and that
   time.  Returns what it observed: [pending] after every push, each
   firing with its clock, and after every run the clock, [pending] and
   [next_deadline]. *)
let script ~seed ~min_pushes w =
  let obs = ref [] in
  let note x = obs := x :: !obs in
  let outside = Random.State.make [| seed |] in
  let next_id = ref 0 in
  let delay r =
    match Random.State.int r 5 with
    | 0 -> 0
    | 1 -> Random.State.int r 3
    | 2 -> Random.State.int r 1_000
    | 3 -> 10_000 + Random.State.int r 100_000
    | _ ->
        (* Near 2^61 only while the clock is below 2^60, so no time
           overflows. *)
        if Random.State.int r 100 = 0 && w.now () < 1 lsl 60 then
          (1 lsl 61) - Random.State.int r 1_000
        else
          let lo = 1 lsl (20 + Random.State.int r 21) in
          lo + Random.State.full_int r lo
  in
  let rec spawn r = spawn_after r (delay r)
  and spawn_after r delay =
    let id = !next_id in
    incr next_id;
    let cancellable = Random.State.bool r in
    w.schedule ~delay ~cancellable id (fire id);
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
    if Random.State.int r 3 > 0 then
      w.cancel (!next_id - 1 - Random.State.int r 200)
  in
  while !next_id < min_pushes do
    let first = !next_id in
    for _ = 1 to Random.State.int outside 400 do
      spawn outside
    done;
    let burst = !next_id - first in
    for _ = 1 to Random.State.int outside ((2 * burst) + 1) do
      (* Victims from the burst just pushed, all still queued; about
         half are plain, which both worlds must ignore.  An empty burst
         names an id not yet scheduled, which both ignore too. *)
      w.cancel (first + Random.State.int outside (max 1 burst))
    done;
    let until, gap =
      match (Random.State.int outside 4, w.next_deadline ()) with
      | 0, Some d -> (d, 0) (* stop exactly on a queued event's time *)
      | 1, Some d when d > w.now () ->
          (* Stop short of it, then fill the gap: [run] must not have
             moved the engine's cursor past the stop. *)
          let until = w.now () + Random.State.full_int outside (d - w.now ()) in
          (until, d - until)
      | _ -> (w.now () + Random.State.int outside 50_000, 0)
    in
    w.run ~until;
    note (w.now ());
    note (w.pending ());
    note (Option.value ~default:(-1) (w.next_deadline ()));
    if gap > 0 then
      for _ = 0 to Random.State.int outside 4 do
        spawn_after outside (Random.State.full_int outside gap)
      done
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
  (* The property proves only what its scripts reach: check that three
     seeds reach growth well past the initial 32 slots, pushes into
     freed slots, and a sweep that drops cancelled entries while plain
     ones stay queued. *)
  let runs =
    List.map
      (fun seed ->
        let w, m = model_world () in
        ignore (script ~seed ~min_pushes:3000 w);
        m)
      [ 1; 2; 3 ]
  in
  let all f = List.for_all f runs and some f = List.exists f runs in
  Alcotest.(check bool) "grows past 256 pending" true
    (all (fun m -> m.Model.peak > 256));
  Alcotest.(check bool) "pushes reuse freed slots" true
    (all (fun m -> m.Model.reuses > 1000));
  Alcotest.(check bool) "a sweep keeps plain entries" true
    (some (fun m -> m.Model.mixed_sweeps > 0))

let test_model_covers_levels () =
  (* Check that the scripts file entries on level 5 or higher and on the
     top level, and reach their time, which takes a cascade from
     there (see [Model]). *)
  let runs =
    List.map
      (fun seed ->
        let w, m = model_world () in
        ignore (script ~seed ~min_pushes:3000 w);
        m)
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "cascades from level 5 or higher" true
    (List.for_all (fun m -> m.Model.deep_pops > 100) runs);
  Alcotest.(check bool) "cascades from the top level" true
    (List.exists (fun m -> m.Model.top_pops > 0) runs)

let test_top_of_range () =
  (* The top level covers bits 60..61: its shifts stay below 63 and the
     last representable times still fire in order. *)
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun (id, delay) ->
      Engine.schedule e ~delay (fun () -> order := (id, Engine.now e) :: !order))
    [ (1, max_int); (2, 1 lsl 61); (3, max_int - 1); (4, 1); (5, max_int) ];
  Alcotest.(check (option int)) "earliest" (Some 1) (Engine.next_deadline e);
  Engine.run e ~until:(1 lsl 61);
  Alcotest.(check (option int)) "after the middle" (Some (max_int - 1))
    (Engine.next_deadline e);
  Engine.run_all e;
  Alcotest.(check (list (pair int int))) "fire order"
    [ (4, 1); (2, 1 lsl 61); (3, max_int - 1); (1, max_int); (5, max_int) ]
    (List.rev !order)

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

(* The generator as it was when its state was a mutable [int64]: kept
   here only as the oracle that pins [Rng]'s stream, draw for draw. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L
  let create seed = { state = seed }

  let next t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = create (next t)

  let int t n =
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

  let float t x =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.0
    *. x

  let bool t p = float t 1.0 < p
  let exponential t ~mean = -.mean *. log (1.0 -. float t 1.0)

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

(* 10k draws of every kind from [Rng] and the oracle, both seeded with
   [seed]; the kinds and arguments come from [script].  The first
   disagreement, if any. *)
let rng_disagreement ~seed ~script =
  let st = Random.State.make [| script |] in
  let r = ref (Rng.create seed) and o = ref (Boxed_rng.create seed) in
  let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let rec go i =
    if i = 10_000 then None
    else
      let ok, what =
        match Random.State.int st 6 with
        | 0 ->
            let n = 1 + Random.State.int st 1_000_000_000 in
            (Rng.int !r n = Boxed_rng.int !o n, "int")
        | 1 ->
            let x = Random.State.float st 1000.0 in
            (same_float (Rng.float !r x) (Boxed_rng.float !o x), "float")
        | 2 ->
            let p = Random.State.float st 1.0 in
            (Rng.bool !r p = Boxed_rng.bool !o p, "bool")
        | 3 ->
            let mean = Random.State.float st 100.0 in
            ( same_float (Rng.exponential !r ~mean) (Boxed_rng.exponential !o ~mean),
              "exponential" )
        | 4 ->
            let a = Array.init (1 + Random.State.int st 20) Fun.id in
            let b = Array.copy a in
            Rng.shuffle !r a;
            Boxed_rng.shuffle !o b;
            (a = b, "shuffle")
        | _ ->
            (* carry on from the child half the time, so later draws
               cover split streams too *)
            let r' = Rng.split !r and o' = Boxed_rng.split !o in
            let ok = Rng.int r' 1000 = Boxed_rng.int o' 1000 in
            if Random.State.bool st then begin
              r := r';
              o := o'
            end;
            (ok, "split")
      in
      if ok then go (i + 1) else Some (Printf.sprintf "draw %d (%s)" i what)
  in
  go 0

let test_rng_oracle_edge_seeds () =
  List.iter
    (fun seed ->
      match rng_disagreement ~seed ~script:1 with
      | None -> ()
      | Some d -> Alcotest.failf "seed %Ld: %s" seed d)
    [ 0L; -1L; Int64.min_int; Int64.max_int ]

let prop_rng_matches_oracle =
  QCheck.Test.make ~name:"stream equals the boxed SplitMix64" ~count:30
    QCheck.(
      pair
        (make
           Gen.(
             frequency
               [ (1, oneofl [ 0L; -1L; Int64.min_int ]); (4, ui64) ])
           ~print:Int64.to_string)
        int)
    (fun (seed, script) ->
      match rng_disagreement ~seed ~script with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "seed %Ld: %s" seed d)

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

let test_net_too_many_nodes () =
  (* A link packs two 16-bit ids into one int; the check runs before the
     n*n link table is allocated, so this list costs only itself. *)
  let e = Engine.create () in
  let nodes = List.init 65_537 (fun id -> { Net.id; site = Topology.Oregon }) in
  match Net.create e ~nodes with
  | _ -> Alcotest.fail "65 537 nodes accepted"
  | exception Invalid_argument _ -> ()

(* [post] and [send] share one timed path: the same script of sends, one
   net posting typed payloads and the other sending the equivalent
   thunks, must deliver at the same times in the same order and count
   the same sends and drops, under chaos (delay, drop, duplicate,
   reorder), a partition cut and a mid-flight crash. *)
let test_net_post_matches_send () =
  let run ~post =
    let e = Engine.create ~seed:29L () in
    let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
    let net = Net.create ~drop_probability:0.05 ~jitter_us:500 e ~nodes in
    Net.set_chaos net
      (Some
         {
           Net.delay_us = 40_000;
           dup_probability = 0.2;
           drop_probability = 0.1;
           reorder = true;
         });
    let log = ref [] in
    let handle dst m = log := (Engine.now e, dst, m) :: !log in
    let render rename m = Printf.sprintf "m%d@%d" m (rename 0) in
    for i = 0 to 299 do
      Engine.schedule e ~delay:(i * 500) (fun () ->
          let src = i mod 5 and dst = i * 3 mod 5 in
          let size = 100 + (i * 37 mod 4000) in
          if post then Net.post net ~src ~dst ~size ~render ~handle i
          else Net.send net ~src ~dst ~size (fun () -> handle dst i))
    done;
    (* Cut {0, 1} from {2, 3, 4} for a while, and crash node 3 with
       messages to it still in flight. *)
    Engine.schedule e ~delay:20_000 (fun () ->
        Net.set_partition net (Some (fun a b -> a < 2 <> (b < 2))));
    Engine.schedule e ~delay:60_000 (fun () -> Net.set_partition net None);
    Engine.schedule e ~delay:90_000 (fun () -> Net.set_node_down net 3 true);
    Engine.schedule e ~delay:120_000 (fun () -> Net.set_node_down net 3 false);
    Engine.run_all e;
    (List.rev !log, Net.sent_count net, Net.dropped_count net)
  in
  let posted, p_sent, p_dropped = run ~post:true in
  let sent, s_sent, s_dropped = run ~post:false in
  let row = Alcotest.(list (triple int int int)) in
  Alcotest.check row "deliveries" sent posted;
  Alcotest.(check int) "sent_count" s_sent p_sent;
  Alcotest.(check int) "dropped_count" s_dropped p_dropped;
  (* The script must reach what it claims to cover. *)
  let ids = List.map (fun (_, _, m) -> m) posted in
  let distinct = List.sort_uniq Int.compare ids in
  Alcotest.(check bool) "some duplicated" true
    (List.length ids > List.length distinct);
  Alcotest.(check bool) "some dropped" true (p_dropped > 0);
  (* Message [i] rides link [i mod 5]: reordering shows as a first copy
     overtaking an earlier message of the same link. *)
  let seen = Hashtbl.create 64 and last = Array.make 5 (-1) in
  let overtaken = ref false in
  List.iter
    (fun m ->
      if not (Hashtbl.mem seen m) then begin
        Hashtbl.add seen m ();
        if m < last.(m mod 5) then overtaken := true
        else last.(m mod 5) <- m
      end)
    ids;
  Alcotest.(check bool) "some reordered" true !overtaken

let test_net_post_capture () =
  let e = Engine.create () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create e ~nodes in
  let captured = ref [] in
  Net.set_capture net
    (Some
       (fun ~src ~dst ~size ~info deliver ->
         captured := (src, dst, size, info, deliver) :: !captured));
  let handled = ref [] in
  let handle dst m = handled := (dst, m) :: !handled in
  let render rename m = Printf.sprintf "m%d to %d" m (rename 4) in
  Net.post net ~src:1 ~dst:4 ~size:77 ~render ~handle 42;
  Net.set_node_down net 2 true;
  Net.post net ~src:2 ~dst:0 ~size:10 ~render ~handle 7;
  Engine.run_all e;
  match !captured with
  | [ (src, dst, size, info, deliver) ] ->
      Alcotest.(check (triple int int int)) "link and size" (1, 4, 77)
        (src, dst, size);
      Alcotest.(check string) "info is render" (render Fun.id 42) (info Fun.id);
      let swap i = 4 - i in
      Alcotest.(check string) "under a renaming" (render swap 42) (info swap);
      Alcotest.(check (list (pair int int))) "not delivered by the net" []
        !handled;
      deliver ();
      Alcotest.(check (list (pair int int))) "thunk runs handle dst msg"
        [ (4, 42) ] !handled;
      Alcotest.(check int) "no timed send" 0 (Net.sent_count net)
  | l -> Alcotest.failf "%d captured, expected 1 (down sender silenced)"
           (List.length l)

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

(* ---- allocation per hop ---- *)

(* A closed system of 100 messages, each hop a [Net.send] whose
   delivery runs a [Cpu.exec] whose completion sends the next hop.  The
   minor words per hop are a pure function of the code, so they are
   pinned at the figure this engine reaches, 18: the test's own two
   closures (11 words) and the delivery closure (7).  The drop draw of a
   send allocates nothing: [Rng] keeps a seed and a draw count, and its
   [int64]s and [float] stay unboxed (it cost 8 words when the state was
   a mutable [int64]).  The queue entries allocate nothing either: with
   an [event] record per entry (7 words, two entries a hop) and a helper
   closure per send (8) the figure was 48. *)
let test_hop_alloc () =
  let e, net = mk_net () in
  let cpus = Array.init (Net.size net) (fun _ -> Cpu.create e) in
  let sends = ref 0 and warm = 10_000 and total = 50_000 in
  let words_at_warm = ref 0.0 in
  let rec hop src =
    incr sends;
    if !sends = warm then words_at_warm := Gc.minor_words ();
    if !sends <= total then begin
      let dst = (src + 1) mod Net.size net in
      Net.send net ~src ~dst ~size:100 (fun () ->
          Cpu.exec cpus.(dst) ~cost_us:5 (fun () -> hop dst))
    end
  in
  for i = 0 to 99 do
    hop (i mod Net.size net)
  done;
  Engine.run_all e;
  let per_hop =
    (Gc.minor_words () -. !words_at_warm) /. float_of_int (total - warm)
  in
  if per_hop > 18.5 then
    Alcotest.failf "%.2f minor words per hop, more than 18" per_hop

(* [test_hop_alloc]'s twin over [Net.post], with a typed payload and a
   handler built once, as the replicas send.  Per hop: the payload (2
   words), the delivery closure (7) and the test's completion closure
   (5), 14 words; a hop over [send] pays 18, its own thunk (6 words) in
   place of the payload.  Before [post] a replica message paid 18 words
   besides its payload: a shared renderer/delivery closure (9), the
   [Some info] box (2) and the delivery closure (7). *)
type hop = { hop_seq : int }

let test_post_hop_alloc () =
  let e, net = mk_net () in
  let cpus = Array.init (Net.size net) (fun _ -> Cpu.create e) in
  let sends = ref 0 and warm = 10_000 and total = 50_000 in
  let words_at_warm = ref 0.0 in
  let render _ m = string_of_int m.hop_seq in
  let rec hop src =
    incr sends;
    if !sends = warm then words_at_warm := Gc.minor_words ();
    if !sends <= total then begin
      let dst = (src + 1) mod Net.size net in
      Net.post net ~src ~dst ~size:100 ~render ~handle { hop_seq = !sends }
    end
  and handle dst _ = Cpu.exec cpus.(dst) ~cost_us:5 (fun () -> hop dst) in
  for i = 0 to 99 do
    hop (i mod Net.size net)
  done;
  Engine.run_all e;
  let per_hop =
    (Gc.minor_words () -. !words_at_warm) /. float_of_int (total - warm)
  in
  if per_hop > 14.5 then
    Alcotest.failf "%.2f minor words per hop, more than 14" per_hop

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

(* [throughput_ops] counts in place; it must read what the windowed
   copy's length gives, including empty and inverted windows.  More than
   1 024 samples cross the initial capacity, and a dense time range puts
   samples on the window's edges. *)
let prop_stats_throughput_is_window_count =
  QCheck.Test.make ~name:"throughput_ops = count (window) / span" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 2_500) (int_range 0 20_000))
        (int_range 0 21_000) (int_range 0 21_000))
    (fun (times, from_us, until_us) ->
      let s = Stats.create () in
      List.iter (fun at_us -> Stats.record s ~latency_us:1 ~at_us) times;
      let span = float_of_int (until_us - from_us) /. 1_000_000.0 in
      let want =
        if span <= 0.0 then 0.0
        else
          float_of_int (Stats.count (Stats.window s ~from_us ~until_us))
          /. span
      in
      Stats.throughput_ops s ~from_us ~until_us = want)

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
          Alcotest.test_case "model scripts reach every level" `Quick
            test_model_covers_levels;
          Alcotest.test_case "top of the time range" `Quick test_top_of_range;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
        ] );
      ( "rng",
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic
        :: Alcotest.test_case "bounds" `Quick test_rng_bounds
        :: Alcotest.test_case "split" `Quick test_rng_split_independent
        :: Alcotest.test_case "oracle at edge seeds" `Quick
             test_rng_oracle_edge_seeds
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_rng_float_range; prop_rng_matches_oracle ] );
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
          Alcotest.test_case "too many nodes" `Quick test_net_too_many_nodes;
          Alcotest.test_case "post matches send" `Quick
            test_net_post_matches_send;
          Alcotest.test_case "post under capture" `Quick test_net_post_capture;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "queueing" `Quick test_cpu_queueing;
          Alcotest.test_case "idle gap" `Quick test_cpu_idle_gap;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "words per hop" `Quick test_hop_alloc;
          Alcotest.test_case "words per posted hop" `Quick test_post_hop_alloc;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "unordered samples" `Quick test_stats_unordered;
          Alcotest.test_case "cache invalidation" `Quick
            test_stats_cache_invalidation;
          Alcotest.test_case "window" `Quick test_stats_window_throughput;
          QCheck_alcotest.to_alcotest prop_stats_throughput_is_window_count;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "determinism",
        [ Alcotest.test_case "replay" `Quick test_network_determinism ] );
    ]
