(* Host speed.  On a virtual machine that shares its cores with others,
   how fast a process runs moves by tens of percent from one second to
   the next and from one core to another, and in busy stretches lasting
   minutes by up to a factor of two, user time growing with wall time.
   So while a CPU-bound run is timed, a timer interrupts it every
   [period_s] to time a fixed probe that owes nothing to the program
   under test, and the run's rows are scaled to a reference host by the
   host's speed over the run (README, "Host-scaled rows").

   The probe has three parts, each a kind of work the measured code
   does: four independent pointer chases through a 16 KB table (loads
   and arithmetic the core can overlap), building and folding a
   short-lived list (allocation and minor collection), and an insertion
   sort (data-dependent branches).  A part's speed over a run is the
   mean of the middle half of its reference time over its times, and
   the host's speed is the geometric mean of some of the parts' speeds:
   all three for a simulation's event loop, and for the set-up loop,
   which allocates and initialises but chases no pointers, the last
   two.  Neighbours on the same core slow each part differently; these
   mixes slow as the measured code does.  The probe takes about 0.7% of
   the run. *)

let period_s = 0.01

(* One cycle through every slot (Sattolo's shuffle). *)
let shuffled n ~seed =
  let a = Array.init n Fun.id in
  let rng = ref seed in
  for i = n - 1 downto 1 do
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    let j = !rng mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let table = shuffled 2048 ~seed:0x2545F491
let sink = ref 0

let chase () =
  let a = ref 0 and b = ref 512 and c = ref 1024 and d = ref 1536 and h = ref !sink in
  for _ = 1 to 10_000 do
    a := Array.unsafe_get table !a;
    b := Array.unsafe_get table !b;
    c := Array.unsafe_get table !c;
    d := Array.unsafe_get table !d;
    h := (!h * 31) + (!a lxor !b) + (!c * 7) - !d
  done;
  sink := !h

let allocate () =
  let acc = ref !sink in
  for r = 1 to 4 do
    let l = List.init 500 (fun i -> (i * r, i)) in
    acc := List.fold_left (fun a (x, y) -> a + x - y) !acc l
  done;
  sink := !acc

let keys = Array.make 256 0

let sort () =
  let rng = ref (!sink land 0xffff) in
  for i = 0 to Array.length keys - 1 do
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    keys.(i) <- !rng
  done;
  for i = 1 to Array.length keys - 1 do
    let v = keys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > v do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- v
  done;
  sink := !sink + keys.(0)

(* Each part, and its time on the reference host: about what it takes
   on an unloaded core of the machine the bounds were sized on. *)
let parts = [| (chase, 28_000.0); (allocate, 18_000.0); (sort, 22_000.0) |]

(* The probe times of the current [probing], in ns, one row per part;
   past the end of a row later probes are dropped. *)
let capacity = 16_384
let times = Array.init (Array.length parts) (fun _ -> Array.make capacity 0)
let taken = ref 0

let on_tick _ =
  if !taken < capacity then begin
    Array.iteri
      (fun k (part, _) ->
        let t0 = Clock.now_ns () in
        part ();
        times.(k).(!taken) <- Clock.now_ns () - t0)
      parts;
    incr taken
  end

(* Mean of the middle half of a part's speeds. *)
let part_speed k =
  let reference_ns = snd parts.(k) in
  let speeds =
    Report.sorted (List.init !taken (fun i -> reference_ns /. float_of_int times.(k).(i)))
  in
  let n = Array.length speeds in
  let lo = n / 4 in
  let hi = max (lo + 1) (n - (n / 4)) in
  let sum = ref 0.0 in
  for i = lo to hi - 1 do
    sum := !sum +. speeds.(i)
  done;
  !sum /. float_of_int (hi - lo)

let run_parts = [ 0; 1; 2 ]
let setup_parts = [ 1; 2 ]

let speed of_parts =
  let log_sum = List.fold_left (fun acc k -> acc +. log (part_speed k)) 0.0 of_parts in
  exp (log_sum /. float_of_int (List.length of_parts))

(* [f ()] with the probe running, and how many times faster than the
   reference host the host ran meanwhile, by the parts [of_parts].  A
   run too short for one tick is probed once, after. *)
let probing ~of_parts f =
  taken := 0;
  let tick = { Unix.it_interval = period_s; it_value = period_s } in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle on_tick) in
  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigalrm previous
  in
  ignore (Unix.setitimer Unix.ITIMER_REAL tick);
  let r = Fun.protect ~finally:stop f in
  if !taken = 0 then on_tick 0;
  (r, speed of_parts)
