type kind = Timer | Message | Exact

type event = {
  time : int;
  seq : int;
  run : unit -> unit;
  mutable dead : bool;
  node : int;
  label : string;
}

(* 4-ary min-heap on (time, seq) whose sifts move ints only.

   Layout.  Each heap position [i < len] holds its key and the slot of
   its payload in three [int] arrays, [time.(i)], [seq.(i)] and
   [slot.(i)].  The payload sits in two slot-indexed tables: [run.(s)],
   the callback, and [owner.(s)], the record whose [dead] flag cancels
   it.  A sift moves (time, seq, slot) triples between positions and
   never touches the tables, so it stores only ints and pays no
   [caml_modify] write barrier, and the compared keys sit in cache
   lines of their own.  The tables are written once when an entry is
   pushed and cleared once when it is popped.  [slot] is a permutation
   of [0, cap): positions [len, cap) hold the free slots, so a push
   takes [slot.(len)] and a pop parks the freed slot at the position
   the heap just gave up; there is no separate free list.

   Plain events ({!schedule}) have no handle, so they share one
   never-dead owner, [live], and allocate nothing besides their
   callback; a cleared [owner] entry is [live] too, so their push writes
   only [run].  {!schedule_cancellable} allocates the [event] record
   that is its timer handle and stores it as the owner.

   Four children per node halve the depth of a binary heap, and the
   four keys a level compares sit side by side.  Sifts carry the moving
   entry in locals and shift the others into the hole it leaves,
   writing each position once instead of swapping.  Keys are unique
   ([seq] is a global counter), so the pop order is the strict
   (time, seq) order whatever the arity or layout: no run depends on
   how the heap is arranged.

   Cancelled events are removed lazily — normally when their time comes —
   but a far-future cancelled timer (a client retry deadline, an election
   timer reset on every append) would otherwise sit in the heap for its
   whole nominal delay.  At fig9 rates that grows the heap to the total
   op count and every push/pop sifts through a cold multi-thousand-entry
   array.  [maybe_sweep] compacts the dead entries away with an amortized
   O(1)-per-push bound, keeping the heap at live size.  Its trigger
   counts pushes and its threshold counts entries, neither depends on
   the layout, so [pending] reads the same at every point of a run. *)
module Heap = struct
  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable slot : int array;
    mutable run : (unit -> unit) array;
    mutable owner : event array;
    mutable len : int;
    mutable pushes_since_sweep : int;
  }

  let nop () = ()

  (* The owner of every plain event and of every free slot.  No caller
     can reach it, so it is never cancelled. *)
  let live =
    { time = 0; seq = 0; run = nop; dead = false; node = -1; label = "" }

  (* Small to start: an engine is built per cluster, and a few early
     doublings cost less than five large arrays in every construction.
     32 slots hold the timers a sharded group schedules while it is
     built; a lease-reads cluster grows once.  A plain loop numbers the
     slots, where [Array.init] would call a closure per element. *)
  let initial_cap = 32

  let create () =
    let slot = Array.make initial_cap 0 in
    for i = 1 to initial_cap - 1 do
      slot.(i) <- i
    done;
    {
      time = Array.make initial_cap 0;
      seq = Array.make initial_cap 0;
      slot;
      run = Array.make initial_cap nop;
      owner = Array.make initial_cap live;
      len = 0;
      pushes_since_sweep = 0;
    }

  (* Doubling growth, called with the heap full: the copies amortise to
     O(1) per push, and the new positions [cap, 2 cap) hold the new
     slots. *)
  let grow h =
    let cap = Array.length h.time in
    let extend a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    h.time <- extend h.time 0;
    h.seq <- extend h.seq 0;
    let slot = extend h.slot 0 in
    for i = cap to (2 * cap) - 1 do
      slot.(i) <- i
    done;
    h.slot <- slot;
    h.run <- extend h.run nop;
    h.owner <- extend h.owner live

  (* Fill the hole at [i] with (t, s, sl), moving it towards the root
     past every larger parent. *)
  let[@perf.hot] sift_up h i t s sl =
    let time = h.time and seq = h.seq and slot = h.slot in
    let i = ref i and moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) lsr 2 in
      let pt = time.(p) in
      if t < pt || (t = pt && s < seq.(p)) then begin
        time.(!i) <- pt;
        seq.(!i) <- seq.(p);
        slot.(!i) <- slot.(p);
        i := p
      end
      else moving := false
    done;
    time.(!i) <- t;
    seq.(!i) <- s;
    slot.(!i) <- sl

  (* Fill the hole at [i] with (t, s, sl), moving it towards the leaves
     past every smaller child. *)
  let[@perf.hot] sift_down h i t s sl =
    let time = h.time and seq = h.seq and slot = h.slot and len = h.len in
    let i = ref i and moving = ref true in
    while !moving do
      let c = (4 * !i) + 1 in
      if c >= len then moving := false
      else begin
        let last = if c + 3 < len then c + 3 else len - 1 in
        let m = ref c in
        let mt = ref time.(c) and ms = ref seq.(c) in
        for j = c + 1 to last do
          let jt = time.(j) in
          if jt < !mt || (jt = !mt && seq.(j) < !ms) then begin
            m := j;
            mt := jt;
            ms := seq.(j)
          end
        done;
        if !mt < t || (!mt = t && !ms < s) then begin
          time.(!i) <- !mt;
          seq.(!i) <- !ms;
          slot.(!i) <- slot.(!m);
          i := !m
        end
        else moving := false
      end
    done;
    time.(!i) <- t;
    seq.(!i) <- s;
    slot.(!i) <- sl

  (* Every [max 1024 len] pushes, count the dead entries; if they are at
     least a quarter of the heap, drop them and re-heapify (bottom-up,
     O(len)).  Scan and rebuild are both paid at most once per [len]
     pushes, so the amortized per-push cost is constant, and the result
     depends only on the heap contents — determinism is untouched.  The
     compaction swaps each live entry forward, so the dead entries'
     slots end up in [live, len) and join the free ones. *)
  let maybe_sweep h =
    h.pushes_since_sweep <- h.pushes_since_sweep + 1;
    if h.pushes_since_sweep >= Int.max 1024 h.len then begin
      h.pushes_since_sweep <- 0;
      let n_dead = ref 0 in
      for i = 0 to h.len - 1 do
        if h.owner.(h.slot.(i)).dead then incr n_dead
      done;
      if !n_dead * 4 >= h.len then begin
        let n_live = ref 0 in
        for i = 0 to h.len - 1 do
          let sl = h.slot.(i) in
          if h.owner.(sl).dead then begin
            h.run.(sl) <- nop;
            h.owner.(sl) <- live
          end
          else begin
            let j = !n_live in
            h.slot.(i) <- h.slot.(j);
            h.time.(j) <- h.time.(i);
            h.seq.(j) <- h.seq.(i);
            h.slot.(j) <- sl;
            incr n_live
          end
        done;
        h.len <- !n_live;
        for i = (h.len - 2) / 4 downto 0 do
          sift_down h i h.time.(i) h.seq.(i) h.slot.(i)
        done
      end
    end

  let[@perf.hot] push h t s run owner =
    maybe_sweep h;
    if h.len = Array.length h.time then grow h;
    let i = h.len in
    let sl = h.slot.(i) in
    h.run.(sl) <- run;
    if owner != live then h.owner.(sl) <- owner;
    h.len <- i + 1;
    sift_up h i t s sl

  (* Remove the earliest entry (the heap must be non-empty) and park its
     slot among the free ones.  Returns the slot, whose table entries
     the caller reads and clears before the next push can reuse it. *)
  let[@perf.hot] pop_min h =
    let top = h.slot.(0) in
    let n = h.len - 1 in
    h.len <- n;
    if n > 0 then sift_down h 0 h.time.(n) h.seq.(n) h.slot.(n);
    h.slot.(n) <- top;
    top
end

type t = {
  heap : Heap.t;
  mutable clock : int;
  mutable next_seq : int;
  mutable executed : int;
  rng : Rng.t;
  mutable timer_skew : (int -> int) option;
  (* Manual (model-checking) mode: timers become explicitly fireable
     choices and message/exact events drain through a FIFO trampoline
     instead of the time-ordered heap.  The clock only advances when a
     timer fires (to that timer's nominal deadline), so wall-clock
     guards inside the runtimes still see time pass. *)
  mutable manual : bool;
  mutable manual_timers : event list;
  manual_queue : event Queue.t;
}

type timer = event

let create ?(seed = 42L) () =
  {
    heap = Heap.create ();
    clock = 0;
    next_seq = 0;
    executed = 0;
    rng = Rng.create seed;
    timer_skew = None;
    manual = false;
    manual_timers = [];
    manual_queue = Queue.create ();
  }

let now t = t.clock
let rng t = t.rng
let set_timer_skew t f = t.timer_skew <- f
let set_manual t b = t.manual <- b
let is_manual t = t.manual

let warp t kind delay =
  assert (delay >= 0);
  match (kind, t.timer_skew) with
  | Timer, Some warp -> max 0 (warp delay)
  | _ -> delay

let schedule_cancellable ?(kind = Timer) ?(node = -1) ?(label = "") t ~delay run
    =
  let e =
    {
      time = t.clock + warp t kind delay;
      seq = t.next_seq;
      run;
      dead = false;
      node;
      label;
    }
  in
  t.next_seq <- t.next_seq + 1;
  if t.manual then begin
    match kind with
    | Timer -> t.manual_timers <- e :: t.manual_timers
    | Message | Exact -> Queue.add e t.manual_queue
  end
  else Heap.push t.heap e.time e.seq run e;
  e

(* No handle, so no record: the callback is the only allocation. *)
let schedule ?(kind = Timer) ?node ?label t ~delay run =
  if t.manual then ignore (schedule_cancellable ~kind ?node ?label t ~delay run)
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Heap.push t.heap (t.clock + warp t kind delay) seq run Heap.live
  end

let cancel e = e.dead <- true

(* Drain the manual trampoline: message deliveries and cpu-exec
   continuations run to quiescence, in FIFO order.  Events enqueued
   while draining are processed in the same drain. *)
let manual_drain t =
  while not (Queue.is_empty t.manual_queue) do
    let e = Queue.pop t.manual_queue in
    if not e.dead then begin
      t.executed <- t.executed + 1;
      e.run ()
    end
  done

let manual_pending t =
  t.manual_timers <- List.filter (fun e -> not e.dead) t.manual_timers;
  List.sort (fun a b -> Int.compare a.seq b.seq) t.manual_timers

let manual_fire t e =
  if e.dead then false
  else begin
    t.manual_timers <- List.filter (fun e' -> e' != e) t.manual_timers;
    if e.time > t.clock then t.clock <- e.time;
    t.executed <- t.executed + 1;
    e.run ();
    manual_drain t;
    true
  end

let event_seq e = e.seq
let event_node e = e.node
let event_label e = e.label
let event_time e = e.time

(* Pop the earliest entry and run it.  A cancelled one still moves the
   clock to its time.  The slot's table entries are cleared before the
   callback runs, so a push from inside it may reuse the slot. *)
let[@perf.hot] fire t h =
  t.clock <- h.Heap.time.(0);
  let sl = Heap.pop_min h in
  let run = h.Heap.run.(sl) and owner = h.Heap.owner.(sl) in
  h.Heap.run.(sl) <- Heap.nop;
  if owner != Heap.live then h.Heap.owner.(sl) <- Heap.live;
  if not owner.dead then begin
    t.executed <- t.executed + 1;
    run ()
  end

(* The root's key is read in place: a late event is never popped, so
   stopping at [until] leaves the heap untouched. *)
let[@perf.hot] run t ~until =
  let h = t.heap in
  while h.Heap.len > 0 && h.Heap.time.(0) <= until do
    fire t h
  done;
  if t.clock < until then t.clock <- until

let run_all t =
  let h = t.heap in
  while h.Heap.len > 0 do
    fire t h
  done

let pending t = t.heap.Heap.len
let events_executed t = t.executed

let next_deadline t =
  if t.heap.Heap.len = 0 then None else Some t.heap.Heap.time.(0)
let ms x = x * 1000
let us_to_ms us = float_of_int us /. 1000.0
