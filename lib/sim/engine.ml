type kind = Timer | Message | Exact

type event = {
  time : int;
  seq : int;
  run : unit -> unit;
  mutable dead : bool;
  node : int;
  label : string;
}

(* 4-ary min-heap on (time, seq), keys unboxed beside the events.

   The keys live in two [int] arrays next to the [event] array
   (structure of arrays), so a sift compares plain ints in cache lines
   of its own instead of dereferencing two event records scattered
   across the major heap.  Four children per node halve the depth of a
   binary heap; the four keys a level compares sit side by side.  Sifts
   carry the moving entry in locals and shift the others into the
   hole it leaves, writing each slot once instead of swapping.

   Keys are unique ([seq] is a global counter), so the pop order is the
   strict (time, seq) order whatever the arity or layout: no run depends
   on how the heap is arranged.

   Cancelled events are removed lazily — normally when their time comes —
   but a far-future cancelled timer (a client retry deadline, an election
   timer reset on every append) would otherwise sit in the array for its
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
    mutable ev : event array;
    mutable len : int;
    mutable pushes_since_sweep : int;
  }

  let dummy =
    { time = 0; seq = 0; run = ignore; dead = true; node = -1; label = "" }

  (* Small to start: an engine is built per cluster, and a few early
     doublings cost less than three large arrays in every construction. *)
  let create () =
    {
      time = Array.make 64 0;
      seq = Array.make 64 0;
      ev = Array.make 64 dummy;
      len = 0;
      pushes_since_sweep = 0;
    }

  (* Fill the hole at [i] with (t, s, e), moving it towards the root past
     every larger parent. *)
  let[@perf.hot] sift_up h i t s e =
    let i = ref i and moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) lsr 2 in
      let pt = h.time.(p) in
      if t < pt || (t = pt && s < h.seq.(p)) then begin
        h.time.(!i) <- pt;
        h.seq.(!i) <- h.seq.(p);
        h.ev.(!i) <- h.ev.(p);
        i := p
      end
      else moving := false
    done;
    h.time.(!i) <- t;
    h.seq.(!i) <- s;
    h.ev.(!i) <- e

  (* Fill the hole at [i] with (t, s, e), moving it towards the leaves
     past every smaller child. *)
  let[@perf.hot] sift_down h i t s e =
    let i = ref i and moving = ref true in
    while !moving do
      let c = (4 * !i) + 1 in
      if c >= h.len then moving := false
      else begin
        let last = if c + 3 < h.len then c + 3 else h.len - 1 in
        let m = ref c in
        let mt = ref h.time.(c) and ms = ref h.seq.(c) in
        for j = c + 1 to last do
          let jt = h.time.(j) in
          if jt < !mt || (jt = !mt && h.seq.(j) < !ms) then begin
            m := j;
            mt := jt;
            ms := h.seq.(j)
          end
        done;
        if !mt < t || (!mt = t && !ms < s) then begin
          h.time.(!i) <- !mt;
          h.seq.(!i) <- !ms;
          h.ev.(!i) <- h.ev.(!m);
          i := !m
        end
        else moving := false
      end
    done;
    h.time.(!i) <- t;
    h.seq.(!i) <- s;
    h.ev.(!i) <- e

  (* Every [max 1024 len] pushes, count the dead entries; if they are at
     least a quarter of the heap, drop them and re-heapify (bottom-up,
     O(len)).  Scan and rebuild are both paid at most once per [len]
     pushes, so the amortized per-push cost is constant, and the result
     depends only on the heap contents — determinism is untouched. *)
  let maybe_sweep h =
    h.pushes_since_sweep <- h.pushes_since_sweep + 1;
    if h.pushes_since_sweep >= Int.max 1024 h.len then begin
      h.pushes_since_sweep <- 0;
      let dead = ref 0 in
      for i = 0 to h.len - 1 do
        if h.ev.(i).dead then incr dead
      done;
      if !dead * 4 >= h.len then begin
        let live = ref 0 in
        for i = 0 to h.len - 1 do
          if not h.ev.(i).dead then begin
            h.time.(!live) <- h.time.(i);
            h.seq.(!live) <- h.seq.(i);
            h.ev.(!live) <- h.ev.(i);
            incr live
          end
        done;
        Array.fill h.ev !live (h.len - !live) dummy;
        h.len <- !live;
        for i = (h.len - 2) / 4 downto 0 do
          sift_down h i h.time.(i) h.seq.(i) h.ev.(i)
        done
      end
    end

  let[@perf.hot] push h (e : event) =
    maybe_sweep h;
    if h.len = Array.length h.ev then begin
      (* Doubling growth: the copies amortise to O(1) per push. *)
      let cap = 2 * h.len in
      let time = (Array.make cap 0 [@perf.allow "alloc-in-handler"])
      and seq = (Array.make cap 0 [@perf.allow "alloc-in-handler"])
      and ev = (Array.make cap dummy [@perf.allow "alloc-in-handler"]) in
      Array.blit h.time 0 time 0 h.len;
      Array.blit h.seq 0 seq 0 h.len;
      Array.blit h.ev 0 ev 0 h.len;
      h.time <- time;
      h.seq <- seq;
      h.ev <- ev
    end;
    h.len <- h.len + 1;
    sift_up h (h.len - 1) e.time e.seq e

  (* The earliest event; the heap must be non-empty. *)
  let[@perf.hot] pop_min h =
    let top = h.ev.(0) in
    let n = h.len - 1 in
    h.len <- n;
    let e = h.ev.(n) in
    h.ev.(n) <- dummy;
    if n > 0 then sift_down h 0 h.time.(n) h.seq.(n) e;
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

let schedule_cancellable ?(kind = Timer) ?(node = -1) ?(label = "") t ~delay run
    =
  assert (delay >= 0);
  let delay =
    match (kind, t.timer_skew) with
    | Timer, Some warp -> max 0 (warp delay)
    | _ -> delay
  in
  let e =
    { time = t.clock + delay; seq = t.next_seq; run; dead = false; node; label }
  in
  t.next_seq <- t.next_seq + 1;
  if t.manual then begin
    match kind with
    | Timer -> t.manual_timers <- e :: t.manual_timers
    | Message | Exact -> Queue.add e t.manual_queue
  end
  else Heap.push t.heap e;
  e

let schedule ?kind ?node ?label t ~delay run =
  ignore (schedule_cancellable ?kind ?node ?label t ~delay run)

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

(* Run one popped event.  A cancelled one still moves the clock to its
   time. *)
let fire t e =
  t.clock <- e.time;
  if not e.dead then begin
    t.executed <- t.executed + 1;
    e.run ()
  end

(* The root's key is read in place: a late event is never popped, so
   stopping at [until] leaves the heap untouched. *)
let[@perf.hot] run t ~until =
  let h = t.heap in
  while h.Heap.len > 0 && h.Heap.time.(0) <= until do
    fire t (Heap.pop_min h)
  done;
  if t.clock < until then t.clock <- until

let run_all t =
  let h = t.heap in
  while h.Heap.len > 0 do
    fire t (Heap.pop_min h)
  done

let pending t = t.heap.Heap.len
let events_executed t = t.executed

let next_deadline t =
  if t.heap.Heap.len = 0 then None else Some t.heap.Heap.time.(0)
let ms x = x * 1000
let us_to_ms us = float_of_int us /. 1000.0
