type kind = Timer | Message | Exact

type event = {
  time : int;
  seq : int;
  run : unit -> unit;
  mutable dead : bool;
  node : int;
  label : string;
}

(* Hierarchical timing wheel (Varghese & Lauck) on (time, seq): a push
   and a pop cost the same however many events are pending.

   Entries.  Each queued entry [e] owns a slot of a pool of three
   arrays: [link.(2e)], its time, and [link.(2e+1)], its successor in a
   list, side by side in one [int] array; [run.(e)], the callback; and
   [owner.(e)], the record whose [dead] flag cancels it.  Released
   slots are chained through their successor from [free], and the
   slots from [fresh] up were never used, so there is no free list to
   build.  Plain events ({!schedule}) have no handle, so they share one
   never-dead owner, [live], and allocate nothing besides their
   callback; a released [owner] entry is [live] too, so their push
   writes only [run].  {!schedule_cancellable} allocates the [event]
   record that is its timer handle and stores it as the owner.

   Levels.  Level [k] has 32 slots and covers bits [5k .. 5k+4] of the
   time, relative to a cursor [cur].  An entry lives at the level of the
   highest bit in which its time differs from [cur], in the slot named
   by its time's bits at that level (level 0, slot [time land 31], when
   no bit above 4 differs).  Every entry at level [k] is therefore
   earlier than every entry at level [k+1], and every level-0 slot holds
   a single time.  Each slot is a circular list through the successors,
   held by its tail [tails.(k).(s)], so the head is the tail's
   successor.  Bit [s] of [occupied.(k)] is set iff slot [s] of level
   [k] is non-empty, and a count-trailing-zeros on it finds the earliest
   slot without a scan.  A level's [tails] are allocated the first time
   an entry lands on it, so an engine pays only for the levels its
   delays reach.

   Cursor.  [cur] never exceeds the time of a pending entry nor the
   clock, since every push is at or after the clock.  The earliest slot
   of the lowest non-empty level [k > 0] is emptied by a cascade: [cur]
   moves to the start of that slot's block, which empties the levels
   below it, and its entries are relinked into those levels in list
   order.  [run ~until] cascades only blocks that start at or before
   [until]; moving [cur] past the clock would let a later push land
   below it.  The top level's shifts stay below 63 bits ([5 * 12]).

   Exact order.  An entry's place depends only on its time and [cur], so
   all entries of one time share a list, and each list is in [seq]
   order: a push appends the newest [seq] at the tail, and a cascade
   moves one list, in order, into lists that were empty.  Popping
   level-0 heads thus fires in the strict (time, seq) order, whatever
   the layout.

   Sweeps.  Cancelled events are removed lazily — normally when their
   time comes — but a far-future cancelled timer (a client retry
   deadline, an election timer reset on every append) would otherwise
   sit queued for its whole nominal delay.  At fig9 rates that grows the
   queue to the total op count.  [maybe_sweep] unlinks the dead entries
   with an amortized O(1)-per-push bound, keeping the queue at live
   size.  Its trigger counts pushes and its threshold counts entries,
   neither depends on the layout, so [pending] reads the same at every
   point of a run. *)
module Wheel = struct
  type t = {
    mutable link : int array;  (** time at [2e], successor at [2e+1] *)
    mutable run : (unit -> unit) array;
    mutable owner : event array;
    mutable free : int;  (** head of the released slots' chain, or -1 *)
    mutable fresh : int;  (** slots from here up were never used *)
    tails : int array array;  (** per level; [[||]] until first used *)
    occupied : int array;  (** per level, the bitmap of non-empty slots *)
    mutable cur : int;
    mutable len : int;
    mutable pushes_since_sweep : int;
  }

  let nop () = ()

  (* The owner of every plain event and of every free slot.  No caller
     can reach it, so it is never cancelled. *)
  let live =
    { time = 0; seq = 0; run = nop; dead = false; node = -1; label = "" }

  (* Small to start: an engine is built per cluster, and a few early
     doublings cost less than large arrays in every construction. *)
  let initial_cap = 32

  (* Five bits a level: 13 levels cover every non-negative [int].  The
     per-level arrays, here and in [file], are literals: copying a
     static block costs less than [Array.make], and the ledger times
     every construction. *)
  let create () =
    let e = [||] in
    {
      link = Array.make (2 * initial_cap) 0;
      run = Array.make initial_cap nop;
      owner = Array.make initial_cap live;
      free = -1;
      fresh = 0;
      tails = [| e; e; e; e; e; e; e; e; e; e; e; e; e |];
      occupied = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |];
      cur = 0;
      len = 0;
      pushes_since_sweep = 0;
    }

  let new_level () =
    [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
       0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]

  (* Doubling growth, called with every slot in use: the copies
     amortise to O(1) per push. *)
  let grow w =
    let extend a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    w.link <- extend w.link 0;
    w.run <- extend w.run nop;
    w.owner <- extend w.owner live

  let[@inline] time w e = w.link.(2 * e)
  let[@inline] next w e = w.link.((2 * e) + 1)
  let[@inline] set_next w e n = w.link.((2 * e) + 1) <- n

  (* Index of the lowest set bit of a non-zero 32-bit bitmap: isolate
     it, and a de Bruijn multiply puts a distinct 5-bit code in bits
     27..31. *)
  let debruijn =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
       31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

  let[@inline] ctz b = debruijn.(((b land (-b)) * 0x077CB531) lsr 27 land 31)

  (* Clear bit [s] of level [k]'s bitmap: the slot is now empty. *)
  let[@inline] vacate w k s =
    w.occupied.(k) <- w.occupied.(k) land lnot (1 lsl s)

  (* The lowest level with an entry; the wheel must be non-empty. *)
  let[@perf.hot] rec lowest w k =
    if w.occupied.(k) <> 0 then k else lowest w (k + 1)

  (* The first time in slot [s] of level [k]: [cur]'s bits above the
     level, then [s], then zeros. *)
  let[@inline] block_start w k s =
    let sh = 5 * k in
    ((w.cur lsr sh) land lnot 31 lor s) lsl sh

  (* Append [e], due at [t], to the tail of the slot [t] names. *)
  let[@perf.hot] file w e t =
    let k = ref 0 and x = ref (t lxor w.cur) in
    while !x >= 32 do
      x := !x lsr 5;
      incr k
    done;
    let k = !k in
    let s = (t lsr (5 * k)) land 31 in
    let l =
      match w.tails.(k) with
      | [||] ->
          let l = new_level () in
          w.tails.(k) <- l;
          l
      | l -> l
    in
    let occ = w.occupied.(k) in
    if occ land (1 lsl s) = 0 then begin
      set_next w e e;
      w.occupied.(k) <- occ lor (1 lsl s)
    end
    else begin
      let tail = l.(s) in
      set_next w e (next w tail);
      set_next w tail e
    end;
    l.(s) <- e

  (* Return [e] to the free chain, dropping its callback and owner. *)
  let[@inline] release w e =
    w.run.(e) <- nop;
    if w.owner.(e) != live then w.owner.(e) <- live;
    set_next w e w.free;
    w.free <- e;
    w.len <- w.len - 1

  (* Walk every list and count its cancelled entries; with [drop], also
     unlink and release them, keeping the live ones in order. *)
  let walk w ~drop =
    let n_dead = ref 0 in
    for k = 0 to Array.length w.occupied - 1 do
      let l = w.tails.(k) and occ = ref w.occupied.(k) in
      while !occ <> 0 do
        let s = ctz !occ in
        occ := !occ land (!occ - 1);
        let last = l.(s) in
        let e = ref (next w last) and head = ref (-1) and tail = ref (-1) in
        let fin = ref false in
        while not !fin do
          let x = !e in
          fin := x = last;
          e := next w x;
          if w.owner.(x).dead then begin
            incr n_dead;
            if drop then release w x
          end
          else if drop then begin
            if !tail < 0 then head := x else set_next w !tail x;
            tail := x
          end
        done;
        if drop then
          if !tail < 0 then vacate w k s
          else begin
            set_next w !tail !head;
            l.(s) <- !tail
          end
      done
    done;
    !n_dead

  (* Called every [max 1024 len] pushes: count the dead entries; if
     they are at least a quarter of the queue, drop them.  Both walks
     are paid at most once per [len] pushes, so the amortized per-push
     cost is constant, and the result depends only on the queue's
     contents — determinism is untouched. *)
  let sweep w =
    w.pushes_since_sweep <- 0;
    if walk w ~drop:false * 4 >= w.len then ignore (walk w ~drop:true)

  let[@perf.hot] push w t run owner =
    w.pushes_since_sweep <- w.pushes_since_sweep + 1;
    if w.pushes_since_sweep >= Int.max 1024 w.len then sweep w;
    let e = w.free in
    let e =
      if e >= 0 then begin
        w.free <- next w e;
        e
      end
      else begin
        if w.fresh = Array.length w.run then grow w;
        w.fresh <- w.fresh + 1;
        w.fresh - 1
      end
    in
    w.link.(2 * e) <- t;
    w.run.(e) <- run;
    if owner != live then w.owner.(e) <- owner;
    w.len <- w.len + 1;
    file w e t

  (* Empty slot [s] of level [k > 0]: move [cur] to its block's start
     and relink its entries, in order, into the levels below. *)
  let[@perf.hot] cascade w k s =
    w.cur <- block_start w k s;
    vacate w k s;
    let last = w.tails.(k).(s) in
    let e = ref (next w last) and fin = ref false in
    while not !fin do
      let x = !e in
      fin := x = last;
      e := next w x;
      file w x (time w x)
    done

  (* Unlink and return the head of level-0 slot [s]. *)
  let[@inline] pop_head w s =
    let tail = w.tails.(0).(s) in
    let e = next w tail in
    if e = tail then vacate w 0 s else set_next w tail (next w e);
    e

  (* The earliest queued time, without moving [cur]: exact at level 0,
     else the minimum over the lowest level's earliest slot. *)
  let earliest w =
    let k = lowest w 0 in
    let s = ctz w.occupied.(k) in
    if k = 0 then block_start w 0 s
    else begin
      let last = w.tails.(k).(s) in
      let e = ref last and m = ref (time w last) in
      while next w !e <> last do
        e := next w !e;
        m := Int.min !m (time w !e)
      done;
      !m
    end
end

type t = {
  wheel : Wheel.t;
  mutable clock : int;
  mutable next_seq : int;
  mutable executed : int;
  rng : Rng.t;
  mutable timer_skew : (int -> int) option;
  (* Manual (model-checking) mode: timers become explicitly fireable
     choices and message/exact events drain through a FIFO trampoline
     instead of the time-ordered wheel.  The clock only advances when a
     timer fires (to that timer's nominal deadline), so wall-clock
     guards inside the runtimes still see time pass. *)
  mutable manual : bool;
  mutable manual_timers : event list;
  manual_queue : event Queue.t;
}

type timer = event

let create ?(seed = 42L) () =
  {
    wheel = Wheel.create ();
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
  else Wheel.push t.wheel e.time run e;
  e

(* No handle, so no record: the callback is the only allocation.  The
   wheel needs no [seq], but plain events still take one, so timer
   handles are numbered as they always were. *)
let schedule ?(kind = Timer) ?node ?label t ~delay run =
  if t.manual then ignore (schedule_cancellable ~kind ?node ?label t ~delay run)
  else begin
    t.next_seq <- t.next_seq + 1;
    Wheel.push t.wheel (t.clock + warp t kind delay) run Wheel.live
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

(* Fire the head of level-0 slot [s], whose time is [time].  A
   cancelled entry still moves the clock to its time.  The slot is
   released before the callback runs, so a push from inside it may reuse
   it. *)
let[@perf.hot] fire t w s time =
  t.clock <- time;
  let e = Wheel.pop_head w s in
  let run = w.Wheel.run.(e) and owner = w.Wheel.owner.(e) in
  Wheel.release w e;
  if not owner.dead then begin
    t.executed <- t.executed + 1;
    run ()
  end

(* Fire every entry at or before [until], cascading only blocks that
   start at or before it, so [cur] never passes the clock. *)
let[@perf.hot] rec advance t w until =
  if w.Wheel.len > 0 then begin
    let k = Wheel.lowest w 0 in
    let s = Wheel.ctz w.Wheel.occupied.(k) in
    let start = Wheel.block_start w k s in
    if start <= until then begin
      if k = 0 then fire t w s start else Wheel.cascade w k s;
      advance t w until
    end
  end

let[@perf.hot] run t ~until =
  advance t t.wheel until;
  if t.clock < until then t.clock <- until

let run_all t = advance t t.wheel max_int
let pending t = t.wheel.Wheel.len
let events_executed t = t.executed

let next_deadline t =
  if t.wheel.Wheel.len = 0 then None else Some (Wheel.earliest t.wheel)

let ms x = x * 1000
let us_to_ms us = float_of_int us /. 1000.0
