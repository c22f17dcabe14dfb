module Engine = Raftpax_sim.Engine
module Types = Raftpax_consensus.Types

let retry_timeout_us = 20_000_000

type t = {
  region : int;
  mutable cur_op : Types.op;
  mutable started_us : int;
  mutable gen : int;
  mutable waiting : bool;
  mutable wd_pending : bool;  (* a watchdog event is in the heap *)
  mutable trace : int;
}

let create ~region =
  {
    region;
    cur_op = Types.Get { key = 0 };
    started_us = 0;
    gen = 0;
    waiting = false;
    wd_pending = false;
    trace = -1;
  }

let region c = c.region
let cur_op c = c.cur_op
let started_us c = c.started_us
let trace c = c.trace
let set_trace c id = c.trace <- id

(* The retry deadline is enforced by a single lazily re-armed watchdog
   per client rather than a cancellable timer per op: a per-op timer
   leaves one dead 20 s entry in the event queue per completed op, which
   the queue carries until a sweep drops it.  The watchdog is armed at
   the current op's deadline; if the op at hand is younger when it
   fires, it re-arms at that op's exact deadline, so a stuck op still
   retries at precisely [started + retry_timeout_us] while a healthy
   client schedules only one event per 20 s of virtual time. *)
let rec arm_watchdog engine c ~on_timeout =
  c.wd_pending <- true;
  let delay = c.started_us + retry_timeout_us - Engine.now engine in
  Engine.schedule engine ~delay (fun () -> watchdog_fire engine c ~on_timeout)

and watchdog_fire engine c ~on_timeout =
  c.wd_pending <- false;
  if c.waiting then
    if Engine.now engine >= c.started_us + retry_timeout_us then begin
      (* Abandon the outstanding attempt: its late completion is ignored
         via the generation counter. *)
      c.waiting <- false;
      on_timeout c
    end
    else arm_watchdog engine c ~on_timeout

let attempt engine c op ~on_timeout =
  c.cur_op <- op;
  c.started_us <- Engine.now engine;
  c.gen <- c.gen + 1;
  c.waiting <- true;
  if not c.wd_pending then arm_watchdog engine c ~on_timeout;
  c.gen

let accept c ~gen =
  if c.waiting && c.gen = gen then begin
    c.waiting <- false;
    true
  end
  else false
