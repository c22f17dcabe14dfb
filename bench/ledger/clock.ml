(* Wall-clock time for the ledger: CLOCK_MONOTONIC in nanoseconds,
   read without allocating, so span probes stay cheap. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
