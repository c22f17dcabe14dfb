type t = {
  mutable latencies : int array;  (** sample latencies, µs *)
  mutable times : int array;  (** completion times, µs *)
  mutable len : int;
  mutable sorted : int array option;
      (** cached sort of [latencies.(0..len-1)]; invalidated by {!record}
          (pp_summary alone takes three percentiles — sorting per call was
          3x the work) *)
}

let with_capacity n =
  { latencies = Array.make n 0; times = Array.make n 0; len = 0; sorted = None }

let create () = with_capacity 1024

let record t ~latency_us ~at_us =
  if t.len = Array.length t.latencies then begin
    let grow a =
      let b = Array.make (2 * t.len) 0 in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.latencies <- grow t.latencies;
    t.times <- grow t.times
  end;
  t.latencies.(t.len) <- latency_us;
  t.times.(t.len) <- at_us;
  t.len <- t.len + 1;
  t.sorted <- None

let count t = t.len

let window t ~from_us ~until_us =
  let out = create () in
  for i = 0 to t.len - 1 do
    if t.times.(i) >= from_us && t.times.(i) < until_us then
      record out ~latency_us:t.latencies.(i) ~at_us:t.times.(i)
  done;
  out

let throughput_ops t ~from_us ~until_us =
  let w = window t ~from_us ~until_us in
  let span = float_of_int (until_us - from_us) /. 1_000_000.0 in
  if span <= 0.0 then 0.0 else float_of_int w.len /. span

let sorted_samples t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub t.latencies 0 t.len in
      Array.sort Int.compare a;
      t.sorted <- Some a;
      a

let percentile_us t p =
  if t.len = 0 then 0
  else begin
    let a = sorted_samples t in
    let idx = int_of_float (p *. float_of_int (t.len - 1)) in
    a.(max 0 (min (t.len - 1) idx))
  end

let mean_us t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0 in
    for i = 0 to t.len - 1 do
      sum := !sum + t.latencies.(i)
    done;
    float_of_int !sum /. float_of_int t.len
  end

let min_us t =
  let m = ref max_int in
  for i = 0 to t.len - 1 do
    if t.latencies.(i) < !m then m := t.latencies.(i)
  done;
  if t.len = 0 then 0 else !m

let max_us t =
  let m = ref 0 in
  for i = 0 to t.len - 1 do
    if t.latencies.(i) > !m then m := t.latencies.(i)
  done;
  !m

(* At least the default capacity, so that [record] on an empty merge
   still has an array to double. *)
let merge ts =
  let out = with_capacity (max 1024 (List.fold_left (fun n t -> n + t.len) 0 ts)) in
  List.iter
    (fun t ->
      Array.blit t.latencies 0 out.latencies out.len t.len;
      Array.blit t.times 0 out.times out.len t.len;
      out.len <- out.len + t.len)
    ts;
  out

let pp_summary ppf t =
  Fmt.pf ppf "n=%d p50=%.1fms p90=%.1fms p99=%.1fms" t.len
    (float_of_int (percentile_us t 0.50) /. 1000.0)
    (float_of_int (percentile_us t 0.90) /. 1000.0)
    (float_of_int (percentile_us t 0.99) /. 1000.0)
