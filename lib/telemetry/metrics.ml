type counter = { mutable count : int }

(* Bucket [i] holds samples in [2^i, 2^(i+1)); bucket 0 also takes 0 and 1.
   62 buckets cover the whole non-negative OCaml int range. *)
let n_buckets = 62

type histogram = {
  buckets : int array;
  mutable total : int;
  mutable sum : int;
  mutable max_seen : int;
}

type t = {
  n : int;
  live : bool;
  counters : (string, counter array) Hashtbl.t;
  histograms : (string, histogram array) Hashtbl.t;
}

let create ~n =
  {
    n = max n 1;
    live = true;
    counters = Hashtbl.create 64;
    histograms = Hashtbl.create 16;
  }

let dummy_counter = { count = 0 }

(* Shared write-sinks for the disabled registry: absorbed writes are
   never read back, so the cross-run sharing is harmless by design. *)
let dummy_histogram =
  { buckets = Array.make n_buckets 0; total = 0; sum = 0; max_seen = 0 }
[@@lint.allow "escaping-mutable-state"]

let disabled =
  { n = 1; live = false; counters = Hashtbl.create 1; histograms = Hashtbl.create 1 }
[@@lint.allow "escaping-mutable-state"]

let enabled t = t.live

let counter t name ~node =
  if not t.live then dummy_counter
  else begin
    let cells =
      match Hashtbl.find_opt t.counters name with
      | Some cells -> cells
      | None ->
          let cells = Array.init t.n (fun _ -> { count = 0 }) in
          Hashtbl.replace t.counters name cells;
          cells
    in
    cells.(node)
  end

let inc c = c.count <- c.count + 1
let add c k = c.count <- c.count + k
let gauge = counter
let set_gauge c v = c.count <- v

let counter_value t name ~node =
  match Hashtbl.find_opt t.counters name with
  | Some cells when node < Array.length cells -> cells.(node).count
  | _ -> 0

let histogram t name ~node =
  if not t.live then dummy_histogram
  else begin
    let cells =
      match Hashtbl.find_opt t.histograms name with
      | Some cells -> cells
      | None ->
          let cells =
            Array.init t.n (fun _ ->
                {
                  buckets = Array.make n_buckets 0;
                  total = 0;
                  sum = 0;
                  max_seen = 0;
                })
          in
          Hashtbl.replace t.histograms name cells;
          cells
    in
    cells.(node)
  end

(* The index of [v]'s highest set bit (0 below 2), capped at the last
   bucket: a binary search over bit ranges, six halving steps whatever
   the value. *)
let bucket_of v =
  if v < 2 then 0
  else begin
    let i = ref 0 and v = ref v and bits = ref 32 in
    while !bits > 0 do
      if !v lsr !bits <> 0 then begin
        v := !v lsr !bits;
        i := !i + !bits
      end;
      bits := !bits lsr 1
    done;
    min !i (n_buckets - 1)
  end

let observe h v =
  let v = max 0 v in
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum + v;
  if v > h.max_seen then h.max_seen <- v

let hist_count h = h.total
let hist_sum h = h.sum

(* Same rank convention as Stats.percentile_us: 0-based index
   [p * (total - 1)] into the sorted samples; we return the enclosing
   bucket's inclusive upper bound, clamped to the largest sample seen. *)
let quantile h p =
  if h.total = 0 then 0
  else begin
    let rank = int_of_float (p *. float_of_int (h.total - 1)) in
    let rank = max 0 (min (h.total - 1) rank) in
    let acc = ref 0 and found = ref (n_buckets - 1) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + h.buckets.(i);
         if !acc > rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    (* With 62 buckets the widest upper bound is [2^62 - 1 = max_int]. *)
    let upper = (1 lsl (!found + 1)) - 1 in
    min upper h.max_seen
  end

(* ---- snapshots ---- *)

type hist_view = { h_count : int; h_sum : int; h_p50 : int; h_p90 : int; h_p99 : int }

type snapshot = {
  s_n : int;
  s_counters : (string * int array) list;  (** sorted by name *)
  s_histograms : (string * hist_view array) list;
}

let snapshot t =
  let sorted_keys tbl =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  {
    s_n = t.n;
    s_counters =
      List.map
        (fun name ->
          let cells = Hashtbl.find t.counters name in
          (name, Array.map (fun c -> c.count) cells))
        (sorted_keys t.counters);
    s_histograms =
      List.map
        (fun name ->
          let cells = Hashtbl.find t.histograms name in
          ( name,
            Array.map
              (fun h ->
                {
                  h_count = h.total;
                  h_sum = h.sum;
                  h_p50 = quantile h 0.50;
                  h_p90 = quantile h 0.90;
                  h_p99 = quantile h 0.99;
                })
              cells ))
        (sorted_keys t.histograms);
  }

let snapshot_to_json s =
  let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a)) in
  let hist h =
    Json.Obj
      [
        ("count", Json.Int h.h_count);
        ("sum", Json.Int h.h_sum);
        ("p50", Json.Int h.h_p50);
        ("p90", Json.Int h.h_p90);
        ("p99", Json.Int h.h_p99);
      ]
  in
  Json.Obj
    [
      ("nodes", Json.Int s.s_n);
      ( "counters",
        Json.Obj (List.map (fun (name, a) -> (name, ints a)) s.s_counters) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, a) ->
               (name, Json.List (Array.to_list (Array.map hist a))))
             s.s_histograms) );
    ]

let pp_snapshot ppf s =
  List.iter
    (fun (name, a) ->
      Fmt.pf ppf "%-28s" name;
      Array.iter (fun v -> Fmt.pf ppf " %8d" v) a;
      Fmt.pf ppf "@.")
    s.s_counters;
  List.iter
    (fun (name, a) ->
      Fmt.pf ppf "%-28s" name;
      Array.iter
        (fun h -> Fmt.pf ppf " %d/%d/%d" h.h_count h.h_p50 h.h_p99)
        a;
      Fmt.pf ppf "  (count/p50/p99)@.")
    s.s_histograms

let nonzero_nodes s ~name =
  match List.assoc_opt name s.s_counters with
  | None -> []
  | Some a ->
      Array.to_list a
      |> List.mapi (fun i v -> (i, v))
      |> List.filter_map (fun (i, v) -> if v <> 0 then Some i else None)

let counter_names s = List.map fst s.s_counters
