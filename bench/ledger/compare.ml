(* [ledger.exe compare BASE.json NEW.json]: one row per workload and
   metric, each side's median and quartiles over its runs, and a
   verdict.

   - Exact rows must be identical on every seed both sides ran.
   - Rows with a BENCHMARK.json bound: "regressed" when the new median
     is worse than the base median by more than the bound; "unresolved"
     when either side's quartile spread is wider than the bound, unless
     every new run beats every base run; "better" when the new median
     wins by more than the base's own spread; otherwise "no worse".
   - Other rows carry no verdict. *)

type spec = {
  end_to_end : (string * string * bool * float) list;
      (** name, unit, lower is better, bound *)
  per_layer : (string * string) list;
}

let load_spec path =
  let j = Report.parse (Report.read_file path) in
  let str k x = Report.to_str (Report.member k x) in
  {
    end_to_end =
      List.map
        (fun m ->
          ( str "name" m,
            str "unit" m,
            String.equal (str "better" m) "lower",
            Report.to_float (Report.member "bound" m) ))
        (Report.to_list (Report.member "end_to_end" j));
    per_layer =
      List.map
        (fun m -> (str "name" m, str "unit" m))
        (Report.to_list (Report.member "per_layer" j));
  }

(* (workload, metric) -> kind and the (seed, value) of every run. *)
type series = {
  workload : string;
  metric : string;
  unit_ : string;
  exact : bool;
  values : (int * float) list;
}

let load_runs path =
  let runs = Report.to_list (Report.parse (Report.read_file path)) in
  List.concat_map
    (fun run ->
      let seed = int_of_float (Report.to_float (Report.member "seed" run)) in
      List.concat_map
        (fun w ->
          let workload = Report.to_str (Report.member "workload" w) in
          List.map
            (fun mj ->
              let m = Report.metric_of_json mj in
              (workload, m, seed))
            (Report.to_list (Report.member "metrics" w)))
        (Report.to_list (Report.member "workloads" run)))
    runs

(* Rows grouped by (workload, metric), in first-seen order. *)
let collect rows =
  let series =
    List.fold_left
      (fun acc (workload, (m : Report.metric), seed) ->
        let same s = String.equal s.workload workload && String.equal s.metric m.Report.name in
        match List.find_opt same acc with
        | Some s ->
            { s with values = (seed, m.Report.value) :: s.values }
            :: List.filter (fun s -> not (same s)) acc
        | None ->
            {
              workload;
              metric = m.Report.name;
              unit_ = m.Report.unit_;
              exact = (match m.Report.kind with Report.Exact -> true | Report.Wall -> false);
              values = [ (seed, m.Report.value) ];
            }
            :: acc)
      [] rows
  in
  List.map (fun s -> { s with values = List.rev s.values }) series

let summary vs =
  let xs = List.map snd vs in
  let q1, q3 = Report.quartiles xs in
  (Report.median xs, q1, q3)

let exact_verdict base fresh =
  let common =
    List.filter (fun (s, _) -> List.exists (fun (s', _) -> s = s') fresh) base
  in
  match common with
  | [] -> "unresolved (no common seed)"
  | _ ->
      if
        List.for_all
          (fun (seed, v) ->
            List.for_all
              (fun (s', v') -> s' <> seed || Float.equal v v')
              fresh)
          common
      then "same"
      else "CHANGED"

let bounded_verdict ~lower ~bound base fresh =
  let m0, a0, b0 = summary base and m1, a1, b1 = summary fresh in
  let worse = if lower then (m1 -. m0) /. m0 else (m0 -. m1) /. m0 in
  let spread = Float.max ((b0 -. a0) /. Float.abs m0) ((b1 -. a1) /. Float.abs m1) in
  let better x y = if lower then x < y else x > y in
  let all_better =
    List.for_all (fun (_, n) -> List.for_all (fun (_, b) -> better n b) base) fresh
  in
  if spread > bound then if all_better then "better" else "unresolved"
  else if worse > bound then "REGRESSED"
  else if -.worse > (b0 -. a0) /. Float.abs m0 then "better"
  else "no worse"

let run ~spec_path ~base_path ~new_path =
  let spec = load_spec spec_path in
  let base = collect (load_runs base_path) and fresh = collect (load_runs new_path) in
  let keys =
    List.sort_uniq
      (fun (w1, m1) (w2, m2) ->
        match String.compare w1 w2 with 0 -> String.compare m1 m2 | c -> c)
      (List.map (fun s -> (s.workload, s.metric)) (base @ fresh))
  in
  let find series (w, m) =
    List.find_opt (fun s -> String.equal s.workload w && String.equal s.metric m) series
  in
  let side = function
    | None -> "-"
    | Some s ->
        let m, q1, q3 = summary s.values in
        Printf.sprintf "%s [%s..%s] n=%d" (Report.number m) (Report.number q1)
          (Report.number q3) (List.length s.values)
  in
  Printf.printf "%-15s %-26s %-42s %-42s %s\n" "workload" "metric" "base median [q1..q3]"
    "new median [q1..q3]" "verdict";
  let failures = ref 0 in
  List.iter
    (fun key ->
      let b = find base key and n = find fresh key in
      let bound s =
        List.find_opt (fun (name, _, _, _) -> String.equal name s.metric) spec.end_to_end
      in
      let verdict =
        match (b, n) with
        | Some b, Some n when b.exact && n.exact -> exact_verdict b.values n.values
        | Some b, Some n -> (
            match bound b with
            | Some (_, _, lower, bound) -> bounded_verdict ~lower ~bound b.values n.values
            | None -> "")
        | None, Some _ -> "new"
        (* An unbounded wall row, such as a TCP step the new sweep did
           not reach, carries no verdict either way. *)
        | Some b, None when b.exact || Option.is_some (bound b) -> "MISSING"
        | Some _, None | None, None -> ""
      in
      if
        List.exists (String.equal verdict) [ "REGRESSED"; "CHANGED"; "MISSING" ]
      then incr failures;
      Printf.printf "%-15s %-26s %-42s %-42s %s\n" (fst key) (snd key) (side b) (side n)
        verdict)
    keys;
  !failures
