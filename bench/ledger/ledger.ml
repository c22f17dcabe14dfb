(* The performance ledger's command line.

     ledger.exe run     [--seed N] [--workload W] [--json FILE] [--smoke]
     ledger.exe trace   [--seed N] [--workload W] [--json FILE] [--trace-out DIR]
     ledger.exe compare BASE.json NEW.json
     ledger.exe bench   --workload W --seed N --seconds S --trace 0|1

   [run] prints the end-to-end rows, [trace] the per-layer rows, as
   "workload metric value unit kind" lines.  [--json] appends the run to
   a JSON array that [compare] reads; bounds come from BENCHMARK.json
   ([--bench FILE] to use another).  [bench] measures one workload for S
   seconds and ends with the one-line JSON result the benchmark driver
   reads.  [once] is the per-process run the others re-execute. *)

let usage () =
  prerr_string
    "usage: ledger.exe run [--seed N] [--workload W] [--json FILE] [--smoke]\n\
    \       ledger.exe trace [--seed N] [--workload W] [--json FILE] [--trace-out DIR]\n\
    \       ledger.exe compare BASE.json NEW.json\n\
    \       ledger.exe bench --workload W --seed N --seconds S --trace 0|1\n\
    \  common: [--bench BENCHMARK.json]\n";
  exit 2

type opts = {
  mutable seed : int;
  mutable workload : string option;
  mutable json : string option;
  mutable smoke : bool;
  mutable bench_file : string;
  mutable seconds : float option;
  mutable traced : bool;
  mutable trace_out : string option;
  mutable positional : string list;
}

let parse args =
  let o =
    {
      seed = 1;
      workload = None;
      json = None;
      smoke = false;
      bench_file = "BENCHMARK.json";
      seconds = None;
      traced = false;
      trace_out = None;
      positional = [];
    }
  in
  let int_arg flag v = match int_of_string_opt v with Some i -> i | None -> failwith ("bad " ^ flag) in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        o.seed <- int_arg "--seed" v;
        go rest
    | "--workload" :: w :: rest ->
        if not (List.exists (String.equal w) Workloads.names) then
          failwith ("unknown workload " ^ w);
        o.workload <- Some w;
        go rest
    | "--json" :: f :: rest ->
        o.json <- Some f;
        go rest
    | "--bench" :: f :: rest ->
        o.bench_file <- f;
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> o.seconds <- Some s
        | _ -> failwith "bad --seconds");
        go rest
    | "--trace" :: v :: rest ->
        o.traced <- int_arg "--trace" v <> 0;
        go rest
    | "--trace-out" :: d :: rest ->
        o.trace_out <- Some d;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | a :: _ when String.length a > 1 && Char.equal a.[0] '-' -> failwith ("unknown flag " ^ a)
    | a :: rest ->
        o.positional <- a :: o.positional;
        go rest
  in
  (try go args
   with Failure msg ->
     prerr_endline ("ledger.exe: " ^ msg);
     usage ());
  o.positional <- List.rev o.positional;
  o

let print_result (r : Report.result) =
  List.iter (fun m -> print_endline (Report.line ~workload:r.Report.workload m)) r.Report.metrics;
  List.iter
    (fun p -> Printf.eprintf "ledger: %s: %s\n" r.Report.workload p)
    r.Report.problems;
  flush stdout

let append_json path ~seed ~smoke results =
  let run =
    Raftpax_telemetry.Json.Obj
      [
        ("seed", Int seed);
        ("smoke", Bool smoke);
        ("workloads", List (List.map Report.result_json results));
      ]
  in
  let previous =
    if Sys.file_exists path then Report.to_list (Report.parse (Report.read_file path))
    else []
  in
  Report.write_file path (Report.to_string (List (previous @ [ run ])) ^ "\n")

let selected o = match o.workload with Some w -> [ w ] | None -> Workloads.names

let measure_all o ~mode ~traced ws =
  List.map
    (fun workload ->
      let r = Workloads.measure ~workload ~mode ~seed:o.seed ~traced ~trace_out:o.trace_out in
      print_result r;
      r)
    ws

(* The smoke's assertions: a second pass agrees on every exact row, and
   every BENCHMARK.json metric is printed with its unit. *)
let smoke_problems o ~first ~second ~traced =
  let spec = Compare.load_spec o.bench_file in
  let exact_drift =
    List.concat_map
      (fun (a : Report.result) ->
        match
          List.find_opt (fun (b : Report.result) -> String.equal a.workload b.workload) second
        with
        | None -> []
        | Some b ->
            List.filter_map
              (fun (m : Report.metric) ->
                match (m.kind, Report.find m.name b.metrics) with
                | Report.Exact, Some m' when not (Float.equal m.value m'.value) ->
                    Some (Printf.sprintf "%s %s: %s then %s" a.workload m.name
                            (Report.number m.value) (Report.number m'.value))
                | _ -> None)
              a.metrics)
      first
  in
  let missing results wanted =
    List.concat_map
      (fun (r : Report.result) ->
        List.filter_map
          (fun (name, unit_) ->
            match Report.find name r.metrics with
            | Some m when String.equal m.unit_ unit_ -> None
            | Some m -> Some (Printf.sprintf "%s %s in %s, not %s" r.workload name m.unit_ unit_)
            | None -> Some (Printf.sprintf "%s does not print %s" r.workload name))
          wanted)
      results
  in
  exact_drift
  @ missing first (List.map (fun (n, u, _, _) -> (n, u)) spec.Compare.end_to_end)
  @ missing traced spec.Compare.per_layer

let finish o results ~extra_problems =
  Option.iter (fun path -> append_json path ~seed:o.seed ~smoke:o.smoke results) o.json;
  List.iter (fun p -> Printf.eprintf "ledger: smoke: %s\n" p) extra_problems;
  let ok =
    List.for_all (fun (r : Report.result) -> r.correct) results
    && List.is_empty extra_problems
  in
  exit (if ok then 0 else 1)

let run_cmd o =
  let ws = selected o in
  if o.smoke then begin
    let first = measure_all o ~mode:Workloads.Smoke ~traced:false ws in
    let traced = measure_all o ~mode:Workloads.Smoke ~traced:true ws in
    (* The TCP rows are all wall-clock: nothing for a second pass to
       reproduce. *)
    let second =
      measure_all o ~mode:Workloads.Smoke ~traced:false
        (List.filter (fun w -> not (String.equal w "tcp-loopback")) ws)
    in
    finish o (first @ traced) ~extra_problems:(smoke_problems o ~first ~second ~traced)
  end
  else finish o (measure_all o ~mode:Workloads.Ledger ~traced:false ws) ~extra_problems:[]

let trace_cmd o =
  let mode = if o.smoke then Workloads.Smoke else Workloads.Ledger in
  finish o (measure_all o ~mode ~traced:true (selected o)) ~extra_problems:[]

(* The benchmark driver's entry: the JSON line holds exactly the
   BENCHMARK.json metrics of the requested kind. *)
let bench_cmd o =
  let workload, seconds =
    match (o.workload, o.seconds) with
    | Some w, Some s -> (w, s)
    | _ -> usage ()
  in
  let spec = Compare.load_spec o.bench_file in
  let wanted =
    if o.traced then spec.Compare.per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) spec.Compare.end_to_end
  in
  let r =
    Workloads.measure ~workload ~mode:(Workloads.Bench seconds) ~seed:o.seed
      ~traced:o.traced ~trace_out:o.trace_out
  in
  print_result r;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match Report.find name r.metrics with
        | Some m when String.equal m.unit_ unit_ && Float.is_finite m.value ->
            ( name,
              Raftpax_telemetry.Json.Obj [ ("value", Float m.value); ("unit", String unit_) ] )
        | Some _ | None ->
            Printf.eprintf "ledger: %s: no finite %s in %s\n" workload name unit_;
            exit 1)
      wanted
  in
  print_endline
    (Report.to_string
       (Obj
          [
            ("correct", Bool r.correct);
            ("attempted", Int (max 1 r.attempted));
            ("failed", Int r.failed);
            ("metrics", Obj metrics);
          ]))

let once_cmd o =
  match o.positional with
  | [ workload ] -> (
      let mode =
        if o.smoke then Workloads.Smoke
        else match o.seconds with Some s -> Workloads.Bench s | None -> Workloads.Ledger
      in
      match
        Workloads.once ~workload ~mode ~seed:o.seed ~traced:o.traced ~trace_out:o.trace_out
      with
      | r -> Workloads.print_run ~workload r
      | exception e ->
          Printf.printf "problem %s\n%!" (Printexc.to_string e);
          exit 1)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd (parse args)
  | "trace" :: args -> trace_cmd (parse args)
  | "bench" :: args -> bench_cmd (parse args)
  | "once" :: args -> once_cmd (parse args)
  | "compare" :: args -> (
      let o = parse args in
      match o.positional with
      | [ base_path; new_path ] ->
          exit
            (if Compare.run ~spec_path:o.bench_file ~base_path ~new_path > 0 then 1 else 0)
      | _ -> usage ())
  | _ -> usage ()
