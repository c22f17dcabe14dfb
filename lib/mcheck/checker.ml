type violation = {
  v_schedule : Model.choice list;
  v_reason : string;
  v_trace : string list;
}

type result = {
  r_scenario : string;
  r_states : int;
  r_transitions : int;
  r_complete : bool;
  r_goal_reached : bool;
  r_goal_schedule : Model.choice list option;
  r_prefix_len : int;
  r_violation : violation option;
}

let ok r = r.r_violation = None

(* Rebuild a world and replay a schedule.  [rev_suffix] is the BFS
   frontier's reversed cons-list — prefixes share structure, so a
   frontier of thousands of states stays cheap. *)
let replay sc prefix rev_suffix =
  let w = Model.build sc in
  List.iter (Model.apply w) prefix;
  List.iter (Model.apply w) (List.rev rev_suffix);
  w

(* Narrated re-execution of a schedule, for counterexample reports and
   the CLI's --replay.  One line per choice: what ran, then any oracle
   state it produced. *)
let narrate sc schedule =
  let w = Model.build sc in
  let lines = ref [] in
  let note l = lines := l :: !lines in
  List.iter
    (fun c ->
      let what = Model.describe w c in
      Model.apply w c;
      note
        (Printf.sprintf "%-12s %s" (Model.render_choice c) what);
      match Model.violation w with
      | Some v -> note (Printf.sprintf "  !! %s" v)
      | None -> ())
    schedule;
  List.rev !lines

(* The scripted prefix: run the scenario's policy to quiescence once,
   recording its choices.  Exploration budgets start counting after it,
   so a policy may spend faults freely to reach the interesting region. *)
let compute_prefix sc =
  match sc.Model.sc_policy with
  | None -> []
  | Some policy ->
      let w = Model.build sc in
      let rec go acc =
        match policy w with
        | Some c ->
            Model.apply w c;
            go (c :: acc)
        | None -> List.rev acc
      in
      go []

let check ?(max_states = 200_000) ?(max_depth = 60) sc =
  let prefix = compute_prefix sc in
  let w0 = replay sc prefix [] in
  (* Budgets count from the post-prefix baseline. *)
  let timer_budget = sc.Model.sc_timer_budget + Model.timers_fired w0 in
  let crash_budget = sc.Model.sc_crash_budget + Model.crashes w0 in
  let visited = Hashtbl.create 4096 in
  let frontier = Queue.create () in
  let states = ref 0 in
  let transitions = ref 0 in
  let complete = ref true in
  let goal_schedule = ref None in
  let violation = ref None in
  let record_violation rev_suffix reason =
    let schedule = prefix @ List.rev rev_suffix in
    violation :=
      Some { v_schedule = schedule; v_reason = reason; v_trace = narrate sc schedule }
  in
  (match Model.violation w0 with
  | Some v -> record_violation [] v
  | None -> ());
  Hashtbl.replace visited (Model.fingerprint w0) ();
  incr states;
  if Model.goal_reached w0 then goal_schedule := Some prefix
  else Queue.push ([], 0) frontier;
  while !violation = None && not (Queue.is_empty frontier) do
    let rev_suffix, depth = Queue.pop frontier in
    let w = replay sc prefix rev_suffix in
    let cs = Model.choices ~timer_budget ~crash_budget w in
    if depth >= max_depth && cs <> [] then complete := false
    else
      List.iter
        (fun c ->
          if !violation = None then begin
            let w' = replay sc prefix rev_suffix in
            let before = Model.mono_views w' in
            Model.apply w' c;
            incr transitions;
            let after = Model.mono_views w' in
            match
              match Model.violation w' with
              | Some v -> Some v
              | None -> Model.mono_regression ~before ~after
            with
            | Some v -> record_violation (c :: rev_suffix) v
            | None ->
                let fp = Model.fingerprint w' in
                if not (Hashtbl.mem visited fp) then begin
                  Hashtbl.replace visited fp ();
                  incr states;
                  if Model.goal_reached w' then begin
                    (* BFS order: the first goal hit is (one of) the
                       shortest.  Goal states are not expanded. *)
                    if !goal_schedule = None then
                      goal_schedule := Some (prefix @ List.rev (c :: rev_suffix))
                  end
                  else if !states >= max_states then complete := false
                  else Queue.push (c :: rev_suffix, depth + 1) frontier
                end
          end)
        cs
  done;
  if !violation <> None then complete := false;
  {
    r_scenario = sc.Model.sc_name;
    r_states = !states;
    r_transitions = !transitions;
    r_complete = !complete;
    r_goal_reached = !goal_schedule <> None;
    r_goal_schedule = !goal_schedule;
    r_prefix_len = List.length prefix;
    r_violation = !violation;
  }

let pp_result ppf r =
  match r.r_violation with
  | Some v ->
      Fmt.pf ppf
        "@[<v>%s: VIOLATION after %d states (%d transitions)@,reason: %s@,schedule: %s@,%a@]"
        r.r_scenario r.r_states r.r_transitions v.v_reason
        (Model.render_schedule v.v_schedule)
        Fmt.(list ~sep:cut string)
        v.v_trace
  | None ->
      Fmt.pf ppf "%s: ok states=%d transitions=%d complete=%b goal=%b%s"
        r.r_scenario r.r_states r.r_transitions r.r_complete r.r_goal_reached
        (match r.r_goal_schedule with
        | Some s ->
            Printf.sprintf " goal_depth=%d" (List.length s - r.r_prefix_len)
        | None -> "")
