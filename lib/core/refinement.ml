type failure = {
  kind : [ `Init | `Transition ];
  b_state : State.t;
  b_action : string;
  b_label : string;
  b_state' : State.t;
  a_state : State.t;
  a_state' : State.t;
  b_trace : Explorer.step list;
}

type report = {
  checked_states : int;
  checked_transitions : int;
  stuttering : int;
  complete : bool;
  action_map : (string * (string * int) list) list;
}

type result = Refines of report | Fails of failure * report

let path_to a' =
  Seq.find_map (fun (path, s) -> if State.equal s a' then Some path else None)

let discharge ~high ~max_hops a a' = path_to a' (Explorer.within high ~max_hops a)

let check ?max_states ?(max_hops = 1) ~(low : Spec.t) ~(high : Spec.t) ~map ()
    =
  let stuttering = ref 0 in
  let action_map : (string, (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let note_implication b_action a_action =
    let tbl =
      match Hashtbl.find_opt action_map b_action with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 4 in
          Hashtbl.add action_map b_action tbl;
          tbl
    in
    Hashtbl.replace tbl a_action
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a_action))
  in
  let report (stats : Explorer.stats) =
    {
      checked_states = stats.states;
      checked_transitions = stats.transitions;
      stuttering = !stuttering;
      complete = stats.complete;
      action_map =
        Hashtbl.fold
          (fun b tbl acc ->
            ( b,
              List.of_seq (Hashtbl.to_seq tbl)
              |> List.sort (fun (a, _) (b, _) -> String.compare a b) )
            :: acc)
          action_map []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    }
  in
  let init_image_missing s = not (List.exists (State.equal (map s)) high.init) in
  match List.find_opt init_image_missing low.init with
  | Some s ->
      let a = map s in
      Fails
        ( {
            kind = `Init;
            b_state = s;
            b_action = "";
            b_label = "";
            b_state' = s;
            a_state = a;
            a_state' = a;
            b_trace = [ { Explorer.action = "Init"; label = ""; state = s } ];
          },
          report { states = 0; transitions = 0; depth = 0; complete = true } )
  | None -> (
      (* The section 4.1 obligation on every low transition: its image is
         a stutter or a run of at most [max_hops] high steps. *)
      let on_transition s ~trace =
        let a_state = map s in
        (* Every transition out of [s] searches from [f s]: share it. *)
        let implied = Seq.memoize (Explorer.within high ~max_hops a_state) in
        fun (b_action, b_label, s') ->
          let a_state' = map s' in
          match path_to a_state' implied with
          | Some [] ->
              incr stuttering;
              note_implication b_action "(stutter)";
              None
          | Some path ->
              note_implication b_action (String.concat "+" path);
              None
          | None ->
              Some
                {
                  kind = `Transition;
                  b_state = s;
                  b_action;
                  b_label;
                  b_state' = s';
                  a_state;
                  a_state';
                  b_trace = trace ();
                }
      in
      match
        Explorer.search ?max_states
          ~on_state:(fun _ ~trace:_ -> None)
          ~on_transition low
      with
      | None, stats -> Refines (report stats)
      | Some f, stats -> Fails (f, report stats))

let pp_report ppf r =
  let pp_entry ppf (b, als) =
    Fmt.pf ppf "%s => %a" b
      Fmt.(list ~sep:comma (fun ppf (a, n) -> Fmt.pf ppf "%s(%d)" a n))
      als
  in
  Fmt.pf ppf
    "@[<v>%d states, %d transitions (%d stuttering)%s@,action map:@,  %a@]"
    r.checked_states r.checked_transitions r.stuttering
    (if r.complete then "" else " (bounded)")
    Fmt.(list ~sep:(any "@,  ") pp_entry)
    r.action_map

let pp_result ppf = function
  | Refines r -> Fmt.pf ppf "@[<v>refines:@,%a@]" pp_report r
  | Fails (f, r) ->
      let what =
        match f.kind with
        | `Init -> "initial state has no image in high-level init"
        | `Transition -> "transition has no high-level counterpart"
      in
      Fmt.pf ppf
        "@[<v>refinement FAILS: %s@,\
         low action: %s(%s)@,\
         low state:@,  %a@,\
         low state':@,  %a@,\
         mapped state:@,  %a@,\
         mapped state':@,  %a@,\
         low trace (%d steps)@,\
         %a@]"
        what f.b_action f.b_label State.pp f.b_state State.pp f.b_state'
        State.pp f.a_state State.pp f.a_state'
        (List.length f.b_trace) pp_report r
