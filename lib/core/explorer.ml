type step = { action : string; label : string; state : State.t }

type stats = {
  states : int;
  transitions : int;
  depth : int;
  complete : bool;
}

type result =
  | Pass of stats
  | Violation of { invariant : string; trace : step list; stats : stats }

(* Predecessor map entry: how we first reached a state. *)
type crumb = Root | Via of State.t * string * string

let rebuild_trace crumbs last =
  let rec go acc s =
    match State.Map.find s crumbs with
    | Root -> { action = "Init"; label = ""; state = s } :: acc
    | Via (prev, action, label) -> go ({ action; label; state = s } :: acc) prev
  in
  go [] last

let search (type a) ?(max_states = 1_000_000) ~on_state ~on_transition
    (spec : Spec.t) =
  let crumbs = ref State.Map.empty in
  let queue = Queue.create () in
  let states = ref 0 in
  let transitions = ref 0 in
  let depth_reached = ref 0 in
  let complete = ref true in
  let stats () =
    {
      states = !states;
      transitions = !transitions;
      depth = !depth_reached;
      complete = !complete;
    }
  in
  let exception Stop of a in
  let stop_on = function Some x -> raise (Stop x) | None -> () in
  let visit s crumb depth =
    if not (State.Map.mem s !crumbs) then begin
      if !states >= max_states then complete := false
      else begin
        crumbs := State.Map.add s crumb !crumbs;
        incr states;
        if depth > !depth_reached then depth_reached := depth;
        stop_on (on_state s ~trace:(fun () -> rebuild_trace !crumbs s));
        Queue.add (s, depth) queue
      end
    end
  in
  try
    List.iter (fun s -> visit s Root 0) spec.init;
    while not (Queue.is_empty queue) do
      let s, depth = Queue.pop queue in
      (* Applied once per state, so the callback can share work across
         the state's transitions. *)
      let obligation =
        on_transition s ~trace:(fun () -> rebuild_trace !crumbs s)
      in
      List.iter
        (fun ((action, label, s') as t) ->
          if not (Spec.well_formed_transition spec s') then
            invalid_arg
              (Fmt.str "Explorer: action %s of %s produced ill-formed state"
                 action spec.name);
          incr transitions;
          stop_on (obligation t);
          visit s' (Via (s, action, label)) (depth + 1))
        (Spec.successors spec s)
    done;
    (None, stats ())
  with Stop x -> (Some x, stats ())

let check ?max_states ~invariants spec =
  let on_state s ~trace =
    List.find_opt (fun (_, p) -> not (p s)) invariants
    |> Option.map (fun (name, _) -> (name, trace ()))
  in
  match
    search ?max_states ~on_state ~on_transition:(fun _ ~trace:_ _ -> None) spec
  with
  | None, stats -> Pass stats
  | Some (invariant, trace), stats -> Violation { invariant; trace; stats }

let within (spec : Spec.t) ~max_hops start () =
  let seen = ref (State.Set.singleton start) in
  let queue = Queue.create () in
  (* Successors are yielded as they are discovered, so a consumer that
     stops at its first match never expands the states queued after it. *)
  let rec expand () =
    match Queue.take_opt queue with
    | None -> Seq.Nil
    | Some (s, rev_path, hops) ->
        discover rev_path hops (Spec.successors spec s) ()
  and discover rev_path hops succs () =
    match succs with
    | [] -> expand ()
    | (action, _, s') :: rest ->
        if State.Set.mem s' !seen then discover rev_path hops rest ()
        else begin
          seen := State.Set.add s' !seen;
          let rev_path' = action :: rev_path in
          if hops + 1 < max_hops then Queue.add (s', rev_path', hops + 1) queue;
          Seq.Cons ((List.rev rev_path', s'), discover rev_path hops rest)
        end
  in
  if max_hops > 0 then Queue.add (start, [], 0) queue;
  Seq.Cons (([], start), expand)

let pp_step ppf { action; label; state } =
  if label = "" then Fmt.pf ppf "@[<v2>%s:@,%a@]" action State.pp state
  else Fmt.pf ppf "@[<v2>%s(%s):@,%a@]" action label State.pp state

let pp_trace ppf steps =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_step) steps

let pp_stats ppf { states; transitions; depth; complete } =
  Fmt.pf ppf "%d states, %d transitions, depth %d%s" states transitions depth
    (if complete then "" else " (bounded)")

let pp_result ppf = function
  | Pass stats -> Fmt.pf ppf "pass: %a" pp_stats stats
  | Violation { invariant; trace; stats } ->
      Fmt.pf ppf "@[<v>invariant %s violated (%a):@,%a@]" invariant pp_stats
        stats pp_trace trace
