type clause = {
  reads : string list;
  extra_guard : a_view:State.t -> d_state:State.t -> label:string -> bool;
  extra_update :
    a_view:State.t ->
    a_view':State.t ->
    d_state:State.t ->
    label:string ->
    State.t;
}

type item =
  | Added of {
      name : string;
      descr : string;
      enum : a_view:State.t -> d_state:State.t -> (string * State.t) list;
    }
  | Modified of { base : string; clause : clause }

type t = {
  name : string;
  delta_vars : string list;
  delta_init : State.t;
  items : item list;
}

let make ~name ~delta_vars ~delta_init items =
  let delta_vars = List.sort_uniq String.compare delta_vars in
  if State.vars delta_init <> delta_vars then
    invalid_arg
      (Fmt.str "Delta.make %s: delta_init must bind exactly the delta vars"
         name);
  { name; delta_vars; delta_init; items }

let added ?(descr = "") name enum = Added { name; descr; enum }

let modified ~base ?(reads = [])
    ?(guard = fun ~a_view:_ ~d_state:_ ~label:_ -> true) extra_update =
  Modified { base; clause = { reads; extra_guard = guard; extra_update } }

let pp ppf t =
  let pp_item ppf = function
    | Added { name; descr; _ } ->
        if descr = "" then Fmt.pf ppf "added %s" name
        else Fmt.pf ppf "added %s  (* %s *)" name descr
    | Modified { base; clause } ->
        Fmt.pf ppf "modified %s (reads %a)" base
          Fmt.(list ~sep:comma string)
          clause.reads
  in
  Fmt.pf ppf "@[<v>delta %s@,new vars: %a@,%a@]" t.name
    Fmt.(list ~sep:comma string)
    t.delta_vars
    Fmt.(list ~sep:cut pp_item)
    t.items
