let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let step spec state ~action ~label =
  let a = Spec.find_action spec action in
  match
    List.filter (fun (l, _) -> starts_with ~prefix:label l) (a.Action.enum state)
  with
  | [ (_, s') ] -> s'
  | [] ->
      let enabled = List.map fst (a.Action.enum state) in
      failwith
        (Fmt.str "Scenario.step: %s(%s) not enabled; enabled labels: %a" action
           label
           Fmt.(list ~sep:comma string)
           enabled)
  | matches ->
      failwith
        (Fmt.str "Scenario.step: %s(%s) ambiguous: %a" action label
           Fmt.(list ~sep:comma string)
           (List.map fst matches))

let run spec state picks =
  List.fold_left
    (fun s (action, label) -> step spec s ~action ~label)
    state picks
