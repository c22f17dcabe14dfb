(* perflint fixture: sort-in-loop.  2 positives — one in a [@perf.hot]
   function, one inside a for loop in a cold function. *)

let[@perf.hot] frontier xs = List.sort Int.compare xs

let busy xs n =
  for _ = 1 to n do
    Array.sort Int.compare xs
  done

let cold xs = List.sort Int.compare xs

let[@perf.hot] frontier_allowed xs =
  (List.sort Int.compare xs [@lint.allow "sort-in-loop"])
