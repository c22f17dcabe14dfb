(* perflint fixture: length-in-hot-path.
   Under lib/consensus/ the [handle] binding is hot by name, so the
   expected count is 3 there and 2 elsewhere under lib/; the Net.nodes
   special case fires anywhere under lib/.  Cold code never fires. *)

let cold xs = List.length xs

let[@perf.hot] tally xs = List.length xs

let handle _st xs = List.nth xs 0

let cluster_size net = List.length (Net.nodes net)

let[@perf.hot] tally_allowed xs =
  (List.length xs [@lint.allow "length-in-hot-path"])
