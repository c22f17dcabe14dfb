(* perflint fixture: assoc-scan.  3 positives in [@perf.hot] functions;
   the cold copy and the suppressed site stay silent. *)

let[@perf.hot] lookup tbl k = List.assoc k tbl
let[@perf.hot] holds tbl k = List.mem_assoc k tbl
let[@perf.hot] scan xs p = List.find_opt p xs
let cold tbl k = List.assoc k tbl

let[@perf.hot] lookup_allowed tbl k =
  (List.assoc k tbl [@lint.allow "assoc-scan"])
