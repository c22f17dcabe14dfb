(* Fixture: a floating [@@@lint.allow] silences the named rules, of
   detlint and perflint alike, for the whole file.  Expected hits: 0
   when linted as lib/fx_allow.ml. *)

[@@@lint.allow "forbidden-effects" "escaping-mutable-state"]

let silenced_random () = Random.int 6
let silenced_state = ref []
let absorb extras = silenced_state := extras @ !silenced_state

[@@@lint.allow "quadratic-accumulate" "length-in-hot-path"]

let[@perf.hot] tally xs = List.length xs
