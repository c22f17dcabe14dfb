(* Probe is declared but has no wire coverage anywhere — wire-coverage
   must fire listing all four missing facets. *)
type msg =
  | Append of { term : int }
  | Ack of { from : int }
  | Probe of int
  | Internal [@lint.allow "wire-coverage" "never crosses the wire"]

let handle m =
  match m with Append _ -> 1 | Ack _ -> 2 | Probe _ -> 4 | Internal -> 3

let make_probes c =
  ignore (c "elections");
  ignore (c "leader_wins");
  ignore (c "term_changes");
  ignore (c "heartbeats");
  ignore (c "appends_sent");
  ignore (c "forwards")
