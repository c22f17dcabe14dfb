(* The lint driver: every registry pass, one flag surface, one exit
   code.  The summary lines count files per pass so a pass that
   silently scanned nothing is visible in the log. *)

let main () =
  let list_rules = ref false in
  let json = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--list-rules",
        Arg.Set list_rules,
        " print every pass's rule table and exit" );
      ( "--json",
        Arg.Set json,
        " print the merged findings as a JSON array on stdout" );
    ]
  in
  Arg.parse spec
    (fun p -> paths := p :: !paths)
    "lint [--list-rules] [--json] [paths...]";
  if !list_rules then begin
    List.iter
      (fun (p : Registry.pass) ->
        List.iter
          (fun (r : Lint.rule) ->
            Printf.printf "%-8s %-24s %-7s %s\n" p.tool r.id
              (Finding.severity_name r.severity)
              r.summary)
          p.rules)
      Registry.passes;
    exit 0
  end;
  let paths = List.rev !paths in
  let results =
    List.map
      (fun (p : Registry.pass) ->
        let sources =
          Lint.sources (match paths with [] -> p.default_paths | ps -> ps)
        in
        (p.tool, List.length sources, p.lint sources))
      Registry.passes
  in
  let findings =
    List.sort Finding.compare (List.concat_map (fun (_, _, fs) -> fs) results)
  in
  if !json then print_endline (Finding.render_json findings)
  else begin
    List.iter (fun f -> print_endline (Finding.render f)) findings;
    List.iter
      (fun (tool, files, fs) ->
        Printf.printf "%s: %d file(s), %d finding(s)\n" tool files
          (List.length fs))
      results
  end;
  exit (if findings = [] then 0 else 1)
