(* parlint: the cross-protocol parity pass.  detlint and perflint judge
   one file at a time; parlint parses the whole tree into a fact base
   and cross-references ASTs *across* files, because the property it
   guards is inherently global: the paper's porting discipline says the
   three runtimes are structurally parallel, so a message constructor,
   config knob, telemetry probe or mcheck scope that exists for one
   protocol and not the others is drift, not design.

   Like its siblings this is surface syntax only (compiler-libs
   Parsetree, no typing), so every judgement is containment-shaped and
   conservative: "constructor X appears in a pattern inside a binding
   whose name mentions the protocol".  Sites that are asymmetric on
   purpose carry [@lint.allow "rule-id" "reason"] — the second string
   is the human justification and is ignored by the checker. *)

open Parsetree
module SSet = Set.Make (String)

let r_wire = "wire-coverage"
let r_knob = "knob-threading"
let r_handler = "handler-parity"
let r_probe = "probe-parity"
let r_scenario = "scenario-parity"
let r_parse = "parse-error"

let rules : Lint.rule list =
  [
    {
      id = r_wire;
      severity = Finding.Error;
      summary =
        "every consensus msg constructor needs the full porting kit: an \
         encode and a decode case in lib/netcore, a QCheck generator and \
         a golden byte vector in test_netcore.ml";
      applies = Lint.everywhere;
    };
    {
      id = r_knob;
      severity = Finding.Error;
      summary =
        "every Types.params field must be threaded through all six config \
         surfaces: Harness.config, Shard.config + its JSON emitter, \
         Nemesis.config, and bench/main.ml";
      applies = Lint.everywhere;
    };
    {
      id = r_handler;
      severity = Finding.Error;
      summary =
        "family-shared message roles (replicate/ack/commit) must exist \
         and be dispatched in all three runtimes";
      applies = Lint.everywhere;
    };
    {
      id = r_probe;
      severity = Finding.Error;
      summary =
        "a telemetry probe registered for a shared event class in one \
         runtime's make_probes must be registered in all three";
      applies = Lint.everywhere;
    };
    {
      id = r_scenario;
      severity = Finding.Error;
      summary =
        "every registered steady-*/crash-* mcheck scenario needs a \
         -batched variant, and every protocol must face the nemesis \
         chaos matrix";
      applies = Lint.everywhere;
    };
  ]

let rule_by_id id = List.find_opt (fun (r : Lint.rule) -> r.id = id) rules

(* ---- the fact base ---- *)

type decl_fact = { d_name : string; d_loc : Location.t; d_allows : string list }

type binding_fact = {
  bf_name : string;
  bf_loc : Location.t;
  bf_allows : string list;
  mutable bf_pat_ctors : SSet.t; (* constructor names matched in patterns *)
  mutable bf_ctors : SSet.t; (* constructor names built in expressions *)
  mutable bf_ctors_q : SSet.t; (* same, module-qualified as "Mod.Name" *)
  mutable bf_strings : SSet.t; (* string literals *)
  mutable bf_idents : SSet.t; (* identifiers and record labels *)
}

type file_fact = {
  ff_path : string;
  mutable ff_msg_ctors : decl_fact list; (* constructors of [type msg] *)
  mutable ff_msg_loc : Location.t option;
  mutable ff_msg_allows : string list;
  mutable ff_proto_ctors : decl_fact list; (* of [type protocol] *)
  mutable ff_params : decl_fact list; (* fields of [type params] *)
  mutable ff_bindings : binding_fact list;
  mutable ff_idents : SSet.t; (* whole-file union *)
  mutable ff_strings : SSet.t;
  mutable ff_ctors : SSet.t;
  mutable ff_pat_ctors : SSet.t;
  mutable ff_allows : string list; (* floating [@@@lint.allow] *)
  mutable ff_parse : Finding.t option;
}

let lid_parts (lid : Longident.t) = try Longident.flatten lid with _ -> []

let qualified parts =
  match List.rev parts with
  | name :: md :: _ -> Some (md ^ "." ^ name)
  | _ -> None

let binding_name pat =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var v -> v.txt
    | Ppat_constraint (p, _) -> go p
    | _ -> "_"
  in
  go pat

(* One iterator collects everything reachable from a top-level binding,
   mirroring it into the file-level sets as it goes. *)
let collect_into (ff : file_fact) (bf : binding_fact) =
  let add_ident s =
    bf.bf_idents <- SSet.add s bf.bf_idents;
    ff.ff_idents <- SSet.add s ff.ff_idents
  in
  let add_ctor parts =
    (match List.rev parts with
    | name :: _ ->
        bf.bf_ctors <- SSet.add name bf.bf_ctors;
        ff.ff_ctors <- SSet.add name ff.ff_ctors
    | [] -> ());
    match qualified parts with
    | Some q ->
        bf.bf_ctors_q <- SSet.add q bf.bf_ctors_q;
        ff.ff_ctors <- SSet.add q ff.ff_ctors
    | None -> ()
  in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_construct (lid, _) -> add_ctor (lid_parts lid.txt)
    | Pexp_ident lid ->
        let parts = lid_parts lid.txt in
        add_ident (Lint.last parts);
        if List.length parts > 1 then add_ident (String.concat "." parts)
    | Pexp_field (_, lid) | Pexp_setfield (_, lid, _) ->
        add_ident (Lint.last (lid_parts lid.txt))
    | Pexp_record (fields, _) ->
        List.iter
          (fun (lid, _) -> add_ident (Lint.last (lid_parts lid.Location.txt)))
          fields
    | Pexp_constant (Pconst_string (s, _, _)) ->
        bf.bf_strings <- SSet.add s bf.bf_strings;
        ff.ff_strings <- SSet.add s ff.ff_strings
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let pat sub p =
    (match p.ppat_desc with
    | Ppat_construct (lid, _) -> (
        (match List.rev (lid_parts lid.txt) with
        | name :: _ ->
            bf.bf_pat_ctors <- SSet.add name bf.bf_pat_ctors;
            ff.ff_pat_ctors <- SSet.add name ff.ff_pat_ctors
        | [] -> ());
        match qualified (lid_parts lid.txt) with
        | Some q -> bf.bf_pat_ctors <- SSet.add q bf.bf_pat_ctors
        | None -> ())
    | Ppat_record (fields, _) ->
        List.iter
          (fun (lid, _) -> add_ident (Lint.last (lid_parts lid.Location.txt)))
          fields
    | Ppat_var v -> add_ident v.txt
    | _ -> ());
    Ast_iterator.default_iterator.pat sub p
  in
  { Ast_iterator.default_iterator with expr; pat }

let record_type_decl (ff : file_fact) (td : type_declaration) =
  let decl_of_ctor (cd : constructor_declaration) =
    {
      d_name = cd.pcd_name.txt;
      d_loc = cd.pcd_loc;
      d_allows = Lint.allows_of_attrs cd.pcd_attributes;
    }
  in
  let decl_of_label (ld : label_declaration) =
    ff.ff_idents <- SSet.add ld.pld_name.txt ff.ff_idents;
    {
      d_name = ld.pld_name.txt;
      d_loc = ld.pld_loc;
      d_allows = Lint.allows_of_attrs ld.pld_attributes;
    }
  in
  (* Fact lists accumulate by cons and are reversed once at the end of
     [extract]. *)
  match (td.ptype_name.txt, td.ptype_kind) with
  | "msg", Ptype_variant cds ->
      List.iter
        (fun cd -> ff.ff_msg_ctors <- decl_of_ctor cd :: ff.ff_msg_ctors)
        cds;
      ff.ff_msg_loc <- Some td.ptype_loc;
      List.iter
        (fun a -> ff.ff_msg_allows <- a :: ff.ff_msg_allows)
        (Lint.allows_of_attrs td.ptype_attributes)
  | "protocol", Ptype_variant cds ->
      List.iter
        (fun cd -> ff.ff_proto_ctors <- decl_of_ctor cd :: ff.ff_proto_ctors)
        cds
  | "params", Ptype_record lds ->
      List.iter
        (fun ld -> ff.ff_params <- decl_of_label ld :: ff.ff_params)
        lds
  | _, Ptype_variant cds ->
      List.iter
        (fun (cd : constructor_declaration) ->
          ff.ff_idents <- SSet.add cd.pcd_name.txt ff.ff_idents)
        cds
  | _, Ptype_record lds -> ignore (List.map decl_of_label lds)
  | _ -> ()

let rec record_structure (ff : file_fact) (items : structure) =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let bf =
                {
                  bf_name = binding_name vb.pvb_pat;
                  bf_loc = vb.pvb_loc;
                  bf_allows = Lint.allows_of_attrs vb.pvb_attributes;
                  bf_pat_ctors = SSet.empty;
                  bf_ctors = SSet.empty;
                  bf_ctors_q = SSet.empty;
                  bf_strings = SSet.empty;
                  bf_idents = SSet.empty;
                }
              in
              let it = collect_into ff bf in
              it.pat it vb.pvb_pat;
              it.expr it vb.pvb_expr;
              ff.ff_bindings <- bf :: ff.ff_bindings)
            vbs
      | Pstr_type (_, tds) -> List.iter (record_type_decl ff) tds
      | Pstr_attribute a when a.attr_name.txt = "lint.allow" ->
          List.iter
            (fun al -> ff.ff_allows <- al :: ff.ff_allows)
            (Lint.allows_of_attrs [ a ])
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          record_structure ff s
      | _ -> ())
    items

let extract ~filename source =
  let file = Lint.normalize_path filename in
  let ff =
    {
      ff_path = file;
      ff_msg_ctors = [];
      ff_msg_loc = None;
      ff_msg_allows = [];
      ff_proto_ctors = [];
      ff_params = [];
      ff_bindings = [];
      ff_idents = SSet.empty;
      ff_strings = SSet.empty;
      ff_ctors = SSet.empty;
      ff_pat_ctors = SSet.empty;
      ff_allows = [];
      ff_parse = None;
    }
  in
  (match
     let lb = Lexing.from_string source in
     Location.init lb file;
     Parse.implementation lb
   with
  | structure -> record_structure ff structure
  | exception exn ->
      let line, col =
        match exn with
        | Syntaxerr.Error err ->
            let loc = Syntaxerr.location_of_error err in
            ( loc.loc_start.pos_lnum,
              loc.loc_start.pos_cnum - loc.loc_start.pos_bol )
        | _ -> (1, 0)
      in
      ff.ff_parse <-
        Some
          {
            Finding.file;
            line;
            col;
            rule = r_parse;
            severity = Finding.Error;
            message = "source does not parse: " ^ Printexc.to_string exn;
          });
  ff.ff_msg_ctors <- List.rev ff.ff_msg_ctors;
  ff.ff_msg_allows <- List.rev ff.ff_msg_allows;
  ff.ff_proto_ctors <- List.rev ff.ff_proto_ctors;
  ff.ff_params <- List.rev ff.ff_params;
  ff.ff_bindings <- List.rev ff.ff_bindings;
  ff.ff_allows <- List.rev ff.ff_allows;
  ff

(* ---- file roles ----

   Role detection is by path segment + basename, so the same rules run
   unchanged over the real tree and over a miniature fixture corpus
   (test/lint_fixtures/parlint_*/lib/consensus/raft.ml plays raft.ml).
   Every rule self-gates on its anchor files being present in the
   scanned corpus: linting bin/ alone finds nothing rather than
   claiming the whole wire layer is missing. *)

let base p = Filename.basename p

let proto_of_file p =
  if not (Lint.in_consensus p) then None
  else
    match base p with
    | "raft.ml" -> Some ("raft", "Raft")
    | "multipaxos.ml" -> Some ("multipaxos", "Multipaxos")
    | "mencius.ml" -> Some ("mencius", "Mencius")
    | _ -> None

let is_netcore p = Lint.in_lib p && Lint.has_segment ~seg:"netcore" p
let is_types p = Lint.in_consensus p && base p = "types.ml"

let is_harness p =
  Lint.in_lib p && Lint.has_segment ~seg:"kvstore" p && base p = "harness.ml"

let is_shard p =
  Lint.in_lib p && Lint.has_segment ~seg:"kvstore" p && base p = "shard.ml"

let is_nemesis_cfg p =
  Lint.in_lib p && Lint.has_segment ~seg:"nemesis" p && base p = "nemesis.ml"

let is_cluster p =
  Lint.in_lib p && Lint.has_segment ~seg:"nemesis" p && base p = "cluster.ml"

let is_bench p = Lint.has_segment ~seg:"bench" p && base p = "main.ml"

let is_scenario p =
  Lint.in_lib p && Lint.has_segment ~seg:"mcheck" p && base p = "scenario.ml"

let is_test_netcore p = base p = "test_netcore.ml"
let is_test_chaos p = base p = "test_chaos.ml"

(* ---- the rules ---- *)

let allowed rule allows = List.mem rule allows || List.mem "all" allows

let finding file (loc : Location.t) rule message =
  {
    Finding.file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule;
    severity = Finding.Error;
    message;
  }

let finding_at file line rule message =
  { Finding.file; line; col = 0; rule; severity = Finding.Error; message }

let in_bindings files pred =
  List.exists (fun f -> List.exists pred f.ff_bindings) files

(* wire-coverage: each constructor of a runtime's [type msg] must be
   matched by an encode binding and built by a decode binding in
   lib/netcore (binding name mentions the protocol), generated by a
   gen_<proto>_msg binding and pinned module-qualified inside a
   golden* binding in test_netcore.ml. *)
let wire_findings facts out =
  let netcore = List.filter (fun f -> is_netcore f.ff_path) facts in
  let tests = List.filter (fun f -> is_test_netcore f.ff_path) facts in
  List.iter
    (fun pf ->
      match proto_of_file pf.ff_path with
      | None -> ()
      | Some (key, modname) ->
          List.iter
            (fun c ->
              let allows = c.d_allows @ pf.ff_msg_allows @ pf.ff_allows in
              if not (allowed r_wire allows) then begin
                let missing = ref [] in
                let need cond what = if not cond then missing := what :: !missing in
                if netcore <> [] then begin
                  need
                    (in_bindings netcore (fun b ->
                         Lint.contains_sub b.bf_name key
                         && SSet.mem c.d_name b.bf_pat_ctors))
                    "an encode case in lib/netcore";
                  need
                    (in_bindings netcore (fun b ->
                         Lint.contains_sub b.bf_name key
                         && SSet.mem c.d_name b.bf_ctors))
                    "a decode case in lib/netcore"
                end;
                if tests <> [] then begin
                  need
                    (in_bindings tests (fun b ->
                         Lint.contains_sub b.bf_name "gen"
                         && Lint.contains_sub b.bf_name key
                         && SSet.mem c.d_name b.bf_ctors))
                    "a QCheck generator case in test_netcore.ml";
                  need
                    (in_bindings tests (fun b ->
                         Lint.contains_sub b.bf_name "golden"
                         && SSet.mem (modname ^ "." ^ c.d_name) b.bf_ctors_q))
                    (Printf.sprintf
                       "a golden byte vector in test_netcore.ml (a golden* \
                        binding mentioning %s.%s)"
                       modname c.d_name)
                end;
                if !missing <> [] then
                  out
                    (finding pf.ff_path c.d_loc r_wire
                       (Printf.sprintf
                          "constructor %s.%s is missing %s: every wire \
                           message carries the full porting kit or an \
                           explicit [@lint.allow \"%s\" \"reason\"]"
                          modname c.d_name
                          (String.concat ", " (List.rev !missing))
                          r_wire))
              end)
            pf.ff_msg_ctors)
    facts

(* knob-threading: a Types.params field is either threaded through all
   six config surfaces (the drift PR 8 chased by hand) or carries a
   reason saying why it is an engine-model constant. *)
let knob_findings facts out =
  let surfaces =
    [
      ("Harness.config", is_harness, `Ident);
      ("Shard.config and its JSON emitter", is_shard, `Ident_and_string);
      ("Nemesis.config", is_nemesis_cfg, `Ident);
      ("a bench/main.ml flag or JSON key", is_bench, `Ident_or_string);
    ]
  in
  List.iter
    (fun tf ->
      if is_types tf.ff_path then
        List.iter
          (fun fld ->
            if not (allowed r_knob (fld.d_allows @ tf.ff_allows)) then begin
              let missing =
                List.filter_map
                  (fun (label, sel, mode) ->
                    match List.filter (fun f -> sel f.ff_path) facts with
                    | [] -> None (* surface not in the scanned corpus *)
                    | files ->
                        let ident f = SSet.mem fld.d_name f.ff_idents in
                        let str f = SSet.mem fld.d_name f.ff_strings in
                        let ok f =
                          match mode with
                          | `Ident -> ident f
                          | `Ident_and_string -> ident f && str f
                          | `Ident_or_string -> ident f || str f
                        in
                        if List.exists ok files then None else Some label)
                  surfaces
              in
              if missing <> [] then
                out
                  (finding tf.ff_path fld.d_loc r_knob
                     (Printf.sprintf
                        "params field %s is not threaded through %s: port \
                         the knob to every surface or annotate it \
                         [@lint.allow \"%s\" \"reason\"]"
                        fld.d_name
                        (String.concat ", " missing)
                        r_knob))
            end)
          tf.ff_params)
    facts

(* handler-parity: the Section-4 correspondence as a table.  Raft has no
   separate commit message — commit piggybacks on Append's commit_index —
   so its column repeats Append by design.  Batching needs no rows of its
   own: in every protocol a batch is a longer items list in the same
   replicate/ack/commit message. *)
let families =
  [
    ("replicate", [ ("raft", "Append"); ("multipaxos", "Accept"); ("mencius", "MAppend") ]);
    ("ack", [ ("raft", "Ack"); ("multipaxos", "AcceptOk"); ("mencius", "MAck") ]);
    ("commit", [ ("raft", "Append"); ("multipaxos", "Learn"); ("mencius", "MCommit") ]);
  ]

let handler_findings facts out =
  let trio =
    List.filter_map
      (fun f ->
        match proto_of_file f.ff_path with
        | Some (key, modname) -> Some (key, modname, f)
        | None -> None)
      facts
  in
  List.iter
    (fun (family, members) ->
      let member_of key = List.assoc_opt key members in
      let has (key, _, f) =
        match member_of key with
        | Some name -> List.exists (fun c -> c.d_name = name) f.ff_msg_ctors
        | None -> false
      in
      List.iter
        (fun ((key, modname, f) as prot) ->
          match member_of key with
          | None -> ()
          | Some name ->
              let others_have =
                List.exists (fun ((k, _, _) as o) -> k <> key && has o) trio
              in
              if (not (has prot)) && others_have then begin
                let msg_allows = f.ff_msg_allows @ f.ff_allows in
                if not (allowed r_handler msg_allows) then
                  out
                    (finding f.ff_path
                       (Option.value f.ff_msg_loc
                          ~default:Location.none)
                       r_handler
                       (Printf.sprintf
                          "message family '%s' has no %s member %s while \
                           its siblings carry theirs: port the message or \
                           annotate the msg type with [@@lint.allow \
                           \"%s\" \"reason\"]"
                          family modname name r_handler))
              end
              else if has prot then begin
                let c =
                  List.find (fun c -> c.d_name = name) f.ff_msg_ctors
                in
                if
                  (not (allowed r_handler (c.d_allows @ f.ff_allows)))
                  && not (SSet.mem name f.ff_pat_ctors)
                then
                  out
                    (finding f.ff_path c.d_loc r_handler
                       (Printf.sprintf
                          "family '%s' member %s.%s is declared but never \
                           matched in %s: the runtime cannot dispatch it"
                          family modname name (base f.ff_path)))
              end)
        trio)
    families

(* probe-parity: make_probes string literals, diffed across the trio via
   shared event classes.  Protocol-structural exemptions are inline with
   their reasons; an unclassified probe name registered by exactly two
   runtimes is flagged at the third (majority vote).  Probes the replica
   base registers for all three (commits, acks_sent, ...) need no class. *)
type probe_class = {
  pc_name : string;
  pc_aliases : string list; (* per-runtime spellings of the same event *)
  pc_exempt : (string * string) list; (* protocol key -> structural reason *)
}

let probe_classes =
  [
    { pc_name = "leader-change-started";
      pc_aliases = [ "elections"; "revocations_started" ];
      pc_exempt = [] };
    { pc_name = "leader-change-won";
      pc_aliases = [ "leader_wins"; "revocations_value"; "revocations_skip" ];
      pc_exempt = [] };
    { pc_name = "epoch-change";
      pc_aliases = [ "term_changes"; "ballot_changes" ];
      pc_exempt =
        [ ("mencius",
           "slots are positionally owned; revocation advances no term/ballot \
            counter") ] };
    { pc_name = "keepalive";
      pc_aliases = [ "heartbeats"; "skips_announced" ];
      pc_exempt =
        [ ("multipaxos",
           "the revocation watchdog reads the failure detector; the runtime \
            sends no keepalive traffic") ] };
    { pc_name = "replicate-sent";
      pc_aliases = [ "appends_sent"; "accepts_sent" ];
      pc_exempt = [] };
    { pc_name = "forward";
      pc_aliases = [ "forwards" ];
      pc_exempt =
        [ ("mencius",
           "every replica leads its own slots; there is no leader to \
            redirect to") ] };
  ]

let probe_findings facts out =
  let trio =
    List.filter_map
      (fun f ->
        match proto_of_file f.ff_path with
        | None -> None
        | Some (key, _) -> (
            match
              List.find_opt (fun b -> b.bf_name = "make_probes") f.ff_bindings
            with
            | Some b -> Some (key, f, b)
            | None -> None))
      facts
  in
  if List.length trio >= 2 then begin
    let registers aliases (_, _, b) =
      List.exists (fun a -> SSet.mem a b.bf_strings) aliases
    in
    let report (key, f, b) what detail =
      if not (allowed r_probe (b.bf_allows @ f.ff_allows)) then
        out
          (finding f.ff_path b.bf_loc r_probe
             (Printf.sprintf
                "%s runtime registers no probe for %s (%s): port the \
                 counter or annotate make_probes with [@lint.allow \
                 \"%s\" \"reason\"]"
                key what detail r_probe))
    in
    List.iter
      (fun pc ->
        match List.filter (registers pc.pc_aliases) trio with
        | [] -> () (* class unused anywhere: nothing to diff *)
        | _ :: _ ->
            List.iter
              (fun ((key, _, _) as prot) ->
                match List.assoc_opt key pc.pc_exempt with
                | Some _ -> ()
                | None ->
                    if not (registers pc.pc_aliases prot) then
                      report prot
                        (Printf.sprintf "shared event class '%s'" pc.pc_name)
                        ("aliases: " ^ String.concat "/" pc.pc_aliases))
              trio)
      probe_classes;
    (* Majority vote on names outside the class table. *)
    let classified =
      List.fold_left
        (fun acc pc -> List.fold_left (fun acc a -> SSet.add a acc) acc pc.pc_aliases)
        SSet.empty probe_classes
    in
    if List.length trio = 3 then begin
      let all_names =
        List.fold_left
          (fun acc (_, _, b) -> SSet.union acc b.bf_strings)
          SSet.empty trio
      in
      SSet.iter
        (fun name ->
          if not (SSet.mem name classified) then
            match List.partition (fun (_, _, b) -> SSet.mem name b.bf_strings) trio with
            | [ _; _ ], [ missing ] ->
                report missing
                  (Printf.sprintf "probe '%s'" name)
                  "registered by the other two runtimes"
            | _ -> ())
        all_names
    end
  end

(* scenario-parity: three obligations.  (a) every steady*/crash* binding
   the scenario registry references must also register its _batched
   variant; (b) Cluster.all_protocols must enumerate every constructor
   of its own protocol type; (c) the chaos test must iterate
   all_protocols (or name every constructor).  That every Harness
   protocol has a Cluster counterpart needs no rule: both re-export
   Protocol.t. *)
let scenario_findings facts out =
  List.iter
    (fun sf ->
      if is_scenario sf.ff_path then
        match
          List.find_opt (fun b -> b.bf_name = "names") sf.ff_bindings
        with
        | None -> ()
        | Some names_b ->
            let refs = names_b.bf_idents in
            List.iter
              (fun b ->
                let is_family =
                  (String.starts_with ~prefix:"steady" b.bf_name
                  || String.starts_with ~prefix:"crash" b.bf_name)
                  && (not (Lint.ends_with ~suffix:"_batched" b.bf_name))
                  && not (Lint.ends_with ~suffix:"_off" b.bf_name)
                in
                if
                  is_family
                  && SSet.mem b.bf_name refs
                  && (not (SSet.mem (b.bf_name ^ "_batched") refs))
                  && not (allowed r_scenario (b.bf_allows @ sf.ff_allows))
                then
                  out
                    (finding sf.ff_path b.bf_loc r_scenario
                       (Printf.sprintf
                          "scenario family %s is registered without a \
                           %s_batched variant: batching must face every \
                           scope the unbatched protocols face"
                          b.bf_name b.bf_name)))
              sf.ff_bindings)
    facts;
  let clusters =
    List.filter (fun f -> is_cluster f.ff_path && f.ff_proto_ctors <> []) facts
  in
  List.iter
    (fun cf ->
      (match
         List.find_opt (fun b -> b.bf_name = "all_protocols") cf.ff_bindings
       with
      | None -> ()
      | Some ap ->
          List.iter
            (fun c ->
              if
                (not (SSet.mem c.d_name ap.bf_ctors))
                && not (allowed r_scenario (c.d_allows @ cf.ff_allows))
              then
                out
                  (finding cf.ff_path c.d_loc r_scenario
                     (Printf.sprintf
                        "protocol %s is missing from all_protocols: it \
                         never faces the chaos matrix" c.d_name)))
            cf.ff_proto_ctors);
      List.iter
        (fun tf ->
          if is_test_chaos tf.ff_path && not (allowed r_scenario tf.ff_allows)
          then begin
            let covered =
              SSet.mem "all_protocols" tf.ff_idents
              || List.for_all
                   (fun c -> SSet.mem c.d_name tf.ff_ctors)
                   cf.ff_proto_ctors
            in
            if not covered then
              out
                (finding_at tf.ff_path 1 r_scenario
                   "the chaos test iterates neither all_protocols nor \
                    every protocol constructor: part of the family dodges \
                    the nemesis matrix")
          end)
        facts)
    clusters

let analyze facts =
  let acc = ref [] in
  let out f = acc := f :: !acc in
  wire_findings facts out;
  knob_findings facts out;
  handler_findings facts out;
  probe_findings facts out;
  scenario_findings facts out;
  !acc

(* ---- entry points ---- *)

let lint_sources sources =
  let facts =
    List.map (fun (filename, source) -> extract ~filename source) sources
  in
  let parse_failures = List.filter_map (fun f -> f.ff_parse) facts in
  let parsed =
    List.filter (fun f -> Option.is_none f.ff_parse) facts
  in
  List.sort Finding.compare (parse_failures @ analyze parsed)

let lint_string ~filename source = lint_sources [ (filename, source) ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let source = really_input_string ic len in
  close_in ic;
  source

(* Like Lint.collect_files, but also skips lint_fixtures corpora: the
   broken fixture trees deliberately violate every rule and must not
   pollute the real tree's fact base.  An explicitly given root is never
   filtered, so `parlint test/lint_fixtures/parlint_broken` still works. *)
let rec collect_into_skipping acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if
          entry = "" || entry.[0] = '.' || entry = "_build"
          || entry = "lint_fixtures"
        then acc
        else collect_into_skipping acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let collect_files paths =
  List.sort String.compare
    (List.fold_left collect_into_skipping []
       (List.map Lint.normalize_path paths))

let lint_paths paths =
  lint_sources
    (List.map (fun p -> (p, read_file p)) (collect_files paths))
