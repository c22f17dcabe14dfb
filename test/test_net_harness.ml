(* End-to-end smoke for the real-network runtime: spawns a genuine
   3-node loopback cluster of server.exe processes, drives it over TCP,
   and gates on byte-identical applied-state snapshots.  Kept small —
   the CI net-smoke job runs the 1000-op version; this pins that the
   machinery works at all under `dune runtest`. *)

module Driver = Raftpax_netshell.Driver

let test_loopback_demo () =
  let r =
    Driver.demo ~protocol_name:"raft" ~n:3 ~ops:60 ~clients_per_node:2 ~seed:11
  in
  Alcotest.(check bool) "demo converged with identical snapshots" true
    r.Driver.d_ok;
  Alcotest.(check bool) "completed >= 60" true (r.Driver.d_completed >= 60);
  Alcotest.(check int) "three snapshots" 3 (Array.length r.Driver.d_snapshots)

(* The runtimes' wire hook is shared plumbing: every protocol's loopback
   run must converge to the snapshot its simulated replay produces. *)
let test_crosscheck protocol_name () =
  let r = Driver.crosscheck ~protocol_name ~n:3 ~ops:30 ~seed:5 in
  Alcotest.(check bool)
    (Printf.sprintf "net %s = sim %s" r.Driver.c_net_digest r.Driver.c_sim_digest)
    true r.Driver.c_ok

(* A server that ignores SIGTERM must not hang the cluster teardown: it
   is killed after the grace period and reaped. *)
let test_kill_ignores_sigterm () =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; "trap '' TERM; echo READY; exec sleep 60" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  Alcotest.(check bool) "child ready" true (Driver.wait_ready r ~timeout_s:5.0);
  let cl = { Driver.n = 1; endpoints = [||]; pids = [| pid |]; stdouts = [| r |] } in
  let t0 = Unix.gettimeofday () in
  Driver.kill_cluster cl;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed >= 5.0 then Alcotest.failf "teardown took %.1f s" elapsed;
  Alcotest.(check bool) "child reaped" true
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false)

(* ---- repro CLI contract ---- *)

let repro_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/repro.exe"

let run_capture args =
  let err = Filename.temp_file "repro_test" ".err" in
  let cmd =
    Printf.sprintf "%s %s 2>%s" (Filename.quote repro_exe) args
      (Filename.quote err)
  in
  let code =
    match Sys.command cmd with
    | c -> c
  in
  let ic = open_in_bin err in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove err;
  (code, s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

let test_unknown_subcommand () =
  let code, err = run_capture "frobnicate" in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "names the typo" true
    (contains ~sub:"unknown subcommand 'frobnicate'" err);
  (* the usage line must enumerate every real subcommand, including net *)
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("usage lists " ^ sub) true (contains ~sub err))
    [
      "check"; "refine"; "port"; "simulate"; "trace"; "shard"; "nemesis";
      "mcheck"; "topology"; "net";
    ]

(* Every protocol-name error lists the one name table, all six CLI
   spellings included. *)
let test_unknown_protocol args () =
  let code, err = run_capture args in
  Alcotest.(check int) "exit code" 2 code;
  List.iter
    (fun p ->
      let name = Raftpax_kvstore.Protocol.cli_name p in
      Alcotest.(check bool) ("message lists " ^ name) true (contains ~sub:name err))
    Raftpax_kvstore.Protocol.all

let () =
  Alcotest.run "net_harness"
    [
      ( "loopback",
        [
          Alcotest.test_case "3-node raft demo" `Quick test_loopback_demo;
          Alcotest.test_case "teardown kills a server ignoring SIGTERM" `Quick
            test_kill_ignores_sigterm;
        ]
        @ List.map
            (fun p ->
              Alcotest.test_case (p ^ " sim-vs-net crosscheck") `Quick
                (test_crosscheck p))
            [
              "raft"; "raft-star"; "raft-ll"; "raft-pql"; "mencius"; "multipaxos";
            ] );
      ( "cli",
        [
          Alcotest.test_case "unknown subcommand fails loudly" `Quick
            test_unknown_subcommand;
          Alcotest.test_case "nemesis rejects an unknown protocol" `Quick
            (test_unknown_protocol "nemesis bogus");
          Alcotest.test_case "shard rejects an unknown protocol" `Quick
            (test_unknown_protocol "shard --protocols bogus");
        ] );
    ]
