(* Golden determinism scenarios: three representative workloads (lock
   contention, TLB shootdown barrier, pageout vs wire) run under a fixed
   matrix of (cpus, seed, policy) configurations.  The formatted stats are
   compared byte-for-byte against test/golden/determinism.expected, so any
   change to the engine's schedule, RNG consumption or cost model is
   caught immediately.  Regenerate the expectation with
   `dune exec test/gen_golden.exe` ONLY when a schedule change is
   intentional. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module K = Mach_ksync.Ksync
module Scenarios = Mach_kernel.Scenarios

(* E1-style contention: every cpu hammers one simple lock whose critical
   section updates shared cells (bus traffic delays useful work). *)
let contention () =
  Scenarios.contention ~name:"golden" ~protocol:Mach_core.Spin.Tas_then_ttas
    ~iters:20 ()

(* The same contention workload over each lib/locks queue-lock protocol,
   plus a read-mostly workload over the big-reader lock: pins the exact
   cell-op sequence (and hence schedule and cost model) of every new
   protocol. *)
let queue_contention proto () =
  Scenarios.contention ~name:"golden" ~proto ~iters:20 ()

let brlock_readers () =
  let module B = K.Locks.Brlock in
  let l = B.make ~name:"golden-br" in
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 20 do
      (* One write per eight ops on one worker; everyone else reads. *)
      if i = 0 && j mod 8 = 0 then
        B.with_write l (fun () -> ignore (Engine.Cell.fetch_and_add d 1))
      else
        B.with_read l (fun () ->
            ignore (Engine.Cell.get d);
            Engine.cycles 10)
    done
  in
  Scenarios.spawn_join cpus worker

(* The brlock read-mostly workload over the scache RW lock: pins the
   explicit ReadPending/ReadCounted acquisition loop and the FIFO
   writer-gate handoff cell ops. *)
let scache_readers () =
  let module S = K.Locks.Scache in
  let l = S.make ~name:"golden-sc" in
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 20 do
      if i = 0 && j mod 8 = 0 then
        S.with_write l (fun () -> ignore (Engine.Cell.fetch_and_add d 1))
      else
        S.with_read l (fun () ->
            ignore (Engine.Cell.get d);
            Engine.cycles 10)
    done
  in
  Scenarios.spawn_join cpus worker

(* scache under the Complex_lock: the RW state machine rides the scache
   writer as its interlock protocol. *)
let cx_scache () =
  let l =
    K.Clock.make ~name:"golden-cx-sc" ~proto:K.Locks.scache_writer
      ~can_sleep:false ()
  in
  let d = Engine.Cell.make ~name:"d" 0 in
  let cpus = Engine.cpu_count () in
  let worker i () =
    for j = 1 to 12 do
      if i = 0 && j mod 6 = 0 then begin
        K.Clock.lock_write l;
        ignore (Engine.Cell.fetch_and_add d 1);
        K.Clock.lock_done l
      end
      else begin
        K.Clock.lock_read l;
        ignore (Engine.Cell.get d);
        Engine.cycles 10;
        K.Clock.lock_done l
      end
    done
  in
  Scenarios.spawn_join cpus worker

(* The section 10 RPC path end to end: clients spin on their reply
   ports and servers on their request ports through [Port.spin_for_message].
   The budget is small enough that waits also run out and park, so both
   halves of spin-then-block are pinned. *)
let rpc_serve () =
  ignore
    (Scenarios.rpc_serve ~shards:4 ~batch:4 ~calls_each:2 ~spin:48
       ())

(* The same path with no spin budget: every receive and reply wait
   parks, so the run queue changes on every RPC. *)
let rpc_park () =
  ignore
    (Scenarios.rpc_serve ~shards:4 ~batch:4 ~calls_each:2 ~spin:0
       ())

(* Bound threads on three cpus and a cross-cpu interrupt barrier: the
   section 7 three-processor pattern under the disciplined spl rule. *)
let barrier_disciplined () =
  Scenarios.interrupt_barrier_scenario ~disciplined:true ()

let scenarios : (string * (unit -> unit)) list =
  [
    ("contention", contention);
    ("shootdown", fun () -> Scenarios.shootdown ());
    (* vm_map_pageable (Mach 3.0 rewrite) racing the pageout daemon. *)
    ("pageout", Scenarios.pageout ~recursive:false);
    ("contention-ticket", queue_contention K.Locks.ticket);
    ("contention-mcs", queue_contention K.Locks.mcs);
    ("contention-anderson", queue_contention K.Locks.anderson);
    ("brlock-readers", brlock_readers);
    ("contention-scache", queue_contention K.Locks.scache_writer);
    ("scache-readers", scache_readers);
    ("cx-scache", cx_scache);
    ("rpc-serve", rpc_serve);
    ("rpc-park", rpc_park);
    ("barrier-disciplined", barrier_disciplined);
  ]

(* The configuration matrix exercises every scheduler policy (and thus
   every RNG-consuming code path in the candidate picker). *)
let matrix : (string * int * int * Config.policy) list =
  [
    ("contention", 8, 3, Config.Timed);
    ("contention", 4, 11, Config.Random_policy);
    ("contention", 4, 7, Config.Round_robin);
    ("contention", 16, 5, Config.Timed);
    ("shootdown", 4, 3, Config.Timed);
    ("shootdown", 4, 5, Config.Random_policy);
    ("pageout", 3, 2, Config.Random_policy);
    ("pageout", 3, 9, Config.Timed);
    (* New-protocol rows are appended so every pre-existing line of the
       golden file stays byte-identical. *)
    ("contention-ticket", 8, 3, Config.Timed);
    ("contention-ticket", 4, 11, Config.Random_policy);
    ("contention-mcs", 8, 3, Config.Timed);
    ("contention-mcs", 4, 11, Config.Random_policy);
    ("contention-anderson", 8, 3, Config.Timed);
    ("contention-anderson", 4, 7, Config.Round_robin);
    ("brlock-readers", 8, 3, Config.Timed);
    ("brlock-readers", 4, 5, Config.Random_policy);
    (* scache rows: under Simple_lock (contention-scache), raw RW
       (scache-readers) and Complex_lock (cx-scache). *)
    ("contention-scache", 8, 3, Config.Timed);
    ("contention-scache", 4, 11, Config.Random_policy);
    ("scache-readers", 8, 3, Config.Timed);
    ("scache-readers", 4, 5, Config.Random_policy);
    ("cx-scache", 4, 7, Config.Round_robin);
    ("cx-scache", 8, 3, Config.Timed);
    (* Spin-then-block RPC serving under every policy. *)
    ("rpc-serve", 16, 3, Config.Timed);
    ("rpc-serve", 16, 5, Config.Random_policy);
    ("rpc-serve", 16, 7, Config.Round_robin);
    (* Run-queue, bound-queue and cross-cpu interrupt changes while other
       cpus run: the events that make the scheduler rebuild its
       candidate set. *)
    ("rpc-park", 16, 3, Config.Timed);
    ("shootdown", 16, 3, Config.Timed);
    ("barrier-disciplined", 4, 3, Config.Timed);
    ("barrier-disciplined", 4, 7, Config.Round_robin);
  ]

let line (name, cpus, seed, policy) =
  let f = List.assoc name scenarios in
  let cfg = { Config.default with Config.cpus; seed; policy } in
  let head =
    Printf.sprintf "%s cpus=%d seed=%d policy=%s -> " name cpus seed
      (Config.policy_name policy)
  in
  match Engine.run_outcome ~cfg f with
  | Engine.Completed stats ->
      head ^ Format.asprintf "%a" Engine.pp_stats stats
  | Engine.Deadlocked (Engine.Sleep_deadlock, _) -> head ^ "sleep-deadlock"
  | Engine.Deadlocked (Engine.Spin_deadlock, _) -> head ^ "spin-deadlock"
  | Engine.Panicked msg -> head ^ "panic: " ^ msg
  | Engine.Hit_step_limit -> head ^ "step-limit"

(* The expectation opens with the engine's schedule version: a golden
   file generated before an intentional schedule change then fails with
   a clear "stale golden" message instead of a wall of stats diffs. *)
let version_line () =
  Printf.sprintf "# engine schedule_version %d\n" Engine.schedule_version

let render () =
  version_line ()
  ^ String.concat "" (List.map (fun row -> line row ^ "\n") matrix)
