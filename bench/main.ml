(* The experiment harness.

   "Locking and Reference Counting in the Mach Kernel" (ICPP 1991) is an
   experience paper with no numbered tables or figures; experiments E1-E14
   below (defined in DESIGN.md, results recorded in EXPERIMENTS.md) each
   operationalize one of its qualitative claims.  Every invocation
   regenerates every table except E20-smoke, which runs only when named;
   pass experiment ids (e.g. `E1 E4`) to run a subset.

   The simulated multiprocessor's cycle model plays the role of the
   paper's shared-bus testbeds (VAX 6000 / Encore Multimax / Sequent
   Symmetry); the N0 section measures native per-operation costs with
   Bechamel on real hardware for calibration. *)

module Explore = Mach_sim.Sim_explore
module Spin = Mach_core.Spin
module Stats = Mach_core.Lock_stats
module K = Mach_ksync.Ksync
module Vm = Mach_vm
module Scenarios = Mach_kernel.Scenarios
open Bench_util

let cpu_sweep = [ 1; 2; 4; 8; 16 ]

(* Each variant's scenario explored on 3 cpus under seeds 1..[seeds]: how
   many schedules completed and how many deadlocked (E6, E11). *)
let verdict_table head ~seeds variants =
  table
    ~header:[ head; "schedules"; "completed"; "deadlocked" ]
    (List.map
       (fun (name, scenario) ->
         let seeds = List.init seeds (fun s -> s + 1) in
         let v = Explore.run ~cpus:3 ~seeds scenario in
         [
           name;
           i v.Explore.seeds_run;
           i v.Explore.completed;
           i (v.Explore.sleep_deadlocks + v.Explore.spin_deadlocks);
         ])
       variants)

(* ================================================================== *)
(* N0: native per-operation costs (Bechamel, real multicore hardware)  *)
(* ================================================================== *)

module N0 = struct
  let run () =
    section ~id:"N0" ~title:"native per-operation costs (Bechamel)"
      ~claim:
        "calibration only: uncontended primitive costs on the host machine";
    let open Bechamel in
    let module HS = Mach_hw.Hw_sync in
    let slock = HS.Slock.make ~name:"bench" () in
    let clock = HS.Clock.make ~name:"bench" ~can_sleep:false () in
    let refc = HS.Ref.make () in
    let cell = Mach_hw.Hw_machine.Cell.make 0 in
    let tests =
      [
        Test.make_grouped ~name:"native" ~fmt:"%s %s"
          [
            Test.make ~name:"atomic test-and-set"
              (Staged.stage (fun () ->
                   ignore (Mach_hw.Hw_machine.Cell.test_and_set cell);
                   Mach_hw.Hw_machine.Cell.set cell 0));
            Test.make ~name:"simple lock/unlock"
              (Staged.stage (fun () ->
                   HS.Slock.lock slock;
                   HS.Slock.unlock slock));
            Test.make ~name:"complex read/done"
              (Staged.stage (fun () ->
                   HS.Clock.lock_read clock;
                   HS.Clock.lock_done clock));
            Test.make ~name:"complex write/done"
              (Staged.stage (fun () ->
                   HS.Clock.lock_write clock;
                   HS.Clock.lock_done clock));
            Test.make ~name:"refcount clone/release"
              (Staged.stage (fun () ->
                   HS.Ref.clone refc;
                   ignore (HS.Ref.release refc)));
          ];
      ]
    in
    let results = bechamel_run tests in
    (* How many times Bechamel ran each loop depends on host timing:
       keep those lock counts out of this section's observability. *)
    obs_reset ();
    let rows =
      List.concat_map
        (fun (_, elts) ->
          List.map (fun (name, ns) -> [ name; f1 ns ]) elts)
        results
    in
    table ~header:[ "operation"; "ns/op" ] rows
end

(* ================================================================== *)
(* E1: spin protocols under contention (section 2)                     *)
(* ================================================================== *)

module E1 = struct
  (* [cap] overrides the ttas-backoff delay ceiling (default 1024 cycles). *)
  let workload ?cap protocol cpus =
    let tweak cfg =
      match cap with
      | Some c -> { cfg with Config.spin_max_backoff = c }
      | None -> cfg
    in
    sim_run ~cpus ~tweak (Scenarios.contention ~name:"l" ~protocol ~iters:30)

  let tuned_cap = 128

  let run () =
    section ~id:"E1" ~title:"spin protocols under contention (sim cycles)"
      ~claim:
        "test-and-test-and-set avoids cache misses while spinning; plain \
         test-and-set wastes bus bandwidth and slows everyone down (s.2)";
    let variants =
      List.map (fun p -> (Spin.protocol_name p, (None, p))) Spin.all_protocols
      @ [
          (* Backoff cap tuned to the workload: at 128 cycles — a
             fraction of the ~500-cycle lock hold — waiters re-probe a
             few times per hold instead of sleeping through whole
             release windows as the generic 1024-cycle cap does. *)
          ( Printf.sprintf "ttas-backoff(cap=%d)" tuned_cap,
            (Some tuned_cap, Spin.Ttas_backoff) );
        ]
    in
    print
      (point_cols "protocol" @ [ misses_col ])
      (sweep_points cpu_sweep variants (fun (cap, p) -> workload ?cap p))
end

(* ================================================================== *)
(* E2: low contention and the first-attempt observation (section 2)    *)
(* ================================================================== *)

module E2 = struct
  let workload protocol cpus =
    let stats = ref None in
    let s =
      sim_run ~cpus (fun () ->
          let lock = K.Slock.make ~name:"l" ~protocol () in
          let worker () =
            for _ = 1 to 30 do
              K.Slock.lock lock;
              Engine.cycles 10;
              K.Slock.unlock lock;
              (* think time >> hold time: contention is rare *)
              Engine.cycles 2000;
              Engine.pause ()
            done
          in
          Scenarios.spawn_join cpus (fun _ -> worker);
          stats := Some (K.Slock.stats lock))
    in
    (s, Option.get !stats)

  let run () =
    section ~id:"E2" ~title:"low contention: the first-attempt observation"
      ~claim:
        "most locks in a well designed system are acquired on the first \
         attempt, so try the atomic instruction first (tas+ttas) (s.2)";
    let rows =
      grid [ 2; 8 ] Spin.all_protocols (fun cpus p ->
          let s, st = workload p cpus in
          [
            i cpus;
            Spin.protocol_name p;
            i s.Engine.makespan;
            f2 (Stats.first_attempt_rate st);
            i (Stats.total_spins st);
          ])
    in
    table
      ~header:[ "cpus"; "protocol"; "makespan"; "first-attempt"; "spins" ]
      rows
end

(* ================================================================== *)
(* E3: locking granularity (sections 2, 5)                             *)
(* ================================================================== *)

module E3 = struct
  let run () =
    section ~id:"E3" ~title:"coarse vs fine-grained locking"
      ~claim:
        "locking data (one lock per object) lets code run in parallel with \
         itself; locking code (one big lock / master processor) restricts \
         the kernel to one processor and bottlenecks (s.2, s.5)";
    let rows =
      grid cpu_sweep
        [ Scenarios.Coarse; Scenarios.Fine; Scenarios.Master_funnel ]
        (fun cpus g ->
          let ops = cpus * 30 in
          let s =
            sim_run ~cpus (fun () ->
                Scenarios.object_ops_workload g ~objects:16 ~workers:cpus
                  ~ops_per_worker:30)
          in
          let throughput =
            float_of_int ops *. 1000. /. float_of_int s.Engine.makespan
          in
          [
            i cpus;
            Scenarios.granularity_name g;
            i ops;
            i s.Engine.makespan;
            f2 throughput;
          ])
    in
    table
      ~header:[ "cpus"; "granularity"; "total-ops"; "makespan"; "ops/kcycle" ]
      rows
end

(* ================================================================== *)
(* E4: readers/writer lock and writers' priority (section 4)           *)
(* ================================================================== *)

module E4 = struct
  let workload ~priority ~write_pct cpus =
    let max_writer_wait = ref 0 in
    let s =
      sim_run ~cpus (fun () ->
          let l = K.Clock.make ~name:"rw" ~can_sleep:true () in
          K.Clock.set_writers_priority l priority;
          let worker w () =
            for op = 1 to 30 do
              if (op + w) mod 100 < write_pct then begin
                let t0 = Engine.now_cycles () in
                K.Clock.lock_write l;
                let waited = Engine.now_cycles () - t0 in
                if waited > !max_writer_wait then max_writer_wait := waited;
                Engine.cycles 30;
                K.Clock.lock_done l
              end
              else begin
                K.Clock.lock_read l;
                Engine.cycles 30;
                K.Clock.lock_done l
              end
            done
          in
          Scenarios.spawn_join cpus worker)
    in
    (s, !max_writer_wait)

  let run () =
    section ~id:"E4" ~title:"readers/writer lock: writers' priority"
      ~claim:
        "readers may not be added past an outstanding write request, \
         guaranteeing the lock drains to the writer (no starvation) (s.4); \
         ablation: without priority, writer waits explode under read load";
    let rows =
      grid [ 2; 10; 30 ] [ true; false ] (fun write_pct priority ->
          let s, wmax = workload ~priority ~write_pct 8 in
          [
            i write_pct;
            (if priority then "yes" else "no (ablation)");
            i s.Engine.makespan;
            i wmax;
          ])
    in
    table
      ~header:[ "write%"; "writers-priority"; "makespan"; "max-writer-wait" ]
      rows
end

(* ================================================================== *)
(* E5: upgrade vs write-then-downgrade (section 7.1)                   *)
(* ================================================================== *)

module E5 = struct
  (* Each operation reads a shared structure and must then modify it.
     Variant A: take a read lock, upgrade; a failed upgrade loses the
     read lock and must restart (the recovery logic section 7.1 complains
     about).  Variant B: take the write lock up front and downgrade after
     the modification. *)
  let workload ~use_upgrade cpus =
    let failed = ref 0 in
    let s =
      sim_run ~cpus (fun () ->
          let l = K.Clock.make ~name:"m" ~can_sleep:true () in
          let worker () =
            for _ = 1 to 20 do
              if use_upgrade then begin
                let rec attempt () =
                  K.Clock.lock_read l;
                  Engine.cycles 20 (* read/validate *);
                  if K.Clock.lock_read_to_write l then begin
                    (* failed: read lock already released; retry *)
                    incr failed;
                    Engine.pause ();
                    attempt ()
                  end
                  else begin
                    Engine.cycles 30 (* modify *);
                    K.Clock.lock_done l
                  end
                in
                attempt ()
              end
              else begin
                K.Clock.lock_write l;
                Engine.cycles 30 (* modify *);
                K.Clock.lock_write_to_read l;
                Engine.cycles 20 (* read under the downgraded lock *);
                K.Clock.lock_done l
              end
            done
          in
          Scenarios.spawn_join cpus (fun _ -> worker))
    in
    (s, !failed)

  let run () =
    section ~id:"E5" ~title:"read-to-write upgrade vs write-then-downgrade"
      ~claim:
        "upgrades fail under contention (releasing the read lock and \
         forcing recovery); locking for write and downgrading cannot fail \
         and is the simpler, preferred alternative (s.7.1)";
    let rows =
      grid [ 2; 4; 8 ] [ true; false ] (fun cpus use_upgrade ->
          let s, failed = workload ~use_upgrade cpus in
          [
            i cpus;
            (if use_upgrade then "upgrade" else "write+downgrade");
            i s.Engine.makespan;
            i failed;
          ])
    in
    table ~header:[ "cpus"; "strategy"; "makespan"; "failed-upgrades" ] rows
end

(* ================================================================== *)
(* E6: recursive locking: overhead and the vm_map_pageable deadlock    *)
(* ================================================================== *)

module E6 = struct
  let overhead () =
    let acquisition ~recursive =
      let s =
        sim_run ~cpus:1 (fun () ->
            let l = K.Clock.make ~can_sleep:true () in
            if recursive then begin
              K.Clock.lock_write l;
              K.Clock.lock_set_recursive l
            end;
            for _ = 1 to 200 do
              K.Clock.lock_write l;
              K.Clock.lock_done l
            done;
            if recursive then begin
              K.Clock.lock_clear_recursive l;
              K.Clock.lock_done l
            end)
      in
      s.Engine.makespan / 200
    in
    [
      [ "plain write acquire/release"; i (acquisition ~recursive:false) ];
      [ "recursive re-acquire/release"; i (acquisition ~recursive:true) ];
    ]

  let run () =
    section ~id:"E6" ~title:"recursive locking: cost and the 7.1 deadlock"
      ~claim:
        "recursive locks are less than fully general and caused the \
         vm_map_pageable deadlock against pageout; the Mach 3.0 rewrite \
         removes them (s.4, s.7.1)";
    table ~header:[ "operation"; "cycles/op" ] (overhead ());
    printf "\nvm_map_pageable under memory pressure, 30 schedules each:\n";
    verdict_table "implementation" ~seeds:30
      [
        ("recursive (paper's original)", Scenarios.pageout ~recursive:true);
        ("rewritten (Mach 3.0, s.7.1)", Scenarios.pageout ~recursive:false);
      ]
end

(* ================================================================== *)
(* E7: event-wait latency and throughput (section 6)                   *)
(* ================================================================== *)

module E7 = struct
  let ping_pong () =
    let rounds = 50 in
    let s =
      sim_run ~cpus:2 (fun () ->
          let ping = K.Ev.fresh_event () and pong = K.Ev.fresh_event () in
          let guard = K.Slock.make ~name:"pp" () in
          let turn = ref 0 in
          let player my_turn my_ev other_ev () =
            for _ = 1 to rounds do
              K.Slock.lock guard;
              if !turn <> my_turn then begin
                K.Ev.assert_wait my_ev;
                K.Slock.unlock guard;
                ignore (K.Ev.thread_block ())
              end
              else K.Slock.unlock guard;
              K.Slock.lock guard;
              turn := 1 - my_turn;
              ignore (K.Ev.thread_wakeup other_ev);
              K.Slock.unlock guard
            done
          in
          let a = Engine.spawn ~name:"ping" (player 0 ping pong) in
          let b = Engine.spawn ~name:"pong" (player 1 pong ping) in
          Engine.join a;
          Engine.join b)
    in
    s.Engine.makespan / rounds

  let herd n =
    let s =
      sim_run ~cpus:8 (fun () ->
          let ev = K.Ev.fresh_event () in
          let served = Engine.Cell.make 0 in
          let sleepers =
            List.init n (fun _ ->
                Engine.spawn (fun () ->
                    K.Ev.assert_wait ev;
                    ignore (K.Ev.thread_block ());
                    ignore (Engine.Cell.fetch_and_add served 1)))
          in
          let rec drive () =
            if Engine.Cell.get served < n then begin
              ignore (K.Ev.thread_wakeup ev);
              Engine.pause ();
              drive ()
            end
          in
          drive ();
          List.iter Engine.join sleepers)
    in
    s.Engine.makespan

  let run () =
    section ~id:"E7" ~title:"event-wait mechanism costs"
      ~claim:
        "the split assert_wait/thread_block design makes release-locks-and-\
         wait atomic w.r.t. wakeup at the cost of one extra declaration \
         step; wakeup is broadcast (s.6)";
    table
      ~header:[ "benchmark"; "cycles" ]
      ([ [ "sleep/wakeup round trip (per round)"; i (ping_pong ()) ] ]
      @ List.map
          (fun n ->
            [ Printf.sprintf "broadcast wakeup herd of %d" n; i (herd n) ])
          [ 2; 8; 32 ])
end

(* ================================================================== *)
(* E8: reference counting costs (section 8)                            *)
(* ================================================================== *)

module E8 = struct
  let contended cpus =
    let ops = 100 in
    let s =
      sim_run ~cpus (fun () ->
          let r = K.Ref.make () in
          Scenarios.spawn_join cpus (fun _ () ->
              for _ = 1 to ops do
                K.Ref.clone r;
                ignore (K.Ref.release r)
              done))
    in
    s.Engine.makespan / ops

  let run () =
    section ~id:"E8" ~title:"reference counting costs"
      ~claim:
        "acquiring a reference never blocks (legal under locks); the count \
         cell is a shared hot spot that scales with contention, which is \
         why counts live with per-object locks rather than globally (s.8)";
    let rows = List.map (fun cpus -> [ i cpus; i (contended cpus) ]) cpu_sweep in
    table
      ~header:[ "cpus"; "cycles per clone+release (one shared object)" ]
      rows
end

(* ================================================================== *)
(* E9: the kernel operation path (section 10)                          *)
(* ================================================================== *)

module E9 = struct
  let rpc_sweep clients =
    let calls = 20 in
    let s =
      sim_run ~cpus:8 (Scenarios.null_rpc ~pages:32 ~clients ~calls_each:calls)
    in
    (s.Engine.makespan, s.Engine.makespan / (clients * calls))

  let run () =
    section ~id:"E9" ~title:"kernel operation path: null RPC round trip"
      ~claim:
        "every kernel operation pays the section 10 sequence: message, \
         port translation + object reference, operation, reference \
         release, reply (s.10)";
    let rows =
      List.map
        (fun clients ->
          let makespan, per = rpc_sweep clients in
          [ i clients; i makespan; i per ])
        [ 1; 2; 4; 8 ]
    in
    table ~header:[ "clients"; "makespan"; "cycles/rpc" ] rows
end

(* ================================================================== *)
(* E10: TLB shootdown cost (section 7)                                 *)
(* ================================================================== *)

module E10 = struct
  let shootdown_cost participants =
    let removals = 10 in
    let s =
      sim_run ~cpus:(participants + 1) (Scenarios.shootdown ~removals)
    in
    (s.Engine.makespan / removals, s.Engine.interrupts_delivered)

  let run () =
    section ~id:"E10" ~title:"TLB shootdown: barrier sync at interrupt level"
      ~claim:
        "barrier synchronization at interrupt level is a costly operation \
         and is actively discouraged; cost grows with the number of \
         processors that must rendezvous (s.7)";
    let rows =
      List.map
        (fun p ->
          let per, intrs = shootdown_cost p in
          [ i p; i per; i intrs ])
        [ 0; 1; 2; 4; 8; 15 ]
    in
    table
      ~header:[ "remote participants"; "cycles/shootdown"; "interrupts" ]
      rows
end

(* ================================================================== *)
(* E11: the interrupt-deadlock scenario (section 7)                    *)
(* ================================================================== *)

module E11 = struct
  let run () =
    section ~id:"E11" ~title:"inconsistent spl vs the same-spl rule"
      ~claim:
        "if a lock is held with interrupts enabled on one cpu and awaited \
         with interrupts disabled on another while a third starts barrier \
         synchronization, the system deadlocks; acquiring every lock at \
         the same interrupt priority prevents it (s.7)";
    verdict_table "variant" ~seeds:50
      [
        ( "inconsistent spl (buggy)",
          Scenarios.interrupt_barrier_scenario ~disciplined:false );
        ( "same-spl rule (disciplined)",
          Scenarios.interrupt_barrier_scenario ~disciplined:true );
      ]
end

(* ================================================================== *)
(* E12: pmap/pv lock orders: arbiter lock vs backout (section 5)       *)
(* ================================================================== *)

module E12 = struct
  (* The reduced form of the section 5 conflict: forward workers need
     pmap-then-pv; reverse workers need pv-then-pmap.  The arbiter
     strategy runs forward under a read lock and reverse under a write
     lock on a third lock; the backout strategy has reverse workers lock
     pv, then make a single attempt on pmap, releasing and retrying on
     failure. *)
  let workload strategy cpus =
    let retries = ref 0 in
    let s =
      sim_run ~cpus (fun () ->
          let pmap_lock = K.Slock.make ~name:"pmap" () in
          let pv_lock = K.Slock.make ~name:"pv" () in
          let psys = K.Clock.make ~name:"psys" ~can_sleep:false () in
          let ops = 30 in
          let forward () =
            for _ = 1 to ops do
              (match strategy with
              | `Arbiter ->
                  K.Clock.lock_read psys;
                  K.Slock.lock pmap_lock;
                  K.Slock.lock pv_lock;
                  Engine.cycles 30;
                  K.Slock.unlock pv_lock;
                  K.Slock.unlock pmap_lock;
                  K.Clock.lock_done psys
              | `Backout ->
                  (* forward is the canonical order: no arbiter needed *)
                  K.Slock.lock pmap_lock;
                  K.Slock.lock pv_lock;
                  Engine.cycles 30;
                  K.Slock.unlock pv_lock;
                  K.Slock.unlock pmap_lock);
              Engine.cycles 100
            done
          in
          let reverse () =
            for _ = 1 to ops do
              (match strategy with
              | `Arbiter ->
                  K.Clock.lock_write psys;
                  K.Slock.lock pv_lock;
                  K.Slock.lock pmap_lock;
                  Engine.cycles 30;
                  K.Slock.unlock pmap_lock;
                  K.Slock.unlock pv_lock;
                  K.Clock.lock_done psys
              | `Backout ->
                  let rec attempt () =
                    K.Slock.lock pv_lock;
                    if K.Slock.try_lock pmap_lock then begin
                      Engine.cycles 30;
                      K.Slock.unlock pmap_lock;
                      K.Slock.unlock pv_lock
                    end
                    else begin
                      incr retries;
                      K.Slock.unlock pv_lock;
                      Engine.pause ();
                      attempt ()
                    end
                  in
                  attempt ());
              Engine.cycles 100
            done
          in
          Scenarios.spawn_join cpus (fun k ->
              if k mod 4 = 0 then reverse else forward))
    in
    (s, !retries)

  let run () =
    section ~id:"E12" ~title:"two lock orders: arbiter lock vs backout"
      ~claim:
        "a third (pmap system) lock arbitrates between the pmap-then-pv \
         and pv-then-pmap orders; the backout protocol is the lighter \
         alternative that pays retries instead of a global read lock (s.5)";
    let rows =
      grid [ 4; 8; 16 ]
        [ ("arbiter (pmap system lock)", `Arbiter); ("backout", `Backout) ]
        (fun cpus (name, strategy) ->
          let s, retries = workload strategy cpus in
          [ i cpus; name; i s.Engine.makespan; i retries ])
    in
    table ~header:[ "cpus"; "strategy"; "makespan"; "backout-retries" ] rows
end

(* ================================================================== *)
(* X1: the lock-free timing facility (section 2's exception)           *)
(* ================================================================== *)

module X1 = struct
  module Timer = Mach_kern.Timer

  (* Ticks happen on every context switch and interrupt: compare the
     lock-free single-writer timer against a lock-protected one. *)
  let tick_cost ~locked =
    let ticks = 200 in
    let s =
      sim_run ~cpus:2 (fun () ->
          let tick =
            if locked then begin
              let l = K.Slock.make ~name:"timer-lock" () in
              let total = ref 0 in
              fun () ->
                K.Slock.lock l;
                total := !total + 700;
                K.Slock.unlock l
            end
            else
              let t = Timer.create ~owner_cpu:0 () in
              fun () -> Timer.tick t ~cycles:700
          in
          Engine.join
            (Engine.spawn ~bound:0 (fun () ->
                 for _ = 1 to ticks do
                   tick ()
                 done)))
    in
    s.Engine.makespan / ticks

  let read_contention readers =
    let s =
      sim_run ~cpus:(readers + 1) (fun () ->
          let t = Timer.create ~owner_cpu:0 () in
          let stop = Engine.Cell.make 0 in
          let rs =
            List.init readers (fun k ->
                Engine.spawn ~bound:(k + 1) (fun () ->
                    while Engine.Cell.get stop = 0 do
                      ignore (Timer.read t);
                      Engine.pause ()
                    done))
          in
          let owner =
            Engine.spawn ~bound:0 (fun () ->
                for _ = 1 to 100 do
                  Timer.tick t ~cycles:700;
                  Engine.pause ()
                done;
                Engine.Cell.set stop 1)
          in
          Engine.join owner;
          List.iter Engine.join rs)
    in
    (s.Engine.makespan / 100, s.Engine.bus_transactions)

  let run () =
    section ~id:"X1" ~title:"lock-free usage timers (extension experiment)"
      ~claim:
        "Mach's one exception to multiprocessor locking: timer data \
         structures use single-writer discipline + checked reads instead \
         of a lock, because ticks happen on every context switch (s.2)";
    table
      ~header:[ "variant"; "cycles/tick" ]
      [
        [ "lock-free (checked read protocol)"; i (tick_cost ~locked:false) ];
        [ "simple-lock protected"; i (tick_cost ~locked:true) ];
      ];
    printf "\nwriter ticking under concurrent checked readers:\n";
    let rows =
      List.map
        (fun readers ->
          let per, bus = read_contention readers in
          [ i readers; i per; i bus ])
        [ 0; 1; 3; 7 ]
    in
    table ~header:[ "readers"; "cycles/tick (writer)"; "bus-txns" ] rows
end

(* ================================================================== *)
(* E13: chaos fault injection: detection rate per fault class          *)
(* ================================================================== *)

module E13 = struct
  module Chaos = Mach_chaos.Chaos
  module Fault = Mach_chaos.Chaos_fault
  module Cs = Mach_chaos.Chaos_scenarios

  let seeds = 15

  let detected_by (s : Chaos.sweep) =
    match
      List.filter_map
        (fun (d, n) ->
          if n > 0 && Chaos.detected d then Some (Chaos.detection_name d)
          else None)
        s.Chaos.counts
    with
    | [] -> "-"
    | ds -> String.concat "+" ds

  let first_seed (s : Chaos.sweep) =
    match s.Chaos.first_failure with Some r -> r.Chaos.seed | None -> 0

  let cols =
    Bench_rows.
      [
        col "scenario" ~key:"scenario" (fun (sname, _, _) -> J.String sname);
        col "fault class" ~key:"fault" (fun (_, cls, _) ->
            J.String (Fault.name cls));
        col "runs" ~key:"runs" (fun (_, _, s) -> J.Int s.Chaos.runs);
        col "detection rate" ~key:"detection_rate" (fun (_, _, s) ->
            J.Float (Chaos.detection_rate s));
        col "detected by" ~key:"detected_by" (fun (_, _, s) ->
            J.String (detected_by s));
        col "first seed" ~key:"seeds_to_first_detection"
          ~show:(function J.Int 0 -> "-" | v -> cell v)
          (fun (_, _, s) -> J.Int (first_seed s));
      ]

  let run () =
    section ~id:"E13"
      ~title:"chaos fault injection: detection rate per fault class"
      ~claim:
        "seeded fault injection (lost/late/spurious wakeups, deferred \
         interrupts, schedule perturbation, forced preemption) drives the \
         hazards of sections 6-7 out of hiding, and the waits-for \
         detector names the cycle or the orphaned waiter";
    let rows =
      grid Cs.all Fault.all (fun (sname, scenario) cls ->
          ( sname,
            cls,
            Chaos.sweep ~cpus:4 ~seeds
              ~faults:(Fault.mix ~intensity:2 [ cls ])
              scenario ))
    in
    print cols rows;
    write_json ~what:"detection table" "BENCH_chaos.json"
      (J.Obj [ ("E13", Bench_rows.to_json cols rows) ])
end

(* ================================================================== *)
(* E14: systematic schedule exploration (bounded DPOR model checking)  *)
(* ================================================================== *)

module E14 = struct
  module Mc = Mach_mc.Mc
  module Cs = Mach_chaos.Chaos_scenarios

  (* Each row is one (scenario, mode, bound) exploration.  Scenarios and
     budgets are sized so the whole experiment stays in CI smoke-test
     range on one core: the wakeup herd is explored under a preemption
     bound (its unbounded DPOR run — 38k schedules, VERIFIED — is
     recorded in EXPERIMENTS.md), and the naive baselines that would be
     intractable are capped and reported as incomplete. *)
  let cases =
    [
      (* scenario, cpus, mode, bound, max executions *)
      ("same-spl", 2, Mc.Naive, None, None);
      ("same-spl", 2, Mc.Sleep_sets, None, None);
      ("same-spl", 2, Mc.Dpor, None, None);
      ("same-spl-buggy", 2, Mc.Dpor, None, None);
      ("handoff", 2, Mc.Naive, None, Some 20_000);
      ("handoff", 2, Mc.Sleep_sets, None, None);
      ("handoff", 2, Mc.Dpor, None, None);
      ("herd", 2, Mc.Dpor, Some 2, None);
      ("interrupt-deadlock", 3, Mc.Dpor, None, None);
      ("interrupt-disciplined", 3, Mc.Dpor, Some 1, None);
      ("interrupt-disciplined", 3, Mc.Dpor, Some 2, None);
    ]

  let scenario_fn = function
    | "same-spl" -> Scenarios.same_spl_holder ~disciplined:true
    | "same-spl-buggy" -> Scenarios.same_spl_holder ~disciplined:false
    | "handoff" -> Cs.lost_wakeup_handoff
    | "herd" -> fun () -> Cs.wakeup_herd ~sleepers:2 ()
    | "interrupt-deadlock" ->
        Scenarios.interrupt_barrier_scenario ~disciplined:false
    | "interrupt-disciplined" ->
        Scenarios.interrupt_barrier_scenario ~disciplined:true
    | s -> failwith ("unknown mc scenario " ^ s)

  let verdict_of (r : Mc.result) =
    if r.Mc.verified then "verified"
    else
      match r.Mc.failure with
      | Some f ->
          Printf.sprintf "failure(%d transitions, %d preemptions)"
            (Array.length f.Mc.f_trace) f.Mc.f_preemptions
      | None -> "incomplete"

  type row = {
    sname : string;
    cpus : int;
    mode : Mc.mode;
    bound : int option;
    res : Mc.result;
    ms : float;
    ratio : float option;  (* DPOR executions over the naive count *)
  }

  let cols =
    Bench_rows.
      [
        col "scenario" ~key:"scenario" (fun r -> J.String r.sname);
        col "cpus" ~key:"cpus" (fun r -> J.Int r.cpus);
        col "mode" ~key:"mode" (fun r -> J.String (Mc.mode_name r.mode));
        col "bound" ~key:"bound"
          ~show:(function J.Int b -> string_of_int b | _ -> "-")
          (fun r ->
            match r.bound with
            | None -> J.String "unbounded"
            | Some b -> J.Int b);
        col "schedules" ~key:"executions" (fun r ->
            J.Int r.res.Mc.stats.Mc.executions);
        col "pruned" ~key:"pruned" (fun r -> J.Int r.res.Mc.stats.Mc.pruned);
        json "transitions" (fun r -> J.Int r.res.Mc.stats.Mc.transitions);
        json "complete" (fun r -> J.Bool r.res.Mc.complete);
        col "vs naive" ~show:(fixed 4) (fun r ->
            match r.ratio with Some x -> J.Float x | None -> J.Null);
        col "verdict" ~key:"verdict" (fun r -> J.String (verdict_of r.res));
        col "ms" ~key:"wall_ms" ~show:(fixed 1) (fun r -> J.Float r.ms);
        json_opt "reduction_vs_naive" (fun r ->
            Option.map (fun x -> J.Float x) r.ratio);
      ]

  let run () =
    section ~id:"E14"
      ~title:"systematic schedule exploration (bounded DPOR model checking)"
      ~claim:
        "the section 6 event-wait protocol and the section 7 same-spl \
         rule hold over EVERY schedule of small scenarios, the section 7 \
         deadlocks are found without fault injection with minimal \
         replayable counterexamples, and DPOR makes exhaustive search \
         tractable where naive enumeration is not";
    (* naive execution counts per (scenario, cpus), for reduction ratios *)
    let naive_execs = Hashtbl.create 8 in
    let rows =
      List.map
        (fun (sname, cpus, mode, bound, max_executions) ->
          let res, secs =
            wall (fun () ->
                Mc.check ~cpus ~mode ?bound ?max_executions (scenario_fn sname))
          in
          let ms = secs *. 1000. in
          let execs = res.Mc.stats.Mc.executions in
          if mode = Mc.Naive && res.Mc.complete then
            Hashtbl.replace naive_execs (sname, cpus) execs;
          let ratio =
            if mode = Mc.Dpor then
              match Hashtbl.find_opt naive_execs (sname, cpus) with
              | Some n when n > 0 -> Some (float_of_int execs /. float_of_int n)
              | _ -> None
            else None
          in
          { sname; cpus; mode; bound; res; ms; ratio })
        cases
    in
    print cols rows;
    write_json ~what:"exploration table" "BENCH_mc.json"
      (J.Obj [ ("E14", Bench_rows.to_json cols rows) ])
end

(* ================================================================== *)
(* E15: queue locks at scale: ttas -> ticket/MCS crossover              *)
(* ================================================================== *)

module E15 = struct
  module Lock_proto = Mach_core.Lock_proto

  (* E1's contention workload pushed to 64 cpus and extended with the
     lib/locks queue protocols.  Fewer iterations than E1 so the 64-cpu
     rows stay in smoke-test range; the contention level per acquire is
     what matters, not the total operation count. *)
  let sweep = [ 2; 8; 16; 32; 64 ]
  let iters = 12

  let protos =
    List.map
      (fun p -> (Spin.protocol_name p, (Some p, None)))
      Spin.all_protocols
    @ List.map (fun f -> (Lock_proto.name f, (None, Some f))) K.Locks.all

  let mutex_workload (protocol, proto) cpus =
    sim_run ~cpus (Scenarios.contention ?protocol ?proto ~name:"l" ~iters)

  (* Read-mostly workload (~5% writes): big-reader lock vs the complex
     readers/writer lock vs a plain ttas mutex. *)
  let rw_ops = 20

  let read_mostly impl cpus =
    sim_run ~cpus (fun () ->
        let d = Engine.Cell.make 0 in
        let read () =
          ignore (Engine.Cell.get d);
          Engine.cycles 10
        in
        let write () = ignore (Engine.Cell.fetch_and_add d 1) in
        let run_ops do_read do_write w () =
          for op = 1 to rw_ops do
            if (op + w) mod rw_ops = 0 then do_write () else do_read ()
          done
        in
        (* lock, access, unlock on each side *)
        let locked ~rd ~wr ~unlock =
          run_ops
            (fun () -> rd (); read (); unlock ())
            (fun () -> wr (); write (); unlock ())
        in
        let worker =
          match impl with
          | `Brlock ->
              let l = K.Locks.Brlock.make ~name:"br" in
              run_ops
                (fun () -> K.Locks.Brlock.with_read l read)
                (fun () -> K.Locks.Brlock.with_write l write)
          | `Clock ->
              let l = K.Clock.make ~name:"rw" ~can_sleep:false () in
              locked
                ~rd:(fun () -> K.Clock.lock_read l)
                ~wr:(fun () -> K.Clock.lock_write l)
                ~unlock:(fun () -> K.Clock.lock_done l)
          | `Ttas ->
              let l = K.Slock.make ~name:"m" ~protocol:Spin.Ttas () in
              let lock () = K.Slock.lock l in
              locked ~rd:lock ~wr:lock ~unlock:(fun () -> K.Slock.unlock l)
        in
        Scenarios.spawn_join cpus worker)

  let crossover_cols =
    Bench_rows.
      [
        col "protocol" ~key:"protocol" (fun (n, _) -> J.String n);
        json "vs" (fun _ -> J.String "ttas");
        col "crossover-cpus" ~key:"crossover_cpus" (fun (_, c) -> opt_int c);
      ]

  let run () =
    section ~id:"E15" ~title:"queue locks at scale: the ttas crossover"
      ~claim:
        "spinning on a remote flag costs bus bandwidth proportional to \
         waiters; queue locks (ticket with proportional backoff, MCS, \
         Anderson) spin locally and hand off explicitly, so past a \
         crossover cpu count they beat ttas on both bus traffic and \
         makespan; a big-reader lock makes read-mostly data near-free to \
         read (s.2)";
    let mutex_cols = point_cols "protocol" @ [ misses_col ] in
    let mutex = sweep_points sweep protos mutex_workload in
    print mutex_cols mutex;
    (* Crossover: smallest cpu count at which a queue protocol beats ttas
       on makespan AND bus traffic, and stays ahead for the rest of the
       sweep. *)
    let stats name cpus =
      (List.find (fun p -> p.name = name && p.cpus = cpus) mutex).s
    in
    let beats name cpus =
      let s = stats name cpus and t = stats "ttas" cpus in
      s.Engine.makespan < t.Engine.makespan
      && s.Engine.bus_transactions < t.Engine.bus_transactions
    in
    let crossovers =
      List.map
        (fun f ->
          let n = Lock_proto.name f in
          (n, crossover (beats n) sweep))
        K.Locks.all
    in
    printf "\ncrossover vs ttas (beats on makespan AND bus-txns from here up):\n";
    print crossover_cols crossovers;
    printf "\nread-mostly (%d%% writes):\n" (100 / rw_ops);
    let rw_cols =
      point_cols "impl"
      @ [ Bench_rows.json "misses" (fun p -> J.Int p.s.Engine.cache_misses) ]
    in
    let rw =
      sweep_points sweep
        [ ("brlock", `Brlock); ("complex-rw", `Clock); ("ttas-mutex", `Ttas) ]
        read_mostly
    in
    print rw_cols rw;
    write_json ~what:"lock-suite tables" "BENCH_locks.json"
      (J.Obj
         [
           ( "E15",
             J.Obj
               [
                 ("mutex", Bench_rows.to_json mutex_cols mutex);
                 ("read_mostly", Bench_rows.to_json rw_cols rw);
                 ("crossover", Bench_rows.to_json crossover_cols crossovers);
               ] );
         ])
end

(* ================================================================== *)
(* E16, E19: a storm swept over cpus under each locking discipline     *)
(* ================================================================== *)

(* The storm runs at every cpu count under each discipline; the tables
   give each candidate's makespan speedup over [base] and the cpu count
   from which [winner] stays ahead of it ([loser] names [base] in that
   line). *)
let storm ~id ~file ~what ~disciplines ~title ~base ~over ~winner ~loser run =
  let sweep = [ 2; 8; 16; 32; 64 ] in
  let cols = point_cols "locking" in
  let points = sweep_points sweep disciplines run in
  print cols points;
  let makespan = makespan_of points in
  let speedups = speedup_cols makespan ~base over in
  printf "\n%s:\n" title;
  print speedups sweep;
  let crossover =
    crossover
      (fun c ->
        match speedup makespan ~base winner c with
        | Some x -> x > 1.0
        | None -> false)
      sweep
  in
  (match crossover with
  | Some c -> printf "%s beats %s from %d cpus up\n" winner loser c
  | None -> printf "%s never beats %s in this sweep\n" winner loser);
  write_json ~what file
    (J.Obj
       [
         ( id,
           J.Obj
             [
               ("storm", Bench_rows.to_json cols points);
               ("speedup", Bench_rows.to_json speedups sweep);
               ("crossover_cpus", opt_int crossover);
             ] );
       ])

(* E16: range locks over the VM map.  Under the coarse discipline every
   operation of the fault storm takes the one map lock, so it serializes
   no matter how disjoint the addresses; under range locking only
   overlapping requests conflict. *)
module E16 = struct
  let run () =
    section ~id:"E16" ~title:"range locks over the VM map: fault storms"
      ~claim:
        "a map-wide lock serializes every allocation, fault and \
         deallocation no matter how disjoint their addresses; a \
         list-based range lock admits all non-overlapping operations at \
         once, so a many-thread fault storm across a large address space \
         scales with cpus instead of collapsing onto the one lock (s.4)";
    storm ~id:"E16" ~file:"BENCH_vm.json" ~what:"vm-map tables"
      ~disciplines:
        (List.map
           (fun l -> (Vm.Vm_map.locking_name l, l))
           [ Vm.Vm_map.Coarse; Vm.Vm_map.Range ])
      ~title:"range-lock speedup over the coarse map lock (makespan ratio)"
      ~base:"coarse"
      ~over:[ ("range", "coarse/range", "range_speedup") ]
      ~winner:"range" ~loser:"coarse" Workloads.vm_storm
end

(* ================================================================== *)
(* E18: causal observability: blockers, critical path, flight recorder *)
(* ================================================================== *)

module E18 = struct
  module Obs_span = Mach_obs.Obs_span
  module Obs_cp = Mach_obs.Obs_critical_path
  module Cs = Mach_chaos.Chaos_scenarios

  (* Three workload shapes with different causal structure: E1's
     single-lock hammer (lock spans dominate), E13's event handoff
     (event-wait spans), and E15's 64-cpu ttas point (the scale the
     acceptance run uses). *)
  let ttas_hammer ~iters () =
    Scenarios.contention ~protocol:Spin.Ttas ~name:"contended" ~iters ()

  (* The handoff row runs under the random policy (as E13's chaos sweeps
     do): under Timed the consumer is dispatched after the producer's
     wakeup and never sleeps, so there would be no event span to
     attribute.  The rpc row exercises the ipc and event span kinds. *)
  let timed = Fun.id
  let random cfg = { cfg with Config.policy = Config.Random_policy; seed = 1 }

  let workloads =
    [
      ("e1-ttas-16cpu", 16, timed, ttas_hammer ~iters:30);
      ("e13-handoff-4cpu", 4, random, Cs.lost_wakeup_handoff);
      ("e15-ttas-64cpu", 64, timed, ttas_hammer ~iters:12);
      ( "rpc-4cpu", 4, timed,
        Scenarios.null_rpc ~pages:64 ~clients:4 ~calls_each:10 );
    ]

  let run () =
    section ~id:"E18" ~title:"causal observability: who blocks whom, and why"
      ~claim:
        "span-level blocked-by attribution and offline critical-path \
         analysis explain the measured slowdowns of E1/E15 (lock waits \
         on the makespan's path) and E13's handoff latency (event waits) \
         without perturbing the schedule — spans on is byte-identical to \
         spans off";
    let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
    let rows =
      List.map
        (fun (wname, cpus, policy_tweak, workload) ->
          let stats =
            sim_run ~cpus
              ~tweak:(fun cfg ->
                policy_tweak
                  { cfg with Config.trace = true; track_waits = true })
              workload
          in
          let view =
            match Obs_span.last () with
            | Some v -> v
            | None -> Obs_span.empty_view
          in
          let evs =
            List.map
              (fun (e : Mach_sim.Sim_trace.event) ->
                {
                  Obs_cp.cp_clock = e.Mach_sim.Sim_trace.clock;
                  cp_ev = e.Mach_sim.Sim_trace.ev;
                })
              (Engine.trace_events ())
          in
          let cp = Obs_cp.compute ~makespan:stats.Engine.makespan evs in
          let dom_cls, dom_frac =
            match Obs_cp.dominant cp with
            | Some a -> (a.Obs_cp.cls, a.Obs_cp.fraction)
            | None -> ("-", 0.)
          in
          let sites = view.Obs_span.v_sites in
          obs_add_json wname
            (J.Obj
               [
                 ("cpus", J.Int cpus);
                 ("makespan", J.Int stats.Engine.makespan);
                 ("spans", Obs_span.to_json view);
                 ("critical_path", Obs_cp.to_json cp);
               ]);
          [
            wname;
            i cpus;
            i (sum (fun (s : Obs_span.site) -> s.Obs_span.s_spans) sites);
            i (sum (fun (s : Obs_span.site) -> s.Obs_span.s_blocked) sites);
            dom_cls;
            f2 dom_frac;
            f2 cp.Obs_cp.residual;
            i (sum (fun (_, l) -> List.length l) view.Obs_span.v_flight);
          ])
        workloads
    in
    table
      ~header:
        [
          "workload";
          "cpus";
          "spans";
          "blocked";
          "dominant class";
          "cp-fraction";
          "residual";
          "flight";
        ]
      rows
end

(* ================================================================== *)
(* E19: scache page cache: read-mostly lookup storm                     *)
(* ================================================================== *)

(* Read-mostly page lookups against one vm_cache under three index
   locks: the scache per-cpu refcount RW lock, the brlock, and a flat
   mutex (every lookup takes the one simple lock — the baseline the
   scache protocol exists to beat).  Writes (evict + refill) are rare
   and staggered so the workload matches the cache's design point:
   under the RW disciplines readers share the lock, under the mutex
   they convoy. *)
module E19 = struct
  let run () =
    section ~id:"E19" ~title:"scache page cache: read-mostly lookup storm"
      ~claim:
        "a page-cache index behind one mutex convoys every lookup; the \
         scache protocol counts readers in per-cpu refcount slots so \
         read-mostly lookups proceed in parallel, and the write-side \
         sweep only charges the rare evict/fill (s.5)";
    storm ~id:"E19" ~file:"BENCH_cache.json" ~what:"page-cache tables"
      ~disciplines:
        [
          ("scache", Vm.Vm_cache.Scache);
          ("brlock", Vm.Vm_cache.Brlock_rw);
          ("mutex", Vm.Vm_cache.Mutex);
        ]
      ~title:"read-throughput speedup over the mutex cache (makespan ratio)"
      ~base:"mutex"
      ~over:
        [
          ("scache", "mutex/scache", "scache_speedup");
          ("brlock", "mutex/brlock", "brlock_speedup");
        ]
      ~winner:"scache" ~loser:"the mutex cache" Workloads.cache_storm
end

(* ================================================================== *)
(* E20: RPC serving over ports: batching + a sharded name space        *)
(* ================================================================== *)

module E20 = struct
  (* Client cpus hammer port-based echo servers through the MiG stubs
     and the full section 10 reference protocol — per-request name
     lookup, port-right translation, refcount take/drop, dispatch,
     reply, and (in the drain leg) clean shutdown under load.  Two
     throughput mechanisms are swept against the flat baseline: batching
     (the server dequeues up to k requests per port-lock acquisition)
     and a sharded port name space (names hashed over S translation
     tables, each under its own lock, in place of the single global
     table). *)

  let sweep = [ 2; 8; 16; 32; 64 ]

  (* (label, shards, batch) *)
  let configs =
    [ ("flat", 1, 1); ("sharded", 8, 1); ("batched", 1, 8); ("sh+batch", 8, 8) ]

  open Workloads

  (* A row is a config's label and its run. *)
  let result_cols =
    Bench_rows.
      [
        col "rpcs" ~key:"served" (fun (_, r) -> J.Int r.served);
        json "drained" (fun (_, r) -> J.Int r.drained);
        col "makespan" ~key:"makespan" (fun (_, r) -> J.Int r.makespan);
        col "RPCs/sec" ~key:"rpcs_per_sec" ~show:(fixed 0) (fun (_, r) ->
            J.Float r.rps);
        col "p50-cyc" ~key:"p50_cycles" (fun (_, r) -> J.Int r.p50);
        col "p99-cyc" ~key:"p99_cycles" (fun (_, r) -> J.Int r.p99);
      ]

  let cpus_col = Bench_rows.json "cpus" (fun (_, r) -> J.Int r.cpus)

  let sweep_cols =
    Bench_rows.
      [
        col "cpus" (fun (_, r) -> J.Int r.cpus);
        col "config" ~key:"config" (fun (config, _) -> J.String config);
        cpus_col;
        json "shards" (fun (_, r) -> J.Int r.shards);
        json "batch" (fun (_, r) -> J.Int r.batch);
      ]
    @ result_cols

  let run ?(smoke = false) () =
    section ~id:"E20" ~title:"RPC serving: batching + sharded port name space"
      ~claim:
        "the section 10 reference protocol (translate, take/drop, \
         dispatch, reply) serves sustained RPC traffic; batched dequeue \
         amortizes the port-lock hold and a sharded name space removes \
         the global translation-table lock from the hot path, so \
         throughput scales with client cpus instead of convoying \
         (Elphinstone et al.: IPC throughput is where lock granularity \
         pays off or collapses)";
    let sweep = if smoke then [ 4 ] else sweep in
    let failed = ref 0 in
    let serve ?drain ~cpus ~shards ~batch ~calls_each () =
      match Workloads.rpc_serve ?drain ~cpus ~shards ~batch ~calls_each () with
      | Ok r -> Some r
      | Error msg ->
          incr failed;
          printf "%s\n" msg;
          None
    in
    let rows =
      List.filter_map Fun.id
        (grid sweep configs (fun cpus (config, shards, batch) ->
             serve ~cpus ~shards ~batch ~calls_each:16 ()
             |> Option.map (fun r -> (config, r))))
    in
    print sweep_cols rows;
    let makespan name cpus =
      List.find_opt (fun (config, r) -> config = name && r.cpus = cpus) rows
      |> Option.map (fun (_, r) -> r.makespan)
    in
    let speedups =
      speedup_cols makespan ~base:"flat"
        [
          ("sharded", "sharded", "sharded_speedup");
          ("batched", "batched", "batched_speedup");
          ("sh+batch", "sh+batch", "sharded_batched_speedup");
        ]
    in
    printf "\nthroughput speedup over flat batch=1 (makespan ratio):\n";
    print speedups sweep;
    (* The headline sustained leg: a longer sharded+batched run at the
       top of the sweep (the smoke variant reuses the small size so it
       stays inside the CI budget). *)
    let sus_cpus, sus_calls = if smoke then (4, 32) else (64, 256) in
    let sustained =
      serve ~cpus:sus_cpus ~shards:8 ~batch:8 ~calls_each:sus_calls ()
    in
    (match sustained with
    | Some r ->
        printf
          "\nsustained: %d RPCs in %d cycles = %.0f RPCs/sec at a nominal 1 \
           GHz (sharded+batched, %d cpus)\n"
          r.served r.makespan r.rps sus_cpus;
        printf "sustained p99 latency: %d cycles (p50 %d)\n" r.p99 r.p50
    | None -> printf "\nsustained leg FAILED\n");
    (* Shutdown under load: servers terminated mid-traffic must answer
       every in-flight request (err_deactivated) and leak nothing — the
       scenario panics on a §4 double-free or a leaked reference, so a
       Completed outcome IS the clean-drain verdict. *)
    let drain_cpus = if smoke then 4 else 16 in
    let drain =
      serve ~drain:true ~cpus:drain_cpus ~shards:4 ~batch:4 ~calls_each:16 ()
    in
    (match drain with
    | Some r ->
        printf
          "shutdown drain: clean (%d cpus: %d served, %d in-flight answered \
           err_deactivated, all references balanced)\n"
          drain_cpus r.served r.drained
    | None -> printf "shutdown drain: FAILED\n");
    printf "refcount panics: %d\n" !failed;
    if !failed > 0 then
      error
        (Printf.sprintf
           "E20: %d runs panicked, deadlocked or hit the step limit" !failed);
    (* The sustained and drain legs: one object each. *)
    let leg = function
      | Some r -> Bench_rows.obj (cpus_col :: result_cols) ("", r)
      | None -> J.Null
    in
    write_json ~what:"rpc tables" "BENCH_rpc.json"
      (J.Obj
         [
           ( "E20",
             J.Obj
               [
                 ("mode", J.String (if smoke then "smoke" else "full"));
                 ("sweep", Bench_rows.to_json sweep_cols rows);
                 ("speedup", Bench_rows.to_json speedups sweep);
                 ("sustained", leg sustained);
                 ("drain", leg drain);
                 ("refcount_panics", J.Int !failed);
               ] );
         ])
end

let experiments =
  [
    ("N0", N0.run);
    ("E1", E1.run);
    ("E2", E2.run);
    ("E3", E3.run);
    ("E4", E4.run);
    ("E5", E5.run);
    ("E6", E6.run);
    ("E7", E7.run);
    ("E8", E8.run);
    ("E9", E9.run);
    ("E10", E10.run);
    ("E11", E11.run);
    ("E12", E12.run);
    ("E13", E13.run);
    ("E14", E14.run);
    ("E15", E15.run);
    ("E16", E16.run);
    ("E18", E18.run);
    ("E19", E19.run);
    ("E20", (fun () -> E20.run ()));
    ("E20-smoke", (fun () -> E20.run ~smoke:true ()));
    ("X1", X1.run);
  ]

(* A subset run replaces only the sections of the experiments it ran;
   the file keeps the others from its last run, in [experiments] order. *)
let observability_file = "BENCH_observability.json"

let merge_observability fresh =
  let previous =
    match read_json observability_file with
    | Ok (J.Obj sections) -> sections
    | _ -> []
  in
  List.filter_map
    (fun (id, _) ->
      match List.assoc_opt id fresh with
      | Some j -> Some (id, j)
      | None -> Option.map (fun j -> (id, j)) (List.assoc_opt id previous))
    experiments

let () =
  (* A full run keeps E20's full sweep: E20-smoke writes the same
     BENCH_rpc.json, so it runs only when named. *)
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.filter (( <> ) "E20-smoke") (List.map fst experiments)
  in
  let fresh = ref [] in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some run ->
          obs_reset ();
          run ();
          obs_section ~id ();
          Option.iter
            (fun e -> error ("observability scope error: " ^ e))
            (obs_scope_error ~id);
          fresh := (id, obs_json ()) :: !fresh
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s)\n" id
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested;
  if !errors <> [] then begin
    List.iter prerr_endline (List.rev !errors);
    exit 1
  end;
  write_json ~what:"per-experiment observability" observability_file
    (J.Obj (merge_observability !fresh));
  printf "All requested experiments completed.\n"
