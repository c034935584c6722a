(* Tests for the simulated multiprocessor engine: scheduling, parking,
   interrupts, deadlock detection, determinism and the cache/bus model. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Explore = Mach_sim.Sim_explore
module Spl = Mach_core.Spl
open Test_support

let cfg ?(cpus = 4) ?(seed = 7) ?(policy = Config.Random_policy) () =
  { Config.default with Config.cpus; seed; policy }

let run ?cpus ?seed ?policy main =
  Engine.run ~cfg:(cfg ?cpus ?seed ?policy ()) main

(* ------------------------------------------------------------------ *)

let test_single_thread_runs () =
  let hit = ref false in
  let stats = run (fun () -> hit := true) in
  check_bool "main ran" true !hit;
  check_int "one thread spawned" 1 stats.Engine.spawned_threads

let test_spawn_join () =
  let order = ref [] in
  let _ =
    run (fun () ->
        let note tag = order := tag :: !order in
        let children =
          List.init 5 (fun i ->
              Engine.spawn ~name:(Printf.sprintf "w%d" i) (fun () ->
                  Engine.pause ();
                  note i))
        in
        List.iter Engine.join children;
        note 99)
  in
  (match !order with
  | 99 :: rest -> check_int "all children before join" 5 (List.length rest)
  | _ -> Alcotest.fail "join returned before children finished");
  ()

let test_join_already_dead () =
  let _ =
    run (fun () ->
        let t = Engine.spawn (fun () -> ()) in
        (* Let it finish first. *)
        for _ = 1 to 50 do
          Engine.pause ()
        done;
        Engine.join t;
        check_bool "dead" true (Engine.is_dead t))
  in
  ()

let test_park_unpark () =
  let got = ref 0 in
  let _ =
    run (fun () ->
        let waiter =
          Engine.spawn ~name:"waiter" (fun () ->
              Engine.park ();
              got := 1)
        in
        for _ = 1 to 10 do
          Engine.pause ()
        done;
        Engine.unpark waiter;
        Engine.join waiter)
  in
  check_int "waiter resumed" 1 !got

let test_permit_before_park () =
  (* unpark before park must not lose the wakeup. *)
  let _ =
    run (fun () ->
        let t = ref None in
        let waiter =
          Engine.spawn ~name:"w" (fun () ->
              for _ = 1 to 20 do
                Engine.pause ()
              done;
              Engine.park ())
        in
        t := Some waiter;
        Engine.unpark waiter;
        Engine.join waiter)
  in
  ()

let test_sleep_deadlock_detected () =
  match
    Engine.run_outcome ~cfg:(cfg ()) (fun () ->
        let t = Engine.spawn ~name:"forever" (fun () -> Engine.park ()) in
        Engine.join t)
  with
  | Engine.Deadlocked (Engine.Sleep_deadlock, report) ->
      check_bool "report mentions parked threads" true
        (contains report "parked")
  | _ -> Alcotest.fail "expected a sleep deadlock"

(* Machine-local state belongs to one run: built at its first access
   there and seen by no other run, even when the run deadlocks.  Outside
   every run, an access sees a value private to that stretch between
   runs. *)
let test_machine_local_per_run () =
  let count = Mach_sim.Sim_machine.machine_local (fun () -> ref 0) in
  incr (count ());
  check_int "outside a run: its own value" 1 !(count ());
  ignore
    (Engine.run (fun () ->
         check_int "a run starts fresh" 0 !(count ());
         incr (count ())));
  check_int "after the run: fresh again" 0 !(count ());
  (match
     Engine.run_outcome (fun () ->
         incr (count ());
         Engine.park ())
   with
  | Engine.Deadlocked _ -> ()
  | _ -> Alcotest.fail "expected a sleep deadlock");
  ignore
    (Engine.run (fun () ->
         check_int "a deadlocked run leaves nothing" 0 !(count ())))

let test_spin_deadlock_detected () =
  (* Two threads spin forever on cells that never change. *)
  let outcome =
    Engine.run_outcome
      ~cfg:{ (cfg ()) with Config.watchdog_steps = 5_000 }
      (fun () ->
        let c = Engine.Cell.make ~name:"never" 0 in
        let spinner () =
          while Engine.Cell.get c = 0 do
            Engine.pause ()
          done
        in
        let a = Engine.spawn ~name:"s1" spinner in
        let b = Engine.spawn ~name:"s2" spinner in
        Engine.join a;
        Engine.join b)
  in
  match outcome with
  | Engine.Deadlocked (Engine.Spin_deadlock, _) -> ()
  | _ -> Alcotest.fail "expected a spin deadlock (watchdog)"

(* ------------------------------------------------------------------ *)
(* spin_wait: the scheduler runs the iterations of a suspended wait     *)
(* itself; everything simulated must match a spin_pause loop.          *)
(* ------------------------------------------------------------------ *)

let spin_loop ~budget probe =
  let rec go b =
    if b <= 0 then 0
    else if probe () then b
    else begin
      Mach_sim.Sim_machine.spin_pause ();
      go (b - 1)
    end
  in
  go budget

(* A waiter spins on a plain ref that a writer sets after [work] rounds
   of cell traffic; [failed] counts the probes that came back false. *)
let waiter_scenario ~wait ~budget ~work result failed () =
  let flag = ref false in
  let c = Engine.Cell.make ~name:"work" 0 in
  let writer =
    Engine.spawn ~name:"writer" (fun () ->
        for _ = 1 to work do
          ignore (Engine.Cell.fetch_and_add c 1);
          Engine.pause ()
        done;
        flag := true)
  in
  let waiter =
    Engine.spawn ~name:"waiter" (fun () ->
        result :=
          wait ~budget (fun () ->
              if not !flag then incr failed;
              !flag))
  in
  Engine.join writer;
  Engine.join waiter

let test_spin_wait_matches_loop () =
  let chaos =
    {
      Config.no_faults with
      Config.perturb_pick = 3;
      spurious_wakeup = 50;
      delay_interrupt = 2;
    }
  in
  List.iter
    (fun (policy, faults, budget) ->
      let go wait =
        let result = ref (-1) and failed = ref 0 in
        let c = { (cfg ~cpus:3 ~seed:5 ~policy ()) with Config.faults } in
        let stats =
          Engine.run ~cfg:c
            (waiter_scenario ~wait ~budget ~work:30 result failed)
        in
        (Format.asprintf "%a" Engine.pp_stats stats, !result, !failed)
      in
      let label =
        Printf.sprintf "%s budget=%d%s" (Config.policy_name policy) budget
          (if Config.faults_active faults then " chaos" else "")
      in
      let s1, r1, f1 = go Engine.spin_wait and s2, r2, f2 = go spin_loop in
      Alcotest.(check string) (label ^ ": stats") s2 s1;
      check_int (label ^ ": result") r2 r1;
      check_int (label ^ ": failed probes") f2 f1)
    [
      (Config.Timed, Config.no_faults, 10_000);
      (Config.Random_policy, Config.no_faults, 10_000);
      (Config.Round_robin, Config.no_faults, 10_000);
      (Config.Timed, Config.no_faults, 12);
      (Config.Timed, chaos, 10_000);
      (Config.Random_policy, chaos, 12);
    ]

let test_spin_wait_released () =
  let budget = 10_000 in
  let result = ref (-1) and failed = ref 0 in
  let stats =
    Engine.run ~cfg:(cfg ~cpus:2 ~policy:Config.Timed ())
      (waiter_scenario ~wait:Engine.spin_wait ~budget ~work:25 result failed)
  in
  let k = !failed in
  check_bool "the scheduler ran iterations" true (k >= 2);
  check_int "budget left" (budget - k) !result;
  check_int "spin pauses" k stats.Engine.spin_pauses;
  (* Every step dispatches, delivers or resumes, except the k - 1
     iterations after the first, which the scheduler ran in place. *)
  let resumes =
    match Engine.last_work () with
    | Some w -> w.Engine.resumes
    | None -> Alcotest.fail "no work stats"
  in
  check_int "steps without a resume" (k - 1)
    (stats.Engine.steps - resumes - stats.Engine.context_switches
   - stats.Engine.interrupts_delivered)

let test_spin_wait_exhausted () =
  let result = ref (-1) in
  let stats =
    run (fun () -> result := Engine.spin_wait ~budget:5 (fun () -> false))
  in
  check_int "returns 0" 0 !result;
  check_int "one pause per failed probe" 5 stats.Engine.spin_pauses;
  check_int "no budget, no probe" 0
    (Engine.spin_wait ~budget:0 (fun () -> Alcotest.fail "probed"));
  (* An endless wait still trips the watchdog. *)
  match
    Engine.run_outcome
      ~cfg:{ (cfg ()) with Config.watchdog_steps = 5_000 }
      (fun () -> ignore (Engine.spin_wait ~budget:max_int (fun () -> false)))
  with
  | Engine.Deadlocked (Engine.Spin_deadlock, _) -> ()
  | _ -> Alcotest.fail "expected a spin deadlock (watchdog)"

let test_spin_wait_impure_probe () =
  let impure name touch =
    match
      Engine.run_outcome ~cfg:(cfg ()) (fun () ->
          let c = Engine.Cell.make ~name:"c" 0 in
          ignore
            (Engine.spin_wait ~budget:100 (fun () ->
                 touch c;
                 false)))
    with
    | Engine.Panicked msg ->
        check_bool (name ^ ": names spin_wait") true (contains msg "spin_wait");
        check_bool (name ^ ": names the op") true (contains msg name)
    | _ -> Alcotest.failf "%s in a probe: expected a kernel panic" name
  in
  impure "Cell.get" (fun c -> ignore (Engine.Cell.get c));
  impure "Cell.set" (fun c -> Engine.Cell.set c 1);
  impure "atomic" (fun c -> ignore (Engine.Cell.fetch_and_add c 1));
  impure "cycles" (fun _ -> Engine.cycles 3);
  impure "pause" (fun _ -> Engine.pause ())

let test_determinism () =
  let trace_of seed =
    let log = ref [] in
    let _ =
      run ~seed (fun () ->
          let c = Engine.Cell.make 0 in
          let worker i () =
            for _ = 1 to 10 do
              let v = Engine.Cell.fetch_and_add c 1 in
              log := (i, v) :: !log
            done
          in
          let ts = List.init 3 (fun i -> Engine.spawn (worker i)) in
          List.iter Engine.join ts)
    in
    !log
  in
  check_bool "same seed, same schedule" true (trace_of 42 = trace_of 42);
  (* Different seeds almost surely differ for this racy workload. *)
  check_bool "different seed, different schedule" true
    (trace_of 42 <> trace_of 43)

let test_cell_semantics () =
  let _ =
    run (fun () ->
        let c = Engine.Cell.make ~name:"c" 5 in
        check_int "initial" 5 (Engine.Cell.get c);
        Engine.Cell.set c 9;
        check_int "set/get" 9 (Engine.Cell.get c);
        check_int "tas returns old" 9 (Engine.Cell.test_and_set c);
        check_int "tas set to 1" 1 (Engine.Cell.get c);
        Engine.Cell.set c 0;
        check_int "tas acquires" 0 (Engine.Cell.test_and_set c);
        check_bool "cas success" true
          (Engine.Cell.compare_and_swap c ~expected:1 ~desired:7);
        check_bool "cas failure" false
          (Engine.Cell.compare_and_swap c ~expected:1 ~desired:8);
        check_int "faa old" 7 (Engine.Cell.fetch_and_add c 3);
        check_int "faa new" 10 (Engine.Cell.get c))
  in
  ()

let test_fetch_add_atomic_under_contention () =
  let final = ref 0 in
  let _ =
    run ~cpus:4 (fun () ->
        let c = Engine.Cell.make 0 in
        let ts =
          List.init 4 (fun _ ->
              Engine.spawn (fun () ->
                  for _ = 1 to 100 do
                    ignore (Engine.Cell.fetch_and_add c 1)
                  done))
        in
        List.iter Engine.join ts;
        final := Engine.Cell.get c)
  in
  check_int "atomic increments" 400 !final

let test_interrupt_delivery () =
  let fired = ref false in
  let _ =
    run ~cpus:2 (fun () ->
        Engine.post_interrupt ~name:"test" ~cpu:(Engine.current_cpu ())
          ~level:Spl.Splvm (fun () -> fired := true);
        (* Delivery happens at a preemption point. *)
        while not !fired do
          Engine.pause ()
        done)
  in
  check_bool "handler ran" true !fired

let test_interrupt_masked_by_spl () =
  let fired = ref false in
  let _ =
    run ~cpus:1 (fun () ->
        let old = Engine.set_spl Spl.Splhigh in
        Engine.post_interrupt ~name:"masked" ~cpu:0 ~level:Spl.Splvm
          (fun () -> fired := true);
        for _ = 1 to 50 do
          Engine.pause ()
        done;
        check_bool "masked while at splhigh" false !fired;
        ignore (Engine.set_spl old);
        while not !fired do
          Engine.pause ()
        done)
  in
  check_bool "delivered after spl lowered" true !fired

let test_interrupt_nesting_and_spl_restore () =
  let order = ref [] in
  let _ =
    run ~cpus:1 (fun () ->
        Engine.post_interrupt ~name:"low" ~cpu:0 ~level:Spl.Splnet (fun () ->
            order := `Low_start :: !order;
            Engine.post_interrupt ~name:"high" ~cpu:0 ~level:Spl.Splclock
              (fun () -> order := `High :: !order);
            (* The higher-priority interrupt preempts this handler at its
               next preemption point. *)
            for _ = 1 to 20 do
              Engine.pause ()
            done;
            order := `Low_end :: !order);
        for _ = 1 to 200 do
          Engine.pause ()
        done;
        check_bool "spl restored to spl0" true
          (Spl.equal (Engine.get_spl ()) Spl.Spl0))
  in
  match List.rev !order with
  | [ `Low_start; `High; `Low_end ] -> ()
  | _ -> Alcotest.fail "nested interrupt did not preempt the low handler"

let test_interrupt_on_idle_cpu () =
  let fired = ref false in
  let _ =
    run ~cpus:2 (fun () ->
        (* cpu1 is idle: the interrupt must still be delivered there. *)
        let me = Engine.current_cpu () in
        let other = if me = 0 then 1 else 0 in
        Engine.post_interrupt ~name:"idle-ipi" ~cpu:other ~level:Spl.Splvm
          (fun () -> fired := true);
        while not !fired do
          Engine.pause ()
        done)
  in
  check_bool "fired on idle cpu" true !fired

let test_park_in_interrupt_panics () =
  match
    Engine.run_outcome ~cfg:(cfg ~cpus:1 ()) (fun () ->
        Engine.post_interrupt ~name:"bad" ~cpu:0 ~level:Spl.Splvm (fun () ->
            Engine.park ());
        for _ = 1 to 100 do
          Engine.pause ()
        done)
  with
  | Engine.Panicked msg ->
      check_bool "mentions interrupt" true (contains msg "interrupt")
  | _ -> Alcotest.fail "parking in an interrupt must panic"

let test_bound_thread_runs_on_its_cpu () =
  let seen = ref (-1) in
  let _ =
    run ~cpus:4 (fun () ->
        let t =
          Engine.spawn ~name:"pinned" ~bound:2 (fun () ->
              seen := Engine.current_cpu ())
        in
        Engine.join t)
  in
  check_int "ran on cpu 2" 2 !seen

let test_ttas_fewer_bus_transactions_than_tas () =
  (* The section 2 cache claim, at engine level: spinning with plain reads
     (cache hits) generates far less bus traffic than spinning with
     test-and-set, and the bus saturation slows the whole machine down. *)
  let run_for spin_with_tas =
    let stats =
      Engine.run
        ~cfg:{ (cfg ~cpus:8 ~policy:Config.Timed ()) with Config.seed = 3 }
        (fun () ->
          let lock = Engine.Cell.make ~name:"l" 0 in
          (* Shared kernel data protected by the lock: its updates must
             cross the bus, so spin traffic delays useful work. *)
          let data = Array.init 4 (fun _ -> Engine.Cell.make 0) in
          let iters = 30 in
          let worker () =
            for _ = 1 to iters do
              let rec acquire () =
                if spin_with_tas then begin
                  if Engine.Cell.test_and_set lock <> 0 then begin
                    Engine.pause ();
                    acquire ()
                  end
                end
                else if
                  Engine.Cell.get lock = 0
                  && Engine.Cell.test_and_set lock = 0
                then ()
                else begin
                  Engine.pause ();
                  acquire ()
                end
              in
              acquire ();
              Array.iter
                (fun d -> ignore (Engine.Cell.fetch_and_add d 1))
                data;
              Engine.cycles 20;
              Engine.Cell.set lock 0
            done
          in
          let ts = List.init 8 (fun _ -> Engine.spawn worker) in
          List.iter Engine.join ts)
    in
    (stats.Engine.bus_transactions, stats.Engine.makespan)
  in
  let tas_bus, tas_time = run_for true in
  let ttas_bus, ttas_time = run_for false in
  check_bool
    (Printf.sprintf "ttas (%d) uses less bus than tas (%d)" ttas_bus tas_bus)
    true (ttas_bus < tas_bus);
  check_bool
    (Printf.sprintf "ttas (%d) completes before tas (%d)" ttas_time tas_time)
    true (ttas_time < tas_time)

let test_explore_all_completed () =
  let v =
    Explore.run ~cpus:2 ~seeds:(List.init 20 (fun i -> i + 1)) (fun () ->
        let t = Engine.spawn (fun () -> Engine.pause ()) in
        Engine.join t)
  in
  check_bool "all completed" true (Explore.all_completed v)

let test_explore_finds_deadlock () =
  match
    Explore.find_first_deadlock ~max_seeds:5 (fun () ->
        Engine.park () (* nobody will ever unpark main *))
  with
  | Some _ -> ()
  | None -> Alcotest.fail "exploration failed to find an obvious deadlock"

(* ------------------------------------------------------------------ *)

(* An untraced run stores no trace, so it must not pay for ring storage
   either: the default 65,536-slot capacity alone would be 512 KB.  The
   model checker runs thousands of untraced executions per search. *)
let test_disabled_trace_allocates_no_rings () =
  let cfg = { (cfg ~cpus:4 ()) with Config.trace = false } in
  let scenario () =
    let c = Engine.Cell.make ~name:"c" 0 in
    let ts =
      List.init 2 (fun _ ->
          Engine.spawn (fun () ->
              for _ = 1 to 5 do
                ignore (Engine.Cell.fetch_and_add c 1)
              done))
    in
    List.iter Engine.join ts
  in
  ignore (Engine.run ~cfg scenario);
  let before = Gc.allocated_bytes () in
  ignore (Engine.run ~cfg scenario);
  let bytes = Gc.allocated_bytes () -. before in
  if bytes >= 65536. then
    Alcotest.failf "an untraced run allocated %.0f bytes (limit 64 KB)" bytes;
  check_int "no events retained" 0 (List.length (Engine.trace_events ()));
  let t =
    Mach_sim.Sim_trace.make ~cpus:4 ~capacity:cfg.Config.trace_capacity
      ~enabled:false ()
  in
  Mach_sim.Sim_trace.clear t;
  check_int "disabled trace retains nothing" 0 (Mach_sim.Sim_trace.capacity t)

(* ------------------------------------------------------------------ *)

(* The splitmix64 stream behind every schedule, pinned value by value:
   any change to the generator's representation must reproduce it. *)
module Rng = Mach_sim.Sim_rng

let rng_stream =
  [
    ( 3,
      [ 3119250675482766366; 4534518981844068699; 3876114437759809920;
        879167274396062637; 4292814611115540725; 2526229254985099159;
        1120045505311163970; 1054386664558676946; 228440489744400507;
        421129099407413219; 3096703509235289481; 1702557296765274680;
        1482100960925181230; 1272756153241891921; 3365880886770425773;
        2334429138994716073 ],
      [ 3; 6; 3; 6; 5; 6; 0; 0; 0; 4; 3; 3; 4; 1; 1; 2 ] );
    ( 0,
      [ 3604712920392642144; 1448932288725280418; 2077078074372706938;
        2491010480866548568; 1031937808948288680; 3816077276159602744;
        4449066851134268701; 3930654218868861881; 633241271816832825;
        4247420663808470737; 144512447491768723; 1616302278227100149;
        2872369318006703255; 187819681349891245; 764492196416614521;
        4456359137936595326 ],
      [ 2; 3; 1; 4; 4; 3; 2; 5; 6; 1; 3; 0; 6; 4; 2; 3 ] );
  ]

let test_rng_stream_pinned () =
  List.iter
    (fun (seed, nexts, sevens) ->
      let r = Rng.make seed in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d next" seed)
        nexts
        (List.init 16 (fun _ -> Rng.next r));
      let r = Rng.make seed in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d int 7" seed)
        sevens
        (List.init 16 (fun _ -> Rng.int r 7)))
    rng_stream

(* The scheduler draws once per step: a draw must not allocate. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.make 3 in
  ignore (Rng.next r);
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := !acc + Rng.int r 7
  done;
  let words = Gc.minor_words () -. before in
  check_bool "draws happened" true (!acc > 0);
  if words > 0. then Alcotest.failf "1000 draws allocated %.0f words" words

let test_rng_copy_independent () =
  let a = Rng.make 3 in
  for _ = 1 to 5 do
    ignore (Rng.next a)
  done;
  let b = Rng.copy a in
  let from_a = List.init 8 (fun _ -> Rng.next a) in
  let from_b = List.init 8 (fun _ -> Rng.next b) in
  let _, nexts, _ = List.hd rng_stream in
  let expected = List.filteri (fun i _ -> i >= 5 && i < 13) nexts in
  Alcotest.(check (list int)) "original continues the stream" expected from_a;
  Alcotest.(check (list int)) "copy starts at the same position" expected
    from_b

let () =
  Alcotest.run "sim_engine"
    [
      ( "threads",
        [
          Alcotest.test_case "single thread runs" `Quick
            test_single_thread_runs;
          Alcotest.test_case "spawn and join" `Quick test_spawn_join;
          Alcotest.test_case "join already-dead" `Quick
            test_join_already_dead;
          Alcotest.test_case "park/unpark" `Quick test_park_unpark;
          Alcotest.test_case "permit before park" `Quick
            test_permit_before_park;
          Alcotest.test_case "bound thread" `Quick
            test_bound_thread_runs_on_its_cpu;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "sleep deadlock detected" `Quick
            test_sleep_deadlock_detected;
          Alcotest.test_case "machine-local state per run" `Quick
            test_machine_local_per_run;
          Alcotest.test_case "spin deadlock detected" `Quick
            test_spin_deadlock_detected;
        ] );
      ( "spin_wait",
        [
          Alcotest.test_case "matches a spin_pause loop" `Quick
            test_spin_wait_matches_loop;
          Alcotest.test_case "released after k iterations" `Quick
            test_spin_wait_released;
          Alcotest.test_case "budget exhaustion" `Quick
            test_spin_wait_exhausted;
          Alcotest.test_case "impure probe panics" `Quick
            test_spin_wait_impure_probe;
        ] );
      ( "cells",
        [
          Alcotest.test_case "cell semantics" `Quick test_cell_semantics;
          Alcotest.test_case "atomic under contention" `Quick
            test_fetch_add_atomic_under_contention;
          Alcotest.test_case "ttas < tas bus traffic" `Quick
            test_ttas_fewer_bus_transactions_than_tas;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "delivery" `Quick test_interrupt_delivery;
          Alcotest.test_case "masking by spl" `Quick
            test_interrupt_masked_by_spl;
          Alcotest.test_case "nesting + spl restore" `Quick
            test_interrupt_nesting_and_spl_restore;
          Alcotest.test_case "idle cpu" `Quick test_interrupt_on_idle_cpu;
          Alcotest.test_case "park in interrupt panics" `Quick
            test_park_in_interrupt_panics;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "all completed" `Quick
            test_explore_all_completed;
          Alcotest.test_case "finds deadlock" `Quick
            test_explore_finds_deadlock;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled trace allocates no rings" `Quick
            test_disabled_trace_allocates_no_rings;
        ] );
      ( "rng",
        [
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "copy is independent" `Quick
            test_rng_copy_independent;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
    ]
