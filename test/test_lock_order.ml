(* Lock-order conventions (section 5): the class-rank discipline checker,
   uid-ordered pairs, the backout protocol's capped backoff, and the
   per-run reset of the checker's held stacks. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
open Test_support

(* The fixed fix: acquiring rank 2 while the stack holds [rank 3; rank 1]
   must be flagged against the rank-3 class even though the most recent
   acquisition is the rank-1 class. *)
let test_deep_stack_violation () =
  in_sim (fun () ->
      K.Order.clear_violations ();
      let low = K.Order.define_class ~name:"low" ~rank:1 in
      let mid = K.Order.define_class ~name:"mid" ~rank:2 in
      let high = K.Order.define_class ~name:"high" ~rank:3 in
      K.Order.note_acquire high;
      (* low-after-high is the first violation; it leaves the stack as
         [low; high] with the lower rank on top *)
      K.Order.note_acquire low;
      check_int "low-after-high flagged" 1 (List.length (K.Order.violations ()));
      (* top of stack is rank 1 < 2: only a whole-stack comparison sees
         the rank-3 hold underneath *)
      K.Order.note_acquire mid;
      (match K.Order.violations () with
      | v :: _ ->
          check_bool "names the offending class" true (contains v "high");
          check_bool "names its rank" true (contains v "rank 3");
          check_bool "names the acquired class" true (contains v "mid")
      | [] -> Alcotest.fail "deep-stack violation not recorded");
      check_int "both violations recorded" 2
        (List.length (K.Order.violations ()));
      K.Order.note_release mid;
      K.Order.note_release low;
      K.Order.note_release high;
      K.Order.clear_violations ())

let test_release_not_held () =
  in_sim (fun () ->
      K.Order.clear_violations ();
      let c = K.Order.define_class ~name:"phantom" ~rank:1 in
      K.Order.note_release c;
      (match K.Order.violations () with
      | [ v ] ->
          check_bool "flags release-not-held" true
            (contains v "does not hold");
          check_bool "names the class" true (contains v "phantom")
      | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
      K.Order.clear_violations ())

(* A stale stack from a previous run must not produce phantom violations
   in the next one: held stacks belong to the run that pushed them. *)
let test_per_run_reset () =
  in_sim (fun () ->
      K.Order.clear_violations ();
      let high = K.Order.define_class ~name:"stale-high" ~rank:9 in
      (* leak a hold (a buggy scenario that never released) *)
      K.Order.note_acquire high);
  in_sim (fun () ->
      let low = K.Order.define_class ~name:"fresh-low" ~rank:1 in
      K.Order.note_acquire low;
      K.Order.note_release low;
      check_int "no phantom violation from the previous run" 0
        (List.length (K.Order.violations ()));
      K.Order.clear_violations ())

let test_lock_both_by_uid_orders () =
  in_sim (fun () ->
      let a = K.Slock.make ~name:"pair-a" () in
      let b = K.Slock.make ~name:"pair-b" () in
      check_bool "distinct uids" true (K.Slock.uid a <> K.Slock.uid b);
      (* both argument orders acquire both locks *)
      K.Order.lock_both_by_uid a b;
      check_bool "a locked" true (K.Slock.is_locked a);
      check_bool "b locked" true (K.Slock.is_locked b);
      K.Order.unlock_both a b;
      K.Order.lock_both_by_uid b a;
      check_bool "a locked (swapped)" true (K.Slock.is_locked a);
      check_bool "b locked (swapped)" true (K.Slock.is_locked b);
      K.Order.unlock_both b a;
      (* the same lock twice is a single acquisition, not a recursion *)
      K.Order.lock_both_by_uid a a;
      check_bool "self pair locked once" true (K.Slock.is_locked a);
      K.Order.unlock_both a a;
      check_bool "self pair released" false (K.Slock.is_locked a))

(* Two threads running the backout protocol against an opposing-order
   holder: must complete on every schedule (the protocol exists for
   exactly this), and the capped backoff keeps retries bounded. *)
let test_backout_backs_off () =
  let backouts = ref (-1) in
  in_sim (fun () ->
      let first = K.Slock.make ~name:"bo-first" () in
      let second = K.Slock.make ~name:"bo-second" () in
      (* Hold [second] until the contender's single-attempt try has
         observably failed twice (visible in the lock's try stats), so the
         protocol must back off at least twice regardless of timing. *)
      let held = Engine.Cell.make ~name:"bo-held" 0 in
      let holder =
        Engine.spawn ~name:"holder" (fun () ->
            K.Slock.lock second;
            Engine.Cell.set held 1;
            let stats = K.Slock.stats second in
            Engine.spin_hint "bo-failed-tries";
            while Mach_core.Lock_stats.failed_tries stats < 2 do
              Engine.pause ()
            done;
            K.Slock.unlock second)
      in
      let contender =
        Engine.spawn ~name:"contender" (fun () ->
            Engine.spin_hint "bo-held";
            while Engine.Cell.get held = 0 do
              Engine.pause ()
            done;
            backouts := K.Order.backout_lock_pair ~first ~second;
            K.Order.unlock_both first second)
      in
      Engine.join holder;
      Engine.join contender);
  check_bool "protocol completed" true (!backouts >= 0);
  check_bool "backed out at least twice" true (!backouts >= 2)

let test_backout_explored () =
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 20 (fun i -> i + 1))
      (fun () ->
        let first = K.Slock.make ~name:"x-first" () in
        let second = K.Slock.make ~name:"x-second" () in
        let t1 =
          Engine.spawn ~name:"fwd" (fun () ->
              K.Slock.lock first;
              Engine.cycles 50;
              if K.Slock.try_lock second then K.Slock.unlock second;
              K.Slock.unlock first)
        in
        let t2 =
          Engine.spawn ~name:"bwd" (fun () ->
              ignore (K.Order.backout_lock_pair ~first:second ~second:first);
              K.Order.unlock_both second first)
        in
        Engine.join t1;
        Engine.join t2)
  in
  check_bool "no deadlocks under exploration" true (Explore.all_completed v)

let () =
  Alcotest.run "lock_order"
    [
      ( "rank discipline",
        [
          Alcotest.test_case "deep-stack violation" `Quick
            test_deep_stack_violation;
          Alcotest.test_case "release not held" `Quick test_release_not_held;
          Alcotest.test_case "per-run reset" `Quick test_per_run_reset;
        ] );
      ( "pairs and backout",
        [
          Alcotest.test_case "lock_both_by_uid orders" `Quick
            test_lock_both_by_uid_orders;
          Alcotest.test_case "backout backs off" `Quick test_backout_backs_off;
          Alcotest.test_case "backout explored" `Quick test_backout_explored;
        ] );
    ]
