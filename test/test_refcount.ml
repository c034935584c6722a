(* Reference counting (section 8), gated (paging) counts, deactivation
   (section 9), and the kernel-object base. *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Deact = Mach_core.Deactivate
open Test_support

(* ------------------------------------------------------------------ *)

let test_create_clone_release () =
  in_sim (fun () ->
      let r = K.Ref.make ~name:"r" () in
      check_int "creation reference" 1 (K.Ref.count r);
      K.Ref.clone r;
      K.Ref.clone r;
      check_int "after clones" 3 (K.Ref.count r);
      check_bool "not last" true (K.Ref.release r = `Live);
      check_bool "not last" true (K.Ref.release r = `Live);
      check_bool "last" true (K.Ref.release r = `Last);
      check_int "zero" 0 (K.Ref.count r))

let test_clone_from_zero_panics () =
  match
    Engine.run_outcome (fun () ->
        let r = K.Ref.make ~name:"dead" () in
        ignore (K.Ref.release r);
        K.Ref.clone r)
  with
  | Engine.Panicked msg ->
      check_bool "no resurrection" true (contains msg "existing reference")
  | _ -> Alcotest.fail "cloning a dead object must panic"

let test_double_release_panics () =
  match
    Engine.run_outcome (fun () ->
        let r = K.Ref.make () in
        ignore (K.Ref.release r);
        ignore (K.Ref.release r))
  with
  | Engine.Panicked msg ->
      check_bool "double free" true (contains msg "double free")
  | _ -> Alcotest.fail "double release must panic"

let test_release_under_simple_lock_panics () =
  (* Section 8: releasing may block, so not under simple locks. *)
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make () in
        let r = K.Ref.make () in
        K.Slock.lock l;
        ignore (K.Ref.release r))
  with
  | Engine.Panicked msg ->
      check_bool "names the rule" true (contains msg "simple lock")
  | _ -> Alcotest.fail "release under a simple lock must panic"

let test_release_between_assert_and_block_panics () =
  match
    Engine.run_outcome (fun () ->
        let r = K.Ref.make () in
        let ev = K.Ev.fresh_event () in
        K.Ev.assert_wait ev;
        ignore (K.Ref.release r))
  with
  | Engine.Panicked msg ->
      check_bool "names the rule" true (contains msg "assert_wait")
  | _ -> Alcotest.fail "release between assert_wait and block must panic"

let test_clone_under_lock_is_legal () =
  in_sim (fun () ->
      (* acquiring a reference never blocks, so it is legal under locks *)
      let l = K.Slock.make () in
      let r = K.Ref.make () in
      K.Slock.lock l;
      K.Ref.clone r;
      K.Slock.unlock l;
      ignore (K.Ref.release r);
      check_int "balanced" 1 (K.Ref.count r))

let test_release_not_last () =
  in_sim (fun () ->
      let l = K.Slock.make () in
      let r = K.Ref.make () in
      K.Ref.clone r;
      (* holding another reference, the drop cannot be last: exempt from
         the blocking-context rules *)
      K.Slock.lock l;
      K.Ref.release_not_last r;
      K.Slock.unlock l;
      check_int "one left" 1 (K.Ref.count r))

let test_refcount_exact_under_contention () =
  let v =
    Explore.run ~cpus:4
      ~seeds:(List.init 20 (fun i -> i + 1))
      (fun () ->
        let r = K.Ref.make () in
        let ts =
          List.init 4 (fun _ ->
              Engine.spawn (fun () ->
                  for _ = 1 to 10 do
                    K.Ref.clone r
                  done;
                  for _ = 1 to 10 do
                    ignore (K.Ref.release r)
                  done))
        in
        List.iter Engine.join ts;
        if K.Ref.count r <> 1 then Engine.fatal "refcount drifted")
  in
  check_bool "exact count on all schedules" true (Explore.all_completed v)

(* ------------------------------------------------------------------ *)
(* Gated counts (the memory object's paging count hybrid)              *)
(* ------------------------------------------------------------------ *)

let test_gated_enter_exit () =
  in_sim (fun () ->
      let l = K.Slock.make ~name:"obj" () in
      let g = K.Ref.Gated.make ~name:"paging" ~object_lock:l () in
      K.Slock.lock l;
      check_bool "enter" true (K.Ref.Gated.enter g);
      check_bool "enter again" true (K.Ref.Gated.enter g);
      check_int "two in progress" 2 (K.Ref.Gated.in_progress g);
      K.Ref.Gated.exit g;
      K.Ref.Gated.exit g;
      check_int "drained" 0 (K.Ref.Gated.in_progress g);
      K.Slock.unlock l)

let test_gated_close_excludes_new_entries () =
  ignore
    (Engine.run (fun () ->
         let l = K.Slock.make ~name:"obj" () in
         let g = K.Ref.Gated.make ~object_lock:l () in
         let terminated = ref false in
         (* a paging operation in progress *)
         K.Slock.lock l;
         check_bool "paging starts" true (K.Ref.Gated.enter g);
         K.Slock.unlock l;
         let terminator =
           Engine.spawn ~name:"terminator" (fun () ->
               K.Slock.lock l;
               (* termination cannot proceed while paging is in progress *)
               K.Ref.Gated.close_and_drain g;
               terminated := true;
               K.Slock.unlock l)
         in
         for _ = 1 to 300 do
           Engine.pause ()
         done;
         check_bool "terminator waits for paging" false !terminated;
         (* paging completes *)
         K.Slock.lock l;
         K.Ref.Gated.exit g;
         K.Slock.unlock l;
         Engine.join terminator;
         check_bool "terminated after drain" true !terminated;
         (* and new paging operations are refused *)
         K.Slock.lock l;
         check_bool "gate closed" false (K.Ref.Gated.enter g);
         K.Ref.Gated.reopen g;
         check_bool "reopened" true (K.Ref.Gated.enter g);
         K.Ref.Gated.exit g;
         K.Slock.unlock l))

let test_gated_requires_object_lock () =
  match
    Engine.run_outcome (fun () ->
        let l = K.Slock.make () in
        let g = K.Ref.Gated.make ~object_lock:l () in
        ignore (K.Ref.Gated.enter g))
  with
  | Engine.Panicked msg ->
      check_bool "lock required" true (contains msg "object lock")
  | _ -> Alcotest.fail "gated ops without the object lock must panic"

(* ------------------------------------------------------------------ *)
(* Deactivation                                                        *)
(* ------------------------------------------------------------------ *)

let test_deactivate_basics () =
  let d = Deact.make () in
  check_bool "active" true (Deact.is_active d);
  check_bool "check ok" true (Deact.check d = Ok ());
  check_bool "first deactivate" true (Deact.deactivate d);
  check_bool "second deactivate" false (Deact.deactivate d);
  check_bool "check fails" true (Deact.check d = Error `Deactivated);
  check_bool "guard fails" true (Deact.guard d (fun () -> 1) = Error `Deactivated)

(* ------------------------------------------------------------------ *)
(* Kernel objects                                                      *)
(* ------------------------------------------------------------------ *)

type Kobj.payload += Test_payload of int

let test_kobj_lifecycle () =
  in_sim (fun () ->
      let destroyed = ref false in
      let o =
        Kobj.make ~name:"obj"
          ~destroy:(fun _ -> destroyed := true)
          (Test_payload 42)
      in
      check_int "creation ref" 1 (Kobj.ref_count o);
      Kobj.reference o;
      Kobj.release o;
      check_bool "still alive" false !destroyed;
      (match Kobj.payload o with
      | Test_payload 42 -> ()
      | _ -> Alcotest.fail "payload lost");
      Kobj.release o;
      check_bool "destroyed on last release" true !destroyed)

let test_kobj_deactivation_protocol () =
  in_sim (fun () ->
      let o = Kobj.make ~name:"term" Kobj.No_payload in
      (* an operation checks activity under the object lock *)
      Kobj.with_lock o (fun () ->
          check_bool "active" true (Kobj.is_active o));
      (* termination: lock, set deactivated, unlock (section 10) *)
      Kobj.with_lock o (fun () ->
          check_bool "transition" true (Kobj.deactivate o));
      (* later operations fail but the data structure persists *)
      Kobj.with_lock o (fun () ->
          check_bool "inactive" false (Kobj.is_active o);
          check_bool "check reports" true
            (Kobj.check_active o = Error `Deactivated));
      check_int "refs unaffected" 1 (Kobj.ref_count o);
      Kobj.release o)

let test_kobj_deactivate_requires_lock () =
  match
    Engine.run_outcome (fun () ->
        let o = Kobj.make Kobj.No_payload in
        ignore (Kobj.deactivate o))
  with
  | Engine.Panicked msg ->
      check_bool "lock required" true (contains msg "object lock")
  | _ -> Alcotest.fail "deactivate without the object lock must panic"

let test_kobj_concurrent_ref_release_explored () =
  let v =
    Explore.run ~cpus:4
      ~seeds:(List.init 20 (fun i -> i + 1))
      (fun () ->
        let destroyed = Engine.Cell.make 0 in
        let o =
          Kobj.make ~name:"shared"
            ~destroy:(fun _ -> ignore (Engine.Cell.fetch_and_add destroyed 1))
            Kobj.No_payload
        in
        (* give each worker its own reference up front *)
        let n = 4 in
        for _ = 2 to n do
          Kobj.reference o
        done;
        let ts =
          List.init n (fun _ ->
              Engine.spawn (fun () ->
                  Kobj.reference o;
                  Engine.pause ();
                  Kobj.release o;
                  Kobj.release o))
        in
        List.iter Engine.join ts;
        if Engine.Cell.get destroyed <> 1 then
          Engine.fatal "destructor ran a wrong number of times")
  in
  check_bool "destroyed exactly once on all schedules" true
    (Explore.all_completed v)

let () =
  Alcotest.run "refcount"
    [
      ( "counts",
        [
          Alcotest.test_case "create/clone/release" `Quick
            test_create_clone_release;
          Alcotest.test_case "no resurrection" `Quick
            test_clone_from_zero_panics;
          Alcotest.test_case "no double free" `Quick
            test_double_release_panics;
          Alcotest.test_case "clone under lock legal" `Quick
            test_clone_under_lock_is_legal;
          Alcotest.test_case "release_not_last" `Quick test_release_not_last;
          Alcotest.test_case "exact under contention" `Quick
            test_refcount_exact_under_contention;
        ] );
      ( "section 8 rules",
        [
          Alcotest.test_case "no release under simple lock" `Quick
            test_release_under_simple_lock_panics;
          Alcotest.test_case "no release in assert_wait window" `Quick
            test_release_between_assert_and_block_panics;
        ] );
      ( "gated counts",
        [
          Alcotest.test_case "enter/exit" `Quick test_gated_enter_exit;
          Alcotest.test_case "close excludes termination race" `Quick
            test_gated_close_excludes_new_entries;
          Alcotest.test_case "requires object lock" `Quick
            test_gated_requires_object_lock;
        ] );
      ( "deactivation",
        [ Alcotest.test_case "basics" `Quick test_deactivate_basics ] );
      ( "kernel objects",
        [
          Alcotest.test_case "lifecycle" `Quick test_kobj_lifecycle;
          Alcotest.test_case "deactivation protocol" `Quick
            test_kobj_deactivation_protocol;
          Alcotest.test_case "deactivate requires lock" `Quick
            test_kobj_deactivate_requires_lock;
          Alcotest.test_case "concurrent destroy-once" `Quick
            test_kobj_concurrent_ref_release_explored;
        ] );
    ]
