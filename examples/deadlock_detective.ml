(* Deadlock detective: the two famous deadlocks the paper documents,
   reproduced by schedule exploration, and their fixes shown deadlock-free
   over the same schedules.

   1. Section 7: the three-processor interrupt/barrier deadlock caused by
      inconsistent interrupt protection, prevented by the same-spl rule.
   2. Section 7.1: the vm_map_pageable recursive-lock deadlock against
      the pageout path, fixed by the non-recursive rewrite.

   Run with: dune exec examples/deadlock_detective.exe *)

module Explore = Mach_sim.Sim_explore
module Scenarios = Mach_kernel.Scenarios

let say fmt = Printf.printf (fmt ^^ "\n%!")

let investigate ~culprit ~fix ~buggy ~fixed =
  say "---------------------------------------------------------------";
  say "Suspect: %s" culprit;
  (match Explore.find_first_deadlock ~cpus:3 ~max_seeds:100 buggy with
  | Some (seed, report) ->
      say "Deadlock found (schedule seed %d). Machine state at detection:"
        seed;
      print_string report
  | None -> say "No deadlock found (unexpected!)");
  say "";
  say "Fix: %s" fix;
  let v = Explore.run ~cpus:3 ~seeds:(List.init 100 (fun i -> i + 1)) fixed in
  say "Fixed variant over 100 schedules: %s"
    (Format.asprintf "%a" Explore.pp_verdict v);
  say ""

let () =
  say "DEADLOCK DETECTIVE -- reproducing the paper's war stories";
  say "";
  investigate
    ~culprit:
      "inconsistent interrupt protection around a spin lock (section 7):\n\
      \  P1 holds the lock with interrupts ENABLED, P2 spins for it with\n\
      \  interrupts disabled, P3 starts barrier synchronization at\n\
      \  interrupt level"
    ~fix:
      "acquire every lock at the same interrupt priority level\n\
      \  (and hold it at that level or higher)"
    ~buggy:(Scenarios.interrupt_barrier_scenario ~disciplined:false)
    ~fixed:(Scenarios.interrupt_barrier_scenario ~disciplined:true);
  investigate
    ~culprit:
      "vm_map_pageable holding a recursive read lock on the map while a\n\
      \  fault waits for memory, against a pageout needing the write lock\n\
      \  (section 7.1: \"difficult to cause, [but] observed in practice\")"
    ~fix:
      "the Mach 3.0 rewrite: mark entries under the write lock, release\n\
      \  the map completely, fault with no lock held, relock and revalidate"
    ~buggy:(Scenarios.pageout ~recursive:true)
    ~fixed:(Scenarios.pageout ~recursive:false);
  say "Case closed."
