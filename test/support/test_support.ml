(* Shared helpers for the test suites. *)

module Engine = Mach_sim.Sim_engine

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* The contents of test/golden/[name], found from the test executable
   rather than the working directory: the nearest ancestor of the
   executable's directory holding golden/[name] (the copy dune makes
   beside the tests) or test/golden/[name] (the source tree, for a binary
   run straight out of _build from anywhere). *)
let read_golden name =
  let rel = Filename.concat "golden" name in
  let rec find dir =
    let here = Filename.concat dir rel
    and src = Filename.concat dir (Filename.concat "test" rel) in
    if Sys.file_exists here then here
    else if Sys.file_exists src then src
    else
      let up = Filename.dirname dir in
      if up = dir then failwith ("golden file not found: " ^ rel) else find up
  in
  let exe = Sys.executable_name in
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  In_channel.with_open_bin (find (Filename.dirname exe)) In_channel.input_all

(* Run [f] inside a fresh simulation and return its result. *)
let in_sim ?cfg f =
  let result = ref None in
  ignore (Engine.run ?cfg (fun () -> result := Some (f ())));
  Option.get !result

(* Condition-based synchronization for tests: simulated time offers no
   guarantee that "N pauses" let another thread progress, so tests must
   wait on observable state.  The engine watchdog catches a condition
   that never becomes true. *)
let wait_until pred =
  while not (pred ()) do
    Engine.pause ()
  done

(* Shared deterministic RNG for tests that want arbitrary-but-stable
   values (shuffled start orders, fuzzed payload sizes).  A bare
   module-level [Sim_rng.make] would leak position across [in_sim]
   calls: the second simulation of a test binary would see a different
   draw sequence than the first, so a test's behavior would depend on
   which tests ran before it.  Machine-local, it is seeded afresh for
   every run: every simulation sees the same stream. *)
let rng_seed = 0x7357

let test_rng =
  Mach_sim.Sim_machine.machine_local (fun () ->
      Mach_sim.Sim_rng.make rng_seed)

let rng_int bound = Mach_sim.Sim_rng.int (test_rng ()) bound

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Re-export for the golden-determinism generator and test. *)
module Golden_scenarios = Golden_scenarios
