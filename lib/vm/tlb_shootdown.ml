module Engine = Mach_sim.Sim_engine
module Spl = Mach_core.Spl
module Waits_for = Mach_core.Waits_for
module Probe = Mach_core.Lock_probe.Make (Mach_sim.Sim_machine)
module Obs_metrics = Mach_obs.Obs_metrics
module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event

let h_round_trip = Obs_metrics.histogram "tlb.shootdown_cycles"

let max_cpus = 64

(* Per-cpu count of threads attempting/holding pmap locks, and the
   shootdowns performed, of the running simulation: a run that deadlocks
   inside a pmap critical section leaves no cpu critical in the next
   run.  Only the owning cpu updates its slot (pmap code runs at splvm,
   so it cannot be preempted off the cpu mid-update). *)
type state = { critical : int array; mutable performed : int }

let state =
  Mach_sim.Sim_machine.machine_local (fun () ->
      { critical = Array.make max_cpus 0; performed = 0 })

let note_pmap_critical_enter ~cpu =
  let critical = (state ()).critical in
  critical.(cpu) <- critical.(cpu) + 1

let note_pmap_critical_exit ~cpu =
  let critical = (state ()).critical in
  if critical.(cpu) <= 0 then
    Engine.fatal "tlb_shootdown: unbalanced pmap-critical exit";
  critical.(cpu) <- critical.(cpu) - 1

let in_pmap_critical ~cpu = (state ()).critical.(cpu) > 0

(* The initiator's barrier wait is a waits-for edge: if a participant
   cpu never checks in (the section-7 interrupt deadlock), the detector
   closes the cycle through this node instead of showing a silent spin. *)
let rendezvous = Waits_for.Rendezvous { name = "tlb-shootdown" }

let shootdowns_performed () = (state ()).performed

let shootdown ~pmap_id ~targets ~invalidate ~commit =
  ignore pmap_id;
  let me = Engine.current_cpu () in
  if Spl.rank (Engine.get_spl ()) < Spl.rank Spl.Splvm then
    Engine.fatal
      "tlb_shootdown: initiator must hold splvm (locks and their interrupt \
       priority go together, section 7)";
  let remote = List.sort_uniq compare (List.filter (fun c -> c <> me) targets) in
  (* Section 7 special logic: processors in pmap critical sections are
     removed from the barrier; the update is still posted to them. *)
  let participants, lazies =
    List.partition (fun c -> not (in_pmap_critical ~cpu:c)) remote
  in
  let n = List.length participants in
  let started_at = Engine.now_cycles () in
  if Obs_trace.enabled () then
    Obs_trace.emit
      (Obs_event.Tlb_shootdown_start
         {
           initiator = me;
           participants = n;
           lazies = List.length lazies;
         });
  let checked_in = Engine.Cell.make ~name:"shootdown.checked_in" 0 in
  let go = Engine.Cell.make ~name:"shootdown.go" 0 in
  List.iter
    (fun cpu ->
      Engine.post_interrupt ~name:"tlb-shootdown" ~cpu ~level:Spl.Splvm
        (fun () ->
          ignore (Engine.Cell.fetch_and_add checked_in 1);
          (* Wait for the initiator to commit the update: the barrier —
             no participant leaves before all have entered and the page
             table is consistent. *)
          Engine.spin_hint "shootdown.go";
          while Engine.Cell.get go = 0 do
            Engine.pause ()
          done;
          invalidate ~cpu:(Engine.current_cpu ())))
    participants;
  List.iter
    (fun cpu ->
      (* Lazy flush: delivered whenever that cpu leaves its pmap critical
         section and re-enables interrupts; no rendezvous. *)
      Engine.post_interrupt ~name:"tlb-flush" ~cpu ~level:Spl.Splvm
        (fun () -> invalidate ~cpu:(Engine.current_cpu ())))
    lazies;
  Engine.spin_hint "shootdown.checked_in";
  Probe.wait_on rendezvous;
  while Engine.Cell.get checked_in < n do
    Engine.pause ()
  done;
  Probe.wait_off rendezvous;
  commit ();
  invalidate ~cpu:me;
  Engine.Cell.set go 1;
  let cycles = max 0 (Engine.now_cycles () - started_at) in
  Obs_metrics.observe ~cpu:me h_round_trip cycles;
  if Obs_trace.enabled () then
    Obs_trace.emit (Obs_event.Tlb_shootdown_done { participants = n; cycles });
  let s = state () in
  s.performed <- s.performed + 1
