(* The lock-event probe: the one path from a lock protocol to the views.

   The paper's Appendix A declares every simple lock inside a structure
   "to allow the simple addition of debugging and statistics
   information".  A probe [site] is that structure for every lock kind.
   A lock builds its site once, when it is made, with everything the
   views need precomputed: the name, the profile class, the span label,
   the waits-for node and the per-lock statistics.  Reporting an event
   is then one call that allocates nothing.

   A protocol reports four events:
   - [wait_begin] / [wait_end] bracket each spin or park;
   - [acquired] follows an acquisition, with its spins, wait and the
     holder it waited behind;
   - [released] follows a release, with the hold time.

   Each event feeds the views directly, with no subscriber registry:
   the "lock.*" metrics, the [Obs_profile] class table, the [Obs_span]
   hold span and blocked-by edge, the [Obs_trace] lock events, the
   per-lock [Lock_stats], and the live [Waits_for] edges that the
   engine's deadlock detector reads between steps.  Recording never
   charges simulated cycles, so where a call sits changes no schedule;
   what it must keep is the waits-for edge order around each spin, park
   and release. *)

module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_span = Mach_obs.Obs_span
module Obs_trace = Mach_obs.Obs_trace
module Obs_event = Mach_obs.Obs_event

(* Every process-global view the probe feeds, cleared together: a
   report that resets one view and not another pairs one run's metrics
   with another run's profile. *)
let reset_views () =
  Obs_metrics.reset ();
  Obs_profile.reset ();
  Obs_span.reset ()

module Make (M : Machine_intf.MACHINE) = struct
  (* Interning is idempotent: every lock kind on every machine feeds the
     same registry-wide aggregates. *)
  let m_acquisitions = Obs_metrics.counter "lock.acquisitions"
  let m_contentions = Obs_metrics.counter "lock.contentions"
  let h_wait = Obs_metrics.histogram "lock.wait_cycles"
  let h_hold = Obs_metrics.histogram "lock.hold_cycles"

  type site = {
    name : string;
    prof : Obs_profile.slot; (* the lock's Obs_profile class record *)
    span : string; (* Obs_span label, "lock:<name>" *)
    res : Waits_for.resource; (* the lock's waits-for node *)
    stats : Lock_stats.t;
    zero_holds : bool; (* 0-cycle holds count in lock.hold_cycles *)
  }

  (* Simple locks time every hold, so a 0-cycle hold is a real sample;
     complex and range locks pass 0 for "untimed" (read holds) and set
     [zero_holds] false. *)
  let site ~zero_holds ~name res =
    {
      name;
      prof = Obs_profile.slot (Obs_profile.class_of_name name);
      span = Obs_span.label Obs_span.Lock name;
      res;
      stats = Lock_stats.make ();
      zero_holds;
    }

  (* ---------------------------------------------------------------- *)
  (* Waits-for edges                                                    *)
  (* ---------------------------------------------------------------- *)

  (* Edges are reported whether or not lock checking is on: scenarios
     that disable checking (the section-7 buggy variants) are exactly the
     ones the deadlock detector must explain.  [?thread] names a thread
     other than the running one: a waker retiring its waiter's edge, or a
     release attributed to the acquiring thread. *)

  let wait_on res =
    if Waits_for.tracking () then begin
      let self = M.self () in
      Waits_for.note_wait ~tid:(M.thread_id self)
        ~tname:(M.thread_name self) res
    end

  let wait_off ?thread res =
    if Waits_for.tracking () then
      let t = match thread with Some t -> t | None -> M.self () in
      Waits_for.note_wait_done ~tid:(M.thread_id t) res

  let hold res =
    if Waits_for.tracking () then begin
      let self = M.self () in
      Waits_for.note_hold ~tid:(M.thread_id self)
        ~tname:(M.thread_name self) res
    end

  let unhold ?thread res =
    if Waits_for.tracking () then
      let t = match thread with Some t -> t | None -> M.self () in
      Waits_for.note_release ~tid:(M.thread_id t) res

  let wait_begin s = wait_on s.res
  let wait_end s = wait_off s.res

  (* ---------------------------------------------------------------- *)
  (* Acquire and release                                                *)
  (* ---------------------------------------------------------------- *)

  (* [spins] counts the wait rounds (contended iff positive).  [blocker]
     is the holder the wait began behind: its acquire site gets the
     blocked-by edge.  [res] replaces the site's own waits-for node for
     locks that hold part of themselves (a range). *)
  let acquired ?res ?blocker s ~spins ~wait_cycles =
    let contended = spins > 0 in
    let cpu = M.current_cpu () in
    Lock_stats.record_acquire s.stats ~contended ~spins;
    Obs_metrics.incr ~cpu m_acquisitions;
    if contended then Obs_metrics.incr ~cpu m_contentions;
    Obs_metrics.observe ~cpu h_wait wait_cycles;
    Obs_profile.note_acquire s.prof ~contended ~wait_cycles;
    if Obs_span.enabled () then begin
      (match blocker with
      | Some h when contended ->
          Obs_span.blocked ~kind:Obs_span.Lock ~label:s.span
            ~holder_tid:(M.thread_id h) ~wait_cycles
      | _ -> ());
      Obs_span.enter_label Obs_span.Lock s.span
    end;
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_event.Lock_acquire { lock = s.name; spins; wait_cycles });
    hold (match res with Some r -> r | None -> s.res)

  (* [released_by s ~held_cycles free x] reports a release whose store
     is [free x].  The hold edge goes before the store, so the detector
     never sees a holder of a free lock; every view records after it, so
     the hold span closes when the lock became free.  [holder] is the
     thread the hold edge belongs to, when it is not the running one. *)
  let released_by ?res ?holder s ~held_cycles free x =
    unhold ?thread:holder (match res with Some r -> r | None -> s.res);
    free x;
    let cpu = M.current_cpu () in
    Lock_stats.record_release s.stats ~held_cycles;
    if held_cycles > 0 || s.zero_holds then
      Obs_metrics.observe ~cpu h_hold held_cycles;
    Obs_profile.note_release s.prof ~held_cycles;
    Obs_span.exit_label s.span;
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_event.Lock_release { lock = s.name; held_cycles })

  let released ?res ?holder s ~held_cycles =
    released_by ?res ?holder s ~held_cycles ignore ()

  (* A write hold that continues as a read hold: its timed write part
     ends here, while the span, profile hold and waits-for edge stay
     until the read release. *)
  let downgraded s ~held_cycles =
    Lock_stats.record_release s.stats ~held_cycles;
    Obs_metrics.observe ~cpu:(M.current_cpu ()) h_hold held_cycles
end
