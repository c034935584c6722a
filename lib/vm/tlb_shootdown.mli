(** TLB shootdown: barrier synchronization at interrupt level (paper,
    section 7; Black et al., ASPLOS 1989).

    When a mapping is changed or removed, remote processors may still hold
    the stale translation in their TLBs.  The initiator interrupts every
    processor using the pmap; {e all involved processors must enter the
    interrupt service routine before any can leave} (the barrier), the
    initiator then commits the page-table update, releases the
    participants, and everyone invalidates the stale entry.

    The section 7 special logic is implemented: a processor currently
    attempting to acquire or holding a pmap lock is removed from the set
    of processors that must participate in the barrier (it could never
    take the interrupt, since pmap locks are held at splvm) — the TLB
    update is still posted for it and it flushes when it re-enables
    interrupts.

    The whole protocol runs at [Splvm]; the initiator must have raised its
    priority before calling (the paper's rule that the lock and the
    interrupt priority go together).  Barrier synchronization at interrupt
    level "is a costly operation" — experiment E10 measures it. *)

val note_pmap_critical_enter : cpu:int -> unit
(** Mark the cpu as attempting/holding a pmap lock (called by [Pmap]). *)

val note_pmap_critical_exit : cpu:int -> unit

val in_pmap_critical : cpu:int -> bool
(** Whether [cpu] is in a pmap critical section of the current run. *)

val shootdown :
  pmap_id:int ->
  targets:int list ->
  invalidate:(cpu:int -> unit) ->
  commit:(unit -> unit) ->
  unit
(** Run the protocol: interrupt [targets] (excluding the current cpu and
    any cpu in a pmap critical section), rendezvous, run [commit] (the
    page-table update) while everyone is parked in the barrier, release,
    and have every cpu (including the initiator and the lazily-interrupted
    pmap-critical ones) run [invalidate ~cpu] on its own cpu. *)

val shootdowns_performed : unit -> int
(** This run's count (diagnostics / benchmarks). *)
