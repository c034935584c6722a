(** Deadlock-avoidance conventions for lock acquisition (paper, section 5).

    Each kernel subsystem incorporates usage conventions preventing
    deadlock; the range of possible protocols precludes a single lock
    hierarchy.  This module packages the three conventions the paper
    names, plus a runtime discipline checker:

    - order acquisitions by object type (class ranks);
    - order two same-type locks by address ({!lock_both_by_uid});
    - a backout protocol for acquiring two locks in the reverse of the
      usual order: a single attempt on the second lock, failure releasing
      the first to be reacquired later ({!backout_lock_pair}). *)

module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) : sig
  (** {1 Class-rank discipline checker} *)

  type cls

  val define_class : name:string -> rank:int -> cls
  (** Declare a lock class; locks of a lower-ranked class must be acquired
      before locks of a higher-ranked class (e.g. memory map before memory
      object). *)

  val class_name : cls -> string
  val class_rank : cls -> int

  val note_acquire : cls -> unit
  (** Record that the current thread acquired a lock of this class; if the
      thread already holds a class of strictly greater rank {e anywhere}
      in its held stack, an order violation naming that class is
      recorded. *)

  val note_release : cls -> unit

  val violations : unit -> string list
  (** Violations recorded so far on the running machine (on the
      simulator: in this run), most recent first.  Held stacks are
      scoped the same way, so a class a finished run never released
      cannot flag a violation in the next one. *)

  val clear_violations : unit -> unit

  (** {1 Same-type pairs, ordered by address} *)

  val lock_both_by_uid : Slock.t -> Slock.t -> unit
  (** Acquire two locks of the same type in uid (address) order; safe
      against another thread locking the same pair. *)

  val unlock_both : Slock.t -> Slock.t -> unit

  (** {1 Backout protocol} *)

  val backout_lock_pair : first:Slock.t -> second:Slock.t -> int
  (** Acquire [second] then [first] when convention orders them
      [first]-then-[second]: hold [second]... — concretely: lock [first];
      a single attempt on [second]; on failure release [first] and retry
      after a capped exponential backoff (the [spin_max_backoff] cap).
      Returns the number of backouts that were needed. *)
end
