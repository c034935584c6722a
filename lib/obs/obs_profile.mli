(** The contention profiler.

    Aggregates lock acquisitions by {e lock class} (the lock's name with
    digits deleted, so "slock12" and "slock40" profile together).  Who
    waited for whom lives elsewhere: the live per-instance graph in
    {!Mach_core.Waits_for}, the cumulative weighted one in {!Obs_span}.

    Fed only by {!Mach_core.Lock_probe}; read by [machsim report], the
    bench harness, and [examples/locking_tour].  All entry points are
    mutex-protected and safe from native domains. *)

type class_stats = {
  cls : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable hold_cycles : int;
  wait_hist : Obs_histogram.t;
}

val class_of_name : string -> string
(** Lock name -> class: digits deleted; "lock" when nothing remains. *)

(** {1 Recording} (called from the lock-event probe) *)

type slot
(** Where one lock records: its class's record, found in the class table
    at the lock's first event and found again at its first event after
    each {!reset}.  Making a slot records nothing, so a class appears in
    {!classes} only once one of its locks reports an event. *)

val slot : string -> slot
(** [slot cls] for a class name (a {!class_of_name} result, computed once
    per lock). *)

val note_acquire : slot -> contended:bool -> wait_cycles:int -> unit
(** Record one acquisition. *)

val note_release : slot -> held_cycles:int -> unit

(** {1 Reading} *)

val first_attempt_rate : class_stats -> float
(** 1.0 when the class has no acquisitions (mirrors
    {!Mach_core.Lock_stats.first_attempt_rate}). *)

val classes : unit -> class_stats list
(** All classes, sorted by name. *)

val top : n:int -> class_stats list
(** Top [n] classes by accumulated wait cycles. *)

val reset : unit -> unit
(** Empty the class table; every slot finds (or re-creates) its class
    record at its next event, with counts starting from 0. *)

val pp_report : ?top_n:int -> Format.formatter -> unit -> unit
(** The contention table: top classes with first-attempt rate and wait
    percentiles. *)

val to_json : unit -> Obs_json.t
