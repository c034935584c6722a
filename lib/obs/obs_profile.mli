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

val note_acquire : cls:string -> contended:bool -> wait_cycles:int -> unit
(** Record one acquisition of a lock of class [cls] (a {!class_of_name}
    result, computed once per lock). *)

val note_release : cls:string -> held_cycles:int -> unit

(** {1 Reading} *)

val first_attempt_rate : class_stats -> float
(** 1.0 when the class has no acquisitions (mirrors
    {!Mach_core.Lock_stats.first_attempt_rate}). *)

val classes : unit -> class_stats list
(** All classes, sorted by name. *)

val top : n:int -> class_stats list
(** Top [n] classes by accumulated wait cycles. *)

val reset : unit -> unit

val pp_report : ?top_n:int -> Format.formatter -> unit -> unit
(** The contention table: top classes with first-attempt rate and wait
    percentiles. *)

val to_json : unit -> Obs_json.t
