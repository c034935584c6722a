(* The contention profiler: per-lock-class aggregation of acquisition
   outcomes and wait/hold time.

   Individual locks are too numerous to report on (every vm object carries
   several), so locks aggregate into *classes* derived from their names by
   deleting digits: "slock12" and "slock40" are both class "slock",
   "lock3.interlock" is "lock.interlock", "evt-bucket17" is "evt-bucket".
   The class plays the role the declaration site plays in the paper's
   Appendix A macros.  A lock computes its class once, when it is made
   ({!Mach_core.Lock_probe}), and holds a [slot] that keeps the class's
   record, so recording neither rebuilds the class nor looks it up.

   Who waited for whom is not kept here: the live per-instance graph is
   [Waits_for] and the cumulative weighted one is the [Obs_span]
   blocked-by graph. *)

type class_stats = {
  cls : string;
  mutable acquisitions : int;
  mutable contended : int;
  mutable wait_cycles : int;
  mutable hold_cycles : int;
  wait_hist : Obs_histogram.t;
}

let mu = Mutex.create ()
let classes_tbl : (string, class_stats) Hashtbl.t = Hashtbl.create 64

(* Bumped by every [reset]: a slot whose generation differs holds a
   record the table no longer has. *)
let generation = ref 0

let class_of_name name =
  let buf = Buffer.create (String.length name) in
  String.iter (fun c -> if c < '0' || c > '9' then Buffer.add_char buf c) name;
  if Buffer.length buf = 0 then "lock" else Buffer.contents buf

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let new_stats cls =
  {
    cls;
    acquisitions = 0;
    contended = 0;
    wait_cycles = 0;
    hold_cycles = 0;
    wait_hist = Obs_histogram.make ();
  }

let class_stats_locked cls =
  match Hashtbl.find_opt classes_tbl cls with
  | Some cs -> cs
  | None ->
      let cs = new_stats cls in
      Hashtbl.add classes_tbl cls cs;
      cs

(* A lock's recording slot: its class record, looked up in the table at
   the first event and again at the first event after each [reset], so
   an event costs no string-keyed lookup. *)
type slot = {
  slot_cls : string;
  mutable stats : class_stats;
  mutable gen : int; (* the [generation] [stats] was found in *)
}

let unbound = new_stats ""
let slot cls = { slot_cls = cls; stats = unbound; gen = -1 }

let slot_stats_locked sl =
  if sl.gen <> !generation then begin
    sl.stats <- class_stats_locked sl.slot_cls;
    sl.gen <- !generation
  end;
  sl.stats

(* The hot path takes the mutex by hand: [locked] would allocate a
   closure per call. *)
let note_acquire sl ~contended ~wait_cycles =
  Mutex.lock mu;
  let cs = slot_stats_locked sl in
  cs.acquisitions <- cs.acquisitions + 1;
  if contended then cs.contended <- cs.contended + 1;
  if wait_cycles > 0 then cs.wait_cycles <- cs.wait_cycles + wait_cycles;
  Obs_histogram.record cs.wait_hist wait_cycles;
  Mutex.unlock mu

let note_release sl ~held_cycles =
  Mutex.lock mu;
  let cs = slot_stats_locked sl in
  if held_cycles > 0 then cs.hold_cycles <- cs.hold_cycles + held_cycles;
  Mutex.unlock mu

let first_attempt_rate cs =
  if cs.acquisitions = 0 then 1.0
  else
    float_of_int (cs.acquisitions - cs.contended)
    /. float_of_int cs.acquisitions

let classes () =
  locked (fun () -> Hashtbl.fold (fun _ cs acc -> cs :: acc) classes_tbl [])
  |> List.sort (fun a b -> String.compare a.cls b.cls)

let top ~n =
  let by_wait =
    List.sort
      (fun a b ->
        match compare b.wait_cycles a.wait_cycles with
        | 0 -> compare b.acquisitions a.acquisitions
        | c -> c)
      (classes ())
  in
  List.filteri (fun i _ -> i < n) by_wait

let reset () =
  locked (fun () ->
      Hashtbl.reset classes_tbl;
      incr generation)

let pp_report ?(top_n = 10) ppf () =
  let tops = top ~n:top_n in
  if tops = [] then Format.fprintf ppf "(no lock activity recorded)@."
  else begin
    Format.fprintf ppf "%-22s %9s %9s %7s %11s %11s %8s %8s@." "lock class"
      "acquires" "contended" "1st-try" "wait-cycles" "hold-cycles" "p50-wait"
      "p99-wait";
    List.iter
      (fun cs ->
        Format.fprintf ppf "%-22s %9d %9d %7.3f %11d %11d %8d %8d@." cs.cls
          cs.acquisitions cs.contended (first_attempt_rate cs) cs.wait_cycles
          cs.hold_cycles
          (Obs_histogram.percentile cs.wait_hist 50.0)
          (Obs_histogram.percentile cs.wait_hist 99.0))
      tops
  end

let to_json () =
  let open Obs_json in
  Obj
    [
      ( "classes",
        List
          (List.map
             (fun cs ->
               Obj
                 [
                   ("class", String cs.cls);
                   ("acquisitions", Int cs.acquisitions);
                   ("contended", Int cs.contended);
                   ("first_attempt_rate", Float (first_attempt_rate cs));
                   ("wait_cycles", Int cs.wait_cycles);
                   ("hold_cycles", Int cs.hold_cycles);
                   ("wait", Obs_histogram.to_json cs.wait_hist);
                 ])
             (classes ())) );
    ]
