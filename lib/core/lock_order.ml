module Make
    (M : Machine_intf.MACHINE)
    (Slock : module type of Simple_lock.Make (M)) =
struct
  type cls = { cname : string; rank : int }

  let define_class ~name ~rank = { cname = name; rank }
  let class_name c = c.cname
  let class_rank c = c.rank

  (* Each thread's stack of held classes (keyed by thread id) and the
     violation log, scoped to the running machine: a run that never
     released a class leaves no stale stack behind to flag phantom
     violations in the next run.  The mutex matters on the native
     machine only, where the cpus are domains sharing the one table; in
     a simulation the operations contain no preemption point. *)
  type state = {
    mu : Mutex.t;
    held : (int, cls list) Hashtbl.t;
    mutable log : string list; (* most recent first *)
  }

  let state =
    M.machine_local (fun () ->
        { mu = Mutex.create (); held = Hashtbl.create 64; log = [] })

  let with_stack f =
    let self = M.self () in
    let tid = M.thread_id self in
    let s = state () in
    Mutex.protect s.mu (fun () ->
        let stack = Option.value ~default:[] (Hashtbl.find_opt s.held tid) in
        let stack, violation = f stack (M.thread_name self) in
        Hashtbl.replace s.held tid stack;
        Option.iter (fun msg -> s.log <- msg :: s.log) violation)

  let violations () = (state ()).log
  let clear_violations () = (state ()).log <- []

  let note_acquire c =
    with_stack (fun stack who ->
        (* Compare against the maximum rank held anywhere in the stack,
           not just the most recent acquisition: holding [rank 1; rank 3]
           and acquiring rank 2 is a violation against the rank-3 class
           even though the top of the stack is rank 1. *)
        let worst =
          List.fold_left
            (fun acc h ->
              match acc with
              | Some w when w.rank >= h.rank -> acc
              | _ -> Some h)
            None stack
        in
        ( c :: stack,
          match worst with
          | Some w when w.rank > c.rank ->
              Some
                (Printf.sprintf
                   "lock order violation: thread %s acquired class %s (rank \
                    %d) while holding class %s (rank %d)"
                   who c.cname c.rank w.cname w.rank)
          | _ -> None ))

  let note_release c =
    with_stack (fun stack who ->
        let rec remove_first = function
          | [] -> None
          | top :: rest when top.cname = c.cname -> Some rest
          | top :: rest -> Option.map (List.cons top) (remove_first rest)
        in
        match remove_first stack with
        | Some rest -> (rest, None)
        | None ->
            ( stack,
              Some
                (Printf.sprintf
                   "lock order: thread %s released class %s it does not hold"
                   who c.cname) ))

  let lock_both_by_uid a b =
    if Slock.uid a = Slock.uid b then Slock.lock a
    else if Slock.uid a < Slock.uid b then begin
      Slock.lock a;
      Slock.lock b
    end
    else begin
      Slock.lock b;
      Slock.lock a
    end

  let unlock_both a b =
    if Slock.uid a = Slock.uid b then Slock.unlock a
    else begin
      Slock.unlock a;
      Slock.unlock b
    end

  (* Between backouts, delay with the same capped exponential backoff as
     the Ttas_backoff spin protocol: contending backout threads otherwise
     retry in lockstep and burn bus bandwidth on doomed try_locks. *)
  let backout_lock_pair ~first ~second =
    let max_backoff = M.spin_max_backoff () in
    let rec attempt backouts delay =
      Slock.lock first;
      if Slock.try_lock second then backouts
      else begin
        Slock.unlock first;
        M.spin_pause ();
        for _ = 1 to delay do
          M.cycles 1
        done;
        attempt (backouts + 1) (Stdlib.min (delay * 2) max_backoff)
      end
    in
    attempt 0 1
end
