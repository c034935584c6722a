module Engine = Mach_sim.Sim_engine
module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space

type t = {
  tobj : Kobj.t; (* the task lock is the kernel-object lock *)
  tmap : Mach_vm.Vm_map.t;
  mutable tport : Port.t option;
  (* The port-name table.  Its one shard lock is the second task lock:
     translations proceed in parallel with task operations under the
     task lock (section 5). *)
  port_names : Port_space.t;
  mutable task_threads : thread list; (* under tobj lock *)
  mutable suspends : int;
}

and thread = {
  thobj : Kobj.t;
  parent : t;
  mutable sim : Engine.thread option;
  mutable th_port : Port.t option;
}

type Kobj.payload += Task_payload of t | Thread_payload of thread

let name t = Kobj.name t.tobj
let kobj t = t.tobj
let map t = t.tmap
let self_port t = t.tport
let reference t = Kobj.reference t.tobj
let release t = Kobj.release t.tobj
let is_active t = Kobj.is_active t.tobj
let port_names t = t.port_names

let thread_count t =
  Kobj.with_lock t.tobj (fun () -> List.length t.task_threads)

let threads t = Kobj.with_lock t.tobj (fun () -> t.task_threads)

let create ?name ctx =
  let tobj = Kobj.make ?name Kobj.No_payload in
  let tname = Kobj.name tobj in
  let t =
    {
      tobj;
      tmap = Mach_vm.Vm_map.create ~name:(tname ^ ".map") ctx;
      tport = None;
      port_names = Port_space.create ~name:(tname ^ ".names") ();
      task_threads = [];
      suspends = 0;
    }
  in
  Kobj.set_payload tobj (Task_payload t);
  (* The self port's object pointer carries its own task reference. *)
  let port = Port.create ~name:(tname ^ ".port") () in
  Kobj.reference tobj;
  Port.set_object port tobj;
  t.tport <- Some port;
  t

(* ------------------------------------------------------------------ *)
(* Suspension                                                           *)
(* ------------------------------------------------------------------ *)

let suspend t =
  Kobj.with_lock t.tobj (fun () ->
      match Kobj.check_active t.tobj with
      | Error `Deactivated -> Error `Deactivated
      | Ok () ->
          t.suspends <- t.suspends + 1;
          Ok ())

let resume t =
  Kobj.with_lock t.tobj (fun () ->
      match Kobj.check_active t.tobj with
      | Error `Deactivated -> Error `Deactivated
      | Ok () ->
          if t.suspends = 0 then Error `Not_suspended
          else begin
            t.suspends <- t.suspends - 1;
            Ok ()
          end)

let suspend_count t = t.suspends

(* ------------------------------------------------------------------ *)
(* Threads                                                              *)
(* ------------------------------------------------------------------ *)

let thread_name th = Kobj.name th.thobj
let thread_kobj th = th.thobj
let thread_task th = th.parent
let thread_is_active th = Kobj.is_active th.thobj

let thread_join th =
  match th.sim with Some s -> Engine.join s | None -> ()

let thread_create ?name t body =
  Kobj.lock t.tobj;
  match Kobj.check_active t.tobj with
  | Error `Deactivated ->
      Kobj.unlock t.tobj;
      Error `Deactivated
  | Ok () ->
      let thobj =
        Kobj.make
          ?name:
            (match name with
            | Some n -> Some n
            | None ->
                Some
                  (Printf.sprintf "%s.thread%d" (Kobj.name t.tobj)
                     (List.length t.task_threads)))
          Kobj.No_payload
      in
      let th = { thobj; parent = t; sim = None; th_port = None } in
      Kobj.set_payload thobj (Thread_payload th);
      (* The thread holds a reference to its task (inter-object pointer,
         section 8). *)
      Kobj.reference t.tobj;
      t.task_threads <- th :: t.task_threads;
      Kobj.unlock t.tobj;
      let port = Port.create ~name:(Kobj.name thobj ^ ".port") () in
      Kobj.reference thobj;
      Port.set_object port thobj;
      th.th_port <- Some port;
      let sim =
        Engine.spawn ~name:(Kobj.name thobj) (fun () -> body th)
      in
      th.sim <- Some sim;
      Ok th

(* Shutdown of one thread, following the section 10 sequence. *)
let thread_terminate th =
  (* Step 1: deactivate under the object lock. *)
  Kobj.lock th.thobj;
  if not (Kobj.deactivate th.thobj) then begin
    Kobj.unlock th.thobj;
    Error `Deactivated
  end
  else begin
    Kobj.unlock th.thobj;
    (* Step 2: strip the port's object pointer; translation now fails. *)
    (match th.th_port with
    | Some port -> (
        match Port.clear_object port with
        | Some o -> Kobj.release o
        | None -> ())
    | None -> ());
    (* Step 3: shut down the execution: interrupt an interruptible wait
       so the body can observe deactivation and exit. *)
    (match th.sim with
    | Some s -> ignore (K.Ev.thread_interrupt s)
    | None -> ());
    (* Step 4 happens when the creator releases its reference. *)
    (match th.th_port with
    | Some port ->
        Port.destroy port;
        Port.release port;
        th.th_port <- None
    | None -> ());
    (* Remove from the task's thread list and drop the thread's task
       reference. *)
    let t = th.parent in
    Kobj.with_lock t.tobj (fun () ->
        t.task_threads <- List.filter (fun th' -> th' != th) t.task_threads);
    Kobj.release t.tobj;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Task termination: the full section 10 shutdown protocol.             *)
(* ------------------------------------------------------------------ *)

let terminate t =
  (* Step 1: lock the object, set the deactivated flag, unlock. *)
  Kobj.lock t.tobj;
  if not (Kobj.deactivate t.tobj) then begin
    Kobj.unlock t.tobj;
    Error `Deactivated
  end
  else begin
    let doomed = t.task_threads in
    Kobj.unlock t.tobj;
    (* Step 2: lock the port, remove the object pointer and its
       reference, unlock: port-to-object translation is now disabled. *)
    (match t.tport with
    | Some port -> (
        match Port.clear_object port with
        | Some o -> Kobj.release o
        | None -> ())
    | None -> ());
    (* Step 3: shutdown/destroy the object. *)
    List.iter (fun th -> ignore (thread_terminate th)) doomed;
    (match t.tport with
    | Some port ->
        Port.destroy port;
        Port.release port;
        t.tport <- None
    | None -> ());
    Port_space.clear t.port_names;
    Mach_vm.Vm_map.release t.tmap;
    (* Step 4: release the reference originally returned by creation;
       final deletion happens when all other references are released. *)
    Kobj.release t.tobj;
    Ok ()
  end
