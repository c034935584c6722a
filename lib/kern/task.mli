(** Tasks and threads: the execution abstractions (paper, sections 3, 5,
    9, 10).

    A task is an execution environment and resource-allocation unit: a
    memory map plus access to resources via ports.  A task carries {e two}
    simple locks "to allow task operations and ipc translations to occur
    in parallel" (section 5): the task lock (the kernel object lock)
    protects thread lists and suspend counts, while the ipc lock protects
    the task's port-name table.

    Tasks and threads are {e actively terminated} (deactivated,
    section 9), via the section 10 shutdown sequence:
    + lock the object, set the deactivated flag, unlock;
    + lock the corresponding port, remove the object pointer and
      reference, unlock — disabling port-to-object translation;
    + shut down / destroy the object (locked as needed);
    + release the reference returned by object creation — final deletion
      happens when every other reference is released. *)

type t
type thread

type Mach_ksync.Kobj.payload +=
  | Task_payload of t
  | Thread_payload of thread

val create : ?name:string -> Mach_vm.Vm_map.context -> t
(** A new active task with a fresh memory map, a self port representing
    it, and one reference held by the creator. *)

val name : t -> string
val kobj : t -> Mach_ksync.Kobj.t
val map : t -> Mach_vm.Vm_map.t
val self_port : t -> Mach_ipc.Port.t option
val reference : t -> unit
val release : t -> unit
val is_active : t -> bool
val thread_count : t -> int
val threads : t -> thread list

val port_names : t -> Mach_ipc.Port_space.t
(** The task's port-name table: a one-shard {!Mach_ipc.Port_space}, whose
    shard lock is the second task lock (the ipc lock).  Its lookup clones
    the table's port reference under that lock (the section 8 "name to
    object translation" clone). *)

val suspend : t -> (unit, [ `Deactivated ]) result
val resume : t -> (unit, [ `Deactivated | `Not_suspended ]) result
val suspend_count : t -> int

val terminate : t -> (unit, [ `Deactivated ]) result
(** The section 10 shutdown protocol.  Terminates every thread, destroys
    the self port and the port-name table, releases the map, then drops
    the creation reference.  Returns [`Deactivated] if someone else
    already terminated the task (resolved by who gets the task lock
    first). *)

(** {1 Threads} *)

val thread_create :
  ?name:string -> t -> (thread -> unit) -> (thread, [ `Deactivated ]) result
(** Create a thread in the task, running [body] on a simulated kernel
    thread.  The thread holds a reference to its task. *)

val thread_name : thread -> string
val thread_kobj : thread -> Mach_ksync.Kobj.t
val thread_task : thread -> t
val thread_is_active : thread -> bool
val thread_join : thread -> unit

val thread_terminate : thread -> (unit, [ `Deactivated ]) result
(** Deactivate the thread and interrupt any interruptible wait it is in;
    the thread body observes {!thread_is_active} and exits. *)
