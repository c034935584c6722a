(** {!Mach_core.Machine_intf.MACHINE} implemented on the simulated
    multiprocessor: the machine the kernel model runs on. *)

let name = "sim"

module Cell = Sim_engine.Cell

type thread = Sim_engine.thread

let self = Sim_engine.self
let thread_id = Sim_engine.thread_id
let thread_name = Sim_engine.thread_name
let equal_thread = Sim_engine.equal_thread
let in_interrupt = Sim_engine.in_interrupt
let cpu_count = Sim_engine.cpu_count
let current_cpu = Sim_engine.current_cpu

let spin_pause () =
  Sim_engine.count_spin_pause ();
  Sim_engine.pause ()

let spin_wait = Sim_engine.spin_wait
let spin_hint = Sim_engine.spin_hint
let spin_max_backoff = Sim_engine.spin_max_backoff
let park = Sim_engine.park
let unpark = Sim_engine.unpark
let set_spl = Sim_engine.set_spl
let get_spl = Sim_engine.get_spl
let cycles = Sim_engine.cycles
let now_cycles = Sim_engine.now_cycles
let tls_get = Sim_engine.tls_get
let tls_set = Sim_engine.tls_set
let handoff_fault = Sim_engine.handoff_fault
let fatal = Sim_engine.fatal

(* One value per run generation: built at the first access of a run,
   seen by that run only, and left behind when the next generation
   starts.  Domain-local, so concurrent explorations in other domains
   never share it.  Each domain's slot keeps a handle on that domain's
   generation, so an access costs one domain-local lookup. *)
type 'a slot = {
  run : Sim_engine.generation; (* this domain's run generation *)
  mutable built_in : int; (* the generation [value] was built in *)
  mutable value : 'a;
}

let machine_local init =
  let key =
    Domain.DLS.new_key (fun () ->
        let run = Sim_engine.generation () in
        { run; built_in = Sim_engine.current run; value = init () })
  in
  fun () ->
    let s = Domain.DLS.get key in
    let g = Sim_engine.current s.run in
    if s.built_in <> g then begin
      s.value <- init ();
      s.built_in <- g
    end;
    s.value
