(* The simulated workloads that the experiment harness (main.ml) and the
   perf harness (perf.ml) share.  Each is defined once, so a perf row
   and the experiment it gates run the same simulated run. *)

module Scenarios = Mach_kernel.Scenarios
open Bench_util

(* E16: each thread owns a disjoint slice of one map and allocates,
   faults and deallocates it (Scenarios.vm_fault_storm).  Light per
   thread: the 64-cpu coarse run is quadratic in waiters. *)
let vm_storm locking cpus =
  sim_run ~cpus (fun () ->
      Scenarios.vm_fault_storm ~locking ~threads:cpus ~pages_per_thread:2
        ~rounds:1 ())

(* E19: read-mostly page lookups against one vm_cache. *)
let cache_storm locking cpus =
  sim_run ~cpus (fun () -> Scenarios.vm_cache_ops ~locking ~threads:cpus ())

(* E20: one run of the RPC serving workload. *)
type rpc = {
  cpus : int;
  shards : int;
  batch : int;
  served : int;
  drained : int;
  makespan : int;
  steps : int;
  work : Engine.work_stats;
  rps : float;
  p50 : int;
  p99 : int;
}

(* RPCs/sec is simulated time at a nominal 1 GHz (1 cycle = 1 ns);
   the latency percentiles come from the rpc.latency_cycles histogram
   the scenario feeds per call.  [Error] says how the run failed. *)
let rpc_serve ?(drain = false) ~cpus ~shards ~batch ~calls_each () =
  (* The views are reset per run so the latency percentiles are this
     run's, not the sweep's aggregate, and the profile covers the same
     run as the metrics. *)
  Mach_core.Lock_probe.reset_views ();
  let cfg = { (Config.bench ~cpus ()) with Config.seed = 3 } in
  let counts = ref (0, 0) in
  let where = Printf.sprintf "%d cpus, shards=%d batch=%d" cpus shards batch in
  match
    Engine.run_outcome ~cfg (fun () ->
        counts :=
          Scenarios.rpc_serve ~shards ~batch ~calls_each
            ~drain_under_load:drain ())
  with
  | Engine.Completed stats ->
      let served, drained = !counts in
      let h = Obs_metrics.merged (Obs_metrics.histogram "rpc.latency_cycles") in
      Ok
        {
          cpus;
          shards;
          batch;
          served;
          drained;
          makespan = stats.Engine.makespan;
          steps = stats.Engine.steps;
          work = Option.get (Engine.last_work ());
          rps =
            float_of_int served *. 1e9
            /. float_of_int (max 1 stats.Engine.makespan);
          p50 = Obs_histogram.percentile h 50.;
          p99 = Obs_histogram.percentile h 99.;
        }
  | Engine.Panicked msg -> Error (Printf.sprintf "PANIC (%s): %s" where msg)
  | Engine.Deadlocked (_, msg) ->
      Error (Printf.sprintf "DEADLOCK (%s): %s" where msg)
  | Engine.Hit_step_limit -> Error (Printf.sprintf "STEP LIMIT (%s)" where)
