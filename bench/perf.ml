(* The engine perf regression harness.

   Measurements against fixed scenarios, so numbers are comparable
   across commits:

   - single-domain engine throughput: the 16-cpu E1 contention scenario
     (one lock, shared data, Timed policy) run repeatedly on one domain;
     reported as scheduler steps/second of wall-clock time.
   - domain-parallel seed sweep: `Sim_explore.run` over a fixed seed set,
     sequential vs. fanned out across domains, with the verdicts checked
     equal; reported as wall-clock speedup.
   - deterministic rows (vm, cache, rpc, mc): simulated makespan ratios,
     engine work per simulated RPC and the model checker's execution
     count, which the perf gate checks against committed bounds.

   Results are written to BENCH_sim_perf.json so CI can archive the perf
   trajectory per PR (`make perf-smoke` runs the `--fast` variant). *)

open Bench_util
module Explore = Mach_sim.Sim_explore
module Obs_json = Mach_obs.Obs_json
module Mc = Mach_mc.Mc

(* E1's contention loop on a ttas lock, at the machine's cpu count. *)
let e1_scenario ~iters =
  Mach_kernel.Scenarios.contention ~protocol:Mach_core.Spin.Ttas ~name:"e1"
    ~iters

(* A row's BENCH_sim_perf.json object, also printed as one line of
   key=value pairs. *)
let row name fields =
  Printf.printf "%s: %s\n%!" name
    (String.concat "  "
       (List.map (fun (k, v) -> k ^ "=" ^ Obs_json.to_string v) fields));
  Obs_json.Obj fields

(* ------------------------------------------------------------------ *)

(* Pre-overhaul reference: steps/sec of the list-based scheduler on this
   same scenario and harness settings (repeats=10, iters=30), measured at
   the commit before the indexed-queue engine landed.  Kept so every
   future run reports its ratio to the same fixed point. *)
let baseline_steps_per_sec = 1_975_301.

(* Host-speed calibration: a fixed-work integer loop with no engine,
   no allocation and no observability hooks.  Engine steps/sec divided
   by calibration ops/sec cancels host speed — frequency scaling, a
   throttled or shared core slow both numerator and denominator — so
   the perf gate can compare the normalized value against a committed
   reference without absolute-throughput noise: only a real engine
   change moves the ratio.  Best-of-5 for the same reason the engine
   row is best-of-N (noise only ever slows a run). *)
let calib_iters = 10_000_000

let calib_once () =
  let x = ref 0x12345 in
  let (), secs =
    wall (fun () ->
        for _ = 1 to calib_iters do
          (* Knuth's 64-bit LCG multiplier, truncated to OCaml's int. *)
          x := (!x * 2862933555777941757) + 3037000493
        done;
        ignore (Sys.opaque_identity !x))
  in
  float_of_int calib_iters /. secs

let engine_throughput ~repeats ~iters =
  (* The gated row is measured with spans OFF: the committed reference
     predates the span layer, so the perf gate polices the disabled-mode
     overhead (the "observability you are not using must be ~free"
     promise).  A second spans-on row records the enabled-mode cost for
     the trajectory without gating it. *)
  let measure ~spans =
    let cfg = { (Config.bench ~cpus:16 ()) with Config.seed = 3; spans } in
    (* Sustained untimed warmup (~0.3s): one run is not enough to carry
       allocator effects AND cpu frequency ramp outside the clock. *)
    let wt0 = Unix.gettimeofday () in
    ignore (Engine.run ~cfg (e1_scenario ~iters));
    while Unix.gettimeofday () -. wt0 < 0.3 do
      ignore (Engine.run ~cfg (e1_scenario ~iters))
    done;
    (* Each repeat is timed on its own and the BEST one is the gated
       statistic: host noise (frequency scaling, a busy core, GC luck)
       only ever slows a run, so best-of-N is the estimate of what the
       engine can do — a mean lets one cold repeat fail the gate. *)
    (* A short calibration sample is interleaved after every repeat so
       that the engine and calibration best-of-N cover the SAME time
       window: on a shared core, disjoint windows can land in different
       throttle modes and make the normalized ratio noisier than the
       absolute number it is meant to stabilize. *)
    let steps = ref 0 in
    let total = ref 0.0 in
    let best = ref 0.0 in
    let best_calib = ref 0.0 in
    for _ = 1 to repeats do
      let s, secs = wall (fun () -> Engine.run ~cfg (e1_scenario ~iters)) in
      steps := !steps + s.Engine.steps;
      total := !total +. secs;
      let sps = float_of_int s.Engine.steps /. secs in
      if sps > !best then best := sps;
      let c = calib_once () in
      if c > !best_calib then best_calib := c
    done;
    (!steps, !total, !best, !best_calib)
  in
  let steps_off, off_s, sps, calib = measure ~spans:false in
  let _, _, sps_on, _ = measure ~spans:true in
  row "engine"
    [
      ("scenario", Obs_json.String "e1-contention-16cpu");
      ("repeats", Obs_json.Int repeats);
      ("iters_per_worker", Obs_json.Int iters);
      ("steps", Obs_json.Int steps_off);
      ("wall_s", Obs_json.Float off_s);
      ("steps_per_sec", Obs_json.Float sps);
      ("baseline_steps_per_sec", Obs_json.Float baseline_steps_per_sec);
      ("vs_baseline", Obs_json.Float (sps /. baseline_steps_per_sec));
      ("calib_ops_per_sec", Obs_json.Float calib);
      ("vs_calib", Obs_json.Float (sps /. calib));
      ( "spans",
        Obs_json.Obj
          [
            ("off_steps_per_sec", Obs_json.Float sps);
            ("on_steps_per_sec", Obs_json.Float sps_on);
            ("on_vs_off", Obs_json.Float (sps_on /. sps));
          ] );
    ]

let sweep ~seeds ~domains:requested =
  let seed_list = List.init seeds (fun s -> s + 1) in
  let scenario = e1_scenario ~iters:12 in
  let tweak cfg = { cfg with Config.policy = Config.Timed } in
  let run domains () =
    Explore.run ~cpus:4 ~seeds:seed_list ~domains ~tweak scenario
  in
  (* A "speedup" measured with more domains than cores is dominated by
     domain spawn cost and scheduler thrash, not by the engine (a 1-core
     CI runner used to report speedup=0.17x here).  Clamp the fan-out to
     the core count and skip the parallel leg outright on 1-core hosts,
     recording why in the json. *)
  let cores = Domain.recommended_domain_count () in
  let domains = min requested cores in
  let seq, seq_s = wall (run 1) in
  let parallel =
    if domains < 2 then
      [
        ("speedup", Obs_json.Null);
        ( "speedup_skipped",
          Obs_json.String "host has a single core; no parallel leg run" );
      ]
    else begin
      let par, par_s = wall (run domains) in
      if seq <> par then begin
        prerr_endline "FATAL: parallel sweep verdict differs from sequential";
        exit 1
      end;
      [
        ("par_wall_s", Obs_json.Float par_s);
        ("speedup", Obs_json.Float (seq_s /. par_s));
        ("verdicts_equal", Obs_json.Bool true);
      ]
    end
  in
  row "sweep"
    ([
       ("seeds", Obs_json.Int seeds);
       ("requested_domains", Obs_json.Int requested);
       ("domains", Obs_json.Int domains);
       ("cores", Obs_json.Int cores);
       ("core_bound", Obs_json.Bool (cores < requested));
       ("seq_wall_s", Obs_json.Float seq_s);
       ("completed", Obs_json.Int seq.Explore.completed);
     ]
    @ parallel)

(* ------------------------------------------------------------------ *)

(* Deterministic rows: for a fixed (cfg, seed) a simulated makespan has
   zero host noise, so the gate can pin each experiment's headline ratio
   tightly.  A change that reserializes the path the ratio measures
   collapses it towards 1 and trips the gate without any wall-clock
   measurement.  Each row reruns its experiment's own workload at one
   cpu count. *)

(* [base]'s makespan over [over]'s in one storm at [cpus]: E16's fault
   storm (coarse/range, 16 cpus) and E19's read-mostly lookup storm
   (mutex/scache, 64 cpus). *)
let storm_row name ~scenario ~key ~cpus (base, b) (over, o) storm =
  let base_ms = (storm b cpus).Engine.makespan in
  let over_ms = (storm o cpus).Engine.makespan in
  row name
    [
      ("scenario", Obs_json.String scenario);
      (base ^ "_makespan", Obs_json.Int base_ms);
      (over ^ "_makespan", Obs_json.Int over_ms);
      (key, Obs_json.Float (float_of_int base_ms /. float_of_int over_ms));
    ]

let vm_row () =
  storm_row "vm" ~scenario:"vm-fault-storm-16cpu" ~key:"range_speedup"
    ~cpus:16
    ("coarse", Mach_vm.Vm_map.Coarse)
    ("range", Mach_vm.Vm_map.Range)
    Workloads.vm_storm

let cache_row () =
  storm_row "cache" ~scenario:"vm-cache-lookup-storm-64cpu"
    ~key:"read_speedup" ~cpus:64
    ("mutex", Mach_vm.Vm_cache.Mutex)
    ("scache", Mach_vm.Vm_cache.Scache)
    Workloads.cache_storm

(* E20 at 64 cpus: the flat/sharded+batched makespan ratio of the
   serving workload, and the engine's host work per simulated RPC in the
   sharded+batched run.  Nearly every step of that run is a reply or
   request spin-wait iteration, which the scheduler runs in place without
   resuming the waiter: resumes_per_rpc climbs back to steps_per_rpc if
   that fast path stops applying.  collections_per_rpc counts the
   scheduler's full candidate collections (a scan of every cpu): only a
   dispatch, a queue or interrupt change, or a cpu left idle forces one,
   and it climbs towards steps_per_rpc if the scheduler stops carrying
   its candidate set across the other steps. *)
let rpc_row () =
  let serve ~shards ~batch =
    match Workloads.rpc_serve ~cpus:64 ~shards ~batch ~calls_each:16 () with
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "FATAL: rpc: %s\n" msg;
        exit 1
  in
  let flat = serve ~shards:1 ~batch:1 in
  let sharded = serve ~shards:8 ~batch:8 in
  let speedup = float_of_int flat.makespan /. float_of_int sharded.makespan in
  let per_rpc n = float_of_int n /. float_of_int sharded.served in
  let work = sharded.work in
  row "rpc"
    [
      ("scenario", Obs_json.String "rpc-serve-64cpu");
      ("flat_makespan", Obs_json.Int flat.makespan);
      ("sharded_batched_makespan", Obs_json.Int sharded.makespan);
      ("throughput_speedup", Obs_json.Float speedup);
      ("steps_per_rpc", Obs_json.Float (per_rpc sharded.steps));
      ("resumes_per_rpc", Obs_json.Float (per_rpc work.Engine.resumes));
      ( "collections_per_rpc",
        Obs_json.Float (per_rpc work.Engine.collections) );
    ]

(* One model-checker execution.  The bounded DPOR search of the 3-cpu
   scache cell (two readers racing one writer, preemption bound 3) is
   the benchmark's mc-scache3 workload.  Its execution count is
   deterministic and gated exactly: a change that explores a different
   schedule set moves it.  Host time per execution is reported, not
   gated; it is the best of three searches (noise only slows one) over
   every execution the search starts, complete or cut short by sleep-set
   pruning. *)
let mc_row () =
  let search () =
    Mc.check ~cpus:3 ~mode:Mc.Dpor ~bound:3 (fun () ->
        ignore (Mach_kernel.Scenarios.scache_rrw ()))
  in
  let runs = List.init 3 (fun _ -> wall search) in
  let r = fst (List.hd runs) in
  let best = List.fold_left (fun b (_, secs) -> Float.min b secs) infinity runs in
  if not r.Mc.verified then begin
    Printf.eprintf "FATAL: mc: scache-rrw (3 cpus, bound 3) not verified\n";
    exit 1
  end;
  let st = r.Mc.stats in
  let started = st.Mc.executions + st.Mc.pruned in
  let us_per_execution = 1e6 *. best /. float_of_int started in
  row "mc"
    [
      ("scenario", Obs_json.String "scache-rrw-3cpu-bound3");
      ("executions", Obs_json.Int st.Mc.executions);
      ("pruned", Obs_json.Int st.Mc.pruned);
      ("transitions", Obs_json.Int st.Mc.transitions);
      ("search_s", Obs_json.Float best);
      ("host_us_per_execution", Obs_json.Float us_per_execution);
    ]

(* The wall times of the full E20 bench and of tier-1 are measured
   outside this harness (a whole bench run, a whole test suite), before
   and after a change, and recorded by hand under "host_walls".  Carry
   that object over so a perf run does not erase it. *)
let recorded_walls path =
  match
    Option.bind
      (Result.to_option (read_json path))
      (Obs_json.member "host_walls")
  with
  | Some w -> [ ("host_walls", w) ]
  | None -> []

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let engine_only = Array.exists (fun a -> a = "--engine-only") Sys.argv in
  let repeats = if fast then 3 else 10 in
  let iters = if fast then 20 else 30 in
  let seeds = if fast then 24 else 100 in
  (* The reference sweep is 8-domain; on hosts with fewer cores the
     measured speedup is core-bound (recorded in the json). *)
  let domains = 8 in
  let engine_json = engine_throughput ~repeats ~iters in
  (* The vm row is deterministic (simulated time), so it is cheap enough
     to emit unconditionally — including --engine-only, which is what
     the CI perf gate runs. *)
  let fields =
    [
      ("engine", engine_json);
      ("vm", vm_row ());
      ("cache", cache_row ());
      ("rpc", rpc_row ());
      ("mc", mc_row ());
    ]
  in
  let fields =
    if engine_only then fields
    else fields @ [ ("sweep", sweep ~seeds ~domains) ]
  in
  let out = "BENCH_sim_perf.json" in
  let doc =
    Obs_json.Obj
      (fields
      @ [ ("mode", Obs_json.String (if fast then "fast" else "full")) ]
      @ recorded_walls out)
  in
  write_json ~what:"perf results" out doc
