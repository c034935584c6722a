(* Shared infrastructure for the experiment harness: table printing, sim
   runs with fixed configurations, cpu sweeps with their speedup and
   crossover, the per-experiment observability section, and a thin
   Bechamel wrapper for native per-operation costs. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module J = Mach_obs.Obs_json

let printf = Printf.printf

let section ~id ~title ~claim =
  printf "\n%s\n" (String.make 78 '=');
  printf "%s: %s\n" id title;
  printf "paper claim: %s\n" claim;
  printf "%s\n" (String.make 78 '-')

let table ~header rows = print_string (Bench_rows.layout ~header rows)

let print cols rows = print_string (Bench_rows.text cols rows)

(* Run a workload on the simulated machine with the bench configuration
   and return the stats.  [tweak] post-processes the configuration (e.g.
   to change the backoff cap). *)
let sim_run ?(cpus = 8) ?(seed = 3) ?(tweak = Fun.id) f =
  let cfg = tweak { (Config.bench ~cpus ()) with Config.seed } in
  Engine.run ~cfg f

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i = string_of_int

(* A failure an experiment found (a run that panicked, deadlocked or hit
   the step limit): main.ml exits non-zero once every requested
   experiment has run. *)
let errors : string list ref = ref []
let error msg = errors := msg :: !errors

(* [file]'s JSON document, or why it could not be read. *)
let read_json file =
  match In_channel.with_open_text file In_channel.input_all with
  | text -> Result.map_error (( ^ ) (file ^ ": ")) (J.of_string text)
  | exception Sys_error msg -> Error msg

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Write [doc] to [file] as one line and say so on stdout. *)
let write_json ~what file doc =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  printf "\n%s written to %s\n" what file

(* ------------------------------------------------------------------ *)
(* Sweeps: one simulated run per (cpu count, variant)                   *)
(* ------------------------------------------------------------------ *)

type point = { cpus : int; name : string; s : Engine.stats }

(* [f x y] for every [x] of [xs] and, within it, every [y] of [ys]. *)
let grid xs ys f = List.concat_map (fun x -> List.map (f x) ys) xs

(* [run v cpus] for every cpu count and every named variant, cpu-major. *)
let sweep_points sweep variants run =
  grid sweep variants (fun cpus (name, v) -> { cpus; name; s = run v cpus })

let makespan_of points name cpus =
  List.find_opt (fun p -> p.name = name && p.cpus = cpus) points
  |> Option.map (fun p -> p.s.Engine.makespan)

(* The columns of a point: the cpu count leads the table and follows the
   variant (labelled [label]) in the JSON. *)
let point_cols label =
  Bench_rows.
    [
      col "cpus" (fun p -> J.Int p.cpus);
      col label ~key:label (fun p -> J.String p.name);
      json "cpus" (fun p -> J.Int p.cpus);
      col "makespan" ~key:"makespan" (fun p -> J.Int p.s.Engine.makespan);
      col "bus-txns" ~key:"bus_txns" (fun p ->
          J.Int p.s.Engine.bus_transactions);
      col "atomics" ~key:"atomics" (fun p -> J.Int p.s.Engine.atomic_ops);
    ]

let misses_col =
  Bench_rows.col "misses" ~key:"misses" (fun p -> J.Int p.s.Engine.cache_misses)

(* [base]'s makespan over [name]'s at [cpus]; [None] where either run is
   missing.  [makespan] looks a run up by (name, cpus). *)
let speedup makespan ~base name cpus =
  match (makespan base cpus, makespan name cpus) with
  | Some b, Some n -> Some (float_of_int b /. float_of_int n)
  | _ -> None

(* The smallest cpu count from which [beats] holds for the rest of the
   sweep. *)
let crossover beats sweep =
  let rec scan = function
    | [] -> None
    | c :: rest ->
        if beats c && List.for_all beats rest then Some c else scan rest
  in
  scan sweep

(* One row per cpu count: each of [over]'s speedup over [base], headed
   [head] in the table and keyed [key] in the JSON ("-" / null where a
   run is missing). *)
let speedup_cols makespan ~base over =
  Bench_rows.col "cpus" ~key:"cpus" (fun c -> J.Int c)
  :: List.map
       (fun (name, head, key) ->
         Bench_rows.col head ~key (fun c ->
             match speedup makespan ~base name c with
             | Some x -> J.Float x
             | None -> J.Null))
       over

let opt_int = function Some n -> J.Int n | None -> J.Null

(* ------------------------------------------------------------------ *)
(* Observability: per-experiment latency percentiles + contention       *)
(* ------------------------------------------------------------------ *)

module Obs_metrics = Mach_obs.Obs_metrics
module Obs_profile = Mach_obs.Obs_profile
module Obs_histogram = Mach_obs.Obs_histogram

(* Experiments can attach extra JSON sections (keyed objects) to their
   entry in BENCH_observability.json — E18 uses this for its span /
   critical-path / flight sections.  Cleared with the rest of the
   observability state before each experiment. *)
let obs_extra : (string * J.t) list ref = ref []
let obs_add_json key j = obs_extra := (key, j) :: !obs_extra

(* The views are process-global; main.ml resets them all before each
   experiment so each section reports that experiment's runs only. *)
let obs_reset () =
  Mach_core.Lock_probe.reset_views ();
  obs_extra := []

(* The scope check: one probe feeds the lock metrics and the profile, so
   a section whose [lock.acquisitions] differs from its classes' sum
   mixes the runs of two scopes.  [None] when they agree. *)
let obs_scope_error ~id =
  let counted =
    Obs_metrics.counter_value (Obs_metrics.counter "lock.acquisitions")
  in
  let profiled =
    List.fold_left
      (fun acc (c : Obs_profile.class_stats) -> acc + c.acquisitions)
      0 (Obs_profile.classes ())
  in
  if counted = profiled then None
  else
    Some
      (Printf.sprintf
         "%s: lock.acquisitions = %d but the profile classes sum to %d" id
         counted profiled)

let latency_histograms =
  [
    "lock.wait_cycles";
    "lock.hold_cycles";
    "event.wait_cycles";
    "tlb.shootdown_cycles";
    "rpc.latency_cycles";
  ]

let obs_section ~id () =
  printf "\n%s observability (cycles):\n" id;
  let rows =
    List.filter_map
      (fun name ->
        let h = Obs_metrics.merged (Obs_metrics.histogram name) in
        if Obs_histogram.count h = 0 then None
        else
          Some
            [
              name;
              i (Obs_histogram.count h);
              i (Obs_histogram.percentile h 50.);
              i (Obs_histogram.percentile h 90.);
              i (Obs_histogram.percentile h 99.);
              i (Obs_histogram.max_value h);
            ])
      latency_histograms
  in
  if rows = [] then printf "(no lock or event activity recorded)\n"
  else table ~header:[ "histogram"; "n"; "p50"; "p90"; "p99"; "max" ] rows;
  match Obs_profile.top ~n:3 with
  | [] -> ()
  | top ->
      printf "\n";
      table
        ~header:[ "top lock class"; "acquires"; "contended"; "wait-cycles" ]
        (List.map
           (fun (c : Obs_profile.class_stats) ->
             [ c.cls; i c.acquisitions; i c.contended; i c.wait_cycles ])
           top)

let obs_json () =
  J.Obj
    ([
       ("metrics", Obs_metrics.to_json ());
       ("profile", Obs_profile.to_json ());
     ]
    @ List.rev !obs_extra)

(* ------------------------------------------------------------------ *)
(* Bechamel: native per-operation costs                                 *)
(* ------------------------------------------------------------------ *)

(* Returns (name, ns/run) for each test. *)
let bechamel_run tests =
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.map
    (fun test ->
      let results =
        List.concat_map
          (fun t ->
            let raw = Benchmark.run cfg [ instance ] t in
            let est = Analyze.one ols instance raw in
            match Analyze.OLS.estimates est with
            | Some [ ns ] -> [ (Test.Elt.name t, ns) ]
            | _ -> [ (Test.Elt.name t, nan) ])
          (Test.elements test)
      in
      (Test.name test, results))
    tests
