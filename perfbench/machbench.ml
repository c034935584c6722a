(* The benchmark program behind BENCHMARK.json (see README.md beside it).

   One invocation runs one workload through the library's public entry
   points only — [Scenarios.rpc_serve] under [Sim_engine.run_outcome],
   or [Mc.check] on [Scenarios.scache_rrw] — repeatedly for a fixed
   host-time window, checks every run, and prints one stamped JSON
   record per run followed by a result line that run.py turns into the
   benchmark's final output.

   Two clocks: simulated quantities (cycles, steps, mc counts) repeat
   exactly for a seed, and every run is checked to repeat them; host
   seconds carry the host's noise and are reported as calibrated medians
   over the window. *)

module Engine = Mach_sim.Sim_engine
module Config = Mach_sim.Sim_config
module Scenarios = Mach_kernel.Scenarios
module Mc = Mach_mc.Mc
open Mach_obs

type workload =
  | Rpc of { cpus : int; servers : int; clients : int; spin : int; calls_each : int }
  | Mc_scache of { cpus : int; bound : int }

(* E20's sharded+batched configuration.  Every client waits for its
   reply before the next call: a closed loop of [clients] callers. *)
let shards = 8
let batch = 8

let workloads =
  [
    ( "rpc-spin64",
      Rpc { cpus = 64; servers = 8; clients = 56; spin = 8192; calls_each = 4 } );
    ( "rpc-park16",
      Rpc { cpus = 16; servers = 2; clients = 14; spin = 0; calls_each = 1024 } );
    ("mc-scache3", Mc_scache { cpus = 3; bound = 3 });
  ]

let cpus_of = function Rpc { cpus; _ } | Mc_scache { cpus; _ } -> cpus

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

type run = {
  host_s : float;
  errors : string list;  (** failed checks; empty = correct *)
  ops : int;  (** served RPCs, or 1 verdict *)
  steps : int;  (** engine steps (0 under the model checker) *)
  transitions : int;  (** mc transitions (0 for rpc) *)
  det : (string * float) list;
      (** per-layer values that must repeat exactly on every run of the
          same seed, traced or not *)
  traced : (string * float) list;
      (** span-derived values: present on traced runs only, and equal
          across them *)
}

(* The scope guard: every recorder starts each run empty, so a run's
   numbers are that run's alone.  [Obs_span] is also cleared by the
   engine at run end; clearing it here covers the model checker's
   first execution. *)
let reset_recorders () =
  Obs_metrics.reset ();
  Obs_profile.reset ();
  Obs_span.reset ()

let hist name = Obs_metrics.merged (Obs_metrics.histogram name)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let pct h p = float_of_int (Obs_histogram.percentile h p)

let lock_classes = [ "rpc.space.shard"; "svc.lock"; "reply.lock"; "evt-registry" ]

(* Obs_span sites with digits deleted ("ipc:send:svc3" -> "ipc:send:svc"),
   named as the metric prefix they feed. *)
let ipc_sites =
  [
    ("ipc:send:svc", "ipc.send-svc");
    ("ipc:recv:svc", "ipc.recv-svc");
    ("ipc:send:reply", "ipc.send-reply");
    ("ipc:recv:reply", "ipc.recv-reply");
  ]

let lock_metrics () =
  let classes = Obs_profile.classes () in
  List.concat_map
    (fun cls ->
      let a, c, w, h =
        match List.find_opt (fun s -> s.Obs_profile.cls = cls) classes with
        | Some s -> (s.acquisitions, s.contended, s.wait_cycles, s.hold_cycles)
        | None -> (0, 0, 0, 0)
      in
      let m k v = (Printf.sprintf "lock.%s.%s" cls k, v) in
      [
        m "acquisitions" (float_of_int a);
        m "contended_frac" (ratio c a);
        m "wait_cycles" (float_of_int w);
        m "hold_cycles" (float_of_int h);
      ])
    lock_classes

(* Closed span count and busy cycles per digit-stripped site. *)
let span_totals () =
  let view = Option.value (Obs_span.last ()) ~default:Obs_span.empty_view in
  List.map
    (fun (site, _) ->
      List.fold_left
        (fun (n, busy) s ->
          if Obs_profile.class_of_name s.Obs_span.s_label = site then
            (n + s.s_spans, busy + s.s_busy)
          else (n, busy))
        (0, 0) view.v_sites)
    ipc_sites

let rpc_run ~cpus ~servers ~clients ~spin ~calls_each ~seed ~spans =
  let cfg = { (Config.bench ~cpus ()) with Config.seed; spans } in
  let counts = ref (0, 0) in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Engine.run_outcome ~cfg (fun () ->
        counts :=
          Scenarios.rpc_serve ~shards ~batch ~servers ~clients ~calls_each ~spin ())
  in
  let host_s = Unix.gettimeofday () -. t0 in
  let failed why =
    {
      host_s;
      errors = [ why ];
      ops = 0;
      steps = 0;
      transitions = 0;
      det = [];
      traced = [];
    }
  in
  match outcome with
  | Engine.Panicked msg -> failed ("panic: " ^ msg)
  | Engine.Deadlocked (_, msg) -> failed ("deadlock: " ^ msg)
  | Engine.Hit_step_limit -> failed "step limit"
  | Engine.Completed st ->
      let served, drained = !counts in
      let expected = clients * calls_each in
      let lat = hist "rpc.latency_cycles" and ev = hist "event.wait_cycles" in
      let samples = Obs_histogram.count lat in
      let per_rpc n = ratio n served in
      let totals = span_totals () in
      let errors =
        List.concat
          [
            (if served <> expected then
               [ Printf.sprintf "served %d, expected %d" served expected ]
             else []);
            (if drained <> 0 then [ Printf.sprintf "drained %d, expected 0" drained ]
             else []);
            (* Scope: one latency sample per served RPC, so the histogram
               holds this run and no other. *)
            (if samples <> served then
               [ Printf.sprintf "scope: %d latency samples for %d RPCs" samples served ]
             else []);
            (* Scope, traced runs: one client send and one reply receive
               span per served RPC. *)
            (match totals with
            | [ (sends, _); _; _; (reply_recvs, _) ]
              when spans && (sends <> served || reply_recvs <> served) ->
                [
                  Printf.sprintf "scope: %d send-svc / %d recv-reply spans for %d RPCs"
                    sends reply_recvs served;
                ]
            | _ -> []);
          ]
      in
      let det =
        [
          ( "sim_rpcs_per_s",
            float_of_int served *. 1e9 /. float_of_int (max 1 st.Engine.makespan) );
          ("sim_rpc_p50_cycles", pct lat 50.);
          ("sim_rpc_p99_cycles", pct lat 99.);
          ("sim.spin_share", ratio st.spin_pauses st.steps);
          ("sim.steps_per_sim_rpc", per_rpc st.steps);
          ("sim.parks_per_sim_rpc", per_rpc st.parks);
          ("sim.switches_per_sim_rpc", per_rpc st.context_switches);
          ("sim.bus_per_sim_rpc", per_rpc st.bus_transactions);
          ("sim.misses_per_sim_rpc", per_rpc st.cache_misses);
          ("event.wait_p50_cycles", pct ev 50.);
          ("event.wait_p99_cycles", pct ev 99.);
          ("rpc.served", float_of_int served);
          ("rpc.drained", float_of_int drained);
          ("rpc.latency_samples", float_of_int samples);
        ]
        @ lock_metrics ()
      in
      let traced =
        if not spans then []
        else
          List.map2
            (fun (_, name) (_, busy) -> (name ^ ".busy_cycles_per_rpc", per_rpc busy))
            ipc_sites totals
      in
      { host_s; errors; ops = served; steps = st.steps; transitions = 0; det; traced }

let mc_run ~cpus ~bound =
  let witnessed = ref false in
  let t0 = Unix.gettimeofday () in
  let r =
    Mc.check ~cpus ~mode:Mc.Dpor ~bound (fun () ->
        if Scenarios.scache_rrw () then witnessed := true)
  in
  let host_s = Unix.gettimeofday () -. t0 in
  let s = r.Mc.stats in
  let errors =
    (if r.Mc.verified then [] else [ "scache_rrw not VERIFIED" ])
    @ if !witnessed then [] else [ "no schedule interleaved the two readers" ]
  in
  {
    host_s;
    errors;
    ops = 1;
    steps = 0;
    transitions = s.transitions;
    det =
      [
        ("mc.executions", float_of_int s.executions);
        ("mc.pruned", float_of_int s.pruned);
        ("mc.useful_frac", ratio s.executions (s.executions + s.pruned));
        ("mc.transitions", float_of_int s.transitions);
      ];
    traced = [];
  }

(* ------------------------------------------------------------------ *)
(* Set-up: the pinned counterexample must still be found                *)
(* ------------------------------------------------------------------ *)

let golden = "test/golden/mc_counterexample.expected"

(* A faster checker must still fail: same-spl-buggy is refuted with
   exactly the minimal schedule pinned in the golden file. *)
let counterexample_check () =
  match In_channel.with_open_bin golden In_channel.input_all with
  | exception Sys_error e -> Some ("cannot read pinned counterexample: " ^ e)
  | expected -> (
      let r = Mc.check ~cpus:2 (Scenarios.same_spl_holder ~disciplined:false) in
      match r.Mc.failure with
      | None -> Some "same-spl-buggy was not refuted"
      | Some f ->
          let kind =
            match f.Mc.f_kind with
            | Some Engine.Spin_deadlock -> "spin-deadlock"
            | Some Engine.Sleep_deadlock -> "sleep-deadlock"
            | None -> "panic"
          in
          if String.equal expected (kind ^ "\n" ^ Mc.trace_to_string f.Mc.f_trace)
          then None
          else Some "same-spl-buggy counterexample differs from the pinned one")

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                               *)
(* ------------------------------------------------------------------ *)

(* On a shared host, speed drifts by 15% or more over tens of seconds
   with other tenants' load, which swamps a comparison of raw host
   seconds between runs made minutes apart.  So two fixed loops, written
   here against the standard library only, are timed before every run:
   one hashes and allocates, the other switches 64 effect-handler fibers
   round-robin as the engine does, before and after every run.  Each
   run's host seconds are then scaled by [nominal_calib_s] / (the
   geometric mean of the samples either side of it): seconds on a host
   where a sample takes [nominal_calib_s]. *)

let nominal_calib_s = 0.12

let calib_hash () =
  let h = Hashtbl.create 1024 and acc = ref 0 in
  for i = 1 to 1_000_000 do
    let k = i * 7919 land 65535 in
    (match Hashtbl.find_opt h k with
    | Some v ->
        acc := !acc + v;
        Hashtbl.replace h k (v + 1)
    | None -> Hashtbl.add h k 1);
    if i land 15 = 0 then ignore (Sys.opaque_identity (List.init 8 (fun j -> j + i)))
  done;
  !acc

type _ Effect.t += Yield : unit Effect.t

let calib_fibers () =
  let ready = Queue.create () and cells = Array.make 4096 0 in
  let fiber id () =
    for i = 1 to 12_000 do
      let k = ((id * 131) + (i * 7919)) land 4095 in
      cells.(k) <- cells.(k) + 1;
      ignore (Sys.opaque_identity (ref (i, id)));
      Effect.perform Yield
    done
  in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (fun () -> Effect.Deep.continue k ()) ready)
          | _ -> None);
    }
  in
  for id = 1 to 64 do
    Queue.push (fun () -> Effect.Deep.match_with (fiber id) () handler) ready
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done;
  cells.(0)

(* One calibration sample: the geometric mean of the two loops' times,
   measured in a forked child so the loops leave no trace in this
   process's heap (and so in [host_heap_peak_mb]). *)
let calibrate () =
  let timed f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  flush stdout;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      let a = timed calib_hash in
      let t = sqrt (a *. timed calib_fibers) in
      let msg = Bytes.of_string (Printf.sprintf "%h\n" t) in
      ignore (Unix.write wr msg 0 (Bytes.length msg));
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = In_channel.input_line ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match line with
      | Some l -> float_of_string l
      | None -> failwith "calibration child died"

(* ------------------------------------------------------------------ *)
(* Set-up time                                                          *)
(* ------------------------------------------------------------------ *)

(* Wall seconds from spawning this executable with --setup-only to its
   ready record: process start-up, every library's initialisation and
   the pinned-counterexample check — all that precedes a first timed
   run.  A fresh process runs about 30% slower in some stretches of
   seconds than in others on a shared host, so set-up is timed once per
   run across the whole window rather than in one burst. *)
let setup_launch name =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--workload"; name; "--setup-only" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = In_channel.input_line ic in
  let t = Unix.gettimeofday () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match line with
  | Some _ -> t
  | None -> failwith "set-up launch printed no ready record"

(* ------------------------------------------------------------------ *)
(* The timed window                                                     *)
(* ------------------------------------------------------------------ *)

(* [calib_s]: geometric mean of the calibration samples taken just
   before and just after the run. *)
type sample = { spans : bool; calib_s : float; setup_s : float; r : run }

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let record ~name ~w ~seed ~rep { spans; calib_s; setup_s; r } =
  let open Obs_json in
  print_endline
    (to_string
       (Obj
          [
            ("record", String "run");
            ("workload", String name);
            ("cpus", Int (cpus_of w));
            ("seed", Int seed);
            ("spans", Bool spans);
            ("rep", Int rep);
            ("host_s", Float r.host_s);
            ("calib_s", Float calib_s);
            ("setup_s", Float setup_s);
            ("errors", List (List.map (fun e -> String e) r.errors));
          ]))

(* Runs alternate untraced/traced when [trace]; the window closes after
   [seconds] of host time, with at least two untraced runs (and one
   traced) so the determinism check always has a pair to compare.  The
   model checker records spans on every run, so there each run is
   stamped traced. *)
let window ~name ~w ~seed ~seconds ~trace =
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let rec go rep before acc =
    let spans = match w with Mc_scache _ -> true | Rpc _ -> trace && rep mod 2 = 1 in
    let setup_s = setup_launch name in
    Gc.full_major ();
    reset_recorders ();
    let r =
      match w with
      | Rpc { cpus; servers; clients; spin; calls_each } ->
          rpc_run ~cpus ~servers ~clients ~spin ~calls_each ~seed ~spans
      | Mc_scache { cpus; bound } -> mc_run ~cpus ~bound
    in
    let after = calibrate () in
    let sample = { spans; calib_s = sqrt (before *. after); setup_s; r } in
    record ~name ~w ~seed ~rep sample;
    let acc = sample :: acc in
    if rep >= 2 && Unix.gettimeofday () >= deadline then List.rev acc
    else go (rep + 1) after acc
  in
  go 0 (calibrate ()) []

(* Every correct run's deterministic values must match the first
   correct run's, and every traced run's span values the first traced
   run's; returns how many runs diverge. *)
let determinism (runs : run list) =
  let check get pick =
    match List.filter pick runs with
    | [] -> 0
    | r0 :: rest -> List.length (List.filter (fun r -> get r <> get r0) rest)
  in
  let ok r = r.errors = [] in
  check (fun r -> r.det) ok + check (fun r -> r.traced) (fun r -> ok r && r.traced <> [])

(* ------------------------------------------------------------------ *)
(* Result                                                               *)
(* ------------------------------------------------------------------ *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("host_s", "s");
    ("host_us_per_op", "us");
    ("host_heap_peak_mb", "MB");
  ]

let per_layer_units =
  [
    ("sim_rpcs_per_s", "1/s");
    ("sim_rpc_p50_cycles", "cycles");
    ("sim_rpc_p99_cycles", "cycles");
    ("sim.spin_share", "frac");
    ("sim.steps_per_sim_rpc", "count");
    ("sim.host_ns_per_step", "ns");
    ("sim.parks_per_sim_rpc", "count");
    ("sim.switches_per_sim_rpc", "count");
    ("sim.bus_per_sim_rpc", "count");
    ("sim.misses_per_sim_rpc", "count");
  ]
  @ List.concat_map
      (fun cls ->
        List.map
          (fun (k, u) -> (Printf.sprintf "lock.%s.%s" cls k, u))
          [
            ("acquisitions", "count");
            ("contended_frac", "frac");
            ("wait_cycles", "cycles");
            ("hold_cycles", "cycles");
          ])
      lock_classes
  @ List.map (fun (_, m) -> (m ^ ".busy_cycles_per_rpc", "cycles")) ipc_sites
  @ [
      ("event.wait_p50_cycles", "cycles");
      ("event.wait_p99_cycles", "cycles");
      ("obs.spans_overhead", "ratio");
      ("mc.executions", "count");
      ("mc.pruned", "count");
      ("mc.useful_frac", "frac");
      ("mc.transitions", "count");
      ("mc.host_us_per_transition", "us");
      ("rpc.served", "count");
      ("rpc.drained", "count");
      ("rpc.latency_samples", "count");
    ]

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let result ~correct ~attempted ~failed metrics units =
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name metrics) ~default:0. in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric units))

let bench ~name ~w ~seed ~seconds ~trace =
  let setup_error = counterexample_check () in
  let samples = window ~name ~w ~seed ~seconds ~trace in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1e6
  in
  let runs = List.map (fun s -> s.r) samples in
  let bad_runs = List.filter (fun r -> r.errors <> []) runs in
  let diverged = determinism runs in
  Option.iter (Printf.eprintf "setup: %s\n") setup_error;
  List.iter (fun r -> List.iter (Printf.eprintf "run: %s\n") r.errors) bad_runs;
  if diverged > 0 then
    Printf.eprintf "determinism: %d run(s) differ from the first\n" diverged;
  let attempted = List.length runs + 1 in
  let failed =
    List.length bad_runs + diverged + if setup_error = None then 0 else 1
  in
  (* Each run's host seconds over its calibration, at the nominal host
     speed; the median over the window. *)
  let host_med spans =
    nominal_calib_s
    *. median
         (List.filter_map
            (fun s -> if s.spans = spans then Some (s.r.host_s /. s.calib_s) else None)
            samples)
  in
  (* Untraced runs give the host figures; under the model checker every
     run records spans. *)
  let host_s = host_med (match w with Mc_scache _ -> true | Rpc _ -> false) in
  let first =
    Option.value ~default:(List.hd runs)
      (List.find_opt (fun r -> r.errors = []) runs)
  in
  let per n = if n = 0 then 0. else host_s /. float_of_int n in
  let metrics =
    if not trace then
      [
        ("setup_s", median (List.map (fun s -> s.setup_s) samples));
        ("host_s", host_s);
        ("host_us_per_op", 1e6 *. per first.ops);
        ("host_heap_peak_mb", heap_mb);
      ]
    else
      let traced =
        Option.value ~default:[]
          (List.find_map (fun r -> if r.traced <> [] then Some r.traced else None) runs)
      in
      first.det @ traced
      @ [
          ("sim.host_ns_per_step", 1e9 *. per first.steps);
          ("obs.spans_overhead", host_med true /. host_s);
          ("mc.host_us_per_transition", 1e6 *. per first.transitions);
        ]
  in
  result ~correct:(failed = 0) ~attempted ~failed metrics
    (if trace then per_layer_units else end_to_end_units)

(* ------------------------------------------------------------------ *)
(* Self-test of the scope guard                                         *)
(* ------------------------------------------------------------------ *)

(* Two traced runs of a small RPC load without resetting the recorders
   in between must be caught (the second run's histogram and spans hold
   both runs); with the reset they must pass.  Exit 0 iff both hold. *)
let self_test () =
  let run () =
    rpc_run ~cpus:4 ~servers:1 ~clients:3 ~spin:0 ~calls_each:16 ~seed:3 ~spans:true
  in
  let pair ~reset =
    reset_recorders ();
    let a = run () in
    if reset then reset_recorders ();
    let b = run () in
    a.errors @ b.errors
  in
  let clean = pair ~reset:true and leaked = pair ~reset:false in
  Printf.printf "scope guard with reset: %s\nscope guard without reset: %s\n"
    (if clean = [] then "pass" else String.concat "; " clean)
    (if leaked = [] then "NOT CAUGHT" else "caught (" ^ String.concat "; " leaked ^ ")");
  exit (if clean = [] && leaked <> [] then 0 else 1)

let usage =
  "machbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] \
   [--setup-only] | --self-test"

let () =
  let workload = ref "" and seed = ref 3 and seconds = ref 30 and trace = ref 0 in
  let setup_only = ref false and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 3)");
      ("--seconds", Arg.Set_int seconds, "N length of the timed window (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--self-test", Arg.Set selftest, " check that the scope guard catches a leak");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !selftest then self_test ();
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w ->
      (* Set-up timing only: the measured run reports the check. *)
      if !setup_only then begin
        ignore (counterexample_check ());
        print_endline {|{"record": "ready"}|};
        exit 0
      end;
      bench ~name:!workload ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
