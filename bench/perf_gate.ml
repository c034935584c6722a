(* The CI perf-regression gate.

   Reads the engine throughput that `bench/perf.exe` just wrote to
   BENCH_sim_perf.json and compares it against the committed reference
   (bench/perf_reference.json) on TWO estimators of the same quantity:
   `engine.vs_baseline` (absolute best-of-N steps/sec over the pinned
   pre-overhaul baseline) and `engine.vs_calib` (the same steps/sec
   normalized by an in-process pure-compute calibration loop, which
   cancels host speed).  A check fails only when BOTH estimators fall
   below their floor: a real engine regression slows both, while host
   noise — a throttled or shared core slows the absolute number but not
   the normalized one; an unlucky calibration slice slows the
   normalized number but not the absolute one — rarely sinks the two
   together.  Exits 1 when the throughput ratio check (--min-ratio,
   default 0.9) or the dormant-observability check
   (--max-spans-overhead, default 0.03; the engine row is measured with
   spans disabled) fails on both estimators.

   Deterministic rows (vm.range_speedup, cache.read_speedup,
   rpc.throughput_speedup) are simulated-time makespan ratios and are
   checked directly against their committed floors — no estimator
   pairing needed.  rpc.resumes_per_rpc, the engine's fiber resumes per
   simulated RPC, is deterministic too and checked against a committed
   ceiling, as is rpc.collections_per_rpc, the scheduler's full
   candidate collections per simulated RPC.  mc.executions, the model
   checker's execution count for the 3-cpu scache search at bound 3,
   must equal its committed value.

   --inject-slowdown applies a 2x regression to every measured value
   before the comparison (halving a floor row, doubling a ceiling or
   exact row);
   --inject-row ROW applies it to that deterministic row only.  CI runs
   both once per pipeline to prove the gate actually trips on each row
   (a gate that cannot fail gates nothing). *)

module Obs_json = Mach_obs.Obs_json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf-gate: " ^ s);
      exit 2)
    fmt

let json_of_file path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> die "%s" msg
  in
  match Obs_json.of_string text with
  | Ok v -> v
  | Error e -> die "%s: parse error: %s" path e

let number = function
  | Some (Obs_json.Float f) -> Some f
  | Some (Obs_json.Int n) -> Some (float_of_int n)
  | _ -> None

let engine_field path field =
  let doc = json_of_file path in
  match Obs_json.member "engine" doc with
  | None -> die "%s: no \"engine\" object" path
  | Some engine -> (
      match number (Obs_json.member field engine) with
      | Some f when f > 0. -> f
      | Some _ -> die "%s: engine.%s must be positive" path field
      | None -> die "%s: engine.%s missing" path field)

let () =
  let perf = ref "BENCH_sim_perf.json" in
  let reference = ref "bench/perf_reference.json" in
  let min_ratio = ref 0.9 in
  let max_spans_overhead = ref 0.03 in
  let inject = ref false in
  let inject_row = ref "" in
  let spec =
    [
      ("--perf", Arg.Set_string perf, "FILE measured perf json (default BENCH_sim_perf.json)");
      ("--reference", Arg.Set_string reference, "FILE committed reference json");
      ("--min-ratio", Arg.Set_float min_ratio, "R fail below R x reference (default 0.9)");
      ( "--max-spans-overhead",
        Arg.Set_float max_spans_overhead,
        "F fail when the spans-disabled run is more than F below the \
         reference (default 0.03)" );
      ("--inject-slowdown", Arg.Set inject, " halve the measured value (gate selftest)");
      ( "--inject-row",
        Arg.Set_string inject_row,
        "ROW apply a 2x regression to that deterministic row only (vm, \
         cache, rpc, rpc-resumes, rpc-collections or mc; gate selftest per \
         row)" );
    ]
  in
  Arg.parse spec
    (fun a -> die "unexpected argument %S" a)
    "perf_gate [--perf FILE] [--reference FILE] [--min-ratio R] \
     [--max-spans-overhead F] [--inject-slowdown]";
  let estimators =
    List.map
      (fun field ->
        let m = engine_field !perf field in
        let m = if !inject then m /. 2. else m in
        (field, m, engine_field !reference field))
      [ "vs_baseline"; "vs_calib" ]
  in
  (* A check fails only when it fails on EVERY estimator: regressions
     move both, host noise moves them in opposite directions. *)
  let both_below floor_of label fail_msg =
    let bad =
      List.for_all
        (fun (field, m, r) ->
          let floor = floor_of r in
          Printf.printf "perf-gate: %s: engine.%s measured=%.5f  floor=%.5f%s\n"
            label field m floor
            (if !inject then "  [injected 2x slowdown]" else "");
          m < floor)
        estimators
    in
    if bad then Printf.printf "perf-gate: FAIL: %s\n" fail_msg;
    bad
  in
  let ratio_failed =
    both_below
      (fun r -> !min_ratio *. r)
      "throughput"
      (Printf.sprintf
         "engine throughput is below %.0f%% of the committed reference on \
          every estimator (bench/perf_reference.json); if the slowdown is \
          intentional, regenerate the reference with `make perf-reference`"
         (100. *. !min_ratio))
  in
  (* The engine row is measured with spans DISABLED, so this is the
     "observability you are not using" tax: the span layer's dormant
     checks must stay within --max-spans-overhead of the pre-span
     reference.  (The rounded-down reference already absorbs runner
     jitter; see bench/perf_reference.json.) *)
  let spans_failed =
    both_below
      (fun r -> (1. -. !max_spans_overhead) *. r)
      "spans-disabled overhead"
      (Printf.sprintf
         "the spans-disabled engine is more than %.0f%% below the pre-span \
          reference on every estimator; the dormant observability hooks are \
          not free"
         (100. *. !max_spans_overhead))
  in
  (* Deterministic rows (simulated-time makespan ratios): no estimator
     pairing or noise floor needed — the number moves only when the code
     changes.  Each check runs only when the committed reference carries
     the row (older references predate it), and --inject-row ROW
     regresses just that row 2x so the selftest can prove each one trips
     independently of the engine rows.  A [`Ceiling] row fails above its
     bound instead of below it, an [`Exact] row anywhere but on it. *)
  let det_check ?(bound_kind = `Floor) ?row ~section ~label ~ref_field
      ~meas_field ~fail_text () =
    let row = Option.value row ~default:section in
    let field doc path f =
      match Obs_json.member section doc with
      | None -> None
      | Some obj -> (
          match number (Obs_json.member f obj) with
          | Some v when v > 0. -> Some v
          | Some _ -> die "%s: %s.%s must be positive" path section f
          | None -> None)
    in
    match field (json_of_file !reference) !reference ref_field with
    | None -> false
    | Some bound -> (
        match field (json_of_file !perf) !perf meas_field with
        | None -> die "%s: %s.%s missing" !perf section meas_field
        | Some m ->
            let injected = !inject || !inject_row = row in
            let m =
              match (injected, bound_kind) with
              | false, _ -> m
              | true, `Floor -> m /. 2.
              | true, (`Ceiling | `Exact) -> m *. 2.
            in
            Printf.printf "perf-gate: %s: %s.%s measured=%.2f  %s=%.2f%s\n"
              label section meas_field m
              (match bound_kind with
              | `Floor -> "floor"
              | `Ceiling -> "ceiling"
              | `Exact -> "exact")
              bound
              (if injected then "  [injected 2x regression]" else "");
            let failed =
              match bound_kind with
              | `Floor -> m < bound
              | `Ceiling -> m > bound
              | `Exact -> m <> bound
            in
            if failed then begin
              Printf.printf "perf-gate: FAIL: %s (the number is \
                             deterministic, not host noise)\n"
                (fail_text bound);
              true
            end
            else false)
  in
  (* The range-lock fault path (E16). *)
  let vm_failed =
    det_check ~section:"vm" ~label:"vm fault path"
      ~ref_field:"min_range_speedup" ~meas_field:"range_speedup"
      ~fail_text:(fun floor ->
        Printf.sprintf
          "the range-locked fault storm no longer beats the coarse map lock \
           by at least %.1fx at 16 cpus; the range-lock fault path has \
           reserialized"
          floor)
      ()
  in
  (* The scache page-cache read path (E19). *)
  let cache_failed =
    det_check ~section:"cache" ~label:"cache read path"
      ~ref_field:"min_read_speedup" ~meas_field:"read_speedup"
      ~fail_text:(fun floor ->
        Printf.sprintf
          "the scache page cache no longer beats the mutex cache by at \
           least %.1fx at 64 cpus; the read side has reserialized"
          floor)
      ()
  in
  (* The RPC serving path (E20): flat/sharded+batched makespan ratio of
     the 64-cpu serving workload. *)
  let rpc_failed =
    det_check ~section:"rpc" ~label:"rpc serving path"
      ~ref_field:"min_throughput_speedup" ~meas_field:"throughput_speedup"
      ~fail_text:(fun floor ->
        Printf.sprintf
          "sharded+batched RPC serving no longer beats the flat batch=1 \
           server by at least %.1fx at 64 cpus; the hot path has \
           reserialized (global name-table lock back on the lookup path, \
           or batching degraded to one message per port-lock hold)"
          floor)
      ()
  in
  (* Host work of the same run: fiber resumes per simulated RPC. *)
  let resumes_failed =
    det_check ~bound_kind:`Ceiling ~row:"rpc-resumes" ~section:"rpc"
      ~label:"rpc engine work" ~ref_field:"max_resumes_per_rpc"
      ~meas_field:"resumes_per_rpc"
      ~fail_text:(fun ceiling ->
        Printf.sprintf
          "the 64-cpu sharded+batched RPC run resumes fibers more than %.0f \
           times per simulated RPC; the scheduler no longer runs the \
           spin-wait iterations of the RPC path in place"
          ceiling)
      ()
  in
  (* Scheduler work of the same run: full candidate collections per
     simulated RPC. *)
  let collections_failed =
    det_check ~bound_kind:`Ceiling ~row:"rpc-collections" ~section:"rpc"
      ~label:"rpc scheduler work" ~ref_field:"max_collections_per_rpc"
      ~meas_field:"collections_per_rpc"
      ~fail_text:(fun ceiling ->
        Printf.sprintf
          "the 64-cpu sharded+batched RPC run rescans every cpu for its \
           next action more than %.2f times per simulated RPC; the \
           scheduler no longer carries its candidate set across steps \
           that leave the queues alone"
          ceiling)
      ()
  in
  (* The model checker's search size: executions of the bounded 3-cpu
     scache search (the mc-scache3 benchmark workload). *)
  let mc_failed =
    det_check ~bound_kind:`Exact ~section:"mc" ~label:"mc search"
      ~ref_field:"executions" ~meas_field:"executions"
      ~fail_text:(fun n ->
        Printf.sprintf
          "the bounded 3-cpu scache-rrw search no longer runs exactly %.0f \
           executions; the model checker now explores a different set of \
           schedules"
          n)
      ()
  in
  if
    ratio_failed || spans_failed || vm_failed || cache_failed || rpc_failed
    || resumes_failed || collections_failed || mc_failed
  then exit 1
  else Printf.printf "perf-gate: OK\n"
