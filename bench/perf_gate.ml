(* The CI perf-regression gate: compares what `bench/perf.exe` just
   wrote to BENCH_sim_perf.json against the committed reference
   (bench/perf_reference.json).

   Engine throughput is read on TWO estimators of the same quantity:
   `engine.vs_baseline` (best-of-N steps/sec over the pinned pre-overhaul
   baseline) and `engine.vs_calib` (the same steps/sec over an
   in-process pure-compute calibration loop, which cancels host speed).
   An engine check fails only when BOTH fall below their floor: a real
   regression slows both, while host noise (a throttled core, an unlucky
   calibration slice) rarely sinks the two together.

   Every other gated row is deterministic and declared once in [rows]:
   the number moves only when the code changes.

   `perf_gate --selftest` injects a 2x regression into the engine
   estimators, then into each declared row on its own, and exits 1
   unless every injection trips its own check (a gate that cannot fail
   gates nothing). *)

module Obs_json = Mach_obs.Obs_json

let perf_file = "BENCH_sim_perf.json"
let reference_file = "bench/perf_reference.json"

(* Engine throughput must stay above this share of the reference... *)
let min_ratio = 0.9

(* ...and the spans-disabled engine within this fraction below it: the
   span layer's dormant checks, the observability you are not using,
   must stay nearly free.  (The rounded-down reference already absorbs
   runner jitter; see bench/perf_reference.json.) *)
let max_spans_overhead = 0.03

(* The engine checks: (label, share of the reference, what a failure
   means). *)
let engine_checks =
  [
    ( "throughput",
      min_ratio,
      Printf.sprintf
        "engine throughput is below %.0f%% of the committed reference on \
         every estimator (%s); if the slowdown is intentional, regenerate \
         the reference with `make perf-reference`"
        (100. *. min_ratio) reference_file );
    ( "spans-disabled overhead",
      1. -. max_spans_overhead,
      Printf.sprintf
        "the spans-disabled engine is more than %.0f%% below the pre-span \
         reference on every estimator; the dormant observability hooks are \
         not free"
        (100. *. max_spans_overhead) );
  ]

type bound = Floor | Ceiling | Exact

type row = {
  name : string;  (* the selftest's handle for the row *)
  section : string;  (* the object in both json files *)
  field : string;  (* measured value, in BENCH_sim_perf.json *)
  bound : bound;
  ref_key : string;  (* the bound, in bench/perf_reference.json *)
  why : string;  (* what a failure means *)
}

let rows =
  [
    {
      name = "vm";
      section = "vm";
      field = "range_speedup";
      bound = Floor;
      ref_key = "min_range_speedup";
      why =
        "the E16 range-locked fault storm no longer beats the coarse map \
         lock by the floor at 16 cpus: the fault path has reserialized";
    };
    {
      name = "cache";
      section = "cache";
      field = "read_speedup";
      bound = Floor;
      ref_key = "min_read_speedup";
      why =
        "the E19 scache page cache no longer beats the mutex cache by the \
         floor at 64 cpus: the read side has reserialized";
    };
    {
      name = "rpc";
      section = "rpc";
      field = "throughput_speedup";
      bound = Floor;
      ref_key = "min_throughput_speedup";
      why =
        "E20 sharded+batched serving no longer beats the flat batch=1 \
         server by the floor at 64 cpus: the global name-table lock is \
         back on the lookup path, or batching takes one message per hold";
    };
    {
      name = "rpc-resumes";
      section = "rpc";
      field = "resumes_per_rpc";
      bound = Ceiling;
      ref_key = "max_resumes_per_rpc";
      why =
        "the 64-cpu sharded+batched RPC run resumes fibers too often per \
         simulated RPC: the scheduler no longer runs the RPC path's \
         spin-wait iterations in place";
    };
    {
      name = "rpc-collections";
      section = "rpc";
      field = "collections_per_rpc";
      bound = Ceiling;
      ref_key = "max_collections_per_rpc";
      why =
        "the 64-cpu sharded+batched RPC run rescans every cpu too often \
         per simulated RPC: the scheduler no longer carries its candidate \
         set across steps that leave the queues alone";
    };
    {
      name = "mc";
      section = "mc";
      field = "executions";
      bound = Exact;
      ref_key = "executions";
      why =
        "the bounded 3-cpu scache-rrw search runs a different number of \
         executions: the model checker explores a different schedule set";
    };
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf-gate: " ^ s);
      exit 2)
    fmt

let json_of_file path =
  match Bench_util.read_json path with Ok v -> v | Error e -> die "%s" e

(* [section.field] of [doc] (read from [path]), which must be positive. *)
let value path doc section field =
  let v =
    match Obs_json.member section doc with
    | None -> None
    | Some obj -> Obs_json.member field obj
  in
  match v with
  | Some (Obs_json.Float f) when f > 0. -> f
  | Some (Obs_json.Int n) when n > 0 -> float_of_int n
  | Some _ -> die "%s: %s.%s must be positive" path section field
  | None -> die "%s: %s.%s missing" path section field

(* Run every check, with a 2x regression injected into [inject] ("engine"
   or a row's name; "" for none), and return the names of the checks
   that failed. *)
let failures ~perf ~reference ~inject =
  let tag = "  [injected 2x regression]" in
  let estimators =
    List.map
      (fun field ->
        let m = value perf_file perf "engine" field in
        let m = if inject = "engine" then m /. 2. else m in
        (field, m, value reference_file reference "engine" field))
      [ "vs_baseline"; "vs_calib" ]
  in
  (* A check fails only when it fails on EVERY estimator: regressions
     move both, host noise moves them in opposite directions. *)
  let both_below (label, share, fail_msg) =
    let bad =
      List.for_all
        (fun (field, m, r) ->
          Printf.printf
            "perf-gate: %s: engine.%s measured=%.5f  floor=%.5f%s\n" label
            field m (share *. r)
            (if inject = "engine" then tag else "");
          m < share *. r)
        estimators
    in
    if bad then Printf.printf "perf-gate: FAIL: %s\n" fail_msg;
    bad
  in
  let row_failed r =
    let b = value reference_file reference r.section r.ref_key in
    let m = value perf_file perf r.section r.field in
    let injected = inject = r.name in
    let m =
      match (injected, r.bound) with
      | false, _ -> m
      | true, Floor -> m /. 2.
      | true, (Ceiling | Exact) -> m *. 2.
    in
    let kind, failed =
      match r.bound with
      | Floor -> ("floor", m < b)
      | Ceiling -> ("ceiling", m > b)
      | Exact -> ("exact", m <> b)
    in
    Printf.printf "perf-gate: %s: %s.%s measured=%.2f  %s=%.2f%s\n" r.name
      r.section r.field m kind b
      (if injected then tag else "");
    if failed then
      Printf.printf
        "perf-gate: FAIL: %s (the number is deterministic, not host noise)\n"
        r.why;
    failed
  in
  (if List.filter both_below engine_checks <> [] then [ "engine" ] else [])
  @ List.filter_map
      (fun r -> if row_failed r then Some r.name else None)
      rows

let () =
  let perf = json_of_file perf_file in
  let reference = json_of_file reference_file in
  match Sys.argv with
  | [| _ |] ->
      if failures ~perf ~reference ~inject:"" <> [] then exit 1;
      print_endline "perf-gate: OK"
  | [| _; "--selftest" |] ->
      let targets = "engine" :: List.map (fun r -> r.name) rows in
      let missed =
        List.filter
          (fun t ->
            Printf.printf "perf-gate selftest: injecting into %s\n" t;
            not (List.mem t (failures ~perf ~reference ~inject:t)))
          targets
      in
      if missed <> [] then begin
        Printf.printf "perf-gate selftest: FAIL: no trip on %s\n"
          (String.concat ", " missed);
        exit 1
      end;
      Printf.printf
        "perf-gate selftest: OK (a 2x regression trips the gate on each of \
         %s)\n"
        (String.concat ", " targets)
  | _ -> die "usage: perf_gate [--selftest]"
