#!/usr/bin/env python3
"""Build and run the machkern benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload rpc-park16 --seed 3 --seconds 30 --trace 0

Builds perfbench/machbench.exe with dune and runs it: its
stamped run records are forwarded, and the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Exits non-zero
without a result if the build or the run fails.  `--workload all` runs
every workload of BENCHMARK.json with tracing off and on, and prints one
result line per pair.  `--self-test` checks the per-run scope guard.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "machbench.exe")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/machbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    return proc.returncode == 0 and os.path.isfile(EXE)


def run(args):
    """Run machbench.exe; returns (result dict or None, record lines)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return None, []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        log(f"benchmark run failed (exit {proc.returncode})")
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    if not build():
        log("build failed")
        return 2
    if a.self_test:
        return subprocess.run([EXE, "--self-test"], check=False).returncode
    common = ["--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.workload == "all":
        with open("BENCHMARK.json", encoding="utf-8") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        ok = True
        for name in names:
            for trace in (0, 1):
                result, _ = run(["--workload", name, "--trace", str(trace)] + common)
                ok = ok and result is not None and result["correct"]
                print(json.dumps({"workload": name, "trace": trace, "result": result}))
        return 0 if ok else 1
    result, records = run(["--workload", a.workload, "--trace", str(a.trace)] + common)
    if result is None:
        return 1
    print("\n".join(records))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
