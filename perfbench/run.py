#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload joining --seed 42 --seconds 55 --trace 0

Builds perfbench/bench.exe from source with dune into .bench_build/,
then runs it:

  --trace 0: prints the end-to-end metrics.
  --trace 1: adds one traced pass; prints the per-layer metrics and
             writes the spans as JSONL to
             .bench_build/perfbench/spans-<workload>-<seed>.jsonl.

bench.exe keeps the whole run within --seconds.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Every metric printed is checked against
the declarations in BENCHMARK.json.  Exits non-zero, printing no
result, when the sources are missing, the build fails or a run fails
to finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def child_env():
    env = dict(os.environ)
    # The harness sets jobs and the obs gate itself; inherited knobs
    # would change what is measured or write files outside the checkout.
    for key in list(env):
        if key.startswith("SSJ_"):
            del env[key]
    env["DUNE_CACHE"] = "disabled"
    return env


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root: dune-project or lib/ is missing")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--cache", "disabled",
        "--display", "quiet", "perfbench/bench.exe",
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout[-4000:])
        die("build failed")


def run_exe(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        die("out of time before " + args[0])
    try:
        proc = subprocess.run([EXE] + args, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        die(args[0] + " timed out")
    if proc.returncode != 0:
        die(f"{args[0]} exited with {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        die(args[0] + " printed nothing")
    for ln in lines[:-1]:
        print(ln)
    return json.loads(lines[-1])


def declared(mode):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[mode]}, [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    mode = "per_layer" if args.trace else "end_to_end"
    units, workloads = declared(mode)
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}")
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    result = run_exe(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", spans], deadline)
    attempted, failed, metrics = result["attempted"], result["failed"], result["metrics"]

    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != units:
        die(f"metrics printed do not match the {mode} declarations in BENCHMARK.json: "
            f"{sorted(set(printed.items()) ^ set(units.items()))}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
