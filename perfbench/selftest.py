#!/usr/bin/env python3
"""Self-tests for the repository benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. bench.exe selftest: the output checks count a wrong run as failed
   (a summary one ulp off its golden, an injected band-probe fault
   against the reference simulator, FlowExpect above its OPT bound).
2. BENCHMARK.json and perfbench/metrics.json declare every metric with a
   unit, a layer and the end-to-end metric it should move, and every
   workload with a one-line rationale.
3. One run per trace mode at a non-canonical seed: correct, every
   printed metric declared, and the traced run's span self times
   reproduce its per-layer metrics.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
failures = []


def expect(what, cond):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          stdout=subprocess.PIPE, text=True, timeout=run.BUILD_TIMEOUT_S)
    expect("run.py " + " ".join(args) + " exits 0", proc.returncode == 0)
    return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None


def declarations():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open("perfbench/metrics.json") as f:
        meta = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        expect(f"workload {w['name']} has a one-line rationale",
               bool(w["why"].strip()) and "\n" not in w["why"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(f"{m['name']} has a unit", bool(m.get("unit")))
    for m in spec["end_to_end"]:
        expect(f"{m['name']} is described", m["name"] in meta["end_to_end"])
    workloads = {w["name"] for w in spec["workloads"]}
    for m in spec["per_layer"]:
        info = meta["per_layer"].get(m["name"], {})
        expect(f"{m['name']} names its layer", bool(info.get("layer")))
        # Tracing is the benchmark's own cost; every other layer metric
        # names the end-to-end metric it should move.
        moves = info.get("moves", [])
        expect(f"{m['name']} moves declared end-to-end metrics",
               set(moves) <= e2e and (bool(moves) or info.get("layer") == "perfbench tracing"))
        expect(f"{m['name']} names declared workloads",
               bool(info.get("on")) and set(info["on"]) <= workloads)
    expect("metrics.json declares nothing extra",
           set(meta["per_layer"]) == {m["name"] for m in spec["per_layer"]}
           and set(meta["end_to_end"]) == e2e)
    return spec


def load_spans(path):
    spans, aggs = {}, []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["kind"] == "span":
                spans[rec["id"]] = rec
            elif rec["kind"] == "aggregate":
                aggs.append(rec)
    return spans, aggs


def close(a, b):
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def spans_reproduce(workload, metrics):
    spans, aggs = load_spans(os.path.join(run.OUT_DIR, f"spans-{workload}-{SEED}.jsonl"))
    covered = {}
    for a in aggs:
        covered[a["parent"]] = covered.get(a["parent"], 0) + a["hist"]["total_ns"]
    dur = {i: s["end_ns"] - s["start_ns"] for i, s in spans.items()}
    joins = [s for s in spans.values() if s["name"] == "join_sim.run"]
    steps = sum(s["steps"] for s in joins)
    self_ns = sum(dur[s["id"]] - covered.get(s["id"], 0) for s in joins)
    expect(f"{workload}: join_sim.run self time reproduces engine.join_self_ns_per_step",
           close(self_ns / steps, metrics["engine.join_self_ns_per_step"]["value"]))
    expect(f"{workload}: aggregates reproduce join_sim.policy_share",
           close(sum(covered.get(s["id"], 0) for s in joins) / sum(dur[s["id"]] for s in joins),
                 metrics["join_sim.policy_share"]["value"]))
    expect(f"{workload}: one span per engine run",
           len(joins) == metrics["join_sim.runs"]["value"])
    expect(f"{workload}: every span nests inside its parent",
           all(s["parent"] == -1 or (spans[s["parent"]]["start_ns"] <= s["start_ns"]
                                      and s["end_ns"] <= spans[s["parent"]]["end_ns"])
               for s in spans.values()))


def main():
    run.build()
    proc = subprocess.run([run.EXE, "selftest"], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    expect("bench.exe selftest passes", proc.returncode == 0)

    spec = declarations()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workload = "joining"
    for trace in (0, 1):
        result = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                       "--trace", str(trace))
        if result is None:
            continue
        expect(f"trace {trace}: correct at seed {SEED}",
               result["correct"] and result["failed"] == 0 and result["attempted"] > 0)
        expect(f"trace {trace}: every printed metric is declared with its unit",
               all(units.get(k) == v["unit"] for k, v in result["metrics"].items()))
        if trace:
            spans_reproduce(workload, result["metrics"])

    if failures:
        print(f"{len(failures)} self-test(s) failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
