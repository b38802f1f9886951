"""Repeat the benchmark over seeds; report medians, quartiles and spreads.

    python3 perfbench/baseline.py

Each workload runs RUNS times, each a fresh ``perfbench/run.py`` process with
its own seed (1..RUNS).  The spread of a metric is the distance between its
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of its median; every end-to-end metric, ``setup_s`` too, should keep it
below a third of its bound in BENCHMARK.json, and the script exits 1 if one
does not.  One traced run per workload (seed 1) then gives the per-layer
numbers and the tracing overhead.  Everything lands in
``perfbench/baseline.json`` together with the environment record and the
per-layer -> end-to-end map below.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# per-layer metric -> (end-to-end metric, workloads) it should move
MOVES = {
    "cli.self_ms": ("wall_s, task_tail_ms, peak_rss_mb", "cli-pipeline"),
    "cli.rows": ("wall_s, task_tail_ms, peak_rss_mb", "cli-pipeline"),
    "cli.bytes": ("wall_s, task_tail_ms, peak_rss_mb", "cli-pipeline"),
    "cli.ns_per_value": ("wall_s, task_tail_ms", "cli-pipeline"),
    "cli.exit_nonzero": ("failed/attempted", "cli-pipeline"),
    "cli.map_gaps": ("wall_s", "cli-pipeline"),
    "rates.self_ms": ("task_p50_ms", "cli-pipeline"),
    "rates.points": ("task_p50_ms", "cli-pipeline"),
    "rates.us_per_point": ("task_p50_ms", "cli-pipeline"),
    "rates.rate_coefficients.calls": ("task_p50_ms", "cli-pipeline"),
    "params.self_ms": ("task_p50_ms", "cli-pipeline"),
    "params.derive_couplings.calls": ("task_p50_ms", "cli-pipeline"),
    "dynamics.self_ms": ("wall_s", "dynamics-windows"),
    "dynamics.evolve_triple.ms": ("wall_s", "dynamics-windows"),
    "dynamics.evolve_lindblad.ms": ("wall_s", "dynamics-windows"),
    "dynamics.samples.uniform": ("wall_s; task_p50_ms", "dynamics-windows; cli-pipeline"),
    "dynamics.samples.graded": ("wall_s", "dynamics-windows"),
    "dynamics.distinct_gaps": ("wall_s", "dynamics-windows"),
    "dynamics.us_per_sample.uniform": ("wall_s; task_p50_ms",
                                       "dynamics-windows; cli-pipeline"),
    "dynamics.us_per_sample.graded": ("wall_s", "dynamics-windows"),
    "dynamics.cross_route_max_dn_e": ("failed/attempted", "dynamics-windows"),
    "dynamics.failures": ("failed/attempted", "dynamics-windows"),
    "spectra.oracle.ms": ("wall_s, task_tail_ms", "oracle-crosscheck"),
    "spectra.oracle.freqs.uniform": ("wall_s, task_tail_ms", "oracle-crosscheck"),
    "spectra.oracle.freqs.nonuniform": ("wall_s, task_tail_ms", "oracle-crosscheck"),
    "spectra.oracle.ms_per_freq.uniform": ("wall_s, task_tail_ms", "oracle-crosscheck"),
    "spectra.oracle.ms_per_freq.nonuniform": ("wall_s, task_tail_ms", "oracle-crosscheck"),
    "spectra.oracle.rel_l2_max": ("failed/attempted", "oracle-crosscheck"),
    "spectra.closed.ms": ("wall_s", "cli-pipeline"),
    "spectra.closed.points": ("wall_s", "cli-pipeline"),
    "spectra.closed.ns_per_point": ("wall_s", "cli-pipeline"),
    "spectra.moments_ode.ms": ("wall_s", "dynamics-windows"),
    "spectra.sum_rule_max_dev": ("failed/attempted", "all"),
    "spectra.failures": ("failed/attempted", "all"),
}


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, RUNS + 1))
    doc = {"run_seconds": seconds, "workloads": {}, "moves": MOVES}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        entry = {"seeds": seeds,
                 "failed": [r["failed"] for r in runs], "attempted": [r["attempted"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            s = stats([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            ok = s["spread"] < bound / 3
            steady &= ok
            print(f"{workload:18s} {name:14s} median {s['median']:10.4g} {s['unit']:3s} "
                  f"spread {s['spread']:.3f} (bound {bound}) {'ok' if ok else 'WIDE'}")
        print(f"{workload:18s} correct={entry['correct']} failed={entry['failed']}")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload:18s} tracing overhead "
              f"{entry['per_layer']['trace.overhead_pct']:.1f}% of wall_s")
        doc["workloads"][workload] = entry
    last = ROOT / ".perfbench" / f"result-{workload}-seed{seeds[-1]}-trace0.json"
    doc["env"] = json.loads(last.read_text())["env"]
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
