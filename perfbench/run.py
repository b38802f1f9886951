"""fanoqed benchmark: one closed-loop caller, three workloads, checked outputs.

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout: the library is imported from ``src/`` next to this
directory.  The task list runs in the workload's untraced rounds, which give
the end-to-end metrics; with ``--trace 0`` the last stdout line carries them.
With ``--trace 1`` one more round runs with spans at every module boundary,
and the last line carries the per-layer metrics plus the tracing overhead.
The lines before it print every metric of the run by name with its unit,
and the environment record.  A full result (metrics, per-task latencies,
every failed check, environment) is written to ``.perfbench/`` in the
checkout, and the spans of a traced run next to it.

``--smoke`` runs each workload at reduced size, traced and untraced, and
asserts that every named metric is present and every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The harness's own modules (workloads, tracing) import numpy, so they are
# imported inside functions, after the library: setup_s includes numpy.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 2          # extra fresh processes; setup_s is the median of 3

# BENCHMARK.json is the one list of workload names and of metric names and
# units; workloads.WORKLOADS implements the workloads, and the smoke run checks
# that the two agree.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def load_library():
    """Import fanoqed from this checkout's src/; return (package, seconds)."""
    if not (SRC / "fanoqed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fanoqed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fanoqed
    import fanoqed.cli
    elapsed = time.perf_counter() - t0
    if Path(fanoqed.__file__).resolve().parent != SRC / "fanoqed":
        raise SystemExit(f"perfbench: imported fanoqed from {fanoqed.__file__}, not {SRC}")
    return fanoqed, elapsed


def warm_up(fq, workload, workdir) -> float:
    import workloads
    from workloads import Facts
    t0 = time.perf_counter()
    for task in workloads.WORKLOADS[workload][1](fq, workdir):
        task.check(task.run(), Facts())
    return time.perf_counter() - t0


def setup_probe(workload) -> None:
    """Fresh-process set-up: import plus one warm-up task; prints seconds."""
    fq, t_import = load_library()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        t_warm = warm_up(fq, workload, workdir)
    print(json.dumps({"setup_s": t_import + t_warm}))


def probe_setup(workload) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Pass:
    """Closed-loop rounds over the task list: latencies, checks, facts."""

    def __init__(self, tasks, rounds=1, tracer=None):
        from workloads import Facts
        self.facts = Facts()
        self.latencies = []
        self.failures = []          # (task label, Check)
        self.attempted = 0
        self.round_s = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            for task_id, task in enumerate(tasks):
                if tracer is not None:
                    tracer.task_id = task_id
                checks = self._run_and_check(task)
                self.attempted += len(checks)
                self.failures += [(task.label, c) for c in checks if not c.ok]
            self.round_s.append(time.perf_counter() - t0)
        # the mean: the machine's speed drifts over tens of seconds, and the
        # mean of the rounds follows the whole run where a median picks one
        self.wall_s = statistics.fmean(self.round_s)

    def _run_and_check(self, task):
        """Time task.run() alone; an exception is a failed check, not a crash."""
        from workloads import Check
        start = time.perf_counter()
        try:
            result = task.run()
        except Exception as exc:
            self.latencies.append(time.perf_counter() - start)
            checks, error = [Check("completed", False, 0, 0)], exc
        else:
            self.latencies.append(time.perf_counter() - start)
            try:
                return task.check(result, self.facts)
            except Exception as exc:
                checks, error = [Check("checked", False, 0, 0)], exc
        print(f"# task {task.label!r} raised {type(error).__name__}: {error}",
              file=sys.stderr)
        return checks

    def correct(self) -> bool:
        from workloads import KNOWN_FAILURES
        return all((label, c.name) in KNOWN_FAILURES for label, c in self.failures)

    def tail(self):
        """(value_s, percentile, samples beyond): the highest percentile with
        at least 10 samples beyond it, or the maximum when there are <= 10."""
        lat = sorted(self.latencies)
        n = len(lat)
        if n > 10:
            return lat[n - 11], 100.0 * (n - 10) / n, 10
        return lat[-1], 100.0, 0


def end_to_end(run: Pass, setup_samples) -> dict:
    tail_s, _, _ = run.tail()
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": run.wall_s,
        "task_p50_ms": 1e3 * statistics.median(run.latencies),
        "task_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Pass, untraced: Pass, tracer) -> dict:
    summary = tracer.summary()
    spans, layer_ms = summary["spans"], summary["layer_self_ms"]
    counts, worst = run.facts.counts, run.facts.worst

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def span_ms(name):
        return spans.get(name, {}).get("ms", 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    grids = {"uniform": [0, 0.0], "graded": [0, 0.0]}
    gaps = 0
    for route in ("dynamics.evolve_triple", "dynamics.evolve_lindblad"):
        for dur, attrs in tracer.span_attrs(route):
            grids[attrs["kind"]][0] += attrs["samples"]
            grids[attrs["kind"]][1] += dur
            gaps += attrs["gaps"]
    oracle = {"uniform": [0, 0.0], "graded": [0, 0.0]}
    for dur, attrs in tracer.span_attrs("spectra.spectrum_quadrature_oracle"):
        oracle[attrs["kind"]][0] += attrs["points"]
        oracle[attrs["kind"]][1] += dur
    closed = tracer.span_attrs("spectra.total_spectrum")
    closed_pts = sum(a["points"] for _, a in closed)
    closed_s = sum(d for d, _ in closed)
    sweeps = tracer.span_attrs("rates.rate_sweep")
    rate_pts = sum(a["points"] for _, a in sweeps)
    moments_ode_s = sum(d for d, a in tracer.span_attrs("spectra.integrated_moments")
                        if a["source"] == "ode")
    failed_by_layer = {"dynamics": 0, "spectra": 0}
    for _, check in run.failures:
        if check.layer:
            failed_by_layer[check.layer] += 1
    values = counts.get("cli.values", 0)
    return {
        "cli.self_ms": layer_ms["cli"],
        "cli.rows": counts.get("cli.rows", 0),
        "cli.bytes": counts.get("cli.bytes", 0),
        "cli.ns_per_value": ratio(layer_ms["cli"], values, 1e6),
        "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0),
        "cli.map_gaps": counts.get("cli.map_gaps", 0),
        "rates.self_ms": layer_ms["rates"],
        "rates.points": rate_pts,
        "rates.us_per_point": ratio(sum(d for d, _ in sweeps), rate_pts, 1e6),
        "rates.rate_coefficients.calls": calls("rates.rate_coefficients"),
        "params.self_ms": layer_ms["params"],
        "params.derive_couplings.calls": calls("params.derive_couplings"),
        "dynamics.self_ms": layer_ms["dynamics"],
        "dynamics.evolve_triple.ms": span_ms("dynamics.evolve_triple"),
        "dynamics.evolve_lindblad.ms": span_ms("dynamics.evolve_lindblad"),
        "dynamics.samples.uniform": grids["uniform"][0],
        "dynamics.samples.graded": grids["graded"][0],
        "dynamics.distinct_gaps": gaps,
        "dynamics.us_per_sample.uniform": ratio(grids["uniform"][1], grids["uniform"][0], 1e6),
        "dynamics.us_per_sample.graded": ratio(grids["graded"][1], grids["graded"][0], 1e6),
        "dynamics.cross_route_max_dn_e": worst.get("dynamics.cross_route_max_dn_e", 0.0),
        "dynamics.failures": failed_by_layer["dynamics"],
        "spectra.self_ms": layer_ms["spectra"],
        "spectra.oracle.ms": span_ms("spectra.spectrum_quadrature_oracle"),
        "spectra.oracle.freqs.uniform": oracle["uniform"][0],
        "spectra.oracle.freqs.nonuniform": oracle["graded"][0],
        "spectra.oracle.ms_per_freq.uniform": ratio(oracle["uniform"][1], oracle["uniform"][0], 1e3),
        "spectra.oracle.ms_per_freq.nonuniform": ratio(oracle["graded"][1], oracle["graded"][0], 1e3),
        "spectra.oracle.rel_l2_max": worst.get("spectra.oracle.rel_l2_max", 0.0),
        "spectra.closed.ms": 1e3 * closed_s,
        "spectra.closed.points": closed_pts,
        "spectra.closed.ns_per_point": ratio(closed_s, closed_pts, 1e9),
        "spectra.moments_ode.ms": 1e3 * moments_ode_s,
        "spectra.sum_rule_max_dev": worst.get("spectra.sum_rule_max_dev", 0.0),
        "spectra.failures": failed_by_layer["spectra"],
        "fail_frac": ratio(len(run.failures), run.attempted),
        "tasks": len(run.latencies),
        "trace.wall_s": run.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_pct": ratio(run.wall_s - untraced.wall_s, untraced.wall_s, 100.0),
    }


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: v for k, v in os.environ.items()
                       if any(s in k for s in ("THREAD", "BLAS", "OMP_", "MKL_"))},
        "commit": git_commit(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_workload(args) -> dict:
    import numpy as np
    fq, t_import = load_library()
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup = [t_import + warm_up(fq, args.workload, workdir)]
        setup += probe_setup(args.workload)
        make_tasks, _, rounds = workloads.WORKLOADS[args.workload]
        rounds = rounds if args.size == "full" else 1
        tasks = make_tasks(fq, np.random.default_rng(args.seed), args.seconds / rounds,
                           args.size, workdir)
        untraced = Pass(tasks, rounds)
        e2e = end_to_end(untraced, setup)
        if not args.trace:
            run, metrics = untraced, e2e
        else:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(fq)
            try:
                run = Pass(tasks, 1, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(run, untraced, tracer)
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                        tracer.start[0] if tracer.start else 0.0)
    units = END_TO_END if not args.trace else PER_LAYER
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are "
                         "computed or listed in BENCHMARK.json, but not both")
    _, pct, beyond = untraced.tail()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": environment(),
        "setup_samples_s": setup, "tasks": len(tasks), "round_s": run.round_s,
        "tail": {"percentile": pct, "samples": len(untraced.latencies), "beyond": beyond},
        "task_ms": [[t.label, round(1e3 * s, 3)]
                    for t, s in zip(tasks * len(run.round_s), run.latencies)],
        "failures": [{"task": label, "check": c.name, "value": c.value, "bound": c.bound}
                     for label, c in run.failures],
        "correct": run.correct(), "attempted": run.attempted, "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "untraced": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report) -> None:
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# workload {report['workload']} seed {report['seed']} tasks {report['tasks']} "
          f"checks {report['attempted']} failed {report['failed']}"
          f" (fail_frac {report['failed'] / report['attempted']:.4g})")
    for f in report["failures"]:
        print(f"# FAILED {f['task']}: {f['check']} = {f['value']:.3e} "
              f"(bound {f['bound']:.1e})")
    tail = report["tail"]
    shown = {**report["untraced"], **report["metrics"]}   # trace 1: both sets
    for name, m in shown.items():
        note = (f"  (p{tail['percentile']:.1f} of {tail['samples']} tasks, "
                f"{tail['beyond']} beyond)" if name == "task_tail_ms" else "")
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))


def smoke() -> int:
    """Each workload at reduced size, both modes: metrics present, checks pass."""
    import workloads
    problems = []
    if set(workloads.WORKLOADS) != set(WORKLOAD_NAMES):
        problems.append(f"workloads.py defines {sorted(workloads.WORKLOADS)}, "
                        f"BENCHMARK.json names {sorted(WORKLOAD_NAMES)}")
    for workload in WORKLOAD_NAMES:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace={trace}: no result (exit {proc.returncode})"
                                f"\n{proc.stderr[-2000:]}")
                continue
            missing = set(names) - set(result["metrics"])
            ok = proc.returncode == 0 and result["correct"] and not missing
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"({result['attempted']} checks, {result['failed']} failed)")
            if not ok:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}, "
                                f"correct={result['correct']}, missing={sorted(missing)}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--smoke", action="store_true", help="reduced-size self-check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    print_report(run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
