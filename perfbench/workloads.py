"""The three workloads: seeded task lists, the calls they time, their checks.

Every task has a ``run`` step, whose duration is the task's latency, and a
``check`` step that verifies the outputs and returns named checks.  Checks
also add exact counts to ``facts`` (rows and bytes written, map gaps, worst
cross-route and sum-rule deviations) for the traced run's per-layer report.

Inputs are generated from the workload seed before anything is timed; the
library receives only those inputs.  A run executes its task list in
``rounds`` identical rounds; the list has a fixed length derived from
``--seconds`` / rounds (sized so that a round takes about that long on the
reference machine), so a round's wall time is the time to a checked solution
of a fixed, seeded list.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DS = 20.0                     # filter width of the criterion-8 spectra (ueV)
CROSS_ROUTE_BOUND = 1e-6      # criterion 5
MOMENTS_BOUND = 1e-3          # test_spectra: ODE vs coarse moments
ODE_SUM_RULE_BOUND = 1e-4     # test_spectra: ODE photon sum rule
SUM_RULE_BOUND = 1e-9         # criterion 7 and the validate suite
ORACLE_L2_BOUND = 1e-3        # criterion 8
LORENTZ_BOUND = 1e-3          # test_oracle_bare_emitter_line

# The one documented failure (README, "Known strict-check failures" 2): the
# criterion-5 set on the exact rate antiresonance.  It is counted as failed;
# a run is still ``correct`` when it is the only failure.
KNOWN_FAILURES = {("c5 eta=1 gph=0 eps=-126.4", "cross_route_dn_e")}


@dataclass
class Check:
    name: str
    ok: bool
    value: float
    bound: float
    layer: str = ""           # the layer a failure is charged to, if any


@dataclass
class Facts:
    """Exact counts and worst deviations gathered by the checks of one pass."""

    counts: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def max(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))


def _check(name, value, bound, layer) -> Check:
    return Check(name, bool(value <= bound), float(value), float(bound), layer)


# --------------------------------------------------------------------------
# cli-pipeline

CLI_COMMANDS = ("rate-sweep", "dynamics", "spectrum", "spectrum-map", "validate")
CLI_HEADERS = {
    "rate-sweep": "eps,detuning_ueV,W_full,W_weak,W_fano_abs",
    "dynamics": "t,n_e_ode,n_c_ode,n_e_coarse,n_c_coarse,exp_minus_Wt",
    "spectrum": "nu_minus_omega21_ueV,S21,Sc,SF,Stotal",
    "spectrum-map": "detuning_ueV,nu_minus_omega21_ueV,Stotal",
}
# the CLI's default sizes, written into every config so checks read them back
CLI_SIZES = {"sweep": {"count": 801}, "dynamics": {"count": 2001},
             "spectrum": {"count": 2001}, "map": {"count": 161}}
CLI_CONFIGS_PER_SECOND = 0.65     # one config (5 subcommands) takes ~1.5 s


def draw_cli_params(rng) -> dict:
    """Random parameters in the supported regime (kappa > gamma), as in the CLI."""
    g_abs = rng.uniform(0.0, 150.0)
    gamma = rng.uniform(0.01, 2.0)
    kappa = rng.uniform(5.0, 150.0)
    gamma_ph = rng.uniform(0.0, 40.0)
    eta = rng.uniform(0.0, 1.0)
    eps = rng.uniform(-200.0, 200.0)
    return {"omega21": 0.0, "omega_c": -0.5 * eps * kappa, "g_abs": g_abs,
            "gamma": gamma, "kappa": kappa, "gamma_ph": gamma_ph, "eta": eta}


class CliTask:
    """One ``fanoqed.cli.main`` subcommand, in process, output to a temp dir."""

    def __init__(self, fq, command, config_path, config, out_path):
        self.fq, self.command = fq, command
        self.config_path, self.config, self.out_path = config_path, config, out_path
        self.label = f"{command} {os.path.basename(config_path)}"

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.fq.cli.main([self.command, "--config", self.config_path,
                                   "--out", self.out_path])
        return rc, out.getvalue()

    def check(self, result, facts: Facts) -> list[Check]:
        rc, stdout = result
        facts.add("cli.exit_nonzero", int(rc != 0))
        checks = [Check("exit_code", rc == 0, rc, 0)]
        if self.command == "validate":
            facts.add("cli.bytes", len(stdout.encode()))
            last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            checks.append(Check("validate_passed",
                                last == "validate: all checks passed", 0, 0))
            return checks
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        # counted on the bytes: the map output has 322k lines
        n_lines = data.count(b"\n")
        n_comments = data.count(b"\n#") + data.startswith(b"#")
        head = data[:4096].decode(errors="replace").split("\n")
        header = next(ln for ln in head if not ln.startswith("#"))
        rows = n_lines - n_comments - 1
        ncols = len(header.split(","))
        facts.add("cli.bytes", len(data))
        facts.add("cli.rows", rows)
        facts.add("cli.values", rows * ncols)
        checks.append(Check("header", header == CLI_HEADERS[self.command], 0, 0))
        snapshot = dict(kv.split("=") for kv in head[0][len("# params: "):].split())
        params_ok = all(float(snapshot[k]) == float(v)
                        for k, v in self.config["params"].items())
        checks.append(Check("params_snapshot", params_ok, 0, 0))
        expect = {"rate-sweep": self.config["sweep"]["count"],
                  "dynamics": self.config["dynamics"]["count"],
                  "spectrum": self.config["spectrum"]["count"]}.get(self.command)
        if self.command == "spectrum-map":
            gaps = data.count(b"\n# gap:")
            facts.add("cli.map_gaps", gaps)
            expect = (self.config["map"]["count"] - gaps) * self.config["spectrum"]["count"]
        checks.append(Check("row_count", rows == expect, rows, expect))
        if self.command == "spectrum":
            at = data.rfind(b"\n# sum_rule = ")
            dev = abs(float(data[at + 14:].split(b"\n")[0]) - 1.0) if at >= 0 else math.inf
            facts.max("spectra.sum_rule_max_dev", dev)
            checks.append(_check("sum_rule", dev, SUM_RULE_BOUND, "spectra"))
        return checks


def cli_tasks(fq, rng, seconds, size, workdir):
    n_configs = max(1, round(seconds * CLI_CONFIGS_PER_SECOND))
    tasks = []
    for i in range(n_configs):
        config = {"params": draw_cli_params(rng), "seed": int(rng.integers(2 ** 31)),
                  **json.loads(json.dumps(CLI_SIZES))}
        path = os.path.join(workdir, f"config{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for command in CLI_COMMANDS:
            tasks.append(CliTask(fq, command, path, config,
                                 os.path.join(workdir, f"{command}.csv")))
    return tasks


def cli_warmup_tasks(fq, workdir):
    """A reduced-size pass over all five subcommands."""
    config = {"params": {"eta": 0.7}, "seed": 1, "sweep": {"count": 11},
              "dynamics": {"count": 21}, "spectrum": {"count": 21},
              "map": {"count": 3}, "validate": {"draws": 5}}
    path = os.path.join(workdir, "warmup.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return [CliTask(fq, command, path, config, os.path.join(workdir, "warmup.csv"))
            for command in CLI_COMMANDS]


# --------------------------------------------------------------------------
# oracle-crosscheck

# criterion-8 tasks per pass, then one bare-emitter task: an even count, so
# that task_p50_ms is the mean of two middle tasks rather than one task
ORACLE_STRATA = 5
ORACLE_PASS_SECONDS = 25.0


@dataclass
class OracleTask:
    fq: object
    params: object
    nu: np.ndarray
    label: str
    bare: bool = False

    def run(self):
        spectra = self.fq.spectra
        closed = None if self.bare else spectra.total_spectrum(self.params, self.nu, DS)
        return closed, spectra.spectrum_quadrature_oracle(self.params, self.nu, DS)

    def check(self, result, facts: Facts) -> list[Check]:
        closed, oracle = result
        if self.bare:
            # filtered bare line: Lorentzian of half-width (gamma + ds)/2, weight 1
            hw = 0.5 * (self.params.gamma + DS)
            expect = (hw / math.pi) / (self.nu ** 2 + hw ** 2)
            step = float(np.diff(self.nu).max())
            peak = abs(float(self.nu[np.argmax(oracle)]))
            dev = float(np.abs(oracle - expect).max() / expect.max())
            return [_check("bare_peak_position", peak, 2.0 * step, "spectra"),
                    _check("bare_lorentzian", dev, LORENTZ_BOUND, "spectra")]
        l2 = float(np.linalg.norm(oracle - closed.s_total) / np.linalg.norm(closed.s_total))
        dev = abs(closed.sum_rule - 1.0)
        facts.max("spectra.oracle.rel_l2_max", l2)
        facts.max("spectra.sum_rule_max_dev", dev)
        return [_check("oracle_rel_l2", l2, ORACLE_L2_BOUND, "spectra"),
                _check("sum_rule", dev, SUM_RULE_BOUND, "spectra")]


def criterion8_task(fq, detuning, gamma_ph, n_freq, label):
    p = fq.params.SystemParams(eta=1.0, gamma_ph=gamma_ph).with_detuning(detuning)
    lo = min(0.0, p.omega_c - p.omega21) - 1050.0
    hi = max(0.0, p.omega_c - p.omega21) + 1050.0
    return OracleTask(fq, p, np.linspace(lo, hi, n_freq), label)


def bare_emitter_task(fq, gamma, n_wide, n_core, label):
    p = fq.params.SystemParams(g_abs=0.0, eta=0.0, gamma=gamma)
    hw = 0.5 * (p.gamma + DS)
    nu = np.unique(np.concatenate([np.linspace(-60.0 * hw, 60.0 * hw, n_wide),
                                   np.linspace(-3.0 * hw, 3.0 * hw, n_core)]))
    return OracleTask(fq, p, nu, label, bare=True)


def oracle_tasks(fq, rng, seconds, size, workdir):
    """Criterion-8 family in paired strata, plus the bare-emitter grid.

    Task k of a pass draws |detuning| from the central fifth of the k-th of
    ORACLE_STRATA equal strata of [0, 3160] (random sign) and gamma_ph from
    the central fifth of the k-th stratum of [0, 30].  Oracle cost grows with
    |detuning| and falls with gamma_ph, so every seed gets a list of the
    same cost profile while the values still vary.
    """
    n_freq, n_wide, n_core = (211, 1601, 801) if size == "full" else (31, 201, 101)
    passes = max(1, round(seconds / ORACLE_PASS_SECONDS))
    tasks = []
    for _ in range(passes):
        for k in range(ORACLE_STRATA):
            u_d, u_g = 0.5 + rng.uniform(-0.1, 0.1, size=2)
            detuning = float(rng.choice((-1.0, 1.0)) * 3160.0 * (k + u_d) / ORACLE_STRATA)
            gamma_ph = float(30.0 * (k + u_g) / ORACLE_STRATA)
            tasks.append(criterion8_task(
                fq, detuning, gamma_ph, n_freq,
                f"c8 detuning={detuning:+.1f} gph={gamma_ph:.2f}"))
        gamma = float(rng.uniform(0.01, 2.0))
        tasks.append(bare_emitter_task(fq, gamma, n_wide, n_core,
                                       f"bare gamma={gamma:.3f}"))
    return tasks


def oracle_warmup_tasks(fq, workdir):
    return [criterion8_task(fq, 0.0, 30.0, 11, "warmup c8"),
            bare_emitter_task(fq, 0.05, 11, 5, "warmup bare")]


# --------------------------------------------------------------------------
# dynamics-windows

DYNAMICS_TASKS_PER_SECOND = 1.8   # one parameter set takes ~0.5 s
MIN_DRAWN_RATE = 1e-3             # drawn sets keep the window 10/W <= 1e4


@dataclass
class DynamicsTask:
    fq: object
    params: object
    label: str

    def run(self):
        rates, dynamics, spectra = self.fq.rates, self.fq.dynamics, self.fq.spectra
        p = self.params
        w = rates.transition_rate(p)
        horizon = 10.0 / w
        head = min(2.0, horizon)
        graded = np.unique(np.concatenate([np.linspace(0.0, head, 201),
                                           np.geomspace(head, horizon, 400)]))
        uniform = np.linspace(0.0, horizon, 2001)
        routes = [(dynamics.evolve_triple(p, t_grid=t), dynamics.evolve_lindblad(p, t_grid=t))
                  for t in (graded, uniform)]
        coarse = dynamics.coarse_grained_solution(p, graded)
        m_ode = spectra.integrated_moments(p, source="ode")
        m_coarse = spectra.integrated_moments(p, source="coarse")
        return w, routes, coarse, m_ode, m_coarse

    def check(self, result, facts: Facts) -> list[Check]:
        w, routes, coarse, m_ode, m_coarse = result
        p = self.params
        dn_e = max(float(np.abs(tri.n_e - lin.n_e).max()) for tri, lin in routes)
        facts.max("dynamics.cross_route_max_dn_e", dn_e)
        moments_dev = max(abs(m_ode.i_e - m_coarse.i_e) / m_coarse.i_e,
                          abs(m_ode.i_c - m_coarse.i_c) / m_coarse.i_c,
                          abs(m_ode.i_p - m_coarse.i_p) / abs(m_coarse.i_p))
        ode_sum = abs(m_ode.sum_rule(p) - 1.0)
        facts.max("spectra.sum_rule_max_dev", ode_sum)
        finite = math.isfinite(w) and w > 0 and all(np.isfinite(c).all() for c in coarse)
        return [Check("rate_and_coarse_finite", finite, w, 0, "dynamics"),
                _check("cross_route_dn_e", dn_e, CROSS_ROUTE_BOUND, "dynamics"),
                _check("moments_ode_vs_coarse", moments_dev, MOMENTS_BOUND, "spectra"),
                _check("ode_sum_rule", ode_sum, ODE_SUM_RULE_BOUND, "spectra")]


def criterion5_sets(fq):
    sets = []
    for eta in (0.0, 1.0):
        for gph in (0.0, 30.0):
            for eps in (0.0, 126.4, -126.4):
                p = fq.params.SystemParams(eta=eta, gamma_ph=gph).with_reduced_detuning(eps)
                sets.append((p, f"c5 eta={eta:g} gph={gph:g} eps={eps:+.1f}"))
    return sets


def dynamics_tasks(fq, rng, seconds, size, workdir):
    """The 12 criterion-5 sets, then seeded draws of the same family.

    Draws take eta in [0, 1], gamma_ph in [0, 30] and eps in [-200, 200], and
    are redrawn while W < MIN_DRAWN_RATE: the near-zero-rate regime is the
    one criterion-5 antiresonance set, kept in every list.
    """
    sets = criterion5_sets(fq)
    n_total = max(len(sets), round(seconds * DYNAMICS_TASKS_PER_SECOND))
    while len(sets) < n_total:
        p = fq.params.SystemParams(eta=rng.uniform(0.0, 1.0),
                                   gamma_ph=rng.uniform(0.0, 30.0)
                                   ).with_reduced_detuning(rng.uniform(-200.0, 200.0))
        if fq.rates.transition_rate(p) >= MIN_DRAWN_RATE:
            sets.append((p, f"draw eta={p.eta:.3f} gph={p.gamma_ph:.2f} "
                            f"eps={fq.params.reduced_detuning(p):+.2f}"))
    return [DynamicsTask(fq, p, label) for p, label in sets]


def dynamics_warmup_tasks(fq, workdir):
    """64 short evolve_triple calls (BLAS start-up), then one full task."""
    p = fq.params.SystemParams(eta=0.0, gamma_ph=30.0)
    t = np.linspace(0.0, 0.5, 201)
    for _ in range(64):
        fq.dynamics.evolve_triple(p, t_grid=t)
    return [DynamicsTask(fq, p, "warmup c5")]


# name -> (task list for one round, warm-up tasks, rounds per run)
WORKLOADS = {
    "cli-pipeline": (cli_tasks, cli_warmup_tasks, 5),
    "oracle-crosscheck": (oracle_tasks, oracle_warmup_tasks, 1),
    "dynamics-windows": (dynamics_tasks, dynamics_warmup_tasks, 3),
}
