import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fanoqed import cli
from fanoqed import SystemParams, rate_coefficients, total_spectrum
from fanoqed.cli import (RunConfig, load_config, main, ConfigError,
                         EXIT_OK, EXIT_VALIDATION, EXIT_CONFIG, EXIT_NUMERIC,
                         _from_dict)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    comments, header, rows, footer = [], None, [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert "\r" not in text
    for line in text.splitlines():
        if line.startswith("# "):
            (footer if header is not None else comments).append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows), footer


def fresh_python(args, **kwargs):
    """Run this interpreter in a new process that imports fanoqed from src/."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, check=True,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


def test_cli_import_leaves_scipy_solvers_unloaded(tmp_path):
    # the library imports numpy only: no scipy module loads on import, in the
    # CLI's dynamics and validate runs, in the spectrum oracle or in a
    # slow-mode split.  The oracle computes its Gauss-Legendre rule itself,
    # so numpy.polynomial, which numpy loads lazily, stays unloaded too.  Nor does a slow-mode split load any module that a run
    # without one has not: perfbench's dynamics-windows warms up on a set
    # without a slow mode, so a lazy set-up there would land in its first
    # timed round (CHANGES.md, FOUND 31)
    code = textwrap.dedent(f"""
        import sys
        import fanoqed.cli
        from fanoqed import (SystemParams, evolve_lindblad, evolve_triple,
                             spectrum_quadrature_oracle, transition_rate)

        def scipy_loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        def window(p):
            return [0.0, 1.0 / transition_rate(p), 10.0 / transition_rate(p)]

        anti = SystemParams(eta=1.0, gamma_ph=0.0).with_reduced_detuning(-126.4)
        far = SystemParams(eta=0.0).with_detuning(1e9)
        c8 = SystemParams(eta=1.0, gamma_ph=30.0).with_detuning(3160.0)
        out = {str(tmp_path / "dyn.csv")!r}
        steps = [("import", lambda: None),
                 ("dynamics", lambda: fanoqed.cli.main(["dynamics", "--out", out])),
                 ("validate", lambda: fanoqed.cli.main(["validate"])),
                 ("no slow mode", lambda: evolve_triple(c8, window(c8)).metadata["slow_modes"]),
                 ("oracle", lambda: spectrum_quadrature_oracle(c8, [-1050.0, 4210.0], 20.0).shape)]
        for name, step in steps:
            print(name, step(), scipy_loaded(), file=sys.stderr)
        print("numpy.polynomial", "numpy.polynomial" in sys.modules, file=sys.stderr)
        before = set(sys.modules)
        slow = [evolve(p, window(p)).metadata["slow_modes"]
                for p in (anti, far) for evolve in (evolve_triple, evolve_lindblad)]
        print("slow modes", slow, scipy_loaded(), sorted(set(sys.modules) - before),
              file=sys.stderr)
    """)
    err = fresh_python(["-c", code], capture_output=True, text=True).stderr
    assert err.splitlines() == [
        "import None []", "dynamics 0 []", "validate 0 []", "no slow mode 0 []",
        "oracle (2,) []", "numpy.polynomial False", "slow modes [1, 1, 2, 2] [] []"]


def test_library_imports_only_stdlib_and_numpy():
    # every import statement in src/fanoqed, at module level or inside a
    # function, names the standard library, numpy or the package itself
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "fanoqed"
    allowed = set(sys.stdlib_module_names) | {"numpy", "fanoqed"}
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_export_lists_name_existing_objects():
    # a name left in __all__ after its object is gone breaks `import *`
    import fanoqed
    layers = (fanoqed.params, fanoqed.rates, fanoqed.dynamics, fanoqed.spectra)
    assert fanoqed.__all__ == [name for module in layers for name in module.__all__] + [
        "__version__"]
    assert len(set(fanoqed.__all__)) == len(fanoqed.__all__)
    namespace = {}
    exec("from fanoqed import *", namespace)
    assert set(fanoqed.__all__) <= set(namespace)
    for module in layers + (cli,):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_benchmark_configs_load(tmp_path, monkeypatch):
    # perfbench/workloads.py writes the cli-pipeline configs; a config key the
    # CLI drops would otherwise fail only the benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    tasks = (workloads.cli_warmup_tasks(None, str(tmp_path))
             + workloads.cli_tasks(None, np.random.default_rng(1), 3.0, None, str(tmp_path)))
    paths = sorted({task.config_path for task in tasks})
    assert len(paths) == 3
    for path in paths:
        cfg = load_config(path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert cfg.seed == doc["seed"]
        assert dataclasses.asdict(cfg.params) == {
            **dataclasses.asdict(SystemParams()), **doc["params"]}


def test_traced_layer_functions_exist():
    # perfbench/tracing.py wraps these names on each fanoqed module; a name the
    # library drops would otherwise break only the benchmark's traced round
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"fanoqed.{layer}")
        assert [name for name in names if not hasattr(module, name)] == [], layer


def test_config_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.params = cfg.params.with_reduced_detuning(-126.4)
    cfg.seed = 99
    cfg.sweep["count"] = 11
    doc = cfg.to_dict()
    path = write_config(tmp_path, doc)
    again = load_config(path)
    assert again.to_dict() == doc


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"paramz": {}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"params": {"gamm": 1.0}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"sweep": {"stop": 1.0, "step": 0.1}}))
    with pytest.raises(ConfigError):
        _from_dict({"params": {"eta": 2.0}})
    for value in ([0.0, 1.0], True, "5", 10 ** 400):
        with pytest.raises(ConfigError, match="must be a finite number"):
            _from_dict({"params": {"omega_c": value}})
    for removed in ("fixed_step", "fixed_step_dt", "workers", "command", "out"):
        with pytest.raises(ConfigError, match="unknown config key"):
            _from_dict({removed: 1})
    for removed in ("nu_start", "nu_stop"):
        with pytest.raises(ConfigError, match="unknown spectrum key"):
            _from_dict({"spectrum": {removed: -10.0}})
    with pytest.raises(ConfigError, match="unknown validate key"):
        _from_dict({"validate": {"inject_eta": 1.5}})
    for variable in ("eps", "kappa"):
        with pytest.raises(ConfigError, match="unknown sweep key"):
            _from_dict({"sweep": {"variable": variable}})
    with pytest.raises(ConfigError):
        _from_dict({"seed": "abc"})
    with pytest.raises(ConfigError):
        _from_dict([1, 2])


def test_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, {"unknown_key": 1})
    assert main(["rate-sweep", "--config", path]) == EXIT_CONFIG
    assert main(["rate-sweep", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    for flags in (["--fixed-step"], ["--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics"] + flags)
        assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("command, doc", [
    ("rate-sweep", {"sweep": {"count": 0}}),
    ("dynamics", {"dynamics": {"count": 1}}),
    ("dynamics", {"dynamics": {"t_max": -1.0}}),
    ("spectrum", {"spectrum": {"count": 0}}),
    ("spectrum-map", {"map": {"count": 0}}),
    ("spectrum", {"spectrum": {"ds": 0.0}}),
    ("spectrum", {"spectrum": {"ds": -5.0}}),
    ("validate", {"validate": {"draws": 0}}),
    ("validate", {"validate": {"draws": -3}}),
    ("rate-sweep", {"sweep": {"start": None}}),
    ("rate-sweep", {"sweep": {"start": True, "stop": "5"}}),
    ("rate-sweep", {"sweep": {"stop": 10 ** 400}}),
    ("spectrum", {"spectrum": {"ds": [20]}}),
    ("spectrum", {"spectrum": {"ds": "20"}}),
    ("spectrum", {"spectrum": {"ds": float("inf")}}),
    ("spectrum-map", {"map": {"detuning_stop": False}}),
])
def test_bad_section_values_are_config_errors(tmp_path, capsys, command, doc):
    path = write_config(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("body", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "deep-nesting"])
def test_unreadable_config_is_config_error(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))
    assert main(["rate-sweep", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["missing/o.csv", "."])
def test_unwritable_out_is_config_error_before_the_work(tmp_path, capsys, monkeypatch,
                                                        out):
    # a missing directory or a directory as --out is reported before any
    # row is computed, as a config error without a traceback; validate,
    # which writes no CSV, ignores --out
    calls = []
    monkeypatch.setattr(cli, "rate_sweep", lambda *args: calls.append(args))
    assert main(["rate-sweep", "--out", str(tmp_path / out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert calls == []
    cfg = write_config(tmp_path, {"validate": {"draws": 1}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / out)]) == EXIT_OK


def test_rate_sweep_csv(tmp_path):
    for eta, name in ((0.0, "w0.csv"), (0.5, "w05.csv"), (1.0, "w1.csv")):
        cfg = write_config(tmp_path, {
            "params": {"eta": eta},
            "sweep": {"start": -200.0, "stop": 200.0, "count": 401},
        }, name=f"c{eta}.json")
        out = str(tmp_path / name)
        assert main(["rate-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    _, header, rows, _ = read_csv(str(tmp_path / "w0.csv"))
    assert header == ["eps", "detuning_ueV", "W_full", "W_weak", "W_fano_abs"]
    assert rows.shape == (401, 5)
    # detuning column is omega21 - omega_c = eps*kappa/2
    assert np.allclose(rows[:, 1], rows[:, 0] * 25.0)
    w0 = rows[:, 2]
    assert np.allclose(w0, w0[::-1], rtol=1e-10)       # orthogonal: symmetric
    _, _, rows1, _ = read_csv(str(tmp_path / "w1.csv"))
    assert rows1[np.argmin(rows1[:, 2]), 0] < 0.0       # full overlap: asymmetric
    _, _, rows05, _ = read_csv(str(tmp_path / "w05.csv"))
    assert not np.allclose(rows05[:, 2], rows05[::-1, 2], rtol=1e-6)


def test_rate_sweep_antiresonance_minimum(tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"g_abs": 0.0, "eta": 1.0, "gamma_ph": 0.0},
        "sweep": {"start": -10.0, "stop": 10.0, "count": 801},
    })
    out = str(tmp_path / "w.csv")
    assert main(["rate-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    _, _, rows, _ = read_csv(out)
    k = np.argmin(rows[:, 2])
    assert abs(rows[k, 0]) < 0.05
    assert rows[k, 2] < 1e-10


def test_rate_sweep_single_row(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"start": 3.0, "stop": 3.0, "count": 1}})
    out = str(tmp_path / "one.csv")
    assert main(["rate-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    _, header, rows, _ = read_csv(out)
    assert rows.shape == (1, 5)
    assert rows[0, 0] == 3.0


def test_dynamics_csv_bare_decay(tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"g_abs": 0.0, "eta": 0.0},
        "dynamics": {"t_max": 40.0, "count": 401},
    })
    out = str(tmp_path / "dyn.csv")
    assert main(["dynamics", "--config", cfg, "--out", out]) == EXIT_OK
    comments, header, rows, _ = read_csv(out)
    assert header == ["t", "n_e_ode", "n_c_ode", "n_e_coarse", "n_c_coarse",
                      "exp_minus_Wt"]
    assert np.abs(rows[:, 1] - rows[:, 5]).max() < 1e-9
    assert any("units:" in c for c in comments)
    assert any("params:" in c for c in comments)


def test_dynamics_csv_oscillation_midline(tmp_path):
    cfg = write_config(tmp_path, {"dynamics": {"t_max": 0.45, "count": 4501}})
    out = str(tmp_path / "dyn.csv")
    assert main(["dynamics", "--config", cfg, "--out", out]) == EXIT_OK
    _, _, rows, _ = read_csv(out)
    n_ode, n_coarse = rows[:, 1], rows[:, 3]
    # oscillatory full solution crosses the monotone coarse curve many times
    crossings = np.sum(np.diff(np.sign(n_ode - n_coarse)) != 0)
    assert crossings >= 8
    assert np.all(np.diff(n_coarse) <= 1e-12)


def test_dynamics_detuning_sign_asymmetry(tmp_path):
    decays = {}
    for sign in (+1, -1):
        cfg = write_config(tmp_path, {
            "params": {"omega_c": -sign * 2500.0},
            "dynamics": {"t_max": 20.0, "count": 2001},
        }, name=f"d{sign}.json")
        out = str(tmp_path / f"dyn{sign}.csv")
        assert main(["dynamics", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows, _ = read_csv(out)
        decays[sign] = rows[-1, 1]
    assert not math.isclose(decays[+1], decays[-1], rel_tol=0.5)


def test_spectrum_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"gamma_ph": 30.0, "omega_c": 3160.0},
        "spectrum": {"ds": 20.0, "count": 1501},
    })
    out = str(tmp_path / "spectrum.csv")
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_OK
    _, header, rows, footer = read_csv(out)
    assert header == ["nu_minus_omega21_ueV", "S21", "Sc", "SF", "Stotal"]
    assert any(f.startswith("sum_rule = ") for f in footer)
    sum_rule = float(footer[-1].split("=")[1])
    assert abs(sum_rule - 1.0) < 1e-9
    # with dephasing at this detuning the brightest line is the cavity one
    peak_nu = rows[np.argmax(rows[:, 4]), 0]
    assert abs(peak_nu - 3160.0) < 50.0
    assert np.allclose(rows[:, 4], rows[:, 1:4].sum(axis=1), atol=1e-12)


def test_spectrum_csv_destructive_interference_without_dephasing(tmp_path):
    # dephasing-free, detuned: the interference column is destructive at the
    # emitter line while the total stays positive
    cfg = write_config(tmp_path, {
        "params": {"gamma_ph": 0.0, "omega_c": 3160.0},
        "spectrum": {"ds": 20.0, "count": 2001},
    })
    out = str(tmp_path / "spec0.csv")
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_OK
    _, _, rows, _ = read_csv(out)
    k = np.argmin(np.abs(rows[:, 0]))  # nu = omega21
    assert rows[k, 3] < 0.0            # SF destructive
    assert rows[k, 1] > 0.0 and rows[k, 2] > 0.0
    assert rows[k, 4] > 0.0
    assert rows[k, 4] < 1e-4 * rows[k, 1]  # near-complete cancellation


def test_spectrum_numeric_error_exit(tmp_path):
    # exact antiresonance: moments diverge, reported as a numeric failure
    cfg = write_config(tmp_path, {"params": {"g_abs": 0.0, "eta": 1.0}})
    out = str(tmp_path / "spectrum.csv")
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_NUMERIC


def test_spectrum_map_triples_and_gap(tmp_path):
    cfg = write_config(tmp_path, {
        "params": {"g_abs": 0.0, "eta": 1.0, "gamma_ph": 0.0},
        "spectrum": {"ds": 20.0, "count": 41},
        "map": {"detuning_start": -30.0, "detuning_stop": 30.0, "count": 5},
    })
    out = str(tmp_path / "map.csv")
    assert main(["spectrum-map", "--config", cfg, "--out", out]) == EXIT_OK
    _, header, rows, footer = read_csv(out)
    assert header == ["detuning_ueV", "nu_minus_omega21_ueV", "Stotal"]
    # the zero-detuning column hits the exact antiresonance and is skipped
    assert any(f.startswith("gap:") for f in footer)
    detunings = np.unique(rows[:, 0])
    assert 0.0 not in detunings
    assert len(detunings) == 4
    assert rows.shape == (4 * 41, 3)


def test_spectrum_map_bytes_match_per_value_rebuild(tmp_path):
    # the map body rebuilt from total_spectrum row by row, one format call per
    # value: guards the row layout (detuning cell, row order, skipped rows) and
    # the blocked total's bits.  At g = 0, eta = 1 only detuning 0 is a gap: a
    # map with gaps among kept rows, one where every detuning is a gap (empty
    # body), one of one row block.  Then maps over several detuning blocks of
    # B = _BLOCK // count with a final partial block: one with dephasing, an
    # overlap 0 < eta < 1 and all phases off their defaults, where the
    # dephasing term of the total rounds differently as one array product,
    # and (a gap needs gamma_ph = 0 and eta = 1) one with a gap inside a block
    ds = 20.0
    bare = {"g_abs": 0.0, "eta": 1.0, "gamma_ph": 0.0}
    dephased = {"g_abs": 80.0, "phi": 0.7, "gamma": 0.3, "kappa": 10.0, "gamma_ph": 7.5,
                "eta": 0.6, "theta21": 2.1, "theta_c": 0.4}
    cases = ((bare, -30.0, 30.0, 5, 41, 4), (bare, 0.0, 0.0, 2, 41, 0),
             (bare, 12.5, 12.5, 1, 41, 1),
             (dephased, -1500.0, 1500.0, 9, cli._BLOCK // 4, 9),
             (dict(bare, theta21=2.1, theta_c=0.4), -30.0, 30.0, 5, cli._BLOCK // 3, 4))
    for params, start, stop, n, count, kept_expected in cases:
        p = SystemParams(**params)
        detunings = np.linspace(start, stop, n)
        cfg = write_config(tmp_path, {
            "params": params,
            "spectrum": {"ds": ds, "count": count},
            "map": {"detuning_start": start, "detuning_stop": stop, "count": n},
        })
        out = str(tmp_path / "map.csv")
        assert main(["spectrum-map", "--config", cfg, "--out", out]) == EXIT_OK
        pad = 20.0 * ds + 5.0 * p.g_abs + 10.0 * max(p.kappa, ds, p.g_abs)
        nu = np.linspace(min(0.0, -detunings.max()) - pad,
                         max(0.0, -detunings.min()) + pad, count)
        body, footer, kept = [], [], 0
        for d in detunings.tolist():
            pd = p.with_detuning(d)
            lam = rate_coefficients(pd).lambda_plus
            if lam >= -1e-12 * (p.gamma + p.kappa):
                footer.append(f"# gap: detuning_ueV = {d:.17g} "
                              f"(lambda_plus = {lam:.17g}, moments diverge)\n")
                continue
            kept += 1
            s_total = total_spectrum(pd, nu, ds).s_total
            body.extend(f"{d:.17g},{x:.17g},{y:.17g}\n" for x, y in zip(nu, s_total))
        assert kept == kept_expected and len(footer) == n - kept
        text = pathlib.Path(out).read_bytes().decode("utf-8")
        _, tail = text.split("detuning_ueV,nu_minus_omega21_ueV,Stotal\n")
        # as lists of lines: a failure names the first differing line at once
        assert tail.splitlines(keepends=True) == body + footer


def test_spectrum_map_keeps_decaying_detuning_near_rate_zero(tmp_path):
    # lambda_plus = -5.0e-9 here, 1 ueV from the default rate zero: the
    # moments converge, so the map writes this detuning's rows, not a gap
    d = -3158.1154
    p = SystemParams().with_detuning(d)
    assert -1e-8 < rate_coefficients(p).lambda_plus < -1e-9
    cfg = write_config(tmp_path, {
        "map": {"detuning_start": d, "detuning_stop": d, "count": 1}})
    out = str(tmp_path / "map_near_zero.csv")
    assert main(["spectrum-map", "--config", cfg, "--out", out]) == EXIT_OK
    _, _, rows, footer = read_csv(out)
    assert footer == [] and rows.shape == (2001, 3)
    assert np.all(rows[:, 0] == d)
    assert np.array_equal(rows[:, 2], total_spectrum(p, rows[:, 1], 20.0).s_total)


def test_spectrum_map_weak_dephasing_emitter_line_reduction(tmp_path):
    # a small dephasing barely moves the rate profile yet already flips the
    # detuned spectrum from the emitter line to the cavity line
    cfg = write_config(tmp_path, {
        "params": {"gamma_ph": 3.0},
        "spectrum": {"ds": 20.0, "count": 801},
        "map": {"detuning_start": -3160.0, "detuning_stop": -3160.0, "count": 1},
    })
    out = str(tmp_path / "map3.csv")
    assert main(["spectrum-map", "--config", cfg, "--out", out]) == EXIT_OK
    _, _, rows, _ = read_csv(out)
    nu, s = rows[:, 1], rows[:, 2]
    at_emitter = s[np.argmin(np.abs(nu))]
    at_cavity = s[np.argmin(np.abs(nu - 3160.0))]
    assert at_emitter < 0.1 * at_cavity


def test_byte_identical_reruns(tmp_path):
    # the expm propagation is deterministic: two runs in this process and one
    # in a fresh interpreter write the same bytes
    cfg = write_config(tmp_path, {"dynamics": {"t_max": 0.2, "count": 501}})
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["dynamics", "--config", cfg, "--out", out]) == EXIT_OK
        outs.append(open(out, "rb").read())
    out = str(tmp_path / "fresh.csv")
    fresh_python(["-m", "fanoqed.cli", "dynamics", "--config", cfg, "--out", out])
    outs.append(open(out, "rb").read())
    assert outs[0] == outs[1] == outs[2]
    assert b"# integrator: expm\n" in outs[0]


def test_validate_passes_and_is_seed_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"validate": {"draws": 60}})
    assert main(["validate", "--config", cfg, "--seed", "7"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["validate", "--config", cfg, "--seed", "7"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "[PASS]" in first and "[FAIL]" not in first
    # a worst case of zero (the PSD decay matrix) reads 0.000e+00, not -0.000e+00
    assert "worst=-" not in first
    # same pass set across different seeds
    for seed in (1, 2, 3):
        assert main(["validate", "--config", cfg, "--seed", str(seed)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL]" not in out and "worst=-" not in out


def test_validate_reports_injected_violation(tmp_path, capsys, monkeypatch):
    # an unphysical channel pair (eta > 1) on every draw must fail its check
    original = cli.collective_decay_min_eigenvalue
    monkeypatch.setattr(cli, "collective_decay_min_eigenvalue",
                        lambda gamma, kappa, eta, *phases: original(gamma, kappa, 1.5, *phases))
    cfg = write_config(tmp_path, {"validate": {"draws": 40}})
    assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "[FAIL] collective_decay_psd" in out
    assert "validate: 1 check(s) failed" in out


def test_validate_and_oracle_catch_a_conjugated_cross_decay_rate(tmp_path, capsys,
                                                                 monkeypatch):
    # a wrong gamma_f in derive_couplings reaches the closed forms and the
    # equations of motion; the master equation and the oracle's weights take
    # gamma_f from the collective decay matrix instead, so their checks see it
    from fanoqed import dynamics, params, rates, spectra
    original = params.derive_couplings

    def conjugated(p):
        dc = original(p)
        gf = np.conj(dc.gamma_f)
        return dataclasses.replace(dc, gamma_f=gf, g_plus=p.g + 0.5j * gf,
                                   g_minus=p.g - 0.5j * gf)

    for module in (params, rates, dynamics, spectra, cli):
        monkeypatch.setattr(module, "derive_couplings", conjugated)
    cfg = write_config(tmp_path, {"validate": {"draws": 20}})
    assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    failed = {line.split("]")[1].split(":")[0].strip()
              for line in out.splitlines() if line.startswith("[FAIL]")}
    assert failed == {"fano_recovery", "dynamics_cross_oracle"}

    p = SystemParams(eta=1.0, gamma_ph=0.0).with_detuning(0.0)
    nu = np.linspace(-1050.0, 1050.0, 211)
    closed = total_spectrum(p, nu, 20.0).s_total
    oracle = spectra.spectrum_quadrature_oracle(p, nu, 20.0)
    assert np.linalg.norm(oracle - closed) / np.linalg.norm(closed) > 1e-3

    def unavailable(p):
        raise AssertionError("the master-equation route reads derive_couplings")

    monkeypatch.setattr(dynamics, "derive_couplings", unavailable)
    dynamics.evolve_lindblad(p, t_grid=np.linspace(0.0, 1.0, 11))


def test_stdout_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"start": 0.0, "stop": 1.0, "count": 3}})
    assert main(["rate-sweep", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eps,detuning_ueV,W_full,W_weak,W_fano_abs" in out


def test_stdout_text_matches_out_file_bytes(tmp_path):
    # files are written in binary, stdout as text: a caller may swap in a
    # text stream for sys.stdout, and it must receive the file's bytes
    cfg = write_config(tmp_path, {
        "params": {"g_abs": 0.0, "eta": 1.0, "gamma_ph": 0.0},
        "sweep": {"count": 41}, "spectrum": {"count": 41},
        "map": {"detuning_start": -30.0, "detuning_stop": 30.0, "count": 5}})
    for command in ("rate-sweep", "spectrum-map"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert main([command, "--config", cfg]) == EXIT_OK
        assert captured.getvalue().encode("utf-8") == out.read_bytes()


def test_seventeen_digit_formatting(tmp_path):
    cfg = write_config(tmp_path, {"sweep": {"start": 1.0 / 3.0, "stop": 1.0 / 3.0,
                                            "count": 1}})
    out = str(tmp_path / "fmt.csv")
    assert main(["rate-sweep", "--config", cfg, "--out", out]) == EXIT_OK
    with open(out) as fh:
        line = [l for l in fh if not l.startswith("#")][1]
    assert line.split(",")[0] == f"{1.0 / 3.0:.17g}"


def test_rows_matches_per_value_format():
    # the array kernel gives the bytes of one '%.17g' format per value
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf,
            -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0, 3.0,
            float(2**53 + 1), 1.7976931348623157e308, 100.0, 1e15 + 0.5]
    cols = (np.array(edge), np.array(edge[::-1]), edge[3:] + edge[:3])
    expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in zip(*cols))
    assert cli._rows(*cols) == expected.encode("ascii")

    rng = np.random.default_rng(20240917)
    # random bit patterns: all exponents, signs, subnormals, nan and inf payloads
    bits = rng.integers(0, 2**64, 12000, dtype=np.uint64, endpoint=False).view(float)
    # exact ties at the 17th digit (odd m/4 at 16 digits before the point):
    # these must take the per-value fallback, which rounds half to even
    ties = (rng.integers(2 * 10**15, 45 * 10**14, 2000) * 2 + 1) / 4.0
    # 10^k and its neighbours, the %g switch points 1e-5 .. 1e-4 and 1e16 .. 1e17
    # among them, where the decimal exponent and the layout change
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = np.concatenate([pow10, switch]) * np.array([[1.0], [-1.0]])
    near = np.concatenate([near.ravel(), np.nextafter(near, 0).ravel(),
                           np.nextafter(near, np.inf).ravel(),
                           np.nextafter(near, -np.inf).ravel()])
    subnormal = rng.integers(1, 2**52, 2000, dtype=np.uint64).view(float)
    decades = rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(-8, 20, 4000)
    for values in (bits, ties, near, subnormal, decades, -decades):
        assert cli._rows(values) == "".join(f"{x:.17g}\n" for x in values.tolist()).encode("ascii")


def test_rows_matches_per_value_format_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=100, database=None, deadline=None)
    @hypothesis.given(st.lists(st.floats(width=64), min_size=1, max_size=8))
    def check(values):
        assert cli._rows(np.array(values)) == "".join(f"{x:.17g}\n" for x in values).encode("ascii")

    check()
