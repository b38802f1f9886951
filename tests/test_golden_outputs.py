"""sha256 digests of 25 CLI outputs, so that a change of output bytes fails.

The outputs are the four CSVs (rate-sweep, dynamics, spectrum, spectrum-map)
on the default config and on four drawn configs, and the stdout of validate
at five seeds, followed by a line with its exit code.  A change that alters
an output on purpose records the new digests here and names the changed
outputs in CHANGES.md.

The bytes depend on numpy's and the BLAS library's rounding, and OpenBLAS
picks its kernels per CPU, so a failure prints the numpy version and BLAS
name the table was recorded with beside the running ones.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

from fanoqed import cli

RECORDED_WITH = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0"
CSV_COMMANDS = ("rate-sweep", "dynamics", "spectrum", "spectrum-map")
VALIDATE_SEEDS = (12345, 1, 2, 3, 7)
DRAWN_CONFIGS = 4
DRAW_SEED = 2024

GOLDEN = {
    "rate-sweep defaults":
        "2bff5df4a189d385dfbb868009a8aea3af3fcaa237a10948e81039da82ef4ab2",
    "dynamics defaults":
        "3d96c7db9987c6242cbfda86cb9c87c774d5d1a0109b172438b1345c6d947bc9",
    "spectrum defaults":
        "85fa46a545c31707b574dd2056c51c763de59d9b4607a773fbe8c191ad2a6139",
    "spectrum-map defaults":
        "a4b8b1b53d3f3a5f8abb8817f927ca9c83b788266f876e4c402053d63ee4f8d0",
    "rate-sweep drawn0":
        "51112c12ce1c63aa4fccdc0dd8e340aa614b933f94d8c9a681141fda80f9ee20",
    "dynamics drawn0":
        "b200713ebbb14ed5b07ee093c6e6cb2163f2aa4ee88a35ca4d9befaeff73ed54",
    "spectrum drawn0":
        "d72b967fe716ea6835065bd0916642d019f7c14ef61434667220ea5ea5bc6e1b",
    "spectrum-map drawn0":
        "4f3dfcb5244b600d6e675c2f548c2c98dc93e279a61726953bdec560130bfe17",
    "rate-sweep drawn1":
        "6d1218b3e516a45cb6baafb83b355ef82b1789a667a632176d347e0215d686e9",
    "dynamics drawn1":
        "18c90f21e6929eb5dc031a5fdd2dfccd33dd58fa7feac20759097bfe8429bf17",
    "spectrum drawn1":
        "c265729ed34cc111cd4fab9b00e1fef571ab2a52c9a05fc482ca1f328f1b55a4",
    "spectrum-map drawn1":
        "1397907039e482b73d5b3ce1f28e97163d8d565274b916955282ba76887c107c",
    "rate-sweep drawn2":
        "f146209e41bc32ad86a50caa9fc4d66f4c1799b4b347e4b73a7ed52037760d15",
    "dynamics drawn2":
        "7933031dcbf6d953dd1e075e012676cf9443233ada044adc0ee021d72b0a8d3b",
    "spectrum drawn2":
        "324e46d74439473f94cb044c8751fa6072e4de1c278c603661d57ae975c63f7e",
    "spectrum-map drawn2":
        "2fae98d06099a2666435e0ffe2f3706ada708d881e87a722003b117f7a3618fe",
    "rate-sweep drawn3":
        "76476ce05b00ee0a441bfc6a3387dd15fe0c8456259f2fdf633d15ba524299f9",
    "dynamics drawn3":
        "af836aa3f4b1028d762b8f83fbba47e2d5ac5e766fc6d6e7c15aab194aae1f55",
    "spectrum drawn3":
        "144c30ebf33014f944830df3b02212b2cf7906105fd52e041c8503d3e31500a4",
    "spectrum-map drawn3":
        "cce0f677c95a690950e34cea9974620f8793b4708be1d6783be8721e3245c5c7",
    "validate seed=12345":
        "7d681a89be9d67c2311318050d90e103c218e0bc85dd9fe9818aad2bbe035c1c",
    "validate seed=1":
        "9f3f3ce9d7f1ba268a126fdd90e2170572dcca95b7f73d66ee27aae8dfe6cbb3",
    "validate seed=2":
        "c0c4a5a2eb33aee0949408b8eab902c9ea5903a09502a60145c939fbf84205f3",
    "validate seed=3":
        "42aa22db74cb4fadf0ba1185344bd6122de8b04a4777a962c21aa1ebee9408aa",
    "validate seed=7":
        "af5841d6081f86079334015532c0d5202d639f74613cf5ed06f03fb7bb8f7439",
}


def _draw_params(rng) -> dict:
    """Parameters in the supported regime (kappa > gamma), drawn as the
    benchmark's CLI workload draws them."""
    g_abs = rng.uniform(0.0, 150.0)
    gamma = rng.uniform(0.01, 2.0)
    kappa = rng.uniform(5.0, 150.0)
    gamma_ph = rng.uniform(0.0, 40.0)
    eta = rng.uniform(0.0, 1.0)
    eps = rng.uniform(-200.0, 200.0)
    return {"omega21": 0.0, "omega_c": -0.5 * eps * kappa, "g_abs": g_abs,
            "gamma": gamma, "kappa": kappa, "gamma_ph": gamma_ph, "eta": eta}


def _running_with() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def output_digests(tmp_path) -> dict:
    """{output name: sha256 hex digest} of the 25 outputs."""
    configs = {"defaults": []}
    rng = np.random.default_rng(DRAW_SEED)
    for i in range(DRAWN_CONFIGS):
        path = tmp_path / f"drawn{i}.json"
        path.write_text(json.dumps({"params": _draw_params(rng)}), encoding="utf-8")
        configs[f"drawn{i}"] = ["--config", str(path)]
    digests = {}
    out = tmp_path / "out.csv"
    for name, config in configs.items():
        for command in CSV_COMMANDS:
            assert cli.main([command, "--out", str(out)] + config) == 0
            digests[f"{command} {name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    for seed in VALIDATE_SEEDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["validate", "--seed", str(seed)])
        text = f"{stdout.getvalue()}exit code {code}\n"
        digests[f"validate seed={seed}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_golden_outputs(tmp_path):
    digests = output_digests(tmp_path)
    changed = sorted(name for name in GOLDEN.keys() | digests.keys()
                     if GOLDEN.get(name) != digests.get(name))
    assert not changed, (f"output digests changed: {', '.join(changed)}; recorded with "
                         f"{RECORDED_WITH}, running {_running_with()}")
