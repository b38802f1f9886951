"""Span tracing at the fanoqed module boundaries, installed from outside.

``Tracer.install`` replaces every layer function under each name a fanoqed
module looks it up by (``fanoqed.cli.total_spectrum``,
``fanoqed.spectra.evolve_triple``, ``fanoqed.rates.rate_coefficients``, ...)
with a wrapper that records a span; ``uninstall`` puts the originals back.
Nothing inside the package is edited.  Spans are kept in flat arrays in
memory and written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

# layer -> public functions of that layer that other layers (or the layer
# itself) call; each is wrapped wherever a module holds it under its name
LAYER_FUNCTIONS = {
    "params": ("derive_couplings", "collective_decay_min_eigenvalue"),
    "rates": ("rate_coefficients", "transition_rate", "transition_rate_weak",
              "purcell_rate", "fano_formula", "rate_sweep"),
    "dynamics": ("evolve_triple", "evolve_lindblad", "coarse_grained_solution",
                 "adiabatic_polarization"),
    "spectra": ("spectral_poles", "regression_matrix", "integrated_moments",
                "total_spectrum", "default_frequency_grid",
                "spectrum_quadrature_oracle"),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)


def grid_kind(t) -> str:
    """'uniform' for an equally spaced grid (to rounding), else 'graded'."""
    gaps = np.diff(np.asarray(t, float))
    return "uniform" if np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0) else "graded"


def _grid_attrs(t):
    return {"samples": len(t), "kind": grid_kind(t), "gaps": len(np.unique(np.diff(t)))}


# What a span keeps from its call: a reference only, so that no harness work
# runs while the caller's span is still open.  The exact counts are derived
# from it after the run (_DERIVE).
_KEEP = {
    "dynamics.evolve_triple": lambda args, kwargs, result: result.t,
    "dynamics.evolve_lindblad": lambda args, kwargs, result: result.t,
    "rates.rate_sweep": lambda args, kwargs, result: result.eps,
    "spectra.total_spectrum": lambda args, kwargs, result: result.nu,
    "spectra.spectrum_quadrature_oracle": lambda args, kwargs, result: args[1],
    "spectra.integrated_moments": lambda args, kwargs, result: kwargs.get(
        "source", args[1] if len(args) > 1 else "coarse"),
}
_DERIVE = {
    "dynamics.evolve_triple": _grid_attrs,
    "dynamics.evolve_lindblad": _grid_attrs,
    "rates.rate_sweep": lambda eps: {"points": len(eps)},
    "spectra.total_spectrum": lambda nu: {"points": len(nu)},
    "spectra.spectrum_quadrature_oracle": lambda nu: {"points": len(nu),
                                                      "kind": grid_kind(nu)},
    "spectra.integrated_moments": lambda source: {"source": source},
}


class Tracer:
    """Records (name, start, end, parent, task) for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.kept: dict[int, object] = {}
        self._attrs: dict[int, dict] | None = None
        self.task_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, span_name: str):
        name_id = self._name_ids.setdefault(span_name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span_name)
        keep = _KEEP.get(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task.append(self.task_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if keep is not None:
                self.kept[idx] = keep(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap each layer function in every package module that holds it."""
        modules = [getattr(package, layer) for layer in LAYERS]
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(getattr(package, layer), fname)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._saved.append((module, fname, original))
                        setattr(module, fname, self._wrap(original, f"{layer}.{fname}"))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms, self ms; per layer: self ms.

        A span's self time is its duration minus the durations of its direct
        children (spans nest strictly: one thread, one stack).
        """
        start = np.frombuffer(self.start, float)
        end = np.frombuffer(self.end, float)
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        per_name = {}
        for i, span_name in enumerate(self.names):
            sel = name == i
            per_name[span_name] = {"calls": int(sel.sum()),
                                   "ms": 1e3 * float(dur[sel].sum()),
                                   "self_ms": 1e3 * float(self_t[sel].sum())}
        per_layer = {layer: sum(v["self_ms"] for k, v in per_name.items()
                                if k.split(".")[0] == layer) for layer in LAYERS}
        return {"spans": per_name, "layer_self_ms": per_layer}

    @property
    def attrs(self) -> dict[int, dict]:
        """Span index -> attributes, derived from the kept references once."""
        if self._attrs is None:
            self._attrs = {i: _DERIVE[self.names[self.name[i]]](ref)
                           for i, ref in self.kept.items()}
        return self._attrs

    def span_attrs(self, span_name: str):
        """(duration_s, attrs) of every span with that name that has attrs."""
        name_id = self._name_ids.get(span_name)
        return [(self.end[i] - self.start[i], a) for i, a in self.attrs.items()
                if self.name[i] == name_id]

    def dump(self, path, t0: float) -> None:
        """Write all spans, columnar, times in ns from t0."""
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start_ns": [int((s - t0) * 1e9) for s in self.start],
            "end_ns": [int((e - t0) * 1e9) for e in self.end],
            "parent": list(self.parent),
            "task": list(self.task),
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
