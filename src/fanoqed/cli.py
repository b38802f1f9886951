"""Command-line interface: config ingestion, sweeps, and the validation suite.

Subcommands
    rate-sweep    transition-rate profile over a reduced-detuning grid -> CSV
    dynamics      population time evolution (full ODE vs coarse-grained) -> CSV
    spectrum      spectrum components on a frequency grid -> CSV
    spectrum-map  total spectrum over a (detuning, frequency) grid -> CSV
    validate      seeded randomized invariant suite -> report on stdout

All physics parameters come from a single JSON config file; the flags select
the output path (--out, default stdout) and the seed (--seed, which wins over
the config's "seed"); energies are in ueV, angles in radians, times in
1/ueV.  CSV output is deterministic: 17-significant-digit values, comma
delimiter, LF line endings, and a comment header carrying the full parameter
snapshot.

Every body value has the bytes of '%.17g' % x.  One array kernel writes the
bodies (:func:`_slots`); the values it cannot decide, within 1e-9 of a
rounding tie, and zeros, infinities and nan take '%.17g' itself.  The tests
compare the kernel with one '%.17g' per value on random bit patterns, exact
ties, powers of ten and their neighbours, subnormals and a hypothesis
property, and the spectrum-map body with a row-by-row rebuild.

Exit codes: 0 success, 1 validation failure, 2 config error (including a
config file that is not UTF-8 JSON or nests too deeply, a value the
library's own input checks reject and an --out path that cannot be opened,
which is checked before any work), 3 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .params import (SystemParams, derive_couplings, collective_decay_min_eigenvalue,
                     HBAR_UEV_PS)
from .rates import (CoarseRateSystem, rate_coefficients, transition_rate,
                    transition_rate_weak, purcell_rate, fano_formula, rate_sweep)
from .dynamics import (evolve_triple, evolve_lindblad, coarse_grained_solution,
                       IntegrationError, PositivityError, _two_product)
from .spectra import (spectral_poles, regression_matrix, total_spectrum,
                      default_frequency_grid, _tail_pad, _grid_margin, _check_grid,
                      _coarse_moments, _moments_diverge, _total,
                      DivergentMomentsError, QuadratureConvergenceError)

__all__ = ["RunConfig", "load_config", "main",
           "cmd_rate_sweep", "cmd_dynamics", "cmd_spectrum",
           "cmd_spectrum_map", "cmd_validate"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(SystemParams))
# smallest value each section's count accepts: the grid sizes, and the number
# of parameter sets validate draws (a check over no sets would read as a pass)
_MIN_COUNT = {("sweep", "count"): 1, ("dynamics", "count"): 2,
              ("spectrum", "count"): 2, ("map", "count"): 1, ("validate", "draws"): 1}


class ConfigError(ValueError):
    """Malformed run configuration (unknown key, bad type, bad value)."""


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults filled in)."""

    params: SystemParams = field(default_factory=SystemParams)
    seed: int = 12345
    sweep: dict = field(default_factory=lambda: {
        "start": -300.0, "stop": 300.0, "count": 801})
    dynamics: dict = field(default_factory=lambda: {"t_max": 0.5, "count": 2001})
    spectrum: dict = field(default_factory=lambda: {"ds": 20.0, "count": 2001})
    map: dict = field(default_factory=lambda: {
        "detuning_start": -4000.0, "detuning_stop": 4000.0, "count": 161})
    validate: dict = field(default_factory=lambda: {"draws": 200})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_TOP_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
# each section's keys in the order of its defaults; every key but the counts
# must be a finite number
_SECTION_KEYS = {name: tuple(val) for name, val in vars(RunConfig()).items()
                 if isinstance(val, dict)}
_FINITE = tuple((section, key) for section, keys in _SECTION_KEYS.items()
                for key in keys if (section, key) not in _MIN_COUNT)


def _is_number(val, typ) -> bool:
    """isinstance(val, typ), without taking JSON true/false for a number."""
    return isinstance(val, typ) and not isinstance(val, bool)


def _is_finite_number(val) -> bool:
    """A JSON number, not true/false, in the float range: no nan, inf or huge int."""
    return _is_number(val, (int, float)) and abs(val) <= sys.float_info.max


def _from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = RunConfig()
    if "params" in doc:
        pdoc = doc["params"]
        if not isinstance(pdoc, dict):
            raise ConfigError("'params' must be an object")
        for key in pdoc:
            if key not in _PARAM_KEYS:
                raise ConfigError(f"unknown params key {key!r}")
            if not _is_finite_number(pdoc[key]):  # SystemParams takes arrays too
                raise ConfigError(f"params.{key} must be a finite number, got {pdoc[key]!r}")
        try:
            cfg.params = SystemParams(**pdoc)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad params: {exc}") from exc
    for section, keys in _SECTION_KEYS.items():
        if section in doc:
            sdoc = doc[section]
            if not isinstance(sdoc, dict):
                raise ConfigError(f"'{section}' must be an object")
            for key in sdoc:
                if key not in keys:
                    raise ConfigError(f"unknown {section} key {key!r}")
            getattr(cfg, section).update(sdoc)
    if "seed" in doc:
        if not _is_number(doc["seed"], int):
            raise ConfigError("'seed' must be int")
        cfg.seed = doc["seed"]
    for (section, key), lo in _MIN_COUNT.items():
        count = getattr(cfg, section)[key]
        if not _is_number(count, int) or count < lo:
            raise ConfigError(f"{section}.{key} must be an integer >= {lo}, got {count!r}")
    for section, key in _FINITE:
        val = getattr(cfg, section)[key]
        if not _is_finite_number(val):
            raise ConfigError(f"{section}.{key} must be a finite number, got {val!r}")
    if cfg.dynamics["t_max"] <= 0:
        raise ConfigError(f"dynamics.t_max must be > 0, got {cfg.dynamics['t_max']!r}")
    return cfg


def load_config(path: str | None) -> RunConfig:
    """Load and validate a JSON config; None yields the defaults."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return _from_dict(doc)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# The CSV body kernel: '%.17g' % x for whole arrays.  Each value gets a
# fixed 32-byte slot, four little-endian words of ASCII with NUL in every
# unused byte: sign and the '0.000' lead of fixed form | first digit, point
# | 8 digits | 8 digits | exponent 'e+NN' or 'e-NNN', separator.  Dropping
# the NULs gives the text.
_SLOT = 32
_SEP = 29                    # the separator's byte in a slot
# values per kernel pass, each of which pays about 50 numpy calls.  On a
# 2-vCPU Xeon VM (median of 5 interleaved minima), 2048 / 8192 / 16384 took
# the default spectrum-map 48.8 / 38.9 / 37.0 ms, a 322k-value column
# 133 / 103 / 100 ns per value and the default 2001 x 5 spectrum table
# 1.07 / 0.83 / 0.73 ms, at a peak memory of 45.6 / 46.6 / 48.7 MB for one
# map in a fresh process.  The step past 8192 costs twice the memory for
# little time.
_BLOCK = 8192
_K_MIN, _K_MAX = -293, 341   # 16 - e10 over all finite doubles, e10 one off either way
_X_MIN = -330                # lowest decimal exponent in the lead/exponent tables
_U = np.uint64


@functools.cache
def _tables():
    """Constants of the kernel, built once from exact integers.

    For k in [_K_MIN, _K_MAX], 10**k = (hi + lo) * 2**e2 with hi in [1, 2)
    and lo the rounded remainder: a double-double good to about 2**-106.
    Then the ASCII words: 4-digit groups, the second half with trailing
    zeros kept, the first with them dropped; the fixed-form leads and the
    exponents by decimal exponent; byte masks of 0..8 bytes.
    """
    his, los, exps = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e2 = num.bit_length() - den.bit_length()
        mn, md = (num << -e2, den) if e2 < 0 else (num, den << e2)
        if mn < md:                      # mn / md = 10**k / 2**e2 in [1, 2)
            e2 -= 1
            mn <<= 1
        hi = mn / md                     # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((mn * hd - hn * md) / (md * hd))
        exps.append(e2)
    codes = np.arange(10000)
    chars = [((codes // 10 ** (3 - j)) % 10 + 48) << (8 * j) for j in range(4)]
    digits = np.concatenate([sum(c * (codes % 10 ** (4 - j) != 0) for j, c in enumerate(chars)),
                             sum(chars)])
    xs = range(_X_MIN, 1 - _X_MIN)
    lead = [int.from_bytes(b"\0" + b"0." + b"0" * (-x - 1), "little") if -4 <= x < 0
            else 0 for x in xs]
    expo = [0 if -4 <= x < 17 else int.from_bytes(b"e%+03d" % x, "little") for x in xs]
    tables = (np.array(his), np.array(los), np.array(exps, np.int32),
              digits.astype(_U), np.array(lead, _U), np.array(expo, _U),
              np.array([(1 << 8 * j) - 1 for j in range(9)], _U))
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, e10):
    """(p, err) with a * 10**(16 - e10) = p + err, err good to about 1e-14.

    a is scaled by 2**e2 (exact) and multiplied by the double-double
    mantissa, so nothing overflows or underflows for any finite double.
    """
    hi, lo, exps = _tables()[:3]
    j = (16 - _K_MIN) - e10
    s = np.ldexp(a, exps[j])
    p, err = _two_product(s, hi[j])
    return p, err + s * lo[j]


def _slots(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for every v of the 1-D float array x, as (len(x), _SLOT) bytes.

    The 17 significant digits are |v| * 10**(16 - e10) rounded to an integer
    in [1e16, 1e17), e10 the decimal exponent.  That product comes as a
    double-double good to about 1e-14, so only a fraction within 1e-9 of 1/2
    (an exact tie, which '%.17g' rounds to even, or too close to call) needs
    more; those values, zeros, infinities and nan take Python's own '%.17g'.
    The _SEP byte of each slot is left NUL for the caller's separator.
    """
    digits, lead, expo, masks = _tables()[3:]
    a = np.abs(x)
    ok = np.isfinite(a) & (a != 0)
    a = np.where(ok, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p, err = _scaled(a, e10)
    # log10 can miss floor(log10) by one next to a power of ten
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    fix = np.flatnonzero(low | high)
    if len(fix):
        e10[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], err[fix] = _scaled(a[fix], e10[fix])
    whole = np.floor(err)
    frac = err - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e10 += carry
    bad = np.flatnonzero(~ok | (np.abs(frac - 0.5) <= 1e-9))
    # d = d0 | c1 c2 | c3 c4 in 4-digit groups; a group keeps its trailing
    # zeros (the second half of the table) when a later group is nonzero
    top = d // 10 ** 8
    d0 = top // 10 ** 8
    high8, low8 = top - d0 * 10 ** 8, d - top * 10 ** 8
    c1, c3 = high8 // 10 ** 4, low8 // 10 ** 4
    c2, c4 = high8 - c1 * 10 ** 4, low8 - c3 * 10 ** 4
    nz3 = (c4 != 0) | (c3 != 0)
    nz2 = nz3 | (c2 != 0)
    words = np.empty((4, len(x)), _U)
    words[1] = digits[c1 + 10000 * nz2] | (digits[c2 + 10000 * nz3] << _U(32))
    words[2] = digits[c3 + 10000 * (c4 != 0)] | (digits[c4] << _U(32))
    fixed = (e10 >= -4) & (e10 < 17)
    point = (nz2 | (c1 != 0)) & (~fixed | (e10 == 0))
    xi = e10 - _X_MIN
    # bytes 0-7: the sign, the fixed-form lead, the first digit, the point
    words[0] = (lead[xi] | np.signbit(x) * _U(45)
                | ((d0 + 48 + (46 << 8) * point).astype(_U) << _U(48)))
    words[3] = expo[xi]
    move = np.flatnonzero(fixed & (e10 > 0))
    if len(move):
        c = [g[move] + 10000 for g in (c1, c2, c3, c4)]
        _integer_part(words, move, e10[move], masks, digits[c[0]] | (digits[c[1]] << _U(32)),
                      digits[c[2]] | (digits[c[3]] << _U(32)))
    out = words.T.astype("<u8", order="C").view(np.uint8)
    for i in bad.tolist():
        text = ("%.17g" % x[i]).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _integer_part(words, rows, x, masks, full_b, full_c):
    """Fixed form with x = 1..16 integer digits after the first.

    Those digits keep their zeros (full_b, full_c: the digit words with all
    zeros kept), and the point, if any fraction digit is left, moves from
    after d0 to after d_x: d1..d_x move one byte down.
    """
    kb = np.minimum(x, 8)
    mb, mc = masks[kb], masks[x - kb]
    wb = (words[1][rows] & ~mb) | (full_b & mb)
    wc = (words[2][rows] & ~mc) | (full_c & mc)
    k = (x - 1) & 7
    mk, mk1 = masks[k], masks[k + 1]
    dot = (((wb & ~mb) | (wc & ~mc)) != 0) * ((mk + _U(1)) * _U(46))
    words[0][rows] = (words[0][rows] & masks[7]) | (wb << _U(56))
    tb = (wb >> _U(8)) | (wc << _U(56))
    early = x <= 8
    words[1][rows] = np.where(early, (tb & mk) | dot | (wb & ~mk1), tb)
    words[2][rows] = np.where(early, wc, ((wc >> _U(8)) & mk) | dot | (wc & ~mk1))


def _text(table: np.ndarray, rows: np.ndarray) -> bytes:
    """CSV rows of a 2-D float table, each value as '%.17g' % v, in ASCII.

    rows is a (len(table), w) byte buffer; the kernel writes the values into
    its last table.shape[1] * _SLOT bytes per row, and what comes before is
    each row's NUL-padded prefix.  Works in row blocks of about _BLOCK values.
    """
    m, k = table.shape
    step = max(_BLOCK // k, 1)
    slots = rows[:, rows.shape[1] - k * _SLOT:]
    parts = []
    for i in range(0, m, step):
        block = slots[i:i + step]
        block[...] = _slots(table[i:i + step].ravel()).reshape(len(block), k * _SLOT)
        block[:, _SEP::_SLOT] = ord(",")
        block[:, _SEP - _SLOT] = ord("\n")
        parts.append(rows[i:i + step].tobytes().translate(None, b"\0"))
    return b"".join(parts)


def _padded(texts: list[bytes], width: int) -> np.ndarray:
    """ASCII texts as the rows of a (len(texts), width) byte array, NUL-padded."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                         np.uint8).reshape(len(texts), width)


def _rows(*columns) -> bytes:
    """CSV rows of equal-length float columns, each value as '%.17g' % v.

    '%.17g' % x gives the same text as f'{x:.17g}' (:func:`_fmt`) for every
    float, including signed zeros, subnormals, infinities and nan.
    """
    table = np.column_stack(columns).astype(float, copy=False)
    return _text(table, np.empty((len(table), table.shape[1] * _SLOT), np.uint8))


def _write_csv(path: str | None, comments: list[str], header: list[str],
               body: list[bytes], footer: list[str] = ()):
    """Deterministic CSV: '#' comment lines, one header row, LF endings.

    body is the data rows as ASCII blocks, formatted beforehand in bulk by
    :func:`_text` (directly or through :func:`_rows`), and written here in
    order; no value is formatted one at a time.  A file is written in
    binary; stdout gets text, since a caller may have swapped in a text
    stream (io.StringIO) for sys.stdout.
    """
    head = "".join(f"# {line}\n" for line in comments) + ",".join(header) + "\n"
    tail = "".join(f"# {line}\n" for line in footer)
    if path is None:
        sys.stdout.write(head)
        for block in body:
            sys.stdout.write(block.decode("ascii"))
        sys.stdout.write(tail)
        return
    with open(path, "wb") as out:
        out.write(head.encode("utf-8"))
        out.writelines(body)
        out.write(tail.encode("utf-8"))


def _snapshot(cfg: RunConfig) -> list[str]:
    p = dataclasses.asdict(cfg.params)
    lines = ["params: " + " ".join(f"{k}={_fmt(v)}" for k, v in p.items()),
             f"units: energies ueV, time 1/ueV (1 time unit = {_fmt(HBAR_UEV_PS)} ps)",
             f"seed: {cfg.seed}",
             "integrator: expm"]
    return lines


def cmd_rate_sweep(cfg: RunConfig, out: str | None = None) -> int:
    """Transition-rate profile W(eps) with weak-coupling and reference columns."""
    sw = cfg.sweep
    table = rate_sweep(cfg.params, (float(sw["start"]), float(sw["stop"])),
                       int(sw["count"]))
    body = _rows(table.eps, table.eps * cfg.params.kappa / 2.0,
                 table.w_full, table.w_weak, table.w_fano)
    _write_csv(out, _snapshot(cfg) + ["detuning_ueV = omega21 - omega_c"],
               ["eps", "detuning_ueV", "W_full", "W_weak", "W_fano_abs"], [body])
    return EXIT_OK


def cmd_dynamics(cfg: RunConfig, out: str | None = None) -> int:
    """Population evolution: full equations of motion vs coarse-grained forms."""
    dy = cfg.dynamics
    t = np.linspace(0.0, float(dy["t_max"]), int(dy["count"]))
    p = cfg.params
    traj = evolve_triple(p, t_grid=t)
    n_e_c, n_c_c = coarse_grained_solution(p, t)
    w = transition_rate(p)
    # math.exp per value: np.exp need not round the last bit the same way
    decay = [math.exp(-w * x) for x in t.tolist()]
    body = _rows(t, traj.n_e, traj.n_c, n_e_c, n_c_c, decay)
    _write_csv(out, _snapshot(cfg) + [f"W = {_fmt(w)}"],
               ["t", "n_e_ode", "n_c_ode", "n_e_coarse", "n_c_coarse", "exp_minus_Wt"],
               [body])
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: str | None = None) -> int:
    """Spectrum components on a frequency grid, with the sum rule as footer."""
    ds = float(cfg.spectrum["ds"])
    nu = default_frequency_grid(cfg.params, ds, int(cfg.spectrum["count"]))
    comp = total_spectrum(cfg.params, nu, ds)
    body = _rows(comp.nu, comp.s21, comp.s_c, comp.s_f, comp.s_total)
    _write_csv(out, _snapshot(cfg) + [f"ds = {_fmt(ds)}"],
               ["nu_minus_omega21_ueV", "S21", "Sc", "SF", "Stotal"], [body],
               footer=[f"sum_rule = {_fmt(comp.sum_rule)}"])
    return EXIT_OK


def cmd_spectrum_map(cfg: RunConfig, out: str | None = None) -> int:
    """Total spectrum over a (detuning, frequency) grid as long-format triples.

    Detunings are omega21 - omega_c.  One broadcast rate call over all of
    them finds the gaps first: detunings where the moments diverge
    (total_spectrum's DivergentMomentsError, at the exact antiresonance) are
    skipped and reported as gap comments.  The kept ones go in blocks of
    B = max(1, _BLOCK // n) for n frequencies, each with one broadcast total
    (spectra._total, which total_spectrum calls for one detuning) and one
    kernel pass over its B * n values, kept as bytes up to the file.  The nu
    column, shared by every detuning, is formatted once into NUL-padded row
    prefixes.  The CSV bytes are those of one total_spectrum call per
    detuning and one '%.17g' per value.
    """
    mp = cfg.map
    ds = float(cfg.spectrum["ds"])
    p = cfg.params
    detunings = np.linspace(float(mp["detuning_start"]), float(mp["detuning_stop"]),
                            int(mp["count"]))
    pad = _tail_pad(p, ds) + _grid_margin(p, ds)
    lo = min(0.0, -detunings.max()) - pad
    hi = max(0.0, -detunings.min()) + pad
    nu = np.linspace(lo, hi, int(cfg.spectrum["count"]))
    swept = p.with_detuning(detunings)
    cs = rate_coefficients(swept)
    gap = _moments_diverge(swept, cs.lambda_plus)
    gaps = [f"gap: detuning_ueV = {_fmt(d)} (lambda_plus = {_fmt(lam)}, moments diverge)"
            for d, lam in zip(detunings[gap].tolist(), cs.lambda_plus[gap].tolist())]
    kept = detunings[~gap]
    i_p = _coarse_moments(p.with_detuning(kept),
                          CoarseRateSystem(**{k: v[~gap] for k, v in vars(cs).items()})).i_p
    cells = [text + b"," for text in _rows(nu).splitlines()]
    heads = [f"{_fmt(d)},".encode("ascii") for d in kept.tolist()]
    lead, width = max(map(len, heads), default=0), max(map(len, cells))
    step = max(min(_BLOCK // len(nu), len(kept)), 1)
    # a row: the detuning and nu cells, NUL-padded, then the S_total slot
    rows = np.empty((step, len(nu), lead + width + _SLOT), np.uint8)
    rows[:, :, lead:-_SLOT] = _padded(cells, width)
    blocks = []
    for i in range(0, len(kept), step):
        block = p.with_detuning(kept[i:i + step, None])
        _check_grid(block, nu, ds)
        s_total = _total(block, nu, ds, i_p[i:i + step, None])[2]
        used = rows[:len(s_total)]
        used[:, :, :lead] = _padded(heads[i:i + step], lead)[:, None]
        blocks.append(_text(s_total.reshape(-1, 1), used.reshape(-1, used.shape[2])))
    _write_csv(out, _snapshot(cfg) + [f"ds = {_fmt(ds)}",
                                      "detuning_ueV = omega21 - omega_c"],
               ["detuning_ueV", "nu_minus_omega21_ueV", "Stotal"], blocks,
               footer=gaps)
    return EXIT_OK


def _draw_params(rng: np.random.Generator) -> SystemParams:
    """Random valid parameter set with kappa > gamma (the supported regime)."""
    return SystemParams(
        omega21=0.0,
        g_abs=rng.uniform(0.0, 150.0),
        gamma=rng.uniform(0.01, 2.0),
        kappa=rng.uniform(5.0, 150.0),
        gamma_ph=rng.uniform(0.0, 40.0),
        eta=rng.uniform(0.0, 1.0),
    ).with_reduced_detuning(rng.uniform(-200.0, 200.0))


def _validate_checks(cfg: RunConfig):
    """Yield (name, worst, tol, detail) for every randomized invariant check."""
    rng = np.random.default_rng(cfg.seed)
    draws = int(cfg.validate["draws"])
    sets = [_draw_params(rng) for _ in range(draws)]
    coarse = [rate_coefficients(p) for p in sets]

    lowest = min(collective_decay_min_eigenvalue(p.gamma, p.kappa, p.eta, p.theta21,
                                                 p.theta_c) / p.kappa for p in sets)
    yield ("collective_decay_psd", max(0.0, -lowest), 1e-12,
           "min eigenvalue of the channel decay matrix / kappa")

    worst = 0.0
    for p, cs in zip(sets, coarse):
        s_ref = -(p.gamma + p.kappa + cs.r_pm + cs.r_mp)
        p_ref = (cs.r_pm + p.kappa) * (cs.r_mp + p.gamma) - cs.r_pp * cs.r_mm
        worst = max(worst,
                    abs(cs.lambda_plus + cs.lambda_minus - s_ref) / max(abs(s_ref), 1e-30),
                    abs(cs.lambda_plus * cs.lambda_minus - p_ref) / max(abs(p_ref), 1e-30))
    yield ("vieta_identities", worst, 1e-10, "trace/determinant of the rate matrix")

    worst = 0.0
    # one eigensolver call on the stack runs LAPACK per matrix, as single calls do
    evs = np.linalg.eigvals(np.stack([cs.coefficient_matrix(p) for p, cs in zip(sets, coarse)]))
    for cs, ev in zip(coarse, np.sort(evs.real, axis=-1)):
        scale = max(abs(cs.lambda_plus), abs(cs.lambda_minus))
        worst = max(worst, abs(ev[1] - cs.lambda_plus) / scale,
                    abs(ev[0] - cs.lambda_minus) / scale)
    yield ("eigenvalue_oracle", worst, 1e-10, "closed-form vs numpy eigensolver")

    worst = 0.0
    evs = np.linalg.eigvals(np.stack([regression_matrix(p) for p in sets]))
    for p, ev in zip(sets, evs):
        poles = spectral_poles(p)
        ev = sorted(ev, key=lambda z: (z.real, z.imag))
        got = sorted((poles.gamma_p, poles.gamma_m), key=lambda z: (z.real, z.imag))
        worst = max(worst, max(abs(a - b) / abs(b) for a, b in zip(got, ev)))
    yield ("pole_regression_duality", worst, 1e-10,
           "spectral poles vs regression-matrix eigenvalues")

    worst = 0.0
    used = 0
    for p, cs in zip(sets, coarse):
        if cs.lambda_plus >= -1e-6 * p.kappa:
            continue
        used += 1
        worst = max(worst, abs(_coarse_moments(p, cs).sum_rule(p) - 1.0))
    yield ("photon_sum_rule", worst, 1e-9, f"{used} decaying parameter sets")

    worst = 0.0
    eps_grid = np.linspace(-10.0, 10.0, 201)
    for _ in range(max(draws // 10, 5)):
        gamma = rng.uniform(0.01, 0.1)
        kappa = gamma * rng.uniform(1e3, 5e3)
        g_abs = rng.uniform(0.0, 5.0) * math.sqrt(gamma * kappa)
        base = SystemParams(g_abs=g_abs, gamma=gamma, kappa=kappa, eta=1.0)
        q = derive_couplings(base).q
        ww = transition_rate_weak(base.with_reduced_detuning(eps_grid))
        wf = fano_formula(q, eps_grid, gamma)
        # the reference profile vanishes at eps = -q, while the weak-coupling
        # rate has no zero and only dips to a positive floor there, so the
        # pointwise ratio diverges near -q; check outside plus a sup-norm bound
        outside = np.abs(eps_grid + q.real) >= max(2.0, 0.5 * q.real)
        worst = max(worst, float(np.abs(ww - wf).max() / wf.max()))
        if outside.any():
            worst = max(worst, float((np.abs(ww - wf)[outside] / wf[outside]).max()))
    yield ("fano_recovery", worst, 1e-2,
           "weak-coupling rate vs reference profile, away from the zero and sup norm")

    worst = 0.0
    for p in sets:
        p0 = dataclasses.replace(p, eta=0.0)
        wk = transition_rate_weak(p0)
        worst = max(worst, abs(wk - purcell_rate(p0)) / wk)
    yield ("purcell_identity", worst, 1e-12, "eta=0 weak rate vs Purcell form")

    worst = 0.0
    eps = np.array([0.3, 1.7, 12.0, 77.0])
    for p in sets[: max(draws // 4, 5)]:
        p0 = dataclasses.replace(p, eta=0.0)
        wp = transition_rate(p0.with_reduced_detuning(eps))
        wm = transition_rate(p0.with_reduced_detuning(-eps))
        worst = max(worst, float((np.abs(wp - wm) / np.maximum(wp, wm)).max()))
    yield ("symmetry_eta0", worst, 1e-10, "W(eps) = W(-eps) at zero overlap")

    worst = 0.0
    for p in sets[:3]:
        w = transition_rate(p)
        t = np.linspace(0.0, min(10.0 / w, 1e4), 400)
        tr1 = evolve_triple(p, t_grid=t)
        tr2 = evolve_lindblad(p, t_grid=t)
        worst = max(worst, np.abs(tr1.n_e - tr2.n_e).max())
    yield ("dynamics_cross_oracle", worst, 1e-6,
           "equations of motion vs master equation, n_e")


def cmd_validate(cfg: RunConfig, out: str | None = None) -> int:
    """Run the randomized invariant suite; nonzero exit on any failure.

    The report goes to stdout; out is taken for a common signature and unused.
    """
    failures = 0
    for name, worst, tol, detail in _validate_checks(cfg):
        ok = worst <= tol
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: worst={worst:.3e} "
              f"tol={tol:.1e} ({detail})")
    print(f"validate: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


_COMMANDS = {
    "rate-sweep": cmd_rate_sweep,
    "dynamics": cmd_dynamics,
    "spectrum": cmd_spectrum,
    "spectrum-map": cmd_spectrum_map,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanoqed",
        description="Interference-resolved emitter-cavity rates, dynamics and spectra")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None and args.command != "validate":
            # fail on an unwritable path before the work, not after it
            open(args.out, "a", encoding="utf-8").close()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](cfg, args.out)
    except (DivergentMomentsError, QuadratureConvergenceError, IntegrationError,
            PositivityError, FloatingPointError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # a value the library's own input checks reject (a filter width
        # ds <= 0) is a config error, reported without a traceback
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
