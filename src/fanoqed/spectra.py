"""Time-integrated emission spectra behind a Lorentzian filter of width ds.

The detected spectrum splits into an emitter part S_21, a cavity part S_c and
an interference part S_F; all three are rational in the filter variable with
the same pair of complex poles gamma_p, gamma_m (eigenvalues of the
single-time generator of (<sigma->, <a>)).  Their weights are set by the
time-integrated moments I_e, I_c, I_p of the coarse-grained evolution.  The
frequency-integrated total is the emitted photon number, exactly one for an
initially excited emitter.

``spectrum_quadrature_oracle`` rebuilds the total spectrum with no use of the
pole algebra: two-time correlators come from numerically propagated
regression factors C(tau) and numerically integrated single-time moments,
and the filter integral is done by composite Gauss-Legendre panels that are
refined until converged.  The tau sum is evaluated in factored form: the
correlator kernels fold into one complex weight per node, and the node
lattice tau = (kk*n_r + r) h + o_j splits each phase e^{i nu tau} into three
short factors, so that the sum over r is a matrix product per block of
frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .params import SystemParams, derive_couplings
from .rates import CoarseRateSystem, rate_coefficients
from .dynamics import coarse_grained_solution, adiabatic_polarization, evolve_triple

__all__ = [
    "SpectralPoles",
    "IntegratedMoments",
    "SpectrumComponents",
    "DivergentMomentsError",
    "QuadratureConvergenceError",
    "spectral_poles",
    "regression_matrix",
    "integrated_moments",
    "spectrum_component",
    "component_integral",
    "default_frequency_grid",
    "total_spectrum",
    "spectrum_quadrature_oracle",
]

COMPONENTS = ("21", "c", "F")
# size of the (frequencies x panel blocks x nodes) temporary in _oracle_total,
# in elements: the frequency grid is evaluated in blocks of about this size
ORACLE_BLOCK_ELEMENTS = 1 << 20


class DivergentMomentsError(RuntimeError):
    """Time-integrated moments diverge (non-decaying coarse evolution)."""


class QuadratureConvergenceError(RuntimeError):
    """Oracle quadrature did not reach the requested relative tolerance.

    ``achieved`` is the relative L2 change of the last panel doubling and
    ``rel_tol`` the tolerance it exceeded.
    """

    def __init__(self, achieved: float, rel_tol: float):
        super().__init__(
            f"tau quadrature did not converge: relative change {achieved:.3e} "
            f"> {rel_tol:.1e} after panel doubling")
        self.achieved = achieved
        self.rel_tol = rel_tol


@dataclass(frozen=True)
class SpectralPoles:
    """The two complex spectral poles, gamma_p on the principal branch."""

    gamma_p: complex
    gamma_m: complex


@dataclass(frozen=True)
class IntegratedMoments:
    """Time integrals of n_e, n_c and the polarization from t=0 to infinity."""

    i_e: float
    i_c: float
    i_p: complex

    def sum_rule(self, p: SystemParams) -> float:
        """gamma*I_e + kappa*I_c + 2 Re(gamma_f * I_p); equals 1 exactly."""
        dc = derive_couplings(p)
        return p.gamma * self.i_e + p.kappa * self.i_c + 2.0 * (dc.gamma_f * self.i_p).real


@dataclass
class SpectrumComponents:
    """All spectrum components on a frequency grid (nu relative to omega21)."""

    nu: np.ndarray
    s21: np.ndarray
    s_c: np.ndarray
    s_f: np.ndarray
    s_total: np.ndarray
    ds: float
    sum_rule: float


def spectral_poles(p: SystemParams) -> SpectralPoles:
    """Closed-form poles of the filtered spectrum.

    gamma_pm = -(Gamma_tot + i(omega21 + omega_c))/2
               +- sqrt(((kappa - gamma)/2 - gamma_ph + i*detuning)^2 - 4 g+* g-)/2
    with the principal square root assigned to gamma_p.
    """
    dc = derive_couplings(p)
    rad = np.sqrt(complex(
        (0.5 * (p.kappa - p.gamma) - p.gamma_ph + 1j * dc.detuning) ** 2
        - 4.0 * np.conj(dc.g_plus) * dc.g_minus))
    center = -0.5 * (dc.gamma_tot + 1j * (p.omega21 + p.omega_c))
    return SpectralPoles(gamma_p=center + 0.5 * rad, gamma_m=center - 0.5 * rad)


def regression_matrix(p: SystemParams) -> np.ndarray:
    """Single-time generator M of the pair (<sigma->, <a>) under the QME.

    d/dt (<sigma->, <a>) = M (<sigma->, <a>); its eigenvalues are the
    spectral poles, which is checked against an independent eigensolver in
    the test suite.
    """
    dc = derive_couplings(p)
    g = p.g
    return np.array([
        [-1j * p.omega21 - 0.5 * p.gamma - p.gamma_ph, -1j * g - 0.5 * dc.gamma_f],
        [-1j * np.conj(g) - 0.5 * np.conj(dc.gamma_f), -1j * p.omega_c - 0.5 * p.kappa]])


def _check_decaying(p: SystemParams, cs: CoarseRateSystem) -> None:
    """Raise DivergentMomentsError unless the coarse evolution decays."""
    # exact antiresonance lands at lambda_plus = 0 up to rounding; both signs occur
    if cs.lambda_plus >= -1e-12 * (p.gamma + p.kappa):
        raise DivergentMomentsError(
            f"coarse evolution is non-decaying (lambda_plus = {cs.lambda_plus:.3e}); "
            "time-integrated moments diverge")


def integrated_moments(p: SystemParams, source: str = "coarse") -> IntegratedMoments:
    """Time-integrated moments of the initially excited emitter.

    source="coarse" evaluates the exact integrals of the coarse-grained
    closed forms: I_e = (R_pm + kappa)/(L+ L-), I_c = R_pp/(L+ L-), and I_p
    from the quasi-steady polarization, which is linear in (I_e, I_c).
    source="ode" integrates the full equations of motion numerically instead
    (trapezoid on a graded grid), as an independent cross-check.
    """
    dc = derive_couplings(p)
    cs = rate_coefficients(dc, p)
    _check_decaying(p, cs)
    if source == "coarse":
        det = cs.lambda_plus * cs.lambda_minus
        i_e = (cs.r_pm + p.kappa) / det
        i_c = cs.r_pp / det
    elif source == "ode":
        t_fast = 1.0 / (p.gamma + p.kappa)
        t_slow = 40.0 / abs(cs.lambda_plus)
        t = np.unique(np.concatenate([
            np.linspace(0.0, 10.0 * t_fast, 20001),
            np.geomspace(10.0 * t_fast, t_slow, 20001)]))
        traj = evolve_triple(p, t_grid=t)
        i_e = float(np.trapezoid(traj.n_e, t))
        i_c = float(np.trapezoid(traj.n_c, t))
        i_p = complex(np.trapezoid(traj.pol, t))
        return IntegratedMoments(i_e=i_e, i_c=i_c, i_p=i_p)
    else:
        raise ValueError(f"unknown moment source {source!r}")
    i_p = complex((-1j * np.conj(dc.g_plus) * i_e + 1j * np.conj(dc.g_minus) * i_c)
                  / (1j * dc.detuning + dc.gamma_tot))
    return IntegratedMoments(i_e=float(i_e), i_c=float(i_c), i_p=i_p)


def _f_coefficients(p: SystemParams, m: IntegratedMoments):
    """Affine coefficients (c, d) with f_alpha(x) = c_alpha - d_alpha * x."""
    dc = derive_couplings(p)
    gf, gfc = dc.gamma_f, np.conj(dc.gamma_f)
    pole21 = 1j * p.omega_c + 0.5 * p.kappa            # appears in f_21
    pole_c = 1j * p.omega21 + p.gamma_ph + 0.5 * p.gamma  # appears in f_c
    c21 = (p.gamma / math.pi) * (1j * dc.g_minus * m.i_p - pole21 * m.i_e)
    d21 = (p.gamma / math.pi) * m.i_e
    cc = (p.kappa / math.pi) * (1j * np.conj(dc.g_plus) * np.conj(m.i_p)
                                - pole_c * m.i_c)
    dc_ = (p.kappa / math.pi) * m.i_c
    cf = (1.0 / math.pi) * (1j * dc.g_minus * gfc * m.i_c
                            + 1j * np.conj(dc.g_plus) * gf * m.i_e
                            - pole21 * gfc * np.conj(m.i_p)
                            - pole_c * gf * m.i_p)
    df = (1.0 / math.pi) * (gfc * np.conj(m.i_p) + gf * m.i_p)
    return {"21": (c21, d21), "c": (cc, dc_), "F": (cf, df)}


def _component_values(p: SystemParams, nu_rel, ds: float, m: IntegratedMoments):
    """All three components at the given relative frequencies (dict of arrays)."""
    if ds <= 0.0:
        raise ValueError(f"filter width ds must be positive, got {ds}")
    nu_abs = np.asarray(nu_rel, float) + p.omega21
    poles = spectral_poles(p)
    gp, gm = poles.gamma_p, poles.gamma_m
    coef = _f_coefficients(p, m)
    out = {}
    if abs(gp - gm) < 1e-9 * abs(gp):
        # confluent pair: derivative of f(x)/(i nu + x - ds/2) at the double pole
        x = 0.5 * (gp + gm)
        den = 1j * nu_abs + x - 0.5 * ds
        for name, (c, d) in coef.items():
            out[name] = (-d / den - (c - d * x) / den ** 2).real
    else:
        den_p = 1j * nu_abs + gp - 0.5 * ds
        den_m = 1j * nu_abs + gm - 0.5 * ds
        inv = 1.0 / (gp - gm)
        for name, (c, d) in coef.items():
            out[name] = (inv * ((c - d * gp) / den_p - (c - d * gm) / den_m)).real
    return out


def spectrum_component(p: SystemParams, nu, ds: float, which: str,
                       moments: IntegratedMoments | None = None):
    """One spectrum component S_which at frequency nu (relative to omega21).

    which is "21", "c" or "F"; nu may be a scalar or an array.  Components are
    real by construction (the real part of a pole expansion).
    """
    if which not in COMPONENTS:
        raise ValueError(f"which must be one of {COMPONENTS}, got {which!r}")
    m = moments if moments is not None else integrated_moments(p)
    vals = _component_values(p, nu, ds, m)[which]
    return float(vals) if np.isscalar(nu) else vals


def component_integral(p: SystemParams, which: str,
                       moments: IntegratedMoments | None = None) -> float:
    """Exact frequency integral of S_which: -pi Re[(f(g+) - f(g-))/(g+ - g-)].

    Independent of the filter width; the three integrals add up to the
    emitted photon number.
    """
    if which not in COMPONENTS:
        raise ValueError(f"which must be one of {COMPONENTS}, got {which!r}")
    m = moments if moments is not None else integrated_moments(p)
    _, d = _f_coefficients(p, m)[which]
    # (f(g+) - f(g-))/(g+ - g-) = -d for affine f, including the confluent case
    return math.pi * complex(d).real


def default_frequency_grid(p: SystemParams, ds: float, n: int = 2001) -> np.ndarray:
    """Grid spanning both resonances plus filter tails and coupling margins.

    The padding is the larger of 20*ds + 5|g| (filter tails and any doublet)
    and the 10*max(kappa, ds, |g|) margin that :func:`total_spectrum` demands.
    """
    lo = min(0.0, p.omega_c - p.omega21)
    hi = max(0.0, p.omega_c - p.omega21)
    pad = max(20.0 * ds + 5.0 * p.g_abs, 10.0 * max(p.kappa, ds, p.g_abs))
    return np.linspace(lo - pad, hi + pad, n)


def total_spectrum(p: SystemParams, nu=None, ds: float = 20.0,
                   moments: IntegratedMoments | None = None) -> SpectrumComponents:
    """All spectrum components plus their sum and the photon-number sum rule.

    nu is relative to omega21 and defaults to :func:`default_frequency_grid`;
    a custom grid must cover both resonances with margin >= 10*max(kappa, ds,
    |g|) so that the filter tails and any doublet structure stay inside.
    """
    if nu is None:
        nu = default_frequency_grid(p, ds)
    nu = np.asarray(nu, float)
    margin = 10.0 * max(p.kappa, ds, p.g_abs)
    lo = min(0.0, p.omega_c - p.omega21)
    hi = max(0.0, p.omega_c - p.omega21)
    if nu[0] > lo - margin or nu[-1] < hi + margin:
        raise ValueError(
            f"frequency grid [{nu[0]}, {nu[-1]}] must cover both resonances "
            f"[{lo}, {hi}] with margin >= {margin}")
    m = moments if moments is not None else integrated_moments(p)
    vals = _component_values(p, nu, ds, m)
    return SpectrumComponents(
        nu=nu, s21=vals["21"], s_c=vals["c"], s_f=vals["F"],
        s_total=vals["21"] + vals["c"] + vals["F"],
        ds=ds, sum_rule=m.sum_rule(p))


def _log_panel_quadrature(t_end: float, fast_rate: float, n_per: int = 24,
                          growth: float = 1.35):
    """Gauss-Legendre nodes/weights on geometrically graded panels of [0, t_end]."""
    x, w = np.polynomial.legendre.leggauss(n_per)
    edges = [0.0, min(1e-3 / fast_rate, t_end)]
    while edges[-1] < t_end:
        edges.append(min(edges[-1] * growth, t_end))
    edges = np.asarray(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _oracle_moments(p: SystemParams) -> IntegratedMoments:
    """Moments by numerical quadrature of the coarse-grained time curves."""
    cs = rate_coefficients(derive_couplings(p), p)
    _check_decaying(p, cs)
    t, w = _log_panel_quadrature(40.0 / abs(cs.lambda_plus), p.gamma + p.kappa)
    n_e, n_c = coarse_grained_solution(p, t)
    pol = adiabatic_polarization(p, n_e, n_c)
    return IntegratedMoments(i_e=float(w @ n_e), i_c=float(w @ n_c),
                             i_p=complex(w @ pol))


def _matrix_powers(e: np.ndarray, n: int) -> np.ndarray:
    """e^0 .. e^(n-1) of a 2x2 matrix, by doubling."""
    out = np.eye(2, dtype=complex)[None]
    while len(out) < n:
        out = np.concatenate([out, out @ e])
        e = e @ e
    return out[:n]


def _oracle_total(p: SystemParams, nu_abs: np.ndarray, ds: float,
                  m: IntegratedMoments, phase_per_panel: float) -> np.ndarray:
    """Total spectrum from regression factors and panel quadrature in tau."""
    dc = derive_couplings(p)
    mat = regression_matrix(p)
    # slowest decay of C(tau) from an independent eigensolver, not the closed form
    tau_max = 38.0 / (0.5 * ds - min(np.linalg.eigvals(mat).real.max(), 0.0) * 0.5)
    f_max = (np.abs(nu_abs).max() + max(abs(p.omega21), abs(p.omega_c))
             + abs(dc.detuning) + 4.0 * abs(dc.g_plus) + 10.0 * ds)
    h = phase_per_panel / f_max
    n_pan = int(math.ceil(tau_max / h))
    x, w_gl = np.polynomial.legendre.leggauss(10)
    off = 0.5 * h * (x + 1.0)
    # panel k = kk*n_r + r: e^{-ds tau/2} C(tau) = A_kk B_r O_j on the node
    # tau = k h + o_j, with A and B powers of one per-panel exponential
    n_r = math.isqrt(n_pan - 1) + 1
    n_kk = -(-n_pan // n_r)
    damped = mat - 0.5 * ds * np.eye(2)
    b_r = _matrix_powers(expm(damped * h), n_r + 1)
    a_kk = _matrix_powers(b_r[n_r], n_kk)
    # correlator kernels: C(tau) times the integrated moments (the trajectory-time
    # integral, reduced exactly by t - tau -> s); V weights them by the emitter and
    # cavity rates and, on swapped rows, by the interference rate gamma_f
    mom = np.array([[m.i_e, m.i_p], [np.conj(m.i_p), m.i_c]])
    gf = np.array([[np.conj(dc.gamma_f)], [dc.gamma_f]])
    v = (np.array([[p.gamma], [p.kappa]]) * mom + gf * mom[::-1]) / math.pi
    # W = w_j sum_ab (A_kk B_r O_j)_ab V_ab = sum_ad A_kk[a, d] (q_j B_r^T)[a, d]
    q = np.stack([w * v @ expm(damped * o).T for o, w in zip(off, 0.5 * h * w_gl)])
    qb = q[None] @ b_r[:n_r].transpose(0, 2, 1)[:, None]
    wgt = (qb.reshape(-1, 4) @ a_kk.reshape(-1, 4).T).reshape(n_r, -1)  # columns (j, kk)
    wgt[n_pan - (n_kk - 1) * n_r:, n_kk - 1::n_kk] = 0.0  # nodes past the last panel
    # e^{i nu tau} = e^{i nu kk n_r h} e^{i nu r h} e^{i nu o_j}: one matrix
    # product over r per block of frequencies, then the sums over kk and j
    out = []
    n_blocks = 1 + len(nu_abs) * wgt.shape[1] // ORACLE_BLOCK_ELEMENTS
    for nu in np.array_split(nu_abs[:, None], n_blocks):
        t = (np.exp(1j * h * nu * np.arange(n_r)) @ wgt).reshape(len(nu), -1, n_kk)
        t = np.einsum("fjk,fk->fj", t, np.exp(1j * h * n_r * nu * np.arange(n_kk)))
        out.append((t * np.exp(1j * nu * off)).sum(axis=1).real)
    return np.concatenate(out)


def spectrum_quadrature_oracle(p: SystemParams, nu, ds: float,
                               rel_tol: float = 1e-4) -> np.ndarray:
    """Total spectrum S(nu, ds) rebuilt by numerical quadrature.

    Two-time correlators <O_i(t - tau) O_j(t)> are expressed through the
    regression factors C(tau) = exp(tau M) and the single-time expectations
    of the coarse-grained evolution.  C(tau) is propagated numerically panel
    by panel, the trajectory-time integral is evaluated by graded-panel
    quadrature of the time curves, and the filter integral over tau by
    composite Gauss-Legendre panels.  The panel density is doubled until the
    result moves by less than rel_tol in relative L2; non-convergence raises
    QuadratureConvergenceError, whose ``achieved`` and ``rel_tol`` attributes
    carry the achieved estimate and the tolerance.

    The nodes are tau = k h + o_j (panel k of width h, Gauss-Legendre offset
    o_j).  The four correlator kernels, the filter damping e^{-ds tau/2} and
    the quadrature weights fold into one complex weight W[k, j] = sum_ab
    C_ab(tau) V_ab, with V built from gamma, kappa, gamma_f and the moments,
    so S(nu) = Re sum W e^{i nu tau}.  Writing k = kk*n_r + r with n_r about
    sqrt(#panels), the damped factor e^{-ds tau/2} C(tau) is A_kk B_r O_j,
    where B_r and A_kk are powers of the per-panel exponential and of its
    n_r-th power, each built by doubling, and the phase is e^{i nu kk n_r h}
    e^{i nu r h} e^{i nu o_j}.  Per block of frequencies the sum over r is
    then one complex matrix product and the sums over kk and j are small
    contractions, so each frequency costs n_r + #kk + 10 exponentials instead
    of one per node.  Uniform and non-uniform grids take the same path; the
    blocks keep the (frequencies x kk x nodes) temporary near
    ORACLE_BLOCK_ELEMENTS elements.

    nu is relative to omega21; returns the total spectrum on the grid.
    """
    nu_abs = np.atleast_1d(np.asarray(nu, float)) + p.omega21
    m = _oracle_moments(p)
    coarse = _oracle_total(p, nu_abs, ds, m, phase_per_panel=0.9)
    fine = _oracle_total(p, nu_abs, ds, m, phase_per_panel=0.45)
    scale = np.linalg.norm(fine)
    achieved = np.linalg.norm(fine - coarse) / scale if scale > 0 else 0.0
    if achieved > rel_tol:
        raise QuadratureConvergenceError(float(achieved), rel_tol)
    return float(fine[0]) if np.isscalar(nu) else fine
