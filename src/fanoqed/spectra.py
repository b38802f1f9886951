"""Time-integrated emission spectra behind a Lorentzian filter of width ds.

This is the filtered physical spectrum of Eberly and Wodkiewicz (JOSA 67,
1252, 1977).  By the quantum regression theorem it is -Re sum_ab
[(b + M)^-1]_ab V_ab: M is the single-time generator of (<sigma->, <a>),
b = i(nu + omega21) - ds/2, and V holds the time-integrated moments I_e,
I_c, I_p weighted by the decay rates.  Split by rate, the emitter part S_21,
cavity part S_c and interference part S_F are each one fraction
-Re[(c + d b)/char] over char = det(b + M) = b^2 + b tr M + det M, so no pole
is computed and coinciding poles need no branch.  The total is one fraction
over the summed coefficients, a moment-free part plus one pure-dephasing
term (:func:`total_spectrum`): near the rate antiresonance the three parts
cancel by up to 1e8, the single fraction does not.

The moments solve A I = -y0: the equations of motion dy/dt = A y of
y = (n_c, n_e, Re p, Im p), integrated from 0 to infinity with
y0 = (0, 1, 0, 0).  The coarse-grained closed forms give the same moments
(:func:`integrated_moments`).  The frequency-integrated total is the emitted
photon number, exactly one for an initially excited emitter.

:func:`spectrum_quadrature_oracle` rebuilds the total with none of these
closed forms and none of the coarse-grained rates, from numerically
propagated regression factors and a panel quadrature in tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (SystemParams, _require_scalar_omega_c, collective_decay_matrix,
                     derive_couplings)
from .rates import CoarseRateSystem, rate_coefficients
from .dynamics import (adiabatic_polarization, triple_generator_matrix, _expm_stack,
                       _matmul_dot2)

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
# size of the (frequencies x 10) node phase tables in _oracle_total, in
# elements: the frequency grid is evaluated in chunks of at most this size (and
# at least one frequency).  Set from a sweep of the six seed-1
# oracle-crosscheck tasks on a 2-vCPU Xeon VM (best of 7 per task, summed over
# the round, three processes per size), with the tracemalloc peak of one
# bare-emitter call: 1 << 10: 6.7-7.0 ms, 0.13 MB; 1 << 11: 6.1-6.5 ms,
# 0.19 MB; 1 << 12: 5.7-5.9 ms (one process on a slow spell 9.4), 0.31 MB;
# 1 << 13: 5.6-6.2 ms, 0.56 MB; 1 << 14: 5.9-6.4 ms, 0.67 MB.  Smaller
# chunks pay numpy's per-call overhead; larger ones save no time and raise
# the peak
ORACLE_BLOCK_ELEMENTS = 1 << 12
# the oracle's panel doubling must move its result by less than this (relative L2)
ORACLE_REL_TOL = 1e-4


class DivergentMomentsError(RuntimeError):
    """Time-integrated moments diverge (non-decaying coarse evolution).

    ``lambda_plus`` is the slow coarse-grained eigenvalue that failed to decay.
    """

    def __init__(self, lambda_plus: float):
        super().__init__(
            f"coarse evolution is non-decaying (lambda_plus = {lambda_plus:.3e}); "
            "time-integrated moments diverge")
        self.lambda_plus = lambda_plus


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
    _require_scalar_omega_c(p, "spectral_poles")
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
    _require_scalar_omega_c(p, "regression_matrix")
    return np.array(_regression(p))


def _regression(p: SystemParams):
    """The entries of :func:`regression_matrix` as nested lists.

    Only M_22 depends on omega_c, and only it takes the shape of an array
    omega_c; the other three stay scalars, so that products of them round
    as in a scalar call.
    """
    dc = derive_couplings(p)
    g = p.g
    return [[-1j * p.omega21 - 0.5 * p.gamma - p.gamma_ph, -1j * g - 0.5 * dc.gamma_f],
            [-1j * np.conj(g) - 0.5 * np.conj(dc.gamma_f), -1j * p.omega_c - 0.5 * p.kappa]]


def _moments_diverge(p: SystemParams, lambda_plus):
    """True where the coarse evolution does not decay, so the moments diverge."""
    # exact antiresonance lands at lambda_plus = 0 up to rounding; both signs occur
    return lambda_plus >= -1e-12 * (p.gamma + p.kappa)


def _coarse_moments(p: SystemParams, cs: CoarseRateSystem) -> IntegratedMoments:
    """The coarse closed-form moments from the computed rate system cs of p.

    I_e = (R_pm + kappa)/(L+ L-), I_c = R_pp/(L+ L-), and I_p the
    quasi-steady polarization, linear in (I_e, I_c).  Broadcasts over an
    array omega_c, with the bits of one scalar call per entry; the caller
    has left out the omega_c where the moments diverge.
    """
    det = cs.lambda_plus * cs.lambda_minus
    i_e = (cs.r_pm + p.kappa) / det
    i_c = cs.r_pp / det
    return IntegratedMoments(i_e=i_e, i_c=i_c, i_p=adiabatic_polarization(p, i_e, i_c))


def integrated_moments(p: SystemParams, source: str = "coarse") -> IntegratedMoments:
    """Time-integrated moments of the initially excited emitter.

    Integrating the equations of motion dy/dt = A y from t = 0 to infinity,
    with y = (n_c, n_e, Re p, Im p), y(0) = y0 = (0, 1, 0, 0) and y(inf) = 0,
    gives A I = -y0 exactly, where A = triple_generator_matrix(p) and I holds
    (I_c, I_e, Re I_p, Im I_p).  A 0 -> infinity time integral is the
    resolvent at zero frequency, where adiabatic elimination is exact, not
    an approximation: y0 has no polarization part, so the polarization rows
    give I_p = -A_pp^-1 A_pn I_n, the quasi-steady polarization, and the
    population rows give (A_nn - A_np A_pp^-1 A_pn) I_n = -y0_n, whose matrix
    (the Schur complement of A_pp) is the coarse-grained rate matrix
    ``CoarseRateSystem.coefficient_matrix``.  So both sources give the same
    moments up to rounding.

    source="coarse" evaluates the closed forms of the coarse-grained system
    (:func:`_coarse_moments`).
    source="ode" solves A I = -y0 on the full equations of motion instead,
    with one refinement step whose residual A I + y0 is a compensated (Dot2)
    product, as a check independent of the closed forms.
    """
    _require_scalar_omega_c(p, "integrated_moments")
    cs = rate_coefficients(p)
    if _moments_diverge(p, cs.lambda_plus):
        raise DivergentMomentsError(cs.lambda_plus)
    if source == "coarse":
        m = _coarse_moments(p, cs)
        return IntegratedMoments(i_e=float(m.i_e), i_c=float(m.i_c), i_p=complex(m.i_p))
    if source == "ode":
        a = triple_generator_matrix(p)
        y0 = np.array([0.0, 1.0, 0.0, 0.0])
        x = np.linalg.solve(a, -y0)
        # A x + y0 cancels to rounding, so it is summed as one Dot2 product
        resid = _matmul_dot2(np.hstack([a, y0[:, None]]), np.append(x, 1.0)[:, None])
        x -= np.linalg.solve(a, resid[:, 0])
        return IntegratedMoments(i_e=float(x[1]), i_c=float(x[0]),
                                 i_p=complex(x[2], x[3]))
    raise ValueError(f"unknown moment source {source!r}")


def _f_coefficients(p: SystemParams, m: IntegratedMoments):
    """Numerator coefficients (c, d): S_alpha = -Re[(c_alpha + d_alpha b)/char]."""
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


def _pi_c_total(mat, p: SystemParams, i_p):
    """pi * sum_alpha c_alpha = M_22 + 2 gamma_ph M_12 I_p (see :func:`total_spectrum`).

    i_p has the shape of M_22.  The dephasing term is one scalar product per
    detuning: as one array product it rounds differently in the last bit.
    """
    i_p = np.asarray(i_p)
    term = [2.0 * p.gamma_ph * mat[0][1] * x for x in i_p.ravel().tolist()]
    return mat[1][1] + np.reshape(term, i_p.shape)


def _total(p: SystemParams, nu_rel, ds: float, i_p):
    """b, -1/det(b + M) and the total spectrum at the relative frequencies nu_rel.

    One detuning, or a block of them: an omega_c of shape (B, 1), with i_p
    of that shape, gives one row per detuning, each with the bits of the
    scalar call.  The only copy of the total's algebra; its input checks
    on the grid are :func:`_check_grid`'s.
    """
    if ds <= 0.0:
        raise ValueError(f"filter width ds must be positive, got {ds}")
    b = 1j * (np.asarray(nu_rel, float) + p.omega21) - 0.5 * ds
    mat = _regression(p)
    char = (b + mat[0][0]) * (b + mat[1][1]) - mat[0][1] * mat[1][0]  # det(b + M)
    neg_inv = -1.0 / char  # one division shared by the total and the components
    return b, neg_inv, ((_pi_c_total(mat, p, i_p) + b) * neg_inv).real / math.pi


def _component_values(p: SystemParams, nu_rel, ds: float, m: IntegratedMoments):
    """S_21, S_c, S_F and the total at the given relative frequencies (dict)."""
    b, neg_inv, total = _total(p, nu_rel, ds, m.i_p)
    out = {name: ((c + d * b) * neg_inv).real for name, (c, d) in _f_coefficients(p, m).items()}
    out["total"] = total
    return out


def spectrum_component(p: SystemParams, nu, ds: float, which: str,
                       moments: IntegratedMoments | None = None):
    """One spectrum component S_which at frequency nu (relative to omega21).

    which is "21", "c" or "F"; nu may be a scalar or an array.  Components are
    real by construction (the real part of one rational fraction).
    """
    _require_scalar_omega_c(p, "spectrum_component")
    if which not in COMPONENTS:
        raise ValueError(f"which must be one of {COMPONENTS}, got {which!r}")
    m = moments if moments is not None else integrated_moments(p)
    vals = _component_values(p, nu, ds, m)[which]
    return float(vals) if np.isscalar(nu) else vals


def component_integral(p: SystemParams, which: str,
                       moments: IntegratedMoments | None = None) -> float:
    """Exact frequency integral of S_which, pi Re d_which.

    Independent of the filter width; the three integrals add up to the
    emitted photon number.
    """
    _require_scalar_omega_c(p, "component_integral")
    if which not in COMPONENTS:
        raise ValueError(f"which must be one of {COMPONENTS}, got {which!r}")
    m = moments if moments is not None else integrated_moments(p)
    _, d = _f_coefficients(p, m)[which]
    # over nu, c/char integrates to zero and -d b/char to pi d: both roots of
    # char lie on one side of the real nu axis, whether they coincide or not
    return math.pi * complex(d).real


def _tail_pad(p: SystemParams, ds: float) -> float:
    """20*ds + 5|g|: room for the filter tails and any vacuum-Rabi doublet."""
    return 20.0 * ds + 5.0 * p.g_abs


def _grid_margin(p: SystemParams, ds: float) -> float:
    """10*max(kappa, ds, |g|): the margin :func:`total_spectrum` demands."""
    return 10.0 * max(p.kappa, ds, p.g_abs)


def _require_finite_grid(nu: np.ndarray) -> None:
    """Raise ValueError unless the frequency grid nu has points, all finite."""
    bad = np.count_nonzero(~np.isfinite(nu))
    if nu.size == 0 or bad:
        raise ValueError(f"frequency grid nu must hold finite values, got {nu.size} "
                         f"points, {bad} of them not finite")


def _check_grid(p: SystemParams, nu: np.ndarray, ds: float) -> None:
    """Raise ValueError unless nu is finite and covers both resonances by :func:`_grid_margin`.

    An array omega_c (a block of detunings) is checked at its extremes.
    """
    _require_finite_grid(nu)
    margin = _grid_margin(p, ds)
    shifts = np.ravel(p.omega_c - p.omega21).tolist()
    lo, hi = min(0.0, *shifts), max(0.0, *shifts)
    if nu[0] > lo - margin or nu[-1] < hi + margin:
        raise ValueError(
            f"frequency grid [{nu[0]}, {nu[-1]}] must cover both resonances "
            f"[{lo}, {hi}] with margin >= {margin}")


def default_frequency_grid(p: SystemParams, ds: float, n: int = 2001) -> np.ndarray:
    """Grid spanning both resonances plus filter tails and coupling margins.

    The padding is the larger of :func:`_tail_pad` and :func:`_grid_margin`.
    """
    _require_scalar_omega_c(p, "default_frequency_grid")
    lo = min(0.0, p.omega_c - p.omega21)
    hi = max(0.0, p.omega_c - p.omega21)
    pad = max(_tail_pad(p, ds), _grid_margin(p, ds))
    return np.linspace(lo - pad, hi + pad, n)


def total_spectrum(p: SystemParams, nu=None, ds: float = 20.0,
                   moments: IntegratedMoments | None = None) -> SpectrumComponents:
    """All spectrum components, their total and the photon-number sum rule.

    nu is relative to omega21 and defaults to :func:`default_frequency_grid`;
    a custom grid must cover both resonances with margin >= 10*max(kappa, ds,
    |g|) so that the filter tails and any doublet structure stay inside.

    The total is the single fraction -Re[(pi c_tot + pi d_tot b)/(pi char)]
    over the summed coefficients, not S_21 + S_c + S_F, which cancel by up to
    1e8 near the rate antiresonance.  Its numerator is sum_ab adj(b + M)_ab
    W_ab with W = pi V = G N^T, G = [[gamma, gamma_f*], [gamma_f, kappa]] the
    collective decay matrix and N = [[I_e, I_p*], [I_p, I_c]] the moments.
    As adj(b + M) = (b + tr M) 1 - M, pi d_tot = tr W = gamma I_e + kappa I_c
    + 2 Re(gamma_f I_p) is the sum rule, exactly 1 and taken as 1, and
    pi c_tot = tr M - sum_ab M_ab W_ab.  A I = -y0 in matrix form is
    R = M N + N M^H + (1 + 2 gamma_ph I_e) E = 0, E = diag(1, 0), and
    pi c_tot + tr(adj(M) R) = -(kappa/2 + i omega_c) - 2i gamma_ph g- I_p
    = M_22 + 2 gamma_ph M_12 I_p for any moments (checked symbolically).  By
    R_11 = 0, gamma I_e - 1 = 2 Im(g- I_p), the last term is also
    gamma_ph (gamma I_e - 1 - 2i Re(g- I_p)).  Without dephasing the total is
    thus -Re[(b + M)^-1]_11 / pi and needs no moments; dephasing adds exactly
    one term to the interference numerator, the spectral side of the
    interference that survives pure dephasing.
    """
    _require_scalar_omega_c(p, "total_spectrum")
    if nu is None:
        nu = default_frequency_grid(p, ds)
    nu = np.asarray(nu, float)
    _check_grid(p, nu, ds)
    m = moments if moments is not None else integrated_moments(p)
    vals = _component_values(p, nu, ds, m)
    return SpectrumComponents(
        nu=nu, s21=vals["21"], s_c=vals["c"], s_f=vals["F"],
        s_total=vals["total"], ds=ds, sum_rule=m.sum_rule(p))


@functools.cache
def _gauss_legendre_10():
    """Nodes and weights of the 10-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Legendre Jacobi matrix,
    the weights twice the squared first components of its eigenvectors."""
    k = np.arange(1.0, 10.0)
    x, vec = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    w = 2.0 * vec[0] ** 2
    # the rule is symmetric about 0: average out the eigensolver's rounding
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _oracle_total(p: SystemParams, nu_abs: np.ndarray, ds: float,
                  m: IntegratedMoments, phase_per_panel: float) -> np.ndarray:
    """Total spectrum from regression factors and panel quadrature in tau.

    On node j of panel k < n, tau = k h + o_j, the damped regression factor
    e^{-ds tau/2} C(tau) is E^k O_j, with E and O_j the exponentials of
    M - ds/2 over h and over o_j.  So S(nu) = Re sum_j e^{i nu o_j} w_j
    sum_ab (G O_j)_ab V_ab, where the panel sum G = sum_k (zE)^k with
    z = e^{i nu h} is a matrix geometric series, summed in closed form:
    G = (1 - z^n E^n) adj(1 - zE) / det(1 - zE), and for 2x2 matrices
    adj(1 - zE) = 1 - z adj E and det(1 - zE) = 1 - z (tr E - z det E).
    G's numerator is thus 1 - z adj E - z^n (E^n - z E^n adj E), and each
    frequency needs only the node sums u_X of X = 1, adj E, E^n, E^n adj E.
    E^n is the power of the same E, by repeated squaring, so in exact
    arithmetic the closed form is this E's panel sum.  M's modes decay, so
    E's eigenvalues lie within e^{-ds h/2} of 0 and |det(1 - zE)| >=
    (1 - e^{-ds h/2})^2 > 0 for ds > 0: the division cannot degenerate.

    Per frequency: 12 complex exponentials (z, z^n and ten node phases), 40
    multiply-adds for the u_X and a handful of operations for the fraction,
    whatever the panel count.  The grid runs in chunks of
    ORACLE_BLOCK_ELEMENTS // 10 frequencies, so the working memory is bounded
    whatever the grid size; each frequency's arithmetic is the same in any
    chunk, so the result does not depend on the chunk size."""
    dc = derive_couplings(p)
    mat = regression_matrix(p)
    # slowest decay of C(tau) from an independent eigensolver, not the closed form
    tau_max = 38.0 / (0.5 * ds - min(np.linalg.eigvals(mat).real.max(), 0.0) * 0.5)
    f_max = (np.abs(nu_abs).max() + max(abs(p.omega21), abs(p.omega_c))
             + abs(dc.detuning) + 4.0 * abs(dc.g_plus) + 10.0 * ds)
    h = phase_per_panel / f_max
    n_pan = int(math.ceil(tau_max / h))
    x, w_gl = _gauss_legendre_10()
    off = 0.5 * h * (x + 1.0)
    damped = mat - 0.5 * ds * np.eye(2)
    # the per-panel exponential and the ten node exponentials in one batch
    exps = _expm_stack(damped, np.append(h, off))
    e = exps[0]
    # correlator kernels: C(tau) times the integrated moments (the trajectory-time
    # integral, reduced exactly by t - tau -> s); V = G N^T/pi weights them by the
    # collective decay matrix G of the master equation, with N_jk the integral of
    # <L_k^+ L_j> over the channels L = (sigma-, a).  The product is summed
    # elementwise: near the rate zero the terms cancel by about 1e7, and a
    # matmul's other rounding moves the oracle by up to 1e-9 of its peak
    mom = np.array([[m.i_e, m.i_p], [np.conj(m.i_p), m.i_c]])
    g = collective_decay_matrix(p.gamma, p.kappa, p.eta, p.theta21, p.theta_c)
    v = (g[:, :, None] * mom).sum(axis=1) / math.pi
    # the weights w_j sum_ab (X O_j)_ab V_ab of u_X, one row per X
    adj_e = np.array([[e[1, 1], -e[0, 1]], [-e[1, 0], e[0, 0]]])
    e_n = np.linalg.matrix_power(e, n_pan)
    xs = np.stack([np.eye(2), adj_e, e_n, e_n @ adj_e])
    c = np.einsum("xac,jcb,ab->xj", xs, exps[1:], v) * (0.5 * h * w_gl)
    tr_e, det_e = e[0, 0] + e[1, 1], e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    out = np.empty(len(nu_abs))
    n_f = max(1, ORACLE_BLOCK_ELEMENTS // len(off))
    for i in range(0, len(nu_abs), n_f):
        nu = nu_abs[i:i + n_f]
        z, z_n = np.exp(1j * h * nu), np.exp(1j * (h * n_pan) * nu)
        # einsum sums over the nodes in its own loop, never in a threaded BLAS product
        u_1, u_adj, u_n, u_nadj = np.einsum("fj,xj->xf", np.exp(1j * nu[:, None] * off), c)
        num = u_1 - z * u_adj - z_n * (u_n - z * u_nadj)
        out[i:i + n_f] = (num / (1.0 - z * (tr_e - z * det_e))).real
    return out


def spectrum_quadrature_oracle(p: SystemParams, nu, ds: float) -> np.ndarray:
    """Total spectrum S(nu, ds) rebuilt by numerical quadrature.

    Two-time correlators <O_i(t - tau) O_j(t)> are expressed through the
    regression factors C(tau) = exp(tau M) and the time-integrated moments,
    which come from the full equations of motion (``integrated_moments`` with
    source="ode"), not from the coarse-grained rates.  C(tau) is propagated
    numerically panel by panel, and the filter integral over tau is done by
    composite Gauss-Legendre panels.  The panel density is doubled until the
    result moves by less than ORACLE_REL_TOL in relative L2; non-convergence
    raises QuadratureConvergenceError, whose ``achieved`` and ``rel_tol``
    attributes carry the achieved estimate and the tolerance.

    The sum over panels is a 2x2 matrix geometric series, summed in closed
    form on arrays over frequency with no BLAS product (:func:`_oracle_total`),
    on any grid.  A pass costs each frequency 12 complex exponentials and a
    few dozen complex operations, whatever its panel count; frequencies are
    taken in cache-sized chunks, so the working memory stays well under a
    megabyte on grids of thousands of points.  An empty grid, or one with a
    value that is not finite, raises ValueError before any work.

    nu is relative to omega21; returns the total spectrum on the grid.
    """
    _require_scalar_omega_c(p, "spectrum_quadrature_oracle")
    nu_rel = np.atleast_1d(np.asarray(nu, float))
    _require_finite_grid(nu_rel)
    nu_abs = nu_rel + p.omega21
    m = integrated_moments(p, source="ode")
    coarse = _oracle_total(p, nu_abs, ds, m, phase_per_panel=0.9)
    fine = _oracle_total(p, nu_abs, ds, m, phase_per_panel=0.45)
    scale = np.linalg.norm(fine)
    achieved = np.linalg.norm(fine - coarse) / scale if scale > 0 else 0.0
    if achieved > ORACLE_REL_TOL:
        raise QuadratureConvergenceError(float(achieved), ORACLE_REL_TOL)
    return float(fine[0]) if np.isscalar(nu) else fine
