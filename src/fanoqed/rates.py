"""Coarse-grained rate coefficients and the generalized transition rate.

After adiabatic elimination of the polarization, the populations obey a 2x2
linear system whose coefficients R_ab = Re(2 g_a g_b* / (i*detuning + Gamma))
mix the two effective couplings.  The decay rate of the initially excited
emitter is the slow eigenvalue of that system; in the weak-coupling limit it
reduces to gamma * |q + eps|^2 / (1 + eps^2), the textbook asymmetric-profile
formula, and for orthogonal radiation patterns (eta = 0) to the Purcell rate.

Every function here broadcasts over an array-valued omega_c with the bits of
one scalar call per entry: squares are products (scalar ``** 2`` calls libm
``pow``, array ``** 2`` multiplies) and |z| is ``np.hypot``, as Python's
``abs`` of a complex is and ``np.abs`` is not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, derive_couplings

__all__ = [
    "CoarseRateSystem",
    "RegimeWarning",
    "RateSweepTable",
    "rate_coefficients",
    "transition_rate",
    "transition_rate_weak",
    "purcell_rate",
    "fano_formula",
    "rate_sweep",
]


class RegimeWarning(UserWarning):
    """Emitted when kappa < gamma, where W is taken from the faster -lambda_minus branch."""


@dataclass(frozen=True)
class CoarseRateSystem:
    """Rate coefficients R_ab and the eigenvalues of the population system.

    The populations (n_c, n_e) evolve under the matrix
    [[-(R_pm + kappa), R_pp], [R_mm, -(R_mp + gamma)]]; lambda_plus >=
    lambda_minus are its (always real) eigenvalues.
    """

    r_pp: float
    r_pm: float
    r_mp: float
    r_mm: float
    lambda_plus: float
    lambda_minus: float

    def coefficient_matrix(self, p: SystemParams) -> np.ndarray:
        """The 2x2 generator of (n_c, n_e), for independent eigensolvers.

        An array-valued omega_c gives an (..., 2, 2) stack, one per entry.
        """
        return np.stack([np.stack([-(self.r_pm + p.kappa), self.r_pp], -1),
                         np.stack([self.r_mm, -(self.r_mp + p.gamma)], -1)], -2)


def rate_coefficients(p: SystemParams) -> CoarseRateSystem:
    """Coarse-grained rate coefficients and eigenvalues for one parameter set.

    R_ab = Re(2 g_a g_b* / (i*(omega_c - omega21) + Gamma_tot)); the closed-form
    eigenvalues follow from the trace and the discriminant, which is a sum of
    a square and the product R_pp * R_mm >= 0, so both are real.
    """
    dc = derive_couplings(p)
    d = 1j * dc.detuning + dc.gamma_tot
    gp, gm = dc.g_plus, dc.g_minus
    r_pp = (2.0 * gp * np.conj(gp) / d).real
    r_pm = (2.0 * gp * np.conj(gm) / d).real
    r_mp = (2.0 * gm * np.conj(gp) / d).real
    r_mm = (2.0 * gm * np.conj(gm) / d).real
    mid = -0.5 * (p.gamma + p.kappa + r_pm + r_mp)
    half = 0.5 * (p.kappa - p.gamma + r_pm - r_mp)
    root = np.sqrt(half * half + r_pp * r_mm)
    # mid + root cancels catastrophically near the rate antiresonance; the
    # Vieta product route keeps lambda_plus accurate there (lambda_minus < 0
    # always, since gamma + kappa + r_pm + r_mp > 0 for any valid overlap)
    lam_minus = mid - root
    det = (r_pm + p.kappa) * (r_mp + p.gamma) - r_pp * r_mm
    return CoarseRateSystem(
        r_pp=r_pp, r_pm=r_pm, r_mp=r_mp, r_mm=r_mm,
        lambda_plus=det / lam_minus, lambda_minus=lam_minus)


def transition_rate(p: SystemParams) -> float:
    """Decay rate W of the initially excited emitter.

    W = -lambda_plus, the slow rate, for kappa >= gamma.  For kappa < gamma W
    is -lambda_minus instead, the fast rate (lambda_minus <= lambda_plus, so
    -lambda_minus is never the slower one); that value is returned along
    with a RegimeWarning rather than silently switching.
    """
    cs = rate_coefficients(p)
    if p.kappa < p.gamma:
        warnings.warn(
            "kappa < gamma: transition rate taken from the -lambda_minus branch",
            RegimeWarning, stacklevel=2)
        return -cs.lambda_minus
    return -cs.lambda_plus


def transition_rate_weak(p: SystemParams) -> float:
    """Weak-coupling rate W = gamma + R_mp (drops the R_pp*R_mm backaction)."""
    cs = rate_coefficients(p)
    return p.gamma + cs.r_mp


def purcell_rate(p: SystemParams) -> float:
    """gamma + 2|g|^2 Gamma_tot / (detuning^2 + Gamma_tot^2).

    Reference formula: equals transition_rate_weak identically at eta = 0.
    """
    dc = derive_couplings(p)
    return p.gamma + 2.0 * (p.g_abs * p.g_abs) * dc.gamma_tot / (
        dc.detuning * dc.detuning + dc.gamma_tot * dc.gamma_tot)


def fano_formula(q: complex, eps: float, gamma: float) -> float:
    """Textbook asymmetric rate profile gamma * |q + eps|^2 / (eps^2 + 1).

    q may be complex; for real q this is the classic two-channel
    interference lineshape with background rate gamma.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    z = q + eps
    m = np.hypot(z.real, z.imag)
    return gamma * (m * m) / (eps * eps + 1.0)


@dataclass(frozen=True)
class RateSweepTable:
    """Rate profile over a reduced-detuning grid (all arrays share a length)."""

    eps: np.ndarray
    w_full: np.ndarray
    w_weak: np.ndarray
    w_fano: np.ndarray


def rate_sweep(p: SystemParams, eps_range: tuple[float, float], n: int) -> RateSweepTable:
    """Evaluate W, the weak-coupling W, and the reference profile on a grid.

    The grid is uniform over eps_range with n >= 1 points (n = 1 gives the
    start point alone).  For kappa < gamma, which holds along the whole
    sweep, W is the -lambda_minus branch and one RegimeWarning is emitted, as
    in :func:`transition_rate`.
    """
    if n < 1:
        raise ValueError(f"need at least 1 sweep point, got {n}")
    eps = np.linspace(eps_range[0], eps_range[1], n)
    pe = p.with_reduced_detuning(eps)
    dc = derive_couplings(pe)
    return RateSweepTable(eps=eps, w_full=transition_rate(pe),
                          w_weak=transition_rate_weak(pe),
                          w_fano=fano_formula(dc.q, dc.eps, p.gamma))
