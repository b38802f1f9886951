"""Physical parameters of the emitter-cavity system and derived couplings.

All energies and rates are in micro-eV with hbar = 1, so time is measured in
units of hbar/ueV (one unit is ~0.658 ps).  The two-level emitter couples to a
single cavity mode both coherently (g) and through a shared radiative
environment; the environmental overlap of the two radiation patterns is
captured by a single phenomenological parameter ``eta`` in [0, 1], which sets
the cross-decay rate ``gamma_f = exp(i(theta21 - theta_c)) * sqrt(eta*gamma*kappa)``.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "HBAR_UEV_PS",
    "SystemParams",
    "DerivedCouplings",
    "derive_couplings",
    "reduced_detuning",
    "collective_decay_matrix",
    "collective_decay_min_eigenvalue",
]

# hbar in ueV * ps; one time unit (1/ueV) is HBAR_UEV_PS picoseconds.
HBAR_UEV_PS = 0.6582119569


@dataclass(frozen=True)
class SystemParams:
    """Inputs of the model, all in ueV / radians.

    Attributes:
        omega21: emitter transition energy.  The default frequency reference
            puts omega21 = 0; every derived quantity depends only on energy
            differences, and an eV-scale absolute offset would only cost
            floating-point accuracy.
        omega_c: cavity resonance energy (same reference as omega21); may be
            a numpy array.  These broadcast over it: :func:`derive_couplings`,
            :func:`reduced_detuning`, every function of the rate layer
            (:mod:`fanoqed.rates`) and :func:`fanoqed.dynamics.adiabatic_polarization`.
            Every other function of the dynamics and spectra layers needs a
            scalar omega_c and raises ValueError saying so.
        g_abs: magnitude of the emitter-cavity coupling, >= 0.
        phi: phase of the coupling g = g_abs * exp(i*phi).
        gamma: radiative decay rate of the emitter, > 0.
        kappa: cavity decay rate, > 0.
        gamma_ph: pure dephasing rate of the emitter, >= 0.
        eta: overlap of the emitter and cavity far-field radiation patterns,
            0 (orthogonal) to 1 (identical).
        theta21: phase of the emitter-environment coupling.
        theta_c: phase of the cavity-environment coupling (unknown in
            general; 0 by default).
    """

    omega21: float = 0.0
    omega_c: float | np.ndarray = 0.0
    g_abs: float = 100.0
    phi: float = math.pi / 2
    gamma: float = 0.05
    kappa: float = 50.0
    gamma_ph: float = 0.0
    eta: float = 1.0
    theta21: float = math.pi / 2
    theta_c: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.gamma_ph < 0.0:
            raise ValueError(f"gamma_ph must be >= 0, got {self.gamma_ph}")
        if self.g_abs < 0.0:
            raise ValueError(f"g_abs must be >= 0, got {self.g_abs}")
        for name in ("omega21", "g_abs", "phi", "gamma", "kappa",
                     "gamma_ph", "eta", "theta21", "theta_c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not np.isfinite(self.omega_c).all():
            raise ValueError(f"omega_c must be finite, got {self.omega_c}")

    @property
    def g(self) -> complex:
        """Complex coupling constant g = |g| exp(i*phi)."""
        return self.g_abs * cmath.exp(1j * self.phi)

    def with_reduced_detuning(self, eps) -> "SystemParams":
        """Copy with omega_c placed so that 2*(omega21 - omega_c)/kappa = eps."""
        return replace(self, omega_c=self.omega21 - eps * self.kappa / 2.0)

    def with_detuning(self, omega21_minus_omega_c) -> "SystemParams":
        """Copy with omega21 - omega_c set to the given value(s) (ueV)."""
        return replace(self, omega_c=self.omega21 - omega21_minus_omega_c)


@dataclass(frozen=True)
class DerivedCouplings:
    """Quantities derived once from :class:`SystemParams`.

    gamma_f is the complex cross-decay rate feeding the interference between
    the direct (emitter) and indirect (cavity) emission channels; g_plus and
    g_minus are the two effective couplings entering the equations of motion;
    q is the (generally complex) asymmetry parameter of the rate profile.
    eps and detuning have the shape of omega_c; the rest are scalars.
    """

    gamma_f: complex
    g_plus: complex
    g_minus: complex
    gamma_tot: float
    q: complex
    eps: float | np.ndarray
    detuning: float | np.ndarray


def derive_couplings(p: SystemParams) -> DerivedCouplings:
    """Compute all derived couplings for a parameter set.

    gamma_f = exp(i(theta21 - theta_c)) sqrt(eta*gamma*kappa),
    g_pm    = g +- i gamma_f / 2,
    Gamma   = (gamma + kappa)/2 + gamma_ph,
    q       = (2|g| / sqrt(gamma*kappa)) exp(i(phi + theta_c - theta21)).
    """
    gamma_f = cmath.exp(1j * (p.theta21 - p.theta_c)) * math.sqrt(
        p.eta * p.gamma * p.kappa)
    g = p.g
    g_plus = g + 0.5j * gamma_f
    g_minus = g - 0.5j * gamma_f
    gamma_tot = 0.5 * (p.gamma + p.kappa) + p.gamma_ph
    q = (2.0 * p.g_abs / math.sqrt(p.gamma * p.kappa)) * cmath.exp(
        1j * (p.phi + p.theta_c - p.theta21))
    return DerivedCouplings(
        gamma_f=gamma_f,
        g_plus=g_plus,
        g_minus=g_minus,
        gamma_tot=gamma_tot,
        q=q,
        eps=reduced_detuning(p),
        detuning=p.omega_c - p.omega21,
    )


def _require_scalar_omega_c(p: SystemParams, name: str) -> None:
    """Raise ValueError naming the caller, which does not broadcast over omega_c."""
    if np.ndim(p.omega_c):
        raise ValueError(f"{name} needs a scalar omega_c")


def reduced_detuning(p: SystemParams) -> float | np.ndarray:
    """Detuning in units of the cavity half-width: 2*(omega21 - omega_c)/kappa."""
    return 2.0 * (p.omega21 - p.omega_c) / p.kappa


def collective_decay_matrix(gamma: float, kappa: float, eta: float,
                            theta21: float = math.pi / 2,
                            theta_c: float = 0.0) -> np.ndarray:
    """2x2 decay matrix [[gamma, gamma_f*], [gamma_f, kappa]] over (sigma-, a).

    The weights G_jk of the master equation's dissipators
    (:func:`fanoqed.dynamics.liouvillian_matrix`) and of the quadrature
    oracle's correlator kernels; its gamma_f is derived here, apart from
    :func:`derive_couplings`, so that those two routes check the closed forms
    and the equations of motion against a second derivation.  Takes raw
    floats on purpose: diagnostic code needs to probe invalid overlaps (eta
    outside [0, 1]) that SystemParams would reject.
    """
    gamma_f = cmath.exp(1j * (theta21 - theta_c)) * cmath.sqrt(
        complex(eta * gamma * kappa))
    return np.array([[gamma, np.conj(gamma_f)], [gamma_f, kappa]])


def collective_decay_min_eigenvalue(gamma: float, kappa: float, eta: float,
                                    theta21: float = math.pi / 2,
                                    theta_c: float = 0.0) -> float:
    """Smallest eigenvalue of the collective decay matrix.

    Non-negative (up to rounding) exactly when the pair of decay channels
    defines a completely positive evolution; eta > 1 drives it negative.
    """
    return float(np.linalg.eigvalsh(
        collective_decay_matrix(gamma, kappa, eta, theta21, theta_c))[0])
