"""Interference-resolved rates, dynamics and emission spectra of an
emitter-cavity system whose two decay channels share the same radiative
environment.

The package is organized around four layers:

* :mod:`fanoqed.params` -- physical inputs and derived couplings.
* :mod:`fanoqed.rates` -- coarse-grained rate coefficients and the
  generalized transition rate with its weak-coupling and reference limits.
* :mod:`fanoqed.dynamics` -- time evolution by two routes, the
  three-variable equations of motion and the full master equation, which
  share one matrix-exponential propagator on permuted generators.
* :mod:`fanoqed.spectra` -- filtered emission spectra, photon-number sum
  rule, and a quadrature oracle for the closed forms.

Energies and rates are in ueV with hbar = 1; time is in units of 1/ueV.
"""

from .params import (
    HBAR_UEV_PS,
    SystemParams,
    DerivedCouplings,
    derive_couplings,
    reduced_detuning,
    collective_decay_matrix,
    collective_decay_min_eigenvalue,
)
from .rates import (
    CoarseRateSystem,
    RateSweepTable,
    RegimeWarning,
    rate_coefficients,
    transition_rate,
    transition_rate_weak,
    purcell_rate,
    fano_formula,
    rate_sweep,
)
from .dynamics import (
    Trajectory,
    IntegrationError,
    PositivityError,
    TooFewExtremaError,
    EnvelopeFitError,
    hamiltonian_matrix,
    triple_generator_matrix,
    liouvillian_matrix,
    evolve_triple,
    evolve_lindblad,
    coarse_grained_solution,
    adiabatic_polarization,
    envelope_decay_rate,
)
from .spectra import (
    SpectralPoles,
    IntegratedMoments,
    SpectrumComponents,
    DivergentMomentsError,
    QuadratureConvergenceError,
    spectral_poles,
    regression_matrix,
    integrated_moments,
    spectrum_component,
    component_integral,
    default_frequency_grid,
    total_spectrum,
    spectrum_quadrature_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_UEV_PS",
    "SystemParams", "DerivedCouplings", "derive_couplings", "reduced_detuning",
    "collective_decay_matrix", "collective_decay_min_eigenvalue",
    "CoarseRateSystem", "RateSweepTable", "RegimeWarning",
    "rate_coefficients", "transition_rate", "transition_rate_weak",
    "purcell_rate", "fano_formula", "rate_sweep",
    "Trajectory", "IntegrationError", "PositivityError",
    "TooFewExtremaError", "EnvelopeFitError",
    "hamiltonian_matrix", "triple_generator_matrix", "liouvillian_matrix",
    "evolve_triple", "evolve_lindblad", "coarse_grained_solution",
    "adiabatic_polarization", "envelope_decay_rate",
    "SpectralPoles", "IntegratedMoments", "SpectrumComponents",
    "DivergentMomentsError", "QuadratureConvergenceError",
    "spectral_poles", "regression_matrix", "integrated_moments",
    "spectrum_component", "component_integral", "default_frequency_grid",
    "total_spectrum", "spectrum_quadrature_oracle",
    "__version__",
]
