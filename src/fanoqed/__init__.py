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
The package exports each layer's ``__all__``.
"""

from . import dynamics, params, rates, spectra
from .params import *
from .rates import *
from .dynamics import *
from .spectra import *

__version__ = "0.1.0"

__all__ = params.__all__ + rates.__all__ + dynamics.__all__ + spectra.__all__ + ["__version__"]
