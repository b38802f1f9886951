"""Transition-rate profiles: from a symmetric resonance to an asymmetric one.

An initially excited emitter decays into the same photon continuum through
two channels: directly, and indirectly via a lossy cavity.  When the two
radiation patterns overlap (eta > 0) the channels interfere and the decay
rate W(eps) develops the characteristic asymmetric profile, including a deep
minimum on one side of the cavity resonance.
"""

import numpy as np

from fanoqed import SystemParams, derive_couplings, rate_sweep

# Baseline: kappa = 50 ueV, gamma = 0.05 ueV, strong coupling |g| = 100 ueV.
base = SystemParams()
print(f"baseline: |g| = {base.g_abs} ueV, gamma = {base.gamma} ueV, "
      f"kappa = {base.kappa} ueV")
print(f"asymmetry parameter q = {derive_couplings(base).q:.4g}\n")

# Sweep the reduced detuning eps = 2*(omega21 - omega_c)/kappa for three
# degrees of radiation-pattern overlap.
grid = (-300.0, 300.0)
tables = {eta: rate_sweep(SystemParams(eta=eta), grid, 1201)
          for eta in (0.0, 0.5, 1.0)}

print("W(eps) / gamma at selected detunings:")
print(f"{'eps':>8} " + " ".join(f"eta={eta:<6}" for eta in tables))
for eps_probe in (-200.0, -126.4, -50.0, 0.0, 50.0, 126.4, 200.0):
    row = [f"{eps_probe:8.1f}"]
    for eta, tab in tables.items():
        k = np.argmin(np.abs(tab.eps - eps_probe))
        row.append(f"{tab.w_full[k] / 0.05:9.3g}")
    print(" ".join(row))

# eta = 0: the profile is symmetric (plain cavity-enhanced decay).
t0 = tables[0.0]
print("\nsymmetry at eta = 0: max |W(eps) - W(-eps)| =",
      f"{np.abs(t0.w_full - t0.w_full[::-1]).max():.2e}")

# eta = 1: the minimum moves to eps ~ -q and gets extremely deep.
t1 = tables[1.0]
k = np.argmin(t1.w_full)
print(f"minimum at eta = 1: W = {t1.w_full[k]:.3e} ueV at eps = {t1.eps[k]:.1f} "
      f"(-q = {-abs(derive_couplings(base).q):.1f})")

# In the weak-coupling limit the rate follows gamma*|q+eps|^2/(1+eps^2).
weak = SystemParams(g_abs=2.37)
qw = derive_couplings(weak).q
tw = rate_sweep(weak, (-10.0, 10.0), 401)
print(f"\nweak coupling |g| = 2.37 ueV (q = {qw.real:.3f}):")
print(f"  sup-norm deviation of W from the reference profile: "
      f"{np.abs(tw.w_full - tw.w_fano).max() / tw.w_fano.max():.2%} of the peak")
