import math

import numpy as np
import pytest

from fanoqed import (SystemParams, derive_couplings, reduced_detuning,
                     collective_decay_matrix, collective_decay_min_eigenvalue)
from conftest import random_valid_params


def test_cross_rate_direct_arithmetic():
    # oracle: gamma_f = exp(i(theta21 - theta_c)) sqrt(eta*gamma*kappa) by hand
    p = SystemParams(gamma=0.05, kappa=50.0, eta=1.0)
    dc = derive_couplings(p)
    expected = 1j * math.sqrt(0.05 * 50.0)
    assert abs(dc.gamma_f - expected) < 1e-14
    assert abs(dc.gamma_f.imag - 1.58114) < 1e-5
    assert abs(dc.gamma_f.real) < 1e-14


def test_zero_overlap_collapses_couplings():
    p = SystemParams(eta=0.0)
    dc = derive_couplings(p)
    assert dc.gamma_f == 0.0
    assert dc.g_plus == p.g
    assert dc.g_minus == p.g


def test_asymmetry_parameter_magnitude_three():
    p = SystemParams(g_abs=2.37, gamma=0.05, kappa=50.0)
    q = derive_couplings(p).q
    assert abs(abs(q) - 3.00) < 0.01 * 3.00
    assert abs(q.imag) < 1e-12 and q.real > 0.0


def test_total_width_arithmetic():
    dc = derive_couplings(SystemParams(gamma=0.05, kappa=50.0, gamma_ph=0.0))
    assert abs(dc.gamma_tot - 25.025) < 1e-12


def test_reduced_detuning_examples():
    assert reduced_detuning(SystemParams(omega21=0.0, omega_c=0.0)) == 0.0
    p = SystemParams(omega21=0.0, omega_c=3160.0, kappa=50.0)
    assert abs(reduced_detuning(p) - (-126.4)) < 1e-12
    p = SystemParams(omega21=25.0, omega_c=0.0, kappa=50.0)
    assert abs(reduced_detuning(p) - 1.0) < 1e-12


def test_with_reduced_detuning_round_trip(rng):
    for _ in range(20):
        eps = rng.uniform(-300.0, 300.0)
        p = random_valid_params(rng).with_reduced_detuning(eps)
        assert abs(reduced_detuning(p) - eps) < 1e-9 * max(1.0, abs(eps))


def test_cross_rate_magnitude_identity(rng):
    for _ in range(100):
        p = random_valid_params(rng)
        dc = derive_couplings(p)
        lhs = abs(dc.gamma_f) ** 2
        rhs = p.eta * p.gamma * p.kappa
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-30)


def test_coupling_split_identity(rng):
    for _ in range(100):
        p = random_valid_params(rng)
        dc = derive_couplings(p)
        scale = abs(dc.g_plus) + abs(dc.g_minus) + abs(dc.gamma_f) + 1.0
        assert abs((dc.g_plus - dc.g_minus) - 1j * dc.gamma_f) < 8e-16 * scale


def test_cross_rate_monotone_in_overlap():
    etas = np.linspace(0.0, 1.0, 21)
    mags = [abs(derive_couplings(SystemParams(eta=e)).gamma_f) for e in etas]
    assert np.all(np.diff(mags) >= 0.0)
    assert abs(mags[-1] - math.sqrt(0.05 * 50.0)) < 1e-12


def test_cross_rate_phase_identity(rng):
    for _ in range(50):
        p = random_valid_params(rng)
        if p.eta == 0.0:
            continue
        th21 = rng.uniform(-math.pi, math.pi)
        thc = rng.uniform(-math.pi, math.pi)
        import dataclasses
        p = dataclasses.replace(p, theta21=th21, theta_c=thc)
        phase = np.angle(derive_couplings(p).gamma_f)
        diff = (phase - (th21 - thc) + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-12


def test_q_scaling():
    base = SystemParams(g_abs=3.0, gamma=0.2, kappa=20.0)
    q1 = derive_couplings(base).q
    import dataclasses
    q2 = derive_couplings(dataclasses.replace(base, g_abs=6.0)).q
    assert abs(q2 - 2.0 * q1) < 1e-12 * abs(q1)
    # simultaneous scaling of gamma, kappa, |g| leaves q unchanged
    s = 7.3
    q3 = derive_couplings(dataclasses.replace(
        base, g_abs=s * 3.0, gamma=s * 0.2, kappa=s * 20.0)).q
    assert abs(q3 - q1) < 1e-12 * abs(q1)


def test_collective_decay_matrix_psd(rng):
    for _ in range(200):
        p = random_valid_params(rng)
        lam = collective_decay_min_eigenvalue(p.gamma, p.kappa, p.eta,
                                              p.theta21, p.theta_c)
        assert lam >= -1e-12 * p.kappa


def test_collective_decay_matrix_structure():
    m = collective_decay_matrix(0.05, 50.0, 1.0)
    assert m[0, 0] == 0.05 and m[1, 1] == 50.0
    assert abs(m[1, 0] - np.conj(m[0, 1])) < 1e-15
    # excessive overlap makes the channel pair unphysical
    assert collective_decay_min_eigenvalue(0.05, 50.0, 1.5) < 0.0


def test_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        SystemParams(eta=1.2)
    with pytest.raises(ValueError):
        SystemParams(eta=-0.1)
    with pytest.raises(ValueError):
        SystemParams(gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=-3.0)
    with pytest.raises(ValueError):
        SystemParams(gamma_ph=-1.0)
    with pytest.raises(ValueError):
        SystemParams(g_abs=-5.0)
    with pytest.raises(ValueError):
        SystemParams(omega_c=float("nan"))
    with pytest.raises(ValueError):
        SystemParams(omega_c=np.array([0.0, np.nan]))


def test_detuning_orientation():
    p = SystemParams(omega21=10.0, omega_c=250.0)
    assert derive_couplings(p).detuning == 240.0
    assert p.with_detuning(-3160.0).omega_c - p.omega21 == 3160.0
