import dataclasses
import math

import numpy as np
import pytest

from fanoqed import (SystemParams, derive_couplings, rate_coefficients,
                     transition_rate, transition_rate_weak, purcell_rate,
                     fano_formula, rate_sweep, RegimeWarning)
from conftest import random_valid_params


def test_coefficients_collapse_at_zero_overlap_on_resonance():
    p = SystemParams(eta=0.0, g_abs=7.0).with_reduced_detuning(0.0)
    cs = rate_coefficients(derive_couplings(p), p)
    expected = 2.0 * 7.0 ** 2 / derive_couplings(p).gamma_tot
    for r in (cs.r_pp, cs.r_pm, cs.r_mp, cs.r_mm):
        assert abs(r - expected) < 1e-12 * expected


def test_population_trapping_coefficients():
    # brute-force oracle: with g=0, eta=1, no dephasing, on resonance the
    # rate matrix is singular, so the slow eigenvalue is exactly zero
    gamma, kappa = 0.05, 50.0
    p = SystemParams(g_abs=0.0, eta=1.0, gamma=gamma, kappa=kappa)
    cs = rate_coefficients(derive_couplings(p), p)
    ref = gamma * kappa / (gamma + kappa)
    assert abs(cs.r_pm - (-ref)) < 1e-12 * ref
    assert abs(cs.r_mp - (-ref)) < 1e-12 * ref
    assert abs(cs.r_pp - ref) < 1e-12 * ref
    assert abs(cs.r_mm - ref) < 1e-12 * ref
    ev = np.linalg.eigvals(cs.coefficient_matrix(p)).real
    assert abs(max(ev)) < 1e-12 * kappa
    assert abs(cs.lambda_plus) < 1e-12 * kappa


def test_eigenvalues_match_independent_solver(rng):
    for _ in range(300):
        p = random_valid_params(rng)
        cs = rate_coefficients(derive_couplings(p), p)
        ev = np.sort(np.linalg.eigvals(cs.coefficient_matrix(p)).real)
        scale = max(abs(cs.lambda_plus), abs(cs.lambda_minus))
        assert abs(ev[1] - cs.lambda_plus) <= 1e-10 * scale
        assert abs(ev[0] - cs.lambda_minus) <= 1e-10 * scale


def test_vieta_identities(rng):
    for _ in range(300):
        p = random_valid_params(rng)
        cs = rate_coefficients(derive_couplings(p), p)
        s_ref = -(p.gamma + p.kappa + cs.r_pm + cs.r_mp)
        p_ref = (cs.r_pm + p.kappa) * (cs.r_mp + p.gamma) - cs.r_pp * cs.r_mm
        assert abs(cs.lambda_plus + cs.lambda_minus - s_ref) <= 1e-10 * abs(s_ref)
        assert abs(cs.lambda_plus * cs.lambda_minus - p_ref) <= 1e-10 * max(
            abs(p_ref), 1e-300)
        assert cs.lambda_plus >= cs.lambda_minus


def test_antiresonance_rate_is_zero():
    p = SystemParams(g_abs=0.0, eta=1.0, gamma_ph=0.0).with_reduced_detuning(0.0)
    assert abs(transition_rate(p)) <= 1e-12 * p.kappa


def test_full_rate_close_to_purcell_at_zero_overlap():
    base = SystemParams(g_abs=2.37, eta=0.0)
    for eps in (0.0, 0.7, -1.3, 5.0, -10.0):
        p = base.with_reduced_detuning(eps)
        w = transition_rate(p)
        ref = purcell_rate(p)
        assert abs(w - ref) <= 0.01 * ref


def test_far_detuned_rate_returns_to_bare_decay():
    base = SystemParams(g_abs=100.0, eta=1.0)
    for eps in (2e6, -2e6):
        w = transition_rate(base.with_reduced_detuning(eps))
        assert abs(w - base.gamma) <= 1e-3 * base.gamma


def test_weak_rate_equals_purcell_identically_at_zero_overlap(rng):
    for _ in range(50):
        p = dataclasses.replace(random_valid_params(rng), eta=0.0)
        wk = transition_rate_weak(p)
        assert abs(wk - purcell_rate(p)) <= 1e-12 * wk


def test_weak_rate_bare_limit():
    p = SystemParams(g_abs=0.0, eta=0.0)
    assert abs(transition_rate_weak(p) - p.gamma) < 1e-15


def test_reference_profile_values():
    assert abs(fano_formula(3.0, 0.0, 0.05) - 9 * 0.05) < 1e-15
    assert fano_formula(3.0, -3.0, 0.05) == 0.0
    # calculus oracle: the profile peaks at eps = 1/q with value (1+q^2)*gamma
    peak = fano_formula(3.0, 1.0 / 3.0, 0.05)
    assert abs(peak - 10 * 0.05) < 1e-14
    grid = np.linspace(-30, 30, 200001)
    numeric_max = max(fano_formula(3.0, float(e), 0.05) for e in grid)
    assert numeric_max <= peak + 1e-10
    with pytest.raises(ValueError):
        fano_formula(3.0, 0.0, 0.0)


def test_weak_coupling_recovers_reference_profile():
    """W = gamma + R_mp approaches gamma|q+eps|^2/(1+eps^2) for kappa >> gamma.

    Both formulas vanish near eps = -q, but at detunings offset by
    O(gamma*q/kappa), so pointwise ratios diverge in a neighborhood of the
    interference zero.  Asserted instead: 1% of the profile maximum uniformly
    over the window, and pointwise 1% outside |eps + q| >= max(2, q/2) (the
    parabola around the zero flattens as 1 + q^2, so the excluded
    neighborhood grows with q).
    """
    rng = np.random.default_rng(5)
    for _ in range(10):
        gamma = rng.uniform(0.01, 0.1)
        kappa = gamma * rng.uniform(1e3, 5e3)
        g_abs = rng.uniform(0.0, 5.0) * math.sqrt(gamma * kappa)
        base = SystemParams(g_abs=g_abs, gamma=gamma, kappa=kappa,
                            eta=1.0, gamma_ph=0.0)
        q = derive_couplings(base).q
        assert abs(q.imag) < 1e-12
        eps_grid = np.linspace(-10.0, 10.0, 201)
        w = np.array([transition_rate_weak(base.with_reduced_detuning(float(e)))
                      for e in eps_grid])
        ref = np.array([fano_formula(q, float(e), gamma) for e in eps_grid])
        assert np.abs(w - ref).max() <= 0.01 * ref.max()
        outside = np.abs(eps_grid + q.real) >= max(2.0, 0.5 * q.real)
        assert np.all(np.abs(w - ref)[outside] <= 0.01 * ref[outside])


def test_rate_profile_symmetric_at_zero_overlap(rng):
    for _ in range(30):
        p = dataclasses.replace(random_valid_params(rng), eta=0.0)
        for eps in (0.4, 2.0, 31.0, 144.0):
            wp = transition_rate(p.with_reduced_detuning(eps))
            wm = transition_rate(p.with_reduced_detuning(-eps))
            assert abs(wp - wm) <= 1e-10 * max(wp, wm)


def test_branch_ordering_and_continuity(rng):
    for _ in range(50):
        p = random_valid_params(rng)
        cs = rate_coefficients(derive_couplings(p), p)
        assert -cs.lambda_plus <= -cs.lambda_minus
    # refinement check: W(eps) has no jumps on the kappa > gamma domain
    p = SystemParams(g_abs=35.0, eta=0.8, gamma_ph=5.0)
    eps = np.linspace(-20.0, 20.0, 2001)
    w = np.array([transition_rate(p.with_reduced_detuning(float(e))) for e in eps])
    assert np.all(np.isfinite(w))
    mids = 0.5 * (eps[:-1] + eps[1:])
    wm = np.array([transition_rate(p.with_reduced_detuning(float(e))) for e in mids])
    interp = 0.5 * (w[:-1] + w[1:])
    assert np.abs(wm - interp).max() < 1e-3 * w.max()


def test_slow_branch_warning_below_kappa_gamma():
    p = SystemParams(gamma=5.0, kappa=1.0, g_abs=0.3, eta=0.5)
    with pytest.warns(RegimeWarning):
        w = transition_rate(p)
    cs = rate_coefficients(derive_couplings(p), p)
    assert w == -cs.lambda_minus


def test_rate_sweep_warns_below_kappa_gamma():
    p = SystemParams(gamma=5.0, kappa=1.0, g_abs=0.3, eta=0.5)
    with pytest.warns(RegimeWarning) as record:
        table = rate_sweep(p, (-10.0, 10.0), 5)
    assert len(record) == 1
    with pytest.warns(RegimeWarning):
        expect = [transition_rate(p.with_reduced_detuning(float(e))) for e in table.eps]
    assert table.w_full.tolist() == expect


def test_rate_sweep_symmetry_and_asymmetry():
    table0 = rate_sweep(SystemParams(eta=0.0), (-200.0, 200.0), 401)
    assert np.allclose(table0.w_full, table0.w_full[::-1], rtol=1e-10)
    table1 = rate_sweep(SystemParams(eta=1.0), (-200.0, 200.0), 401)
    assert table1.eps[np.argmin(table1.w_full)] < 0.0


def test_rate_sweep_degenerate_interval():
    table = rate_sweep(SystemParams(), (0.0, 0.0), 2)
    assert table.eps[0] == table.eps[1]
    assert table.w_full[0] == table.w_full[1]
    with pytest.raises(ValueError):
        rate_sweep(SystemParams(), (0.0, 1.0), 1)


def test_rate_sweep_rows_match_single_point_operations():
    p = SystemParams(eta=0.7, gamma_ph=11.0)
    table = rate_sweep(p, (-40.0, 40.0), 9)
    for i, eps in enumerate(table.eps):
        pi = p.with_reduced_detuning(float(eps))
        dc = derive_couplings(pi)
        assert table.w_full[i] == transition_rate(pi)
        assert table.w_weak[i] == transition_rate_weak(pi)
        assert table.w_fano[i] == fano_formula(dc.q, dc.eps, pi.gamma)
