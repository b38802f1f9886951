import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fanoqed import (SystemParams, derive_couplings, rate_coefficients,
                     spectral_poles, regression_matrix, integrated_moments,
                     spectrum_component, component_integral, total_spectrum,
                     default_frequency_grid, spectrum_quadrature_oracle,
                     DivergentMomentsError, QuadratureConvergenceError)
from fanoqed.spectra import _f_coefficients
from conftest import random_valid_params

DS = 20.0


def detuned(gamma_ph=0.0, sign=-1):
    """Baseline parameters at omega21 - omega_c = sign * 3.16 meV."""
    return SystemParams(gamma_ph=gamma_ph).with_detuning(sign * 3160.0)


def test_poles_decoupled_limit():
    p = SystemParams(g_abs=0.0, eta=0.0, gamma_ph=0.0, omega_c=500.0)
    poles = spectral_poles(p)
    got = sorted([poles.gamma_p, poles.gamma_m], key=lambda z: z.real)
    # bare emitter and bare cavity poles
    expect = sorted([-0.5 * p.gamma - 1j * p.omega21, -0.5 * p.kappa - 1j * p.omega_c],
                    key=lambda z: z.real)
    for a, b in zip(got, expect):
        assert abs(a - b) < 1e-10 * max(abs(b), 1.0)
    assert poles.gamma_p.real >= poles.gamma_m.real  # principal branch


def test_poles_vacuum_rabi_splitting_asymptote():
    for g_abs in (500.0, 2000.0):
        p = SystemParams(g_abs=g_abs, eta=0.0).with_reduced_detuning(0.0)
        poles = spectral_poles(p)
        split = abs(poles.gamma_p.imag - poles.gamma_m.imag)
        assert abs(split - 2.0 * g_abs) <= 0.05 * 2.0 * g_abs


def test_poles_match_regression_eigenvalues(rng):
    for _ in range(200):
        p = random_valid_params(rng)
        poles = spectral_poles(p)
        ev = sorted(np.linalg.eigvals(regression_matrix(p)),
                    key=lambda z: (z.real, z.imag))
        got = sorted([poles.gamma_p, poles.gamma_m], key=lambda z: (z.real, z.imag))
        for a, b in zip(got, ev):
            assert abs(a - b) <= 1e-10 * abs(b)
        assert poles.gamma_p.real < 0.0 and poles.gamma_m.real < 0.0


def test_pole_sum_and_product_identities(rng):
    for _ in range(100):
        p = random_valid_params(rng)
        dc = derive_couplings(p)
        poles = spectral_poles(p)
        s = poles.gamma_p + poles.gamma_m
        s_ref = -(dc.gamma_tot + 1j * (p.omega21 + p.omega_c))
        assert abs(s - s_ref) <= 1e-10 * abs(s_ref)
        prod_ref = np.linalg.det(regression_matrix(p))
        assert abs(poles.gamma_p * poles.gamma_m - prod_ref) <= 1e-10 * abs(prod_ref)


def test_regression_matrix_decoupled_entries():
    p = SystemParams(g_abs=0.0, eta=0.0, gamma_ph=3.0, omega_c=700.0)
    m = regression_matrix(p)
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert abs(m[0, 0] - (-1j * p.omega21 - 0.5 * p.gamma - p.gamma_ph)) < 1e-14
    assert abs(m[1, 1] - (-1j * p.omega_c - 0.5 * p.kappa)) < 1e-14


def test_regression_trace_is_pole_sum(rng):
    for _ in range(50):
        p = random_valid_params(rng)
        poles = spectral_poles(p)
        tr = np.trace(regression_matrix(p))
        assert abs(tr - (poles.gamma_p + poles.gamma_m)) < 1e-12 * abs(tr)


def test_bare_decay_moments():
    p = SystemParams(g_abs=0.0, eta=0.0)
    m = integrated_moments(p)
    assert abs(m.i_e - 1.0 / p.gamma) < 1e-12 / p.gamma
    assert m.i_c == 0.0 and m.i_p == 0.0


def test_photon_sum_rule_randomized(rng):
    checked = 0
    while checked < 300:
        p = random_valid_params(rng)
        cs = rate_coefficients(derive_couplings(p), p)
        if cs.lambda_plus >= -1e-6 * p.kappa:
            continue  # too close to the antiresonance; moments ill-conditioned
        checked += 1
        assert abs(integrated_moments(p).sum_rule(p) - 1.0) <= 1e-9


def test_moments_against_trajectory_quadrature(baseline_params):
    m = integrated_moments(baseline_params)
    m_ode = integrated_moments(baseline_params, source="ode")
    assert abs(m.i_e - m_ode.i_e) <= 1e-3 * m.i_e
    assert abs(m.i_c - m_ode.i_c) <= 1e-3 * m.i_c
    assert abs(m.i_p - m_ode.i_p) <= 1e-3 * abs(m.i_p)
    assert abs(m_ode.sum_rule(baseline_params) - 1.0) < 1e-4


def test_moments_diverge_at_exact_antiresonance():
    p = SystemParams(g_abs=0.0, eta=1.0, gamma_ph=0.0).with_reduced_detuning(0.0)
    with pytest.raises(DivergentMomentsError):
        integrated_moments(p)
    with pytest.raises(ValueError):
        integrated_moments(SystemParams(), source="simpson")


def test_interference_component_vanishes_at_zero_overlap():
    p = SystemParams(eta=0.0).with_reduced_detuning(-20.0)
    nu = np.linspace(-500.0, 1500.0, 301)
    vals = spectrum_component(p, nu, DS, "F")
    assert np.abs(vals).max() == 0.0
    with pytest.raises(ValueError):
        spectrum_component(p, 0.0, DS, "x")
    with pytest.raises(ValueError):
        spectrum_component(p, 0.0, -1.0, "21")


def test_component_integrals_match_numeric_quadrature():
    # the pole-residue value of each frequency integral against scipy quad
    for p in (detuned(gamma_ph=30.0), SystemParams(gamma_ph=5.0)):
        m = integrated_moments(p)
        peaks = sorted([0.0, p.omega_c - p.omega21])
        lo, hi = peaks[0] - 2000.0, peaks[1] + 2000.0
        for which in ("21", "c", "F"):
            ref = component_integral(p, which, m)
            f = lambda nu: spectrum_component(p, float(nu), DS, which, m)
            mid, _ = quad(f, lo, hi, points=peaks, limit=400)
            left, _ = quad(f, -np.inf, lo)
            right, _ = quad(f, hi, np.inf)
            total = left + mid + right
            assert abs(total - ref) <= 1e-3 * max(abs(ref), 1e-3)


def test_component_sum_equals_photon_number(rng):
    for _ in range(30):
        p = random_valid_params(rng)
        cs = rate_coefficients(derive_couplings(p), p)
        if cs.lambda_plus >= -1e-6 * p.kappa:
            continue
        total = sum(component_integral(p, w) for w in ("21", "c", "F"))
        assert abs(total - 1.0) <= 1e-9


def test_strong_reduction_at_emitter_line_under_dephasing():
    # dephasing opens the cavity channel while the interference still cancels
    # the emitter line: destructive S_F and a dominant cavity peak
    p = detuned(gamma_ph=30.0)
    m = integrated_moments(p)
    s_f = spectrum_component(p, 0.0, DS, "F", m)
    assert s_f < 0.0
    s_tot_21 = sum(spectrum_component(p, 0.0, DS, w, m) for w in ("21", "c", "F"))
    s_tot_c = sum(spectrum_component(p, p.omega_c - p.omega21, DS, w, m)
                  for w in ("21", "c", "F"))
    assert s_tot_21 < 0.1 * s_tot_c


def test_cancellation_survives_dephasing():
    for gph in (3.0, 30.0):
        p = detuned(gamma_ph=gph)
        m = integrated_moments(p)
        s21 = spectrum_component(p, 0.0, DS, "21", m)
        s_c = spectrum_component(p, 0.0, DS, "c", m)
        s_tot = s21 + s_c + spectrum_component(p, 0.0, DS, "F", m)
        assert s_tot / (s21 + s_c) <= 0.05


def test_total_spectrum_structure(baseline_params):
    comp = total_spectrum(baseline_params, ds=DS)
    assert np.abs(comp.s_total - (comp.s21 + comp.s_c + comp.s_f)).max() < 1e-15
    assert abs(comp.sum_rule - 1.0) < 1e-9
    assert comp.ds == DS
    # grid integral agrees with the sum rule up to truncated Lorentzian tails
    assert abs(np.trapezoid(comp.s_total, comp.nu) - comp.sum_rule) < 0.02


def test_total_spectrum_rejects_narrow_grid(baseline_params):
    with pytest.raises(ValueError):
        total_spectrum(baseline_params, np.linspace(-50.0, 50.0, 101), DS)


def test_default_grid_satisfies_margin(rng):
    for _ in range(20):
        p = random_valid_params(rng)
        cs = rate_coefficients(derive_couplings(p), p)
        if cs.lambda_plus >= -1e-6 * p.kappa:
            continue
        total_spectrum(p, default_frequency_grid(p, DS), DS)


def test_detuning_mirror_symmetry_without_dephasing():
    # without dephasing the total spectra at opposite detunings are near
    # mirror images about the emitter line
    pad = 1500.0
    nu = np.linspace(-3160.0 - pad, 3160.0 + pad, 3201)
    s_minus = total_spectrum(detuned(0.0, sign=-1), nu, DS).s_total
    s_plus = total_spectrum(detuned(0.0, sign=+1), nu, DS).s_total
    reflected = s_plus[::-1]
    peak_minus = nu[np.argmax(s_minus)]
    peak_refl = nu[np.argmax(reflected)]
    assert abs(peak_minus - peak_refl) <= DS
    # secondary structure near the cavity line mirrors as well
    window = np.abs(nu - 3160.0) < 500.0
    sec_minus = nu[window][np.argmax(s_minus[window])]
    sec_refl = nu[window][np.argmax(reflected[window])]
    assert abs(sec_minus - sec_refl) <= DS


def test_resonant_doublet_asymmetry():
    nu = np.linspace(-1100.0, 1100.0, 4001)
    heights = {}
    for eta in (0.0, 1.0):
        p = SystemParams(eta=eta).with_reduced_detuning(0.0)
        s = total_spectrum(p, nu, DS).s_total
        half = len(nu) // 2
        heights[eta] = (s[:half].max(), s[half:].max())
    lo, hi = heights[1.0]
    assert abs(lo / hi - 1.0) >= 0.05
    lo, hi = heights[0.0]
    assert abs(lo / hi - 1.0) <= 0.01


def test_components_real_from_alternative_evaluation_order():
    # rebuild each component from the resolvent of the regression matrix and
    # check the pole-expansion route leaks no imaginary residue
    for p in (detuned(30.0), SystemParams(gamma_ph=4.0).with_reduced_detuning(3.0)):
        m = integrated_moments(p)
        mat = regression_matrix(p)
        nu_rel = np.linspace(-800.0, 4000.0, 97)
        coef = _f_coefficients(p, m)
        dc = derive_couplings(p)
        gf = dc.gamma_f
        for i, nu in enumerate(nu_rel):
            k = np.linalg.inv((0.5 * DS - 1j * (nu + p.omega21)) * np.eye(2) - mat)
            v1 = k @ np.array([m.i_e, m.i_p])
            v2 = k @ np.array([np.conj(m.i_p), m.i_c])
            alt = {
                "21": (p.gamma / math.pi) * v1[0],
                "c": (p.kappa / math.pi) * v2[1],
                "F": (1.0 / math.pi) * (gf * v1[1] + np.conj(gf) * v2[0]),
            }
            for which in ("21", "c", "F"):
                direct = spectrum_component(p, float(nu), DS, which, m)
                scale = max(abs(alt[which]), 1e-6)
                assert abs(direct - alt[which].real) <= 1e-10 * scale


def test_confluent_pole_branch_continuous():
    # (kappa-gamma)/2 - gamma_ph = 2|g| with zero detuning makes the two
    # poles exactly degenerate (all quantities chosen exactly representable)
    p = SystemParams(g_abs=8.0, gamma=4.0, kappa=40.0, gamma_ph=2.0,
                     eta=0.0, omega_c=0.0)
    poles = spectral_poles(p)
    assert abs(poles.gamma_p - poles.gamma_m) < 1e-9 * abs(poles.gamma_p)
    nu = np.linspace(-300.0, 300.0, 41)
    m = integrated_moments(p)
    s_deg = sum(spectrum_component(p, nu, DS, w, m) for w in ("21", "c", "F"))
    p_off = dataclasses.replace(p, g_abs=8.0 * (1.0 + 1e-7))
    m_off = integrated_moments(p_off)
    s_off = sum(spectrum_component(p_off, nu, DS, w, m_off) for w in ("21", "c", "F"))
    assert np.abs(s_deg - s_off).max() < 1e-5 * np.abs(s_deg).max()
    assert abs(sum(component_integral(p, w, m) for w in ("21", "c", "F")) - 1.0) < 1e-9


def test_nonnegative_at_reference_parameter_sets():
    cases = [detuned(g, s) for g in (0.0, 3.0, 30.0) for s in (-1, +1)]
    cases += [SystemParams(gamma_ph=g).with_reduced_detuning(0.0) for g in (0.0, 30.0)]
    for p in cases:
        comp = total_spectrum(p, ds=DS)
        assert comp.s_total.min() >= -1e-6 * comp.s_total.max()


def test_oracle_bare_emitter_line():
    p = SystemParams(g_abs=0.0, eta=0.0)
    half_width = 0.5 * (p.gamma + DS)
    nu = np.unique(np.concatenate([
        np.linspace(-60.0 * half_width, 60.0 * half_width, 1601),
        np.linspace(-3.0 * half_width, 3.0 * half_width, 801)]))
    s = spectrum_quadrature_oracle(p, nu, DS)
    peak_nu = nu[np.argmax(s)]
    assert abs(peak_nu) <= 2.0 * (nu[1] - nu[0])
    # filtered line is a Lorentzian of half-width (gamma + ds)/2 and weight 1
    expect = (half_width / math.pi) / (nu ** 2 + half_width ** 2)
    assert np.abs(s - expect).max() <= 1e-3 * expect.max()
    weight = np.trapezoid(s, nu)
    tail = 2.0 * half_width / (math.pi * 60.0 * half_width)  # truncated tails
    assert abs(weight + tail - 1.0) <= 1e-3


def test_oracle_matches_closed_form_detuned():
    p = detuned(gamma_ph=30.0)
    nu = np.linspace(-1050.0, 4210.0, 106)
    closed = total_spectrum(p, nu, DS).s_total
    oracle = spectrum_quadrature_oracle(p, nu, DS)
    assert np.linalg.norm(oracle - closed) <= 1e-3 * np.linalg.norm(closed)


def test_oracle_pinned_values():
    # oracle output recorded on one uniform and one non-uniform grid: a
    # reordering of the tau sum may move it only by rounding, which the 1e-3
    # bound against the closed form would not catch
    cases = [
        (detuned(gamma_ph=30.0), np.linspace(-1050.0, 4210.0, 11), [
            6.290803707626204e-07, 8.203001480636119e-07, 5.243302003375694e-07,
            1.5991875391586235e-06, 2.504313198791224e-06, 4.447366721062198e-06,
            9.971220036502519e-06, 3.9377149601826125e-05, 0.008888315017950862,
            4.095376738692141e-05, 1.0172791089426336e-05]),
        (SystemParams(g_abs=0.0, eta=0.0),
         np.array([-300.0, -40.0, -12.0, 0.0, 7.5, 25.0, 180.0]), [
            3.5416635721855326e-05, 0.0018765395096473321, 0.013051322911720566,
            0.031751609594393264, 0.0203575367498057, 0.004398420206726196,
            9.818484477552454e-05]),
    ]
    for p, nu, pinned in cases:
        got = spectrum_quadrature_oracle(p, nu, DS)
        assert np.abs(got - pinned).max() <= 1e-11 * np.abs(pinned).max()


def test_oracle_integrated_weight_is_one():
    p = SystemParams(gamma_ph=30.0).with_reduced_detuning(0.0)
    nu = np.linspace(-4000.0, 4000.0, 2001)
    s = spectrum_quadrature_oracle(p, nu, DS)
    # allow for tails truncated at the grid edge
    assert abs(np.trapezoid(s, nu) - 1.0) <= 5e-3


def test_oracle_reports_non_convergence():
    p = SystemParams(g_abs=0.0, eta=0.0)
    with pytest.raises(QuadratureConvergenceError) as err:
        spectrum_quadrature_oracle(p, np.linspace(-200.0, 200.0, 11), DS,
                                   rel_tol=0.0)
    assert "relative change" in str(err.value)
    assert err.value.rel_tol == 0.0
    assert err.value.achieved > err.value.rel_tol


def test_oracle_scalar_input():
    p = SystemParams(gamma_ph=30.0).with_reduced_detuning(0.0)
    val = spectrum_quadrature_oracle(p, 0.0, DS)
    ref = sum(spectrum_component(p, 0.0, DS, w) for w in ("21", "c", "F"))
    assert isinstance(val, float)
    assert abs(val - ref) < 1e-3 * abs(ref)
