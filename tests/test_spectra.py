import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from fanoqed import (SystemParams, derive_couplings, rate_coefficients,
                     spectral_poles, regression_matrix, integrated_moments,
                     spectrum_component, component_integral, total_spectrum,
                     default_frequency_grid, spectrum_quadrature_oracle,
                     IntegratedMoments, DivergentMomentsError,
                     QuadratureConvergenceError)
from fanoqed import spectra
from fanoqed.dynamics import triple_generator_matrix, _expm_stack
from fanoqed.params import collective_decay_matrix
from fanoqed.spectra import _f_coefficients, _oracle_total, _pi_c_total
from conftest import random_valid_params

DS = 20.0


def detuned(gamma_ph=0.0, sign=-1):
    """Baseline parameters at omega21 - omega_c = sign * 3.16 meV."""
    return SystemParams(gamma_ph=gamma_ph).with_detuning(sign * 3160.0)


def test_scalar_only_functions_reject_array_detuning():
    # the spectra layer does not broadcast over omega_c either: each function
    # names itself in a ValueError instead of numpy's ambiguous-truth-value
    # error or a TypeError from complex()
    nu = np.array([-1000.0, 0.0, 1000.0])
    table = {
        "spectral_poles": spectral_poles,
        "regression_matrix": regression_matrix,
        "integrated_moments": integrated_moments,
        "total_spectrum": lambda p: total_spectrum(p, ds=DS),
        "default_frequency_grid": lambda p: default_frequency_grid(p, DS),
        "spectrum_component": lambda p: spectrum_component(p, nu, DS, "21"),
        "component_integral": lambda p: component_integral(p, "F"),
        "spectrum_quadrature_oracle": lambda p: spectrum_quadrature_oracle(p, nu, DS),
    }
    scalar = SystemParams().with_detuning(-100.0)
    array = SystemParams().with_detuning(np.array([-100.0, 0.0, 100.0]))
    for name, call in table.items():
        call(scalar)
        with pytest.raises(ValueError, match=f"^{name} needs a scalar omega_c$"):
            call(array)


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
        cs = rate_coefficients(p)
        if cs.lambda_plus >= -1e-6 * p.kappa:
            continue  # too close to the antiresonance; moments ill-conditioned
        checked += 1
        assert abs(integrated_moments(p).sum_rule(p) - 1.0) <= 1e-9


def test_moments_resolvent_solve_matches_closed_form(baseline_params):
    # A I = -y0 on the full equations of motion against the coarse closed
    # forms: both are exact 0 -> infinity integrals (measured 2.7e-15 apart)
    m = integrated_moments(baseline_params)
    m_ode = integrated_moments(baseline_params, source="ode")
    assert abs(m.i_e - m_ode.i_e) <= 1e-13 * m.i_e
    assert abs(m.i_c - m_ode.i_c) <= 1e-13 * m.i_c
    assert abs(m.i_p - m_ode.i_p) <= 1e-13 * abs(m.i_p)
    assert abs(m_ode.sum_rule(baseline_params) - 1.0) <= 1e-13


def test_moments_resolvent_solve_against_mpmath():
    # the refined float solve against a 50-digit solve of the same float
    # generator on the twelve criterion-5 sets, the antiresonance set
    # (eta=1, gamma_ph=0, eps=-126.4, condition number 8e11) included
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for eta in (0.0, 1.0):
            for gph in (0.0, 30.0):
                for eps in (0.0, 126.4, -126.4):
                    p = SystemParams(eta=eta, gamma_ph=gph).with_reduced_detuning(eps)
                    m = integrated_moments(p, source="ode")
                    a = mpmath.matrix(triple_generator_matrix(p).tolist())
                    ref = mpmath.lu_solve(a, mpmath.matrix([0, -1, 0, 0]))
                    i_p = mpmath.mpc(ref[2], ref[3])
                    assert abs(m.i_c - ref[0]) <= 1e-13 * abs(ref[0])
                    assert abs(m.i_e - ref[1]) <= 1e-13 * abs(ref[1])
                    assert abs(m.i_p - i_p) <= 1e-13 * abs(i_p)


def test_moments_diverge_at_exact_antiresonance():
    p = SystemParams(g_abs=0.0, eta=1.0, gamma_ph=0.0).with_reduced_detuning(0.0)
    with pytest.raises(DivergentMomentsError):
        integrated_moments(p)
    with pytest.raises(ValueError):
        integrated_moments(SystemParams(), source="simpson")
    # an unknown source is refused before the rate work, which raises
    # DivergentMomentsError this close to the default rate zero
    with pytest.raises(ValueError, match="unknown moment source"):
        integrated_moments(SystemParams().with_detuning(-3159.0154), source="bogus")


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
        cs = rate_coefficients(p)
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


def test_summed_numerator_identity(rng):
    # pi c_tot reduced by A I = -y0 against pi times the sum of the three
    # components' c, with complex q (random phases), omega21 != 0 and dephasing
    checked = 0
    while checked < 200:
        p = SystemParams(
            omega21=rng.uniform(-500.0, 500.0), g_abs=rng.uniform(0.0, 150.0),
            phi=rng.uniform(0.0, 2 * math.pi), gamma=rng.uniform(0.01, 2.0),
            kappa=rng.uniform(5.0, 150.0), gamma_ph=rng.uniform(0.0, 40.0),
            eta=rng.uniform(0.0, 1.0), theta21=rng.uniform(0.0, 2 * math.pi),
            theta_c=rng.uniform(0.0, 2 * math.pi),
        ).with_reduced_detuning(rng.uniform(-200.0, 200.0))
        dc = derive_couplings(p)
        if rate_coefficients(p).lambda_plus >= -1e-6 * p.kappa:
            continue
        checked += 1
        m = integrated_moments(p)
        coef = _f_coefficients(p, m).values()
        pi_c = math.pi * sum(c for c, _ in coef)
        assert abs(_pi_c_total(regression_matrix(p), p, m.i_p) - pi_c) <= 1e-12 * abs(pi_c)
        # the dephasing term rewritten through the emitter row of A I = -y0
        alt = -(0.5 * p.kappa + 1j * p.omega_c) + p.gamma_ph * (
            p.gamma * m.i_e - 1.0 - 2j * (dc.g_minus * m.i_p).real)
        assert abs(alt - pi_c) <= 1e-12 * abs(pi_c)
        assert abs(math.pi * sum(d for _, d in coef) - 1.0) <= 1e-12


def _mp_resolvent_total(p, nu, ds):
    """Total spectrum at 50 digits from the resolvent of the regression matrix.

    The moments solve A I = -y0 at 50 digits.  A and M are built at 50 digits
    from the float parameters, with the entries of triple_generator_matrix
    and regression_matrix: rounding them to float first would perturb the
    system by parts in 1e16, which the near-singular A of the rate zero
    amplifies to 1e-8 of the peak.  No spectrum coefficient, pole or reduced
    numerator is used.  Returns the spectrum and the moments rounded to float.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        g = p.g_abs * mp.expj(p.phi)
        gf = mp.expj(mp.mpf(p.theta21) - p.theta_c) * mp.sqrt(mp.mpf(p.eta) * p.gamma * p.kappa)
        g_plus, g_minus = g + 0.5j * gf, g - 0.5j * gf
        gam = (mp.mpf(p.gamma) + p.kappa) / 2 + p.gamma_ph
        w = mp.mpf(p.omega_c) - p.omega21
        cp, cm, a_ne, a_nc = 1j * g_plus, -1j * g_minus, -1j * mp.conj(g_plus), 1j * mp.conj(g_minus)
        a = mp.matrix([[-p.kappa, 0, 2 * cp.real, -2 * cp.imag],
                       [0, -p.gamma, 2 * cm.real, -2 * cm.imag],
                       [a_nc.real, a_ne.real, -gam, w],
                       [a_nc.imag, a_ne.imag, -w, -gam]])
        i_c, i_e, re_p, im_p = mp.lu_solve(a, mp.matrix([0, -1, 0, 0]))
        i_p = mp.mpc(re_p, im_p)
        mat = mp.matrix([[-1j * mp.mpf(p.omega21) - mp.mpf(p.gamma) / 2 - p.gamma_ph,
                          -1j * g - gf / 2],
                         [-1j * mp.conj(g) - mp.conj(gf) / 2,
                          -1j * mp.mpf(p.omega_c) - mp.mpf(p.kappa) / 2]])
        # correlator weights: emitter, cavity and both interference kernels
        v = mp.matrix([[p.gamma * i_e + mp.conj(gf * i_p), p.gamma * i_p + mp.conj(gf) * i_c],
                       [p.kappa * mp.conj(i_p) + gf * i_e, p.kappa * i_c + gf * i_p]])
        out = []
        for x in nu.tolist():
            b = 1j * (mp.mpf(x) + p.omega21) - mp.mpf(ds) / 2
            k = mp.inverse(-b * mp.eye(2) - mat)
            out.append(float(mp.re(sum(k[i, j] * v[i, j] for i in range(2) for j in range(2)))
                             / mp.pi))
        moments = IntegratedMoments(i_e=float(i_e), i_c=float(i_c), i_p=complex(i_p))
    return np.array(out), moments


def test_total_near_rate_zero_against_50_digits():
    # at the default rate zero (eps0 = -Re(q)(1 - gamma/kappa)) the three parts
    # reach up to 1e14 times the total; the single fraction stays at rounding
    base = SystemParams()
    zero = -derive_couplings(base).q.real * (1.0 - base.gamma / base.kappa) * 0.5 * base.kappa
    nu = np.linspace(-1100.0, 4300.0, 109)
    for offset in (-10.0, -1.0, -1e-2, -1e-3, 1e-3, 0.1, 1.0, 10.0):
        p = base.with_detuning(zero + offset)
        ref, m_ref = _mp_resolvent_total(p, nu, DS)
        # within about 0.3 ueV integrated_moments reads the coarse evolution as
        # non-decaying and raises; without dephasing the total does not use them
        got = total_spectrum(p, nu, DS, moments=None if abs(offset) >= 1.0 else m_ref)
        assert np.abs(got.s_total - ref).max() <= 1e-13 * np.abs(ref).max()
    # with dephasing the moments stay finite at the zero and enter the total
    for gamma_ph in (5.0, 30.0):
        p = SystemParams(gamma_ph=gamma_ph).with_detuning(zero)
        ref, _ = _mp_resolvent_total(p, nu, DS)
        got = total_spectrum(p, nu, DS).s_total
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_total_spectrum_rejects_narrow_grid(baseline_params):
    with pytest.raises(ValueError):
        total_spectrum(baseline_params, np.linspace(-50.0, 50.0, 101), DS)


@pytest.mark.parametrize("grid", [[], [-5000.0, np.nan, 5000.0], [-5000.0, 0.0, np.inf]],
                         ids=["empty", "nan", "inf"])
@pytest.mark.parametrize("spectrum", [total_spectrum, spectrum_quadrature_oracle],
                         ids=["closed form", "oracle"])
def test_spectra_reject_unusable_grids(spectrum, grid):
    # refused up front with the grid named, not deep inside numpy (an empty
    # grid, NaN in an integer conversion, a divide by zero for inf); the
    # oracle takes no resonance margin, so its check is this one only
    with pytest.raises(ValueError, match="^frequency grid nu must hold finite values"):
        spectrum(SystemParams(), np.array(grid), DS)


@pytest.mark.parametrize("ds", [0.0, -5.0, np.nan, np.inf])
@pytest.mark.parametrize("spectrum", [total_spectrum, spectrum_quadrature_oracle],
                         ids=["closed form", "oracle"])
def test_spectra_reject_unusable_filter_width(spectrum, ds):
    # refused before any work: ds <= 0 would give numbers (the oracle a
    # negative "spectrum"), and NaN or inf would fail inside numpy or give NaN;
    # total_spectrum checks before it makes its default grid
    p = SystemParams(gamma_ph=30.0)
    nu = None if spectrum is total_spectrum else np.linspace(-1000.0, 1000.0, 11)
    with pytest.raises(ValueError, match="^filter width ds must be finite and positive"):
        spectrum(p, nu, ds)


def test_total_spectrum_takes_a_descending_grid(baseline_params):
    # the grid check reads the grid's extremes, not its first and last points
    nu = default_frequency_grid(baseline_params, DS)
    forward = total_spectrum(baseline_params, nu, DS).s_total
    backward = total_spectrum(baseline_params, nu[::-1], DS).s_total
    assert np.array_equal(backward, forward[::-1])


def test_default_grid_satisfies_margin(rng):
    for _ in range(20):
        p = random_valid_params(rng)
        cs = rate_coefficients(p)
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
    # check the single-fraction route leaks no imaginary residue
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
    # poles exactly degenerate (all quantities chosen exactly representable);
    # the fractions over det(b + M) take no branch there, and must agree with
    # a set whose poles are just apart
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


def _bare_emitter_grid(p):
    """The bare line's grid: 1601 points over 60 half-widths, 801 over 3."""
    half_width = 0.5 * (p.gamma + DS)
    return np.unique(np.concatenate([
        np.linspace(-60.0 * half_width, 60.0 * half_width, 1601),
        np.linspace(-3.0 * half_width, 3.0 * half_width, 801)]))


def _oracle_panels(p, nu_abs, phase_per_panel):
    """Panel width h of one oracle pass, as _oracle_total sets it, and a panel count.

    The count reaches 38 e-folds of the slowest decay: the references below
    stop there, where the oracle's sum to tau = infinity has a tail below rounding.
    """
    dc = derive_couplings(p)
    mat = regression_matrix(p)
    tau_max = 38.0 / (0.5 * DS - min(np.linalg.eigvals(mat).real.max(), 0.0) * 0.5)
    f_max = (np.abs(nu_abs).max() + max(abs(p.omega21), abs(p.omega_c))
             + abs(dc.detuning) + 4.0 * abs(dc.g_plus) + 10.0 * DS)
    h = phase_per_panel / f_max
    return h, math.ceil(tau_max / h)


def _criterion_8_sets():
    """Criterion 8's six parameter sets, each with its 211-point grid."""
    for detuning in (-3160.0, 0.0, 3160.0):
        for gamma_ph in (0.0, 30.0):
            p = SystemParams(eta=1.0, gamma_ph=gamma_ph).with_detuning(detuning)
            lo = min(0.0, p.omega_c - p.omega21) - 1050.0
            hi = max(0.0, p.omega_c - p.omega21) + 1050.0
            yield p, np.linspace(lo, hi, 211)


def _oracle_v(p, m):
    """The oracle's correlator weights V = G N^T/pi, summed elementwise as it does."""
    mom = np.array([[m.i_e, m.i_p], [np.conj(m.i_p), m.i_c]])
    g = collective_decay_matrix(p.gamma, p.kappa, p.eta, p.theta21, p.theta_c)
    return (g[:, :, None] * mom).sum(axis=1) / math.pi


def _resolvent_total(p, nu, v):
    """Re sum_ab [-(M - ds/2 + i nu)^-1]_ab V_ab: the oracle's tau integral done exactly.

    nu is relative to omega21; numpy inverts one 2x2 matrix per frequency.
    """
    a = regression_matrix(p) + (1j * (nu + p.omega21) - 0.5 * DS)[:, None, None] * np.eye(2)
    return (-np.linalg.inv(a) * v).sum(axis=(1, 2)).real


def test_oracle_against_exact_resolvent():
    # both passes against their tau integral in closed form, with the
    # oracle's own M and V, so only the Gauss rule on each panel and rounding
    # are left.  Measured: 4.5e-14 to 2.1e-12 of the peak (the fine pass at
    # detuning +3160, gamma_ph = 0); the bound leaves a factor 2.4
    bare = SystemParams(g_abs=0.0, eta=0.0)
    for p, nu in [*_criterion_8_sets(), (bare, _bare_emitter_grid(bare))]:
        m = integrated_moments(p, source="ode")
        ref = _resolvent_total(p, nu, _oracle_v(p, m))
        for phase in (0.9, 0.45):
            got = _oracle_total(p, nu + p.omega21, DS, m, phase)
            assert np.abs(got - ref).max() <= 5e-12 * np.abs(ref).max()


def test_total_spectrum_against_ode_moment_resolvent():
    # the closed-form total against the same resolvent with ODE moments, on
    # criterion 8's sets.  Measured: 1.4e-16 to 5.8e-16 of the peak; the bound
    # leaves a factor 3.4.  On the cancellation set (eta = 1, gamma_ph = 0,
    # detuning -3160) the two lie 5.2e-10 apart, with its own bound a factor
    # 3.8 above: there V's terms cancel near the rate zero, so the resolvent
    # (and the oracle) lie 5.2e-10 off a 50-digit total, while the total
    # needs no moments and lies 2.8e-16 off it
    cancellation = SystemParams(eta=1.0, gamma_ph=0.0).with_detuning(-3160.0)
    for p, nu in _criterion_8_sets():
        ref = _resolvent_total(p, nu, _oracle_v(p, integrated_moments(p, source="ode")))
        bound = 2e-9 if p == cancellation else 2e-15
        assert np.abs(total_spectrum(p, nu, DS).s_total - ref).max() <= bound * np.abs(ref).max()


def test_oracle_bare_emitter_line():
    p = SystemParams(g_abs=0.0, eta=0.0)
    half_width = 0.5 * (p.gamma + DS)
    nu = _bare_emitter_grid(p)
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
    # bound against the closed form would not catch.  The third set is the
    # cancellation set of criterion 8 (eta = 1, gamma_ph = 0, detuning -3160):
    # there the node weights cancel by about 1e7, and the oracle lies 1.2e-13
    # of the peak off a long-double panel sum (its coarse pass 5.0e-13), so a
    # reordering may move it by that much
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
        (SystemParams(eta=1.0, gamma_ph=0.0).with_detuning(-3160.0),
         np.array([-1050.0, -60.0, 0.0, 45.0, 1600.0, 3160.0, 4210.0]), [
            2.902092173032167e-06, 0.0009547524402695184, 0.028909839537956478,
            0.0013142786849463794, 1.2417657402341575e-06, 9.318397392377165e-06,
            1.8928936171280775e-07]),
    ]
    for p, nu, pinned in cases:
        got = spectrum_quadrature_oracle(p, nu, DS)
        assert np.abs(got - pinned).max() <= 1e-11 * np.abs(pinned).max()


def test_oracle_total_matches_direct_node_sum():
    # one pass of the closed-form panel sum against a sum over every node with
    # its own matrix exponential, on a set where all four correlator kernels are
    # non-zero and the panel count is not a multiple of the block length
    p = SystemParams(eta=0.6, gamma_ph=5.0, g_abs=25.0, gamma=2.0,
                     theta_c=0.7).with_detuning(50.0)
    nu_abs = np.linspace(-120.0, 120.0, 25) + p.omega21
    m = integrated_moments(p, source="ode")
    got = _oracle_total(p, nu_abs, DS, m, phase_per_panel=0.9)
    # the oracle's node set: 10-point Gauss-Legendre panels of width h
    dc = derive_couplings(p)
    mat = regression_matrix(p)
    h, n_pan = _oracle_panels(p, nu_abs, 0.9)
    assert 1000 <= n_pan <= 2000 and n_pan % (math.isqrt(n_pan - 1) + 1)
    x, w = np.polynomial.legendre.leggauss(10)
    tau = (h * np.arange(n_pan)[:, None] + 0.5 * h * (x + 1.0)).ravel()
    weight = np.tile(0.5 * h * w, n_pan)
    # kernel weights of C_ab(tau): emitter, cavity and both interference terms
    gf, i_pc = dc.gamma_f, np.conj(m.i_p)
    v = np.array([[p.gamma * m.i_e + np.conj(gf) * i_pc, p.gamma * m.i_p + np.conj(gf) * m.i_c],
                  [p.kappa * i_pc + gf * m.i_e, p.kappa * m.i_c + gf * m.i_p]]) / math.pi
    assert np.abs(v).min() > 1e-3 * np.abs(v).max()
    c = expm((mat - 0.5 * DS * np.eye(2)) * tau[:, None, None])
    direct = (np.exp(1j * np.outer(nu_abs, tau)) @ (weight * np.einsum("nab,ab->n", c, v))).real
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


def test_oracle_against_long_double_panel_sum():
    # the coarse pass on the cancellation set (eta = 1, gamma_ph = 0,
    # detuning -3160) at the pinned frequencies, against sum_k z^k E^k summed
    # panel by panel in long double from the oracle's own float64 exponentials,
    # V and nodes (E^k by doubling, z^k = e^{i nu k h} in long double).  The
    # closed-form panel sum lies 5.0e-13 of the peak off it, the bound leaves
    # twice that; the earlier term-by-term factored sum lay 1.6e-12 off
    p = SystemParams(eta=1.0, gamma_ph=0.0).with_detuning(-3160.0)
    nu_abs = np.array([-1050.0, -60.0, 0.0, 45.0, 1600.0, 3160.0, 4210.0]) + p.omega21
    m = integrated_moments(p, source="ode")
    got = _oracle_total(p, nu_abs, DS, m, phase_per_panel=0.9)
    h, n_pan = _oracle_panels(p, nu_abs, 0.9)
    x, w = spectra._gauss_legendre_10()
    off = 0.5 * h * (x + 1.0)
    exps = _expm_stack(regression_matrix(p) - 0.5 * DS * np.eye(2), np.append(h, off))
    v = _oracle_v(p, m)
    ld, cld = np.longdouble, np.clongdouble
    powers, e = np.eye(2, dtype=cld)[None], exps[0].astype(cld)
    while len(powers) < n_pan:
        powers, e = np.concatenate([powers, powers @ e]), e @ e
    powers = powers[:n_pan].reshape(n_pan, 4)
    # q_j = w_j V O_j^T: sum_ab (E^k O_j)_ab V_ab = sum_ad E^k[a, d] q_j[a, d]
    q = np.einsum("j,ac,jdc->jad", (0.5 * h * w).astype(ld), v.astype(cld),
                  exps[1:].astype(cld)).reshape(-1, 4)
    k = np.arange(n_pan, dtype=ld)
    ref = np.array([(np.exp(1j * (ld(nu) * ld(h) * k)) @ powers
                     * (np.exp(1j * (ld(nu) * off.astype(ld))) @ q)).sum().real
                    for nu in nu_abs])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["bare emitter", "criterion 8"])
def test_oracle_chunk_size_does_not_change_the_result(monkeypatch, case):
    # each frequency runs the same arithmetic in any chunk: chunks of one
    # frequency, and of seven with a partial last chunk, give the default's
    # array bit for bit on both passes
    if case == "bare emitter":
        p = SystemParams(g_abs=0.0, eta=0.0, gamma=1.579)
        nu = _bare_emitter_grid(p)
    else:
        # criterion 8's 211-point span, five times as dense so that it spans chunks
        p = SystemParams(eta=1.0, gamma_ph=30.0).with_detuning(3160.0)
        nu = np.linspace(-1050.0, 4210.0, 1051)
    assert len(nu) % 7
    nu_abs = nu + p.omega21
    m = integrated_moments(p, source="ode")
    per_freq = len(spectra._gauss_legendre_10()[0])  # one phase table entry per node
    assert len(nu) * per_freq > spectra.ORACLE_BLOCK_ELEMENTS  # several default chunks
    for phase in (0.9, 0.45):
        default = _oracle_total(p, nu_abs, DS, m, phase)
        for block in (1, 7 * per_freq):
            monkeypatch.setattr(spectra, "ORACLE_BLOCK_ELEMENTS", block)
            assert np.array_equal(_oracle_total(p, nu_abs, DS, m, phase), default)
        monkeypatch.undo()


def test_oracle_working_memory_is_bounded():
    # the phase tables live per chunk of frequencies: one call on
    # oracle-crosscheck's bare-emitter grid (about 2,400 points) peaks at
    # about 0.29 MB, where one table over the whole grid takes 9.6 MB.  numpy
    # reports its buffers to tracemalloc, so the reading does not depend on
    # the allocator or on other processes
    p = SystemParams(g_abs=0.0, eta=0.0, gamma=1.579)
    nu = _bare_emitter_grid(p)
    spectrum_quadrature_oracle(p, nu[:5], DS)
    tracemalloc.start()
    try:
        spectrum_quadrature_oracle(p, nu, DS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_gauss_legendre_rule():
    # the oracle's rule, computed without numpy.polynomial, against numpy's
    # rule and on the monomials that 10 points integrate exactly
    x, w = spectra._gauss_legendre_10()
    ref_x, ref_w = np.polynomial.legendre.leggauss(10)
    assert np.abs(x - ref_x).max() <= 1e-15
    assert np.abs(w - ref_w).max() <= 1e-15
    for k in range(20):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 4.0 * np.finfo(float).eps


def test_oracle_integrated_weight_is_one():
    p = SystemParams(gamma_ph=30.0).with_reduced_detuning(0.0)
    nu = np.linspace(-4000.0, 4000.0, 2001)
    s = spectrum_quadrature_oracle(p, nu, DS)
    # allow for tails truncated at the grid edge
    assert abs(np.trapezoid(s, nu) - 1.0) <= 5e-3


def test_oracle_reports_non_convergence(monkeypatch):
    p = SystemParams(g_abs=0.0, eta=0.0)
    monkeypatch.setattr(spectra, "ORACLE_REL_TOL", 0.0)
    with pytest.raises(QuadratureConvergenceError) as err:
        spectrum_quadrature_oracle(p, np.linspace(-200.0, 200.0, 11), DS)
    assert "relative change" in str(err.value)
    assert err.value.rel_tol == 0.0
    assert err.value.achieved > err.value.rel_tol


def test_oracle_scalar_input():
    p = SystemParams(gamma_ph=30.0).with_reduced_detuning(0.0)
    val = spectrum_quadrature_oracle(p, 0.0, DS)
    ref = sum(spectrum_component(p, 0.0, DS, w) for w in ("21", "c", "F"))
    assert isinstance(val, float)
    assert abs(val - ref) < 1e-3 * abs(ref)
