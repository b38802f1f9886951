import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fanoqed import (SystemParams, derive_couplings, rate_coefficients, transition_rate,
                     Trajectory,
                     evolve_triple, evolve_lindblad, coarse_grained_solution,
                     adiabatic_polarization, envelope_decay_rate,
                     liouvillian_matrix, hamiltonian_matrix,
                     triple_generator_matrix, TooFewExtremaError,
                     EnvelopeFitError)
from fanoqed import dynamics, spectra
from fanoqed.dynamics import (SIGMA_MINUS, A_OP, SIGMA_Z, SLOW_MODE_RATIO,
                              _expm_stack, _hop, _lowest_eigenvalues, _matmul_dot2,
                              _slow_modes)
from conftest import random_valid_params


def test_decoupled_exponential_decay():
    p = SystemParams(g_abs=0.0, eta=0.0)
    t = np.linspace(0.0, 80.0, 401)
    traj = evolve_triple(p, t_grid=t)
    assert np.abs(traj.n_e - np.exp(-p.gamma * t)).max() < 1e-9
    assert np.abs(traj.n_c).max() < 1e-9
    assert np.abs(traj.pol).max() < 1e-9


def test_resonant_strong_coupling_oscillates(baseline_params):
    t = np.linspace(0.0, 0.45, 9001)
    traj = evolve_triple(baseline_params, t_grid=t)
    x = traj.n_e
    n_max = int(np.sum((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])))
    assert n_max >= 5
    assert x.min() >= -1e-9


def test_triple_matches_lindblad_pointwise(rng):
    # the closure <sigma_z a+a> = -<a+a> is exact in the one-excitation
    # sector, so the two routes may differ only by integrator error
    for _ in range(5):
        p = random_valid_params(rng)
        w = transition_rate(p)
        t = np.linspace(0.0, min(10.0 / w, 2e3), 400)
        tr1 = evolve_triple(p, t_grid=t)
        tr2 = evolve_lindblad(p, t_grid=t)
        assert np.abs(tr1.n_e - tr2.n_e).max() <= 1e-6
        assert np.abs(tr1.n_c - tr2.n_c).max() <= 1e-6
        assert np.abs(tr1.pol - tr2.pol).max() <= 1e-6


def _exact_propagation(gen, y0, t):
    """exp(gen t) y0 at 40 digits, from an mpmath eigendecomposition of gen."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam, vec = mp.eig(mp.matrix(gen.tolist()))
        coef = mp.lu_solve(vec, mp.matrix(y0.tolist()))
        return np.array([[complex(mp.fsum(vec[i, j] * mp.exp(lam[j] * float(tk)) * coef[j]
                                          for j in range(len(lam))))
                          for i in range(len(y0))] for tk in t])


def _dop853_propagation(route, p, t):
    """(n_e, n_c, pol) from the excited emitter by adaptive DOP853 (scipy).

    A reference that shares no code with the matrix-exponential kernel: the
    triple route integrates triple_generator_matrix(p) from (n_c, n_e, Re p,
    Im p) = (0, 1, 0, 0); the master-equation route integrates the whole
    complex 9x9 liouvillian_matrix(p), no block cut, from |e,0><e,0| and reads
    rho_ee, rho_11 and rho_1e at ravel indices 0, 4 and 3.
    """
    from scipy.integrate import solve_ivp
    if route == "triple":
        gen, y0 = triple_generator_matrix(p), np.array([0.0, 1.0, 0.0, 0.0])
    else:
        gen, y0 = liouvillian_matrix(p), np.eye(9, dtype=complex)[0]
    sol = solve_ivp(lambda _t, y: gen @ y, (t[0], t[-1]), y0, t_eval=t,
                    rtol=1e-10, atol=1e-12, method="DOP853")
    assert sol.success, sol.message
    y = sol.y
    if route == "triple":
        return y[1], y[0], y[2] + 1j * y[3]
    return y[0].real, y[4].real, y[3]


_EVOLVE = {"triple": evolve_triple, "lindblad": evolve_lindblad}


@pytest.mark.parametrize("route, t", [("triple", np.linspace(0.0, 0.3, 301)),
                                      ("lindblad", np.linspace(0.0, 0.2, 201))],
                         ids=["triple", "lindblad"])
def test_expm_matches_dop853_reference(route, t, baseline_params):
    n_e = _EVOLVE[route](baseline_params, t_grid=t).n_e
    assert np.abs(n_e - _dop853_propagation(route, baseline_params, t)[0]).max() < 1e-8


@pytest.mark.parametrize("route", ["triple", "lindblad"])
def test_antiresonance_route_matches_exact_propagation(route):
    # W = 3.9e-9 on the antiresonance, so the criterion-5 window 10/W spans
    # 2.6e9 time units and any error in the slow eigenvalue grows with t.
    # Each route is held to the exact propagation of its own float generator,
    # which also catches two routes that drift alike.
    p = SystemParams(eta=1.0, gamma_ph=0.0).with_reduced_detuning(-126.4)
    horizon = 10.0 / transition_rate(p)
    t = np.unique(np.concatenate([np.linspace(0.0, 2.0, 201),
                                  np.geomspace(2.0, horizon, 400)]))
    sampled = np.append(np.arange(0, len(t) - 1, 10), len(t) - 1)
    if route == "triple":
        n_e = evolve_triple(p, t_grid=t).n_e
        exact = _exact_propagation(triple_generator_matrix(p),
                                   np.array([0.0, 1.0, 0.0, 0.0]), t[sampled])[:, 1]
    else:
        n_e = evolve_lindblad(p, t_grid=t).n_e
        # the route propagates blocks cut from the 9x9 complex generator, so
        # the whole generator's exact propagation also checks the block split
        exact = _exact_propagation(liouvillian_matrix(p),
                                   np.eye(9)[0], t[sampled])[:, 0]    # |e,0><e,0|
    assert np.abs(n_e[sampled] - exact.real).max() <= 1e-9


def test_detuned_uniform_grids_match_exact_propagation():
    # the criterion-5 sets at eps = +-126.4 on 2001-point uniform grids over
    # 10/W: hops of ||A dt||_1 ~ 1e2 are scaled and squared, and 2000 of
    # them compound the error in the slowly decaying mode.  Squaring I + c
    # as I + (2c + c^2) keeps that mode to relative accuracy; squaring the
    # rounded I + c leaves 2e-14 to 2e-13 here
    for eta in (0.0, 1.0):
        for gamma_ph in (0.0, 30.0):
            for eps in (126.4, -126.4):
                p = SystemParams(eta=eta, gamma_ph=gamma_ph).with_reduced_detuning(eps)
                t = np.linspace(0.0, 10.0 / transition_rate(p), 2001)
                sampled = np.arange(0, len(t), 100)
                traj = evolve_triple(p, t_grid=t)
                exact = _exact_propagation(triple_generator_matrix(p),
                                           np.array([0.0, 1.0, 0.0, 0.0]), t[sampled])
                assert np.abs(traj.n_e[sampled] - exact[:, 1].real).max() <= 1e-14
                assert np.abs(traj.n_c[sampled] - exact[:, 0].real).max() <= 1e-14


def test_default_dynamics_window_matches_exact_propagation():
    # the `dynamics` subcommand's default window, 2001 samples over t <= 0.5 at
    # the defaults; the bound is below the 1.55e-15 that full prefix products
    # (a Hillis-Steele scan) reach on these samples
    p = SystemParams()
    t = np.linspace(0.0, 0.5, 2001)
    sampled = np.arange(0, len(t), 10)
    traj = evolve_triple(p, t_grid=t)
    exact = _exact_propagation(triple_generator_matrix(p), np.array([0.0, 1.0, 0.0, 0.0]),
                               t[sampled])
    assert np.abs(traj.n_e[sampled] - exact[:, 1].real).max() <= 1.5e-15
    assert np.abs(traj.n_c[sampled] - exact[:, 0].real).max() <= 1.5e-15


def test_slow_modes_and_expm_defect_in_metadata():
    # one slow mode at the criterion-5 antiresonance, none at the defaults;
    # the excited state never reaches the master equation's stationary mode
    cases = [(SystemParams(eta=1.0, gamma_ph=0.0).with_reduced_detuning(-126.4), 1),
             (SystemParams(), 0)]
    for p, slow in cases:
        t = np.linspace(0.0, 10.0 / transition_rate(p), 101)
        for evolve in (evolve_triple, evolve_lindblad):
            meta = evolve(p, t_grid=t).metadata
            assert meta["slow_modes"] == slow, (evolve.__name__, p)
            assert 0.0 <= meta["expm_defect"] < 1e-6


def test_step_halving_check_rejects_a_nan_defect():
    # exp(1000) overflows, so the full hop is inf and the half hop squared is
    # inf too: their difference, the step-halving defect, is NaN and must fail
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dynamics.IntegrationError, match="step-halving"):
            dynamics._propagate_expm(np.array([[1.0]]), np.array([1.0]),
                                     np.array([0.0, 1000.0]))


def _handed_generators(sets, monkeypatch):
    """Every generator that evolve_triple, then evolve_lindblad, hands to _slow_modes."""
    seen = []
    monkeypatch.setattr(dynamics, "_slow_modes", lambda a: seen.append(a) or _slow_modes(a))
    for p in sets:
        t = np.linspace(0.0, 10.0 / transition_rate(p), 11)
        evolve_triple(p, t_grid=t)
        evolve_lindblad(p, t_grid=t)
    return seen


def _schur_split(a):
    """_slow_modes from scipy's ordered real Schur form A Z = Z T instead.

    Q1 is the leading columns of Z, W1 = Q1^T - X Z2^T with X from the
    Sylvester equation that decouples T11 from T22, and the generator is the
    same Dot2 Rayleigh step from T11.
    """
    from scipy.linalg import schur, solve_sylvester
    cut = SLOW_MODE_RATIO * np.linalg.norm(a, 1)
    t, z, k = schur(a, output="real", sort=lambda re, im: math.hypot(re, im) < cut)
    basis, t11 = z[:, :k], t[:k, :k]
    proj = basis.T
    if 0 < k < len(a):
        proj = proj - solve_sylvester(t11, -t[k:, k:], -t[:k, k:]) @ z[:, k:].T
    resid = _matmul_dot2(np.hstack([a, basis]), np.vstack([basis, -t11]))
    return basis, proj, t11 + proj @ resid


def _assert_split_matches_schur(a):
    """Same k, spectral projector and generator eigenvalues as _schur_split; returns k."""
    basis, proj, gen = _slow_modes(a)
    ref_basis, ref_proj, ref_gen = _schur_split(a)
    assert len(gen) == len(ref_gen)
    if len(gen):
        ref = ref_basis @ ref_proj
        assert np.abs(basis @ proj - ref).max() <= 1e-14 * np.abs(ref).max()
        lam, ref_lam = (np.sort_complex(np.linalg.eigvals(g)) for g in (gen, ref_gen))
        assert np.abs(lam - ref_lam).max() <= 1e-14 * np.abs(ref_lam).max()
    return len(gen)


def test_slow_mode_screen_keeps_every_slow_mode(rng, monkeypatch):
    # every generator that either route hands to _slow_modes, on the 12
    # criterion-5 sets and on seeded draws: the eigvals screen must give the
    # count of the full ordered Schur form, so it never drops a slow mode,
    # and the split must match that form's projector and eigenvalues.
    # The draws at eta = 1, gamma_ph = 0 and eps in [-260, -90] put
    # min|l|/||A||_1 at 5e-7 to 3e-6, across the cut and the screen's margin
    # of twice the cut
    c5 = [SystemParams(eta=eta, gamma_ph=gph).with_reduced_detuning(eps)
          for eta in (0.0, 1.0) for gph in (0.0, 30.0) for eps in (0.0, 126.4, -126.4)]
    draws = [random_valid_params(rng) for _ in range(12)]
    edge = [SystemParams(eta=1.0, gamma_ph=0.0).with_reduced_detuning(rng.uniform(-260, -90))
            for _ in range(12)]
    gens = _handed_generators(c5 + draws + edge, monkeypatch)
    counts = [_assert_split_matches_schur(a) for a in gens]
    # per set: triple, then the master equation's one-excitation block
    counts = np.array(counts).reshape(-1, 2)
    expected = np.zeros((len(c5), 2), int)
    expected[8] = 1     # eta = 1, gamma_ph = 0, eps = -126.4: the antiresonance
    assert np.array_equal(counts[:len(c5)], expected)
    assert 0 < counts[-len(edge):, 0].sum() < len(edge)


def test_two_slow_modes_split_matches_ordered_schur(monkeypatch):
    # at |detuning| >= 1e9 the populations split off as two real slow modes,
    # which take the rotation.  The bounds of _assert_split_matches_schur are
    # relative to the largest entry and eigenvalue: on the smaller slow
    # eigenvalue of the master-equation block, the Schur route itself is up
    # to 1.1e-13 off the 40-digit value, and the numpy split within 1e-42
    far = [SystemParams(eta=eta, gamma_ph=gph).with_detuning(detuning)
           for eta in (0.0, 0.7, 1.0) for gph in (0.0, 30.0) for detuning in (1e9, -3e9)]
    gens = _handed_generators(far, monkeypatch)
    assert [_assert_split_matches_schur(a) for a in gens] == [2] * len(gens)


@pytest.mark.parametrize("slow, fast", [
    ([[-1e-8, 3e-8], [-3e-8, -1e-8]], [[-2.0, 5.0], [-5.0, -2.0]]),
    ([[-1e-8, 3e-8], [-3e-8, -1e-8]], [[-2.0, 1.0], [0.0, -2.0]]),
    ([[-1e-8, 0.0], [0.0, -3e-9]], [[-2.0, 1.0], [0.0, -2.0]])])
def test_hand_built_slow_pair_split_matches_ordered_schur(slow, fast):
    # no physical set has a slow complex pair: the slow modes are
    # population-like, as Gamma and the detuning sit in the polarization block
    # and set ||A||.  A real generator V B V^-1 built with one, the slow pair
    # 1e-8 (-1 +- 3i), takes the k = 2 path without the rotation.  The fast
    # Jordan block -2 (an exceptional point) is annihilated by p, which
    # counts -2 twice; a split built from the eigenvectors of eig, whose
    # matrix is singular there, is 1e-10 to 1e-1 off
    v = np.array([[1.0, 0.3, -0.5, 0.2], [-0.4, 1.2, 0.1, 0.6],
                  [0.2, -0.7, 0.9, -0.3], [0.5, 0.1, 0.4, 1.1]])
    b = np.zeros((4, 4))
    b[:2, :2] = slow
    b[2:, 2:] = fast
    a = v @ b @ np.linalg.inv(v)
    assert _assert_split_matches_schur(a) == 2
    lam = np.sort_complex(np.linalg.eigvals(_slow_modes(a)[2]))
    # forming V B V^-1 in float64 moves each eigenvalue by up to ~cond(V) eps ||A||
    bound = np.linalg.cond(v) * np.finfo(float).eps * np.linalg.norm(a, 1)
    assert np.abs(lam - np.sort_complex(np.linalg.eigvals(np.array(slow)))).max() <= bound


def test_two_slow_modes_match_exact_propagation():
    # at eta = 0 and |detuning| >= 1e8 the populations split off as two real
    # slow modes.  On every 10th of 201 uniform samples over 10/W the numpy
    # split stays within 2.8e-16 of the exact propagation, as the Schur route
    # does; without the rotation that makes T11 triangular the same samples
    # are 6.0e-15 to 2.5e-14 off
    for gamma_ph in (0.0, 30.0):
        for detuning in (1e8, 1e9, -3e9):
            p = SystemParams(eta=0.0, gamma_ph=gamma_ph).with_detuning(detuning)
            t = np.linspace(0.0, 10.0 / transition_rate(p), 201)
            sampled = np.arange(0, len(t), 10)
            traj = evolve_triple(p, t_grid=t)
            assert traj.metadata["slow_modes"] == 2
            exact = _exact_propagation(triple_generator_matrix(p),
                                       np.array([0.0, 1.0, 0.0, 0.0]), t[sampled])
            dn_e = np.abs(traj.n_e[sampled] - exact[:, 1].real).max()
            dn_c = np.abs(traj.n_c[sampled] - exact[:, 0].real).max()
            assert dn_e <= 5e-15 and dn_c <= 5e-15, (gamma_ph, detuning, dn_e, dn_c)


def _slow_projector_40_digits(a, k):
    """The spectral projector of a's k eigenvalues of least modulus, and those eigenvalues, at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam, vec = mp.eig(mp.matrix(a.tolist()))
        inv = vec ** -1
        slow = sorted(range(len(lam)), key=lambda j: abs(lam[j]))[:k]
        proj = np.array([[complex(mp.fsum(vec[i, j] * inv[j, m] for j in slow))
                          for m in range(len(a))] for i in range(len(a))])
        return proj.real, np.sort_complex(np.array([complex(lam[j]) for j in slow]))


def test_split_with_a_fast_mode_near_the_cut(monkeypatch):
    # gamma = 2 and kappa = 5 at |detuning| = 3e6 put the cut near 3, so the
    # gamma mode is slow while the kappa mode, 2.5 times faster, is not: the
    # fast-mode polynomial p is only 1 - 2/5 = 0.6 on the slow mode, and the
    # split must not assume it to be 1 (that reads the projector 20% off).
    # Against 40 digits the projector is within 1.2e-14 of its largest entry
    # (the Schur route 7.2e-15) and the slow eigenvalue within 1e-40
    sets = [SystemParams(gamma=2.0, kappa=5.0, eta=eta, gamma_ph=gph).with_detuning(detuning)
            for eta in (0.0, 1.0) for gph in (0.0, 30.0) for detuning in (3e6, -3e6)]
    gens = _handed_generators(sets, monkeypatch)
    assert len(gens) == 2 * len(sets)
    for a in gens:
        basis, proj, gen = _slow_modes(a)
        assert len(gen) == 1
        ref, ref_lam = _slow_projector_40_digits(a, 1)
        assert np.abs(basis @ proj - ref).max() <= 2e-14 * np.abs(ref).max()
        assert np.abs(np.linalg.eigvals(gen) - ref_lam).max() <= 1e-14 * np.abs(ref_lam).max()


@pytest.mark.parametrize("route", ["triple", "lindblad"])
def test_fast_mode_near_the_cut_matches_exact_propagation(route):
    # the sets of test_split_with_a_fast_mode_near_the_cut at detuning 3e6:
    # every 10th of 201 uniform samples over 10/W.  A split that takes the
    # fast-mode polynomial for a projector leaves n_e 1.2e-2 off here
    for eta in (0.0, 1.0):
        p = SystemParams(gamma=2.0, kappa=5.0, eta=eta).with_detuning(3e6)
        t = np.linspace(0.0, 10.0 / transition_rate(p), 201)
        sampled = np.arange(0, len(t), 10)
        if route == "triple":
            traj = evolve_triple(p, t_grid=t)
            exact = _exact_propagation(triple_generator_matrix(p),
                                       np.array([0.0, 1.0, 0.0, 0.0]), t[sampled])
            exact_n_e, exact_n_c = exact[:, 1].real, exact[:, 0].real
        else:
            traj = evolve_lindblad(p, t_grid=t)
            exact = _exact_propagation(liouvillian_matrix(p), np.eye(9)[0], t[sampled])
            # rho_ee and rho_11 sit at 0 and 4 of rho.ravel()
            exact_n_e, exact_n_c = exact[:, 0].real, exact[:, 4].real
        assert traj.metadata["slow_modes"] == 1
        dn_e = np.abs(traj.n_e[sampled] - exact_n_e).max()
        dn_c = np.abs(traj.n_c[sampled] - exact_n_c).max()
        assert dn_e <= 5e-15 and dn_c <= 5e-15, (eta, dn_e, dn_c)


def _block_order_blocks(liou):
    """liouvillian_matrix in the order (ee, 11, e1, 1e | e0, 10 | 0e, 01 | 00)."""
    order = [0, 4, 1, 3, 2, 5, 6, 7, 8]
    edges = [0, 4, 6, 8, 9]
    m = liou[np.ix_(order, order)]
    return [[m[edges[i]:edges[i + 1], edges[j]:edges[j + 1]] for j in range(4)]
            for i in range(4)]


def test_liouvillian_block_structure(rng):
    from fanoqed.spectra import regression_matrix
    sets = [random_valid_params(rng) for _ in range(8)]
    sets.append(SystemParams(eta=0.6, gamma_ph=5.0, theta_c=0.7))
    for p in sets:
        blocks = _block_order_blocks(liouvillian_matrix(p))
        for i in range(4):
            for j in range(4):
                if i != j and (i, j) != (3, 0):   # rho_00 is fed by the first block
                    assert np.all(blocks[i][j] == 0.0), (i, j)
        # the one-excitation block carries the equations of motion's spectrum
        ev_block = np.linalg.eigvals(blocks[0][0])
        ev_triple = np.linalg.eigvals(triple_generator_matrix(p))
        scale = np.abs(blocks[0][0]).max()
        assert np.abs(ev_block[:, None] - ev_triple[None, :]).min(axis=1).max() <= 1e-12 * scale
        assert np.abs(ev_triple[:, None] - ev_block[None, :]).min(axis=1).max() <= 1e-12 * scale
        # and the ground coherences follow the regression theorem's generator
        assert np.array_equal(blocks[1][1], regression_matrix(p))
        assert np.array_equal(blocks[2][2], regression_matrix(p).conj())


def test_lindblad_block_is_the_permuted_triple_generator(rng, monkeypatch):
    # the 4x4 generator that evolve_lindblad propagates, on (rho_ee, rho_11,
    # Re rho_e1, Im rho_e1), is P A P^T with A the triple generator on (n_c,
    # n_e, Re p, Im p): P swaps n_c and n_e and, as pol = rho_1e = rho_e1*,
    # flips the sign of Im p.  It holds entry for entry, so both routes run
    # one kernel on permuted input and only the tests check them independently
    seen = []
    kernel = dynamics._propagate_expm
    monkeypatch.setattr(dynamics, "_propagate_expm",
                        lambda a, y0, t: seen.append(a) or kernel(a, y0, t))
    perm = np.array([[0.0, 1.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, -1.0]])
    t = np.linspace(0.0, 0.01, 3)
    for _ in range(200):
        p = dataclasses.replace(random_valid_params(rng),
                                phi=rng.uniform(0.0, 2.0 * np.pi),
                                theta21=rng.uniform(0.0, 2.0 * np.pi),
                                theta_c=rng.uniform(0.0, 2.0 * np.pi))
        seen.clear()
        evolve_lindblad(p, t_grid=t)
        assert np.array_equal(seen[0], perm @ triple_generator_matrix(p) @ perm.T), p


def test_block_checks_reject_a_leaking_or_lossy_generator(monkeypatch):
    import fanoqed.dynamics as dyn
    p = SystemParams(eta=0.6, gamma_ph=5.0, theta_c=0.7)
    t = np.linspace(0.0, 0.1, 11)
    built = liouvillian_matrix(p)
    leak = built.copy(); leak[0, 2] = 1e-300        # ground coherence feeds rho_ee
    lossy = built.copy(); lossy[8, 0] = 0.0        # emission never reaches rho_00
    for bad, what in ((leak, "blocks"), (lossy, "trace")):
        monkeypatch.setattr(dyn, "liouvillian_matrix", lambda _p, bad=bad: bad)
        with pytest.raises(dyn.IntegrationError, match=what):
            evolve_lindblad(p, t_grid=t)


def test_confluent_point_expm_matches_dop853():
    # eta = 0 and |g| = (kappa - gamma)/4 on resonance make the eigenvalues
    # of the triple generator nearly confluent (a near-defective matrix), where
    # an eigendecomposition propagator fails but matrix exponentials must not
    base = SystemParams(eta=0.0, gamma_ph=0.0)
    p = dataclasses.replace(base, g_abs=(base.kappa - base.gamma) / 4.0)
    t = np.linspace(0.0, 10.0 / transition_rate(p), 401)
    for route, evolve in _EVOLVE.items():
        traj = evolve(p, t_grid=t)
        ref = _dop853_propagation(route, p, t)
        for name, alt in zip(("n_e", "n_c", "pol"), ref):
            dev = np.abs(getattr(traj, name) - alt).max()
            assert dev <= 1e-9, (route, name, dev)


def _kernel_generators():
    """The default, criterion-5 antiresonance and near-defective generators."""
    base = SystemParams(eta=0.0, gamma_ph=0.0)
    sets = [SystemParams(),
            SystemParams(eta=1.0, gamma_ph=0.0).with_reduced_detuning(-126.4),
            dataclasses.replace(base, g_abs=(base.kappa - base.gamma) / 4.0)]
    return [triple_generator_matrix(p) for p in sets]


# Higham's (2005) theta_m of the Pade degrees m = 3, 5, 7, 9 and 13: the
# probe norms below sit just inside each, then 1 to 34 squarings past theta_13
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068, 5.371920351148152)


def _kernel_steps(a):
    """Steps of norm 0.5 theta_3, 0.99 theta_m for each m, then 1 to 34 squarings."""
    norms = [0.5 * _THETA[0]] + [0.99 * theta for theta in _THETA]
    norms += [0.99 * _THETA[-1] * 2.0 ** j for j in range(1, 35, 3)]
    return np.array(norms) / np.linalg.norm(a, 1)


def _mp_expm(a, s):
    """expm(a s) at 40 digits, with the product a s formed exactly."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e = mp.expm(mp.matrix(a.tolist()) * mp.mpf(float(s)))
        return np.array([[float(e[i, j]) for j in range(e.cols)] for i in range(e.rows)])


def test_expm_stack_matches_40_digit_and_scipy_expm(monkeypatch):
    # every Pade degree, and up to 34 squarings on the antiresonance, whose
    # slow mode keeps expm(A s) of order 1 out to s ~ 1e9; a backward-stable
    # exponential is good to a few u*||A s||_1 there
    from scipy.linalg import expm
    u = np.finfo(float).eps / 2.0
    for a in _kernel_generators():
        steps = _kernel_steps(a)
        got = _expm_stack(a, steps)
        scale = u * np.maximum(1.0, np.linalg.norm(a, 1) * steps)
        ref = np.array([_mp_expm(a, s) for s in steps])
        assert np.all(np.abs(got - ref).max(axis=(1, 2)) <= 4.0 * scale)
        alt = expm(a * steps[:, None, None])
        assert np.all(np.abs(got - alt).max(axis=(1, 2)) <= 8.0 * scale)
    # the quadrature oracle's complex 2x2 exponentials of
    # regression_matrix(p) - ds/2, at the panel width h and the ten node
    # offsets it asks for: the defaults, the criterion-8 sets, a bare emitter
    calls = []
    monkeypatch.setattr(spectra, "_expm_stack",
                        lambda a, steps: calls.append((a, steps)) or _expm_stack(a, steps))
    sets = ([SystemParams()]
            + [SystemParams(eta=1.0, gamma_ph=gph).with_detuning(detuning)
               for detuning in (-3160.0, 0.0, 3160.0) for gph in (0.0, 30.0)]
            + [SystemParams(g_abs=0.0, eta=0.0)])
    for p in sets:
        lo = min(0.0, p.omega_c - p.omega21) - 1050.0
        hi = max(0.0, p.omega_c - p.omega21) + 1050.0
        spectra.spectrum_quadrature_oracle(p, np.linspace(lo, hi, 5), 20.0)
        for a, steps in calls[-2:]:    # the coarse and the fine pass
            assert np.array_equal(a, spectra.regression_matrix(p) - 10.0 * np.eye(2))
            assert a.dtype == complex and len(steps) == 11
            got = _expm_stack(a, steps)
            ref = expm(a * steps[:, None, None])
            assert np.all(np.abs(got - ref).max(axis=(1, 2))
                          <= 1e-14 * np.abs(ref).max(axis=(1, 2)))
    assert len(calls) == 2 * len(sets)


def test_expm_stack_is_accurate_near_the_identity():
    # for ||A s||_1 <= theta_3, expm(A s) = I + X with ||X|| ~ ||A s||: written
    # I + 2 (V - U)^-1 U the unscaled degree-13 approximant is within a few
    # u*||A s|| of the 40-digit value in every entry, so the diagonal is
    # correctly rounded; (V - U)^-1 (V + U) rounds V + U first and misses by
    # an ulp of 1
    u = np.finfo(float).eps / 2.0
    for a in _kernel_generators():
        steps = np.append(np.array([1e-6, 1e-3]) * _THETA[0] / np.linalg.norm(a, 1),
                          _kernel_steps(a)[:2])
        for r, s in zip(_expm_stack(a, steps), steps):
            assert np.abs(r - _mp_expm(a, s)).max() <= 4.0 * u * np.linalg.norm(a, 1) * s


def test_hop_scan_matches_sequential_hops():
    # the criterion-5 graded grid on the antiresonance, whose generator has
    # a slow mode, with y0 on it: every sample is the hops so far applied to y0
    a = _kernel_generators()[1]
    horizon = 10.0 / transition_rate(
        SystemParams(eta=1.0, gamma_ph=0.0).with_reduced_detuning(-126.4))
    t = np.unique(np.concatenate([np.linspace(0.0, 2.0, 201),
                                  np.geomspace(2.0, horizon, 400)]))
    dts, hop_index = np.unique(np.diff(t), return_inverse=True)
    hops = _expm_stack(a, dts)
    y = np.array([0.0, 1.0, 0.0, 0.0])
    ref = [y]
    for i in hop_index:
        y = hops[i] @ y
        ref.append(y)
    got = _hop(hops, hop_index, ref[0])
    assert got.shape == (len(t), 4)
    assert np.abs(got - np.array(ref)).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 4])
def test_blocked_scan_matches_sequential_hops_at_block_edges(n, rng):
    # lengths on both sides of the squares, with ceil(sqrt(len)) hops per
    # block: 16, 49 and 2025 fill their blocks exactly, 17, 50 and 2026 step
    # to the next block size and pad the last block; n = 1 is the shape of a
    # single slow-mode amplitude, n = 2 of a pair of them
    a = triple_generator_matrix(SystemParams())[:n, :n]
    hops = _expm_stack(a, np.array([1e-4, 3e-4, 1e-3]))
    for m in (1, 2, 3, 4, 5, 15, 16, 17, 48, 49, 50, 63, 64, 65, 2000, 2025, 2026):
        hop_index = rng.integers(0, len(hops), m)
        y = rng.normal(size=n)
        ref = [y]
        for i in hop_index:
            ref.append(hops[i] @ ref[-1])
        got = _hop(hops, hop_index, ref[0])
        assert got.shape == (m + 1, n)
        assert np.array_equal(got[0], ref[0])
        assert np.abs(got - np.array(ref)).max() <= 1e-14, m


def test_compensated_matmul_is_twice_working_precision(rng):
    # 1e3-scale terms, and a first row of a @ b that cancels to rounding
    # level, as A v does for a slow mode v
    a = rng.normal(scale=1e3, size=(6, 7))
    b = rng.normal(size=(7, 3))
    b[-1] = -(a[:, :-1] @ b[:-1])[0] / a[0, -1]
    exact = [[sum(Fraction(x) * Fraction(y) for x, y in zip(row, col))
              for col in b.T] for row in a]
    got = _matmul_dot2(a, b)
    # Ogita, Rump & Oishi (2005), Dot2 error bound: u|x.y| + gamma_n^2 |x|.|y|
    u = np.finfo(float).eps / 2.0
    gamma2 = (len(b) * u / (1.0 - len(b) * u)) ** 2
    absdot = np.abs(a) @ np.abs(b)
    for i, row in enumerate(exact):
        for j, value in enumerate(row):
            bound = u * abs(float(value)) + gamma2 * absdot[i, j]
            assert abs(Fraction(got[i, j]) - value) <= bound


def test_coarse_solution_boundary_values(baseline_params):
    n_e, n_c = coarse_grained_solution(baseline_params, 0.0)
    assert n_e == 1.0 and n_c == 0.0
    w = transition_rate(baseline_params)
    n_e, n_c = coarse_grained_solution(baseline_params, 1e3 / w)
    assert n_e < 1e-8 and n_c < 1e-8


def test_scalar_only_functions_reject_array_detuning():
    # the dynamics layer does not broadcast over omega_c: each function names
    # itself in a ValueError instead of failing inside numpy, and
    # coarse_grained_solution would otherwise pair detuning i with time i
    t = np.array([0.0, 1e-3, 2e-3])
    table = {
        "hamiltonian_matrix": hamiltonian_matrix,
        "triple_generator_matrix": triple_generator_matrix,
        "liouvillian_matrix": liouvillian_matrix,
        "evolve_triple": lambda p: evolve_triple(p, t_grid=t),
        "evolve_lindblad": lambda p: evolve_lindblad(p, t_grid=t),
        "coarse_grained_solution": lambda p: coarse_grained_solution(p, t),
    }
    scalar = SystemParams().with_detuning(-100.0)
    array = SystemParams().with_detuning(np.array([-100.0, 0.0, 100.0]))
    for name, call in table.items():
        call(scalar)
        with pytest.raises(ValueError, match=f"^{name} needs a scalar omega_c$"):
            call(array)


def test_coarse_solution_confluent_branch():
    # g=0, eta=0, kappa=gamma makes the two eigenvalues exactly degenerate
    p = SystemParams(g_abs=0.0, eta=0.0, gamma=1.0, kappa=1.0)
    t = np.linspace(0.0, 5.0, 11)
    n_e, n_c = coarse_grained_solution(p, t)
    assert np.abs(n_e - np.exp(-t)).max() < 1e-12
    assert np.abs(n_c).max() < 1e-12


def test_coarse_solution_through_the_confluent_point():
    # eta = 0 and kappa = gamma put the coarse eigenvalues 4|g|^2/Gamma_tot
    # apart: exactly confluent at g = 0, then 4e-14, 2e-9, 4e-6 and 0.04.
    # Held to the two-exponential form (its confluent limit at L+ = L-) at
    # 50 digits; an error of u in L t is |L t| u in exp(L t).  The last time
    # would turn exp(L- t) expm1((L+ - L-) t) into 0 * inf.
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    t = np.array([0.0, 0.1, 1.0, 3.0, 10.0, 50.0, 1e12])
    for g_abs in (0.0, 1e-7, 2.3e-5, 1e-3, 0.1):
        p = SystemParams(g_abs=g_abs, eta=0.0, gamma=1.0, kappa=1.0, gamma_ph=0.0)
        cs = rate_coefficients(p)
        n_e, n_c = coarse_grained_solution(p, t)
        with mp.workdps(50):
            lp, lm = mp.mpf(cs.lambda_plus), mp.mpf(cs.lambda_minus)
            cp, cm = lp + cs.r_pm + p.kappa, lm + cs.r_pm + p.kappa
            for tk, ne, nc in zip(t, n_e, n_c):
                ep, em = mp.exp(lp * tk), mp.exp(lm * tk)
                if lp == lm:
                    ref_e, ref_c = (1 + cp * tk) * ep, cs.r_pp * tk * ep
                else:
                    ref_e = (cp * ep - cm * em) / (lp - lm)
                    ref_c = cs.r_pp * (ep - em) / (lp - lm)
                tol = (8.0 + abs(cs.lambda_minus) * tk) * eps
                assert abs(ne - float(ref_e)) <= tol * abs(float(ref_e)), (g_abs, tk)
                assert abs(nc - float(ref_c)) <= tol * abs(float(ref_c)), (g_abs, tk)


def test_coarse_solution_threads_oscillation_midline(baseline_params):
    t = np.linspace(0.0, 0.45, 9001)
    x = evolve_triple(baseline_params, t_grid=t).n_e
    imax = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]))[0] + 1
    imin = np.nonzero((x[1:-1] < x[:-2]) & (x[1:-1] <= x[2:]))[0] + 1
    lo = max(t[imax[0]], t[imin[0]])
    hi = min(t[imax[-1]], t[imin[-1]])
    tt = np.linspace(lo, hi, 500)
    midline = 0.5 * (np.interp(tt, t[imax], x[imax]) + np.interp(tt, t[imin], x[imin]))
    coarse = coarse_grained_solution(baseline_params, tt)[0]
    assert np.linalg.norm(coarse - midline) / np.linalg.norm(midline) < 0.05


def test_adiabatic_polarization_limits():
    p = SystemParams()
    assert adiabatic_polarization(p, 0.0, 0.0) == 0.0
    p0 = SystemParams(g_abs=0.0, eta=0.0)
    assert adiabatic_polarization(p0, 0.7, 0.3) == 0.0


def test_polarization_follows_quasi_steady_value_when_detuned(baseline_params):
    # off resonance the fast transient dies at Gamma_tot while the
    # populations persist, so p(t) locks to the quasi-steady expression
    p = baseline_params.with_reduced_detuning(126.4)
    t = np.linspace(0.0, 4.0, 4001)
    traj = evolve_triple(p, t_grid=t)
    sel = t > 1.0
    locked = adiabatic_polarization(p, traj.n_e[sel], traj.n_c[sel])
    mean_p = np.mean(traj.pol[sel])
    mean_locked = np.mean(locked)
    assert abs(mean_p - mean_locked) <= 0.10 * abs(mean_locked)


def _apply(liou, rho):
    """The 3x3 action of a Liouvillian matrix on rho (row-major vectorization)."""
    return (liou @ rho.ravel()).reshape(3, 3)


def test_generator_annihilates_vacuum(baseline_params):
    vacuum = np.zeros((3, 3), complex)
    vacuum[2, 2] = 1.0
    out = _apply(liouvillian_matrix(baseline_params), vacuum)
    assert np.abs(out).max() == 0.0


def test_generator_is_trace_preserving(rng):
    p = random_valid_params(rng)
    liou = liouvillian_matrix(p)
    for _ in range(100):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        assert abs(np.trace(_apply(liou, rho))) < 1e-12


def test_full_overlap_equals_single_collective_jump(rng):
    # at eta=1 the decay matrix is rank one, so the two channels merge into
    # L = sqrt(gamma) sigma- + exp(i(theta21 - theta_c)) sqrt(kappa) a
    p = SystemParams(eta=1.0, gamma_ph=7.0, omega_c=300.0)
    liou = liouvillian_matrix(p)
    h = hamiltonian_matrix(p)
    jump = (math.sqrt(p.gamma) * SIGMA_MINUS
            + np.exp(1j * (p.theta21 - p.theta_c)) * math.sqrt(p.kappa) * A_OP)
    for _ in range(20):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        ref = -1j * (h @ rho - rho @ h)
        ref += jump @ rho @ jump.conj().T - 0.5 * (
            jump.conj().T @ jump @ rho + rho @ jump.conj().T @ jump)
        ref += 0.5 * p.gamma_ph * (SIGMA_Z @ rho @ SIGMA_Z - rho)
        assert np.abs(_apply(liou, rho) - ref).max() < 1e-12


def test_liouvillian_matrix_matches_action(rng):
    # the master equation written out channel by channel: emitter decay,
    # cavity decay, the two cross terms at gamma_f (from derive_couplings, a
    # derivation of its own) and pure dephasing
    p = dataclasses.replace(random_valid_params(rng), eta=rng.uniform(0.1, 0.9),
                            gamma_ph=rng.uniform(1.0, 40.0),
                            phi=rng.uniform(-math.pi, math.pi),
                            theta21=rng.uniform(-math.pi, math.pi),
                            theta_c=rng.uniform(-math.pi, math.pi))
    sm, sp, a, ad = SIGMA_MINUS, SIGMA_MINUS.T, A_OP, A_OP.T
    gf = derive_couplings(p).gamma_f
    h = hamiltonian_matrix(p)
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ref = -1j * (h @ rho - rho @ h)
    ref += 0.5 * p.gamma * (2.0 * sm @ rho @ sp - sp @ sm @ rho - rho @ sp @ sm)
    ref += 0.5 * p.kappa * (2.0 * a @ rho @ ad - ad @ a @ rho - rho @ ad @ a)
    ref += 0.5 * gf * (2.0 * a @ rho @ sp - sp @ a @ rho - rho @ sp @ a)
    ref += 0.5 * np.conj(gf) * (2.0 * sm @ rho @ ad - ad @ sm @ rho - rho @ ad @ sm)
    ref += 0.5 * p.gamma_ph * (SIGMA_Z @ rho @ SIGMA_Z - rho)
    assert np.abs(_apply(liouvillian_matrix(p), rho) - ref).max() < 1e-12


def test_master_equation_bare_decay():
    p = SystemParams(g_abs=0.0, eta=0.0)
    t = np.linspace(0.0, 60.0, 301)
    traj = evolve_lindblad(p, t_grid=t)
    assert np.abs(traj.n_e - np.exp(-p.gamma * t)).max() < 1e-9


def test_dephasing_leaves_populations_untouched():
    # with g=0 and orthogonal patterns the populations (ee, 11, 00) evolve on
    # their own, and dephasing, gamma_ph/2 (sigma_z rho sigma_z - rho), leaves
    # their rows of the generator as they are: it only damps the coherences
    # of |e,0> with the ground states, at gamma_ph
    base = SystemParams(g_abs=0.0, eta=0.0, gamma_ph=0.0)
    deph = dataclasses.replace(base, gamma_ph=37.0)
    pops, damped = [0, 4, 8], [1, 2, 3, 6]    # rho_e1, rho_e0, rho_1e, rho_0e
    l0, l1 = liouvillian_matrix(base), liouvillian_matrix(deph)
    assert not np.delete(l0[pops], pops, axis=1).any()
    assert np.array_equal(l1[pops], l0[pops])
    expected = np.zeros(9)
    expected[damped] = -37.0
    assert np.abs(l1 - l0 - np.diag(expected)).max() < 1e-12


def _density_matrices(traj):
    """The (len, 3, 3) density matrices of a master-equation trajectory.

    From the excited emitter there are no ground coherences, so (n_e, n_c,
    pol) = (rho_ee, rho_11, rho_1e) hold every entry and rho_00 = 1 - rho_ee
    - rho_11.
    """
    rhos = np.zeros((len(traj), 3, 3), complex)
    rhos[:, 0, 0], rhos[:, 1, 1] = traj.n_e, traj.n_c
    rhos[:, 2, 2] = 1.0 - traj.n_e - traj.n_c
    rhos[:, 1, 0] = traj.pol
    rhos[:, 0, 1] = traj.pol.conj()
    return rhos


def test_positivity_guard_reports_time_and_eigenvalue(baseline_params, monkeypatch):
    # physical evolutions stay positive; drive the guard with an impossible
    # threshold to exercise the abort path and its diagnostic
    from fanoqed import PositivityError
    t = np.linspace(0.0, 0.1, 11)
    with monkeypatch.context() as m, pytest.raises(PositivityError) as err:
        m.setattr(dynamics, "POSITIVITY_ABORT", -1e-3)
        evolve_lindblad(baseline_params, t_grid=t)
    assert "at t =" in str(err.value)
    # the time-reversed generator keeps the blocks and the trace but drains
    # rho_00 below zero, to a lowest eigenvalue of about -10 at the last
    # sample: the closed form must report the eigenvalue and time that
    # eigvalsh gives on the density matrices rebuilt from the same run
    backward = -liouvillian_matrix(baseline_params)
    monkeypatch.setattr(dynamics, "liouvillian_matrix", lambda _p: backward)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "POSITIVITY_ABORT", np.inf)
        traj = evolve_lindblad(baseline_params, t_grid=t)
    lowest = np.linalg.eigvalsh(_density_matrices(traj))[:, 0]
    k = int(np.argmin(lowest))
    assert lowest[k] < -1.0
    with pytest.raises(PositivityError) as err:
        evolve_lindblad(baseline_params, t_grid=t)
    assert str(err.value) == (f"density matrix eigenvalue {lowest[k]:.3e} < "
                              f"-{dynamics.POSITIVITY_ABORT:.1e} at t = {t[k]:.6e}")


def test_closed_form_lowest_eigenvalue_matches_eigvalsh(rng):
    # seeded states without ground coherences: rho_00 plus a 2x2 block with
    # |rho_e1|^2 <= rho_ee rho_11, and near-pure ones where |rho_e1|^2 =
    # rho_ee rho_11 and rho_00 -> 0, whose lowest eigenvalue is a cancellation
    n, h = 2000, 1000
    pop = rng.dirichlet([1.0, 1.0, 1.0], n)
    pop[h:, 2] = np.geomspace(1e-3, 1e-300, n - h) * rng.uniform(0, 1, n - h)
    pop[h:, 0] = rng.uniform(0, 1, n - h) * (1.0 - pop[h:, 2])
    pop[h:, 1] = 1.0 - pop[h:, 0] - pop[h:, 2]
    purity = np.where(np.arange(n) < h, rng.uniform(0, 1, n), 1.0)
    rhos = np.zeros((n, 3, 3), complex)
    rhos[:, 0, 0], rhos[:, 1, 1], rhos[:, 2, 2] = pop.T
    rhos[:, 0, 1] = (np.sqrt(purity * pop[:, 0] * pop[:, 1])
                     * np.exp(2j * np.pi * rng.uniform(size=n)))
    rhos[:, 1, 0] = rhos[:, 0, 1].conj()
    states = _density_matrices(evolve_lindblad(SystemParams(gamma_ph=11.0),
                                               t_grid=np.linspace(0.0, 1.0, 401)))
    for r in (rhos, states):
        closed = _lowest_eigenvalues(r[:, 0, 0].real, r[:, 1, 1].real, np.abs(r[:, 0, 1]),
                                     r[:, 2, 2].real)
        assert np.abs(closed - np.linalg.eigvalsh(r).min(axis=1)).max() <= 1e-15


def test_density_matrix_invariants_along_evolution(rng):
    for eta in (0.0, 0.3, 0.7, 1.0):
        p = SystemParams(eta=eta, gamma_ph=11.0).with_reduced_detuning(-40.0)
        t = np.linspace(0.0, 1.0, 401)
        traj = evolve_lindblad(p, t_grid=t)
        lowest = np.linalg.eigvalsh(_density_matrices(traj))[:, 0]
        assert traj.metadata["trace_defect"] < 1e-10
        assert lowest.min() > -1e-9
        assert abs(traj.metadata["min_eigenvalue"] - lowest.min()) <= 1e-15
        # Cauchy-Schwarz between the polarization and the populations
        assert np.all(np.abs(traj.pol) ** 2 <= traj.n_e * traj.n_c + 1e-9)


def test_invalid_overlap_fails_before_any_evolution():
    with pytest.raises(ValueError):
        SystemParams(eta=1.5)


def test_photon_bookkeeping_along_trajectory(baseline_params):
    # d(n_e + n_c)/dt = -(gamma n_e + kappa n_c + 2 Re(gamma_f p)), checked
    # by finite differences on exact-grid samples
    p = dataclasses.replace(baseline_params, gamma_ph=30.0)
    dt = 2e-5
    t = np.arange(0.0, 0.4, dt)
    traj = evolve_triple(p, t_grid=t)
    tot = traj.n_e + traj.n_c
    deriv = (tot[:-4] - 8 * tot[1:-3] + 8 * tot[3:-1] - tot[4:]) / (12 * dt)
    gf = derive_couplings(p).gamma_f
    flux = -(p.gamma * traj.n_e + p.kappa * traj.n_c + 2.0 * (gf * traj.pol).real)
    assert np.abs(deriv - flux[2:-2]).max() < 1e-6


def test_detuning_sign_changes_decay_time(baseline_params):
    # the asymmetric rate profile makes +-100 reduced detunings decay on
    # very different time scales; the ordering follows the computed rates
    times = {}
    for eps in (100.0, -100.0):
        p = baseline_params.with_reduced_detuning(eps)
        w = transition_rate(p)
        t = np.unique(np.concatenate([[0.0], np.geomspace(1e-3, 5.0 / w, 4000)]))
        traj = evolve_triple(p, t_grid=t)
        below = np.nonzero(traj.n_e < math.exp(-1.0))[0]
        times[eps] = t[below[0]]
    w_plus = transition_rate(baseline_params.with_reduced_detuning(100.0))
    w_minus = transition_rate(baseline_params.with_reduced_detuning(-100.0))
    slow, fast = (100.0, -100.0) if w_plus < w_minus else (-100.0, 100.0)
    assert times[slow] / times[fast] > 10.0


def test_envelope_rate_pure_exponential():
    t = np.linspace(0.0, 30.0, 2001)
    traj = Trajectory(t=t, n_e=np.exp(-0.3 * t), n_c=np.zeros_like(t),
                      pol=np.zeros_like(t, complex))
    assert abs(envelope_decay_rate(traj) - 0.3) < 1e-6


def test_envelope_rate_modulated_decay():
    t = np.linspace(0.0, 12.0, 24001)
    n_e = np.exp(-0.3 * t) * (1.0 + np.cos(10.0 * t)) / 2.0
    traj = Trajectory(t=t, n_e=n_e, n_c=np.zeros_like(t),
                      pol=np.zeros_like(t, complex))
    assert abs(envelope_decay_rate(traj) - 0.3) <= 0.02 * 0.3


def test_envelope_rate_matches_transition_rate(baseline_params):
    t = np.linspace(0.0, 0.45, 9001)
    traj = evolve_triple(baseline_params, t_grid=t)
    w = transition_rate(baseline_params)
    assert abs(envelope_decay_rate(traj) - w) <= 0.05 * w


def test_envelope_error_modes():
    t = np.linspace(0.0, 1.0, 101)
    two_bumps = 0.5 + 0.4 * np.cos(9.0 * t)
    traj = Trajectory(t=t, n_e=two_bumps, n_c=np.zeros_like(t),
                      pol=np.zeros_like(t, complex))
    with pytest.raises(TooFewExtremaError):
        envelope_decay_rate(traj)
    t = np.linspace(0.0, 12.0, 4001)
    negative = (np.exp(-0.3 * t) * np.cos(10.0 * t)) - 0.5
    traj = Trajectory(t=t, n_e=negative, n_c=np.zeros_like(t),
                      pol=np.zeros_like(t, complex))
    with pytest.raises(EnvelopeFitError):
        envelope_decay_rate(traj)


def test_input_validation():
    p = SystemParams()
    with pytest.raises(ValueError):
        evolve_triple(p, t_grid=np.array([0.0]))
    with pytest.raises(ValueError):
        evolve_triple(p, t_grid=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        evolve_triple(p, t_grid=np.array([0.0, 0.0, 1.0]))
    # NaN and inf sample times, which the strictly-increasing test cannot see
    for bad in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError):
            evolve_triple(p, t_grid=bad)
        with pytest.raises(ValueError):
            evolve_lindblad(p, t_grid=bad)
        with pytest.raises(ValueError):
            coarse_grained_solution(p, bad)
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(t=np.array(bad), n_e=np.zeros(3), n_c=np.zeros(3),
                       pol=np.zeros(3, complex))
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0, 0.0]), n_e=np.zeros(2), n_c=np.zeros(2),
                   pol=np.zeros(2, complex))


def test_trajectory_first_sample_is_initial_condition(baseline_params):
    # the emitter starts excited: (n_e, n_c, pol) = (1, 0, 0) exactly
    t = np.linspace(0.0, 0.1, 11)
    traj = evolve_triple(baseline_params, t_grid=t)
    assert (traj.t[0], traj.n_e[0], traj.n_c[0], traj.pol[0]) == (0.0, 1.0, 0.0, 0.0)
    assert traj.metadata["integrator"] == "expm"
    assert traj.metadata["params"] == baseline_params
