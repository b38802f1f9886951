"""Time evolution of the emitter-cavity system in the one-excitation sector.

Two routes are provided and cross-checked against each other:

* ``evolve_triple`` integrates the three coupled equations of motion for the
  excited-state population n_e = <sigma+ sigma->, the cavity photon number
  n_c = <a+ a>, and the polarization p = <sigma+ a>.
* ``evolve_lindblad`` integrates the full master equation for the 3x3 density
  matrix on the basis {|e,0>, |g,1>, |g,0>}, which is closed under the
  dynamics because the initial state carries one excitation and every
  dissipator is excitation-non-increasing.  Its generator
  (``liouvillian_matrix``) is one Lindblad sum over the collective decay
  matrix G of the channels (sigma-, a), whose gamma_f comes from
  ``collective_decay_matrix``, not from ``derive_couplings``.  It is block
  lower triangular: the one-excitation block (rho_ee, rho_11, rho_e1) and the
  ground coherences (rho_e0, rho_10) evolve on their own, and rho_00 follows
  from the trace.  The route checks that structure and, as the excited
  emitter has no ground coherences, propagates the one-excitation block
  alone as a real 4x4 generator.

Both generators are linear and time independent, so both routes propagate
with matrix exponentials: one batched scaling-and-squaring evaluation of the
degree-13 Pade approximant for all distinct gaps of the grid, then a blocked
scan of in-block prefix products that carries the state through those hops
(``_hop``).  The exponentials are backward stable: every eigenvalue carries
an absolute error of order eps*||A||, harmless for modes that decay at the
generator's scale but amplified by t for a mode far slower than it, such as
the one at the rate antiresonance.  Such slow modes, where an eigenvalue
screen finds any, are split off and hopped by their own refined generator
(``_propagate_expm``).
In this sector the closure <sigma_z a+ a> = -<a+ a> is exact, and the
one-excitation block is the triple generator with (n_c, n_e) swapped and the
sign of Im p flipped, entry for entry.  The two routes thus share the
propagation kernel on permuted generators, though not the derivation of
gamma_f, and agree to rounding; their independent checks are in the tests,
against an adaptive Dormand-Prince integration of the full 9x9 Liouvillian
and against 40-digit exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# numpy is the library's one dependency: the slow-mode split and the
# exponentials are numpy code, so no command pays for a scipy import
from .params import (SystemParams, _require_scalar_omega_c, collective_decay_matrix,
                     derive_couplings)
from .rates import rate_coefficients

__all__ = [
    "Trajectory",
    "IntegrationError",
    "PositivityError",
    "TooFewExtremaError",
    "EnvelopeFitError",
    "hamiltonian_matrix",
    "triple_generator_matrix",
    "liouvillian_matrix",
    "evolve_triple",
    "evolve_lindblad",
    "coarse_grained_solution",
    "adiabatic_polarization",
    "envelope_decay_rate",
]


class IntegrationError(RuntimeError):
    """Integration failed or its internal consistency check was violated."""


class PositivityError(RuntimeError):
    """Density-matrix eigenvalue dropped below the abort threshold."""


class TooFewExtremaError(ValueError):
    """Trajectory has neither enough oscillation maxima nor monotone decay."""


class EnvelopeFitError(RuntimeError):
    """Envelope data could not be fit (non-positive values, degenerate fit)."""


# evolve_lindblad raises PositivityError below a lowest eigenvalue of -POSITIVITY_ABORT
POSITIVITY_ABORT = 1e-7


# Operators on the ordered basis {|e,0>, |g,1>, |g,0>}, in-sector projections;
# states with two excitations are excluded by construction, not by tolerance.
SIGMA_MINUS = np.zeros((3, 3)); SIGMA_MINUS[2, 0] = 1.0
A_OP = np.zeros((3, 3)); A_OP[2, 1] = 1.0
SIGMA_Z = np.diag([1.0, -1.0, -1.0])

# The master equation's terms on rho.ravel() (rho_ij at 3i + j, so A rho B is
# kron(A, B^T)): for the decay channels L = (sigma-, a) of the collective decay
# matrix G, D_jk = L_j rho L_k^+ - {L_k^+ L_j, rho}/2, weighted by G_jk (the
# L are real, so L_k^+ = L_k^T); and the pure dephasing sigma_z rho sigma_z - rho
_EYE3 = np.eye(3)
_DISSIPATORS = [np.kron(lj, lk) - 0.5 * np.kron(lk.T @ lj, _EYE3)
                - 0.5 * np.kron(_EYE3, (lk.T @ lj).T)
                for lj in (SIGMA_MINUS, A_OP) for lk in (SIGMA_MINUS, A_OP)]
_DEPHASING = np.kron(SIGMA_Z, SIGMA_Z) - np.eye(9)


def _finite_increasing(t: np.ndarray) -> bool:
    """Every sample time finite and each above the one before (False on NaN)."""
    return bool(np.all(np.isfinite(t)) and np.all(np.diff(t) > 0))


@dataclass
class Trajectory:
    """Sampled time evolution of (n_e, n_c, pol) with provenance metadata."""

    t: np.ndarray
    n_e: np.ndarray
    n_c: np.ndarray
    pol: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _finite_increasing(self.t):
            raise ValueError("sample times must be finite and strictly increasing")

    def __len__(self):
        return len(self.t)


def hamiltonian_matrix(p: SystemParams) -> np.ndarray:
    """System Hamiltonian on the one-excitation basis (3x3 complex)."""
    _require_scalar_omega_c(p, "hamiltonian_matrix")
    h = np.diag([0.5 * p.omega21,
                 p.omega_c - 0.5 * p.omega21,
                 -0.5 * p.omega21]).astype(complex)
    h[0, 1] = p.g
    h[1, 0] = np.conj(p.g)
    return h


def triple_generator_matrix(p: SystemParams) -> np.ndarray:
    """Real 4x4 generator of (n_c, n_e, Re p, Im p).

    Encodes
        dn_c/dt = 2 Re(i g+ p) - kappa n_c
        dn_e/dt = 2 Re(-i g- p) - gamma n_e
        dp/dt   = -i g+* n_e + i g-* n_c - (i detuning + Gamma_tot) p.
    """
    _require_scalar_omega_c(p, "triple_generator_matrix")
    dc = derive_couplings(p)
    cp = 1j * dc.g_plus
    cm = -1j * dc.g_minus
    a_ne = -1j * np.conj(dc.g_plus)
    a_nc = 1j * np.conj(dc.g_minus)
    w = dc.detuning
    return np.array([
        [-p.kappa, 0.0, 2.0 * cp.real, -2.0 * cp.imag],
        [0.0, -p.gamma, 2.0 * cm.real, -2.0 * cm.imag],
        [a_nc.real, a_ne.real, -dc.gamma_tot, +w],
        [a_nc.imag, a_ne.imag, -w, -dc.gamma_tot]])


def liouvillian_matrix(p: SystemParams) -> np.ndarray:
    """9x9 complex generator of rho.ravel() under the master equation.

    -i(H x 1 - 1 x H^T) + sum_jk G_jk D_jk + (gamma_ph/2)(sigma_z x sigma_z - 1),
    with H from hamiltonian_matrix and G the collective decay matrix over
    (sigma-, a).  Its cross entries gamma_f couple the two decay channels;
    their interaction-picture phases are absorbed by the frame change, so the
    generator is time independent.  For eta = 1, G has rank one and the
    channels merge into the single collective jump operator
    sqrt(gamma)*sigma- + exp(i(theta21 - theta_c))*sqrt(kappa)*a.
    """
    _require_scalar_omega_c(p, "liouvillian_matrix")
    h = hamiltonian_matrix(p)
    g = collective_decay_matrix(p.gamma, p.kappa, p.eta, p.theta21, p.theta_c)
    liou = -1j * (np.kron(h, _EYE3) - np.kron(_EYE3, h.T))
    for g_jk, d_jk in zip(g.ravel(), _DISSIPATORS):
        liou += g_jk * d_jk
    return liou + 0.5 * p.gamma_ph * _DEPHASING


def _check_t_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("t_grid must be a 1-d array with at least two samples")
    if t[0] != 0.0:
        raise ValueError("t_grid must start at 0 (the initial-condition time)")
    if not _finite_increasing(t):
        raise ValueError("t_grid must be finite and strictly increasing")
    return t


# Eigenvalues with modulus below this fraction of ||A||_1 are propagated
# apart from the rest.  expm leaves an absolute eigenvalue error of order
# eps*||A||, i.e. an error ~eps*||A||*t in a mode after time t; for a mode
# decaying at rate |l| that peaks at eps*||A||/(e|l|), below ~1e-10 of its
# amplitude whenever |l| >= SLOW_MODE_RATIO*||A||.
SLOW_MODE_RATIO = 1e-6

_VELTKAMP = 134217729.0   # 2**27 + 1 splits a float64 into two 26-bit halves


def _two_product(a, b):
    """Elementwise a*b = p + e exactly, without FMA (Dekker / Veltkamp)."""
    p = a * b
    ca = _VELTKAMP * a
    a_hi = ca - (ca - a)
    a_lo = a - a_hi
    cb = _VELTKAMP * b
    b_hi = cb - (cb - b)
    b_lo = b - b_hi
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _matmul_dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with every entry a compensated dot product (Ogita-Rump-Oishi Dot2).

    The result is as accurate as if computed in twice the working precision
    and then rounded, in plain float64 arithmetic on every platform.
    """
    prod, err = _two_product(a[:, :, None], b[None, :, :])
    s, c = prod[:, 0], err[:, 0]
    for j in range(1, a.shape[1]):
        x = s + prod[:, j]          # TwoSum(s, prod_j) = x + rounding error
        z = x - s
        c = c + ((s - (x - z)) + (prod[:, j] - z)) + err[:, j]
        s = x
    return s + c


def _slow_modes(a: np.ndarray):
    """Invariant subspace of the eigenvalues below SLOW_MODE_RATIO*||A||_1.

    Returns (basis, proj, gen): the right basis Q1 (n x k), the matching rows
    W1 of the spectral projector P = Q1 @ W1 (k x n), and the k x k generator
    of the mode amplitudes, so that A Q1 = Q1 gen.  P is the real part of
    the polynomial r(A) = q(A) p(A): p(A) = prod_fast (I - A/l_j) over the
    eigenvalues at or above the cut annihilates the fast modes, and q, of
    degree k - 1 in Newton form, takes the value 1/p(l) at each slow
    eigenvalue l.  So r is 1 on every slow mode however near the cut the
    fast eigenvalues lie (p(l) alone is 1 - l/l_j there, 0.6 for a slow
    rate 2 beside a fast rate 5), and three steps of P <- 3P^2 - 2P^3 push
    the rounding left on the fast modes towards 0.  Q1 is the leading k
    left singular vectors of P, and W1 solves (Q1^T P Q1) W1 = Q1^T P: for
    any P = f(A) with f zero on the fast modes and nonzero on the slow ones
    those are the rows of the spectral projector, and W1 Q1 = I holds to
    rounding.  For two real slow eigenvalues one rotation makes
    T11 = W1 A Q1 upper triangular, the larger modulus first, as in a real
    Schur form; without it the amplitudes' exponentials mix both modes, and
    at |detuning| >= 1e8 n_e drifts 6e-15 to 2.5e-14 from its 40-digit
    value instead of 3e-16.  gen is one two-sided block Rayleigh-quotient
    step from T11, T11 + W1 (A Q1 - Q1 T11), with the residual computed by
    Dot2: T11 itself carries the eps*||A|| error that the split is there to
    remove.  k = 0 gives empty arrays: at once when every |eigvals(A)|
    clears twice the cut, as their error of about eps*||A|| is far below
    that margin, and before any projector work when none lies below the cut.
    """
    n = len(a)
    cut = SLOW_MODE_RATIO * np.linalg.norm(a, 1)
    if np.abs(np.linalg.eigvals(a)).min() >= 2.0 * cut:
        return np.empty((n, 0)), np.empty((0, n)), np.empty((0, 0))
    # only generators with a slow mode get here, so the screen's eigenvalues
    # are computed again rather than kept
    lam = np.linalg.eigvals(a)
    slow = np.abs(lam) < cut
    k = int(slow.sum())
    if k == 0:
        return np.empty((n, 0)), np.empty((0, n)), np.empty((0, 0))
    ls, fast = lam[slow], lam[~slow]
    proj = np.eye(n, dtype=complex)
    for lj in fast:
        proj = proj - (a @ proj) / lj
    # 1/p(l) at the slow eigenvalues, made q's Newton coefficients by divided differences
    coef = 1.0 / np.prod(1.0 - ls[:, None] / fast, axis=1)
    for j in range(1, k):
        coef[j:] = (coef[j:] - coef[j - 1:-1]) / (ls[j:] - ls[:-j])
    r = coef[-1] * proj
    for j in reversed(range(k - 1)):    # Horner: r = q(A) p(A)
        r = a @ r - ls[j] * r + coef[j] * proj
    proj = r.real
    for _ in range(3):
        p2 = proj @ proj
        proj = 3.0 * p2 - 2.0 * p2 @ proj
    basis = np.linalg.svd(proj)[0][:, :k]
    proj = np.linalg.solve(basis.T @ proj @ basis, basis.T @ proj)
    t11 = proj @ a @ basis
    if k == 2:
        half_tr = 0.5 * (t11[0, 0] + t11[1, 1])
        disc = 0.25 * (t11[0, 0] - t11[1, 1]) ** 2 + t11[0, 1] * t11[1, 0]
        if disc >= 0.0:
            # rotate onto the eigenvector of the larger-modulus eigenvalue
            big = half_tr + math.copysign(math.sqrt(disc), half_tr)
            v = np.array([[t11[0, 1], big - t11[0, 0]], [big - t11[1, 1], t11[1, 0]]])
            v = v[np.argmax(np.hypot(v[:, 0], v[:, 1]))]
            rot = np.array([[v[0], -v[1]], [v[1], v[0]]]) / math.hypot(v[0], v[1])
            basis, proj, t11 = basis @ rot, rot.T @ proj, rot.T @ t11 @ rot
    resid = _matmul_dot2(np.hstack([a, basis]), np.vstack([basis, -t11]))
    return basis, proj, t11 + proj @ resid


# The degree-13 diagonal Pade approximant r_13 = (V - U)^-1 (V + U) of exp:
# (theta_13, coefficients b_0..b_13), with r_13(X) equal to exp(X) to double
# precision for ||X||_1 <= theta_13 (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179, 2005)
_PADE = (5.371920351148152, (64764752532480000., 32382376266240000.,
                             7771770303897600., 1187353796428800., 129060195264000.,
                             10559470521600., 670442572800., 33522128640.,
                             1323241920., 40840800., 960960., 16380., 182., 1.))


def _expm_stack(a: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """expm(a * s) for every s in steps, as a (len(steps), n, n) stack.

    a is real (the dynamics generators) or complex (the quadrature oracle's
    2x2 regression matrix).  Scaling and squaring (Higham 2005) in batched
    numpy: every a s is scaled by 2**-k, k = ceil(log2(max(||a s||_1 /
    theta_13, 1))), into the degree-13 Pade approximant, evaluated for all
    steps at once, and the result is then squared k times, on the entries
    that still need it only.  The approximant
    is formed as I + c with c = (V - U)^-1 (V + U) - I = 2 (V - U)^-1 U: the
    solve carries only the difference from the identity, which rounding
    V + U would blur.  It is squared as I + (2c + c @ c), so a mode with
    exp(l s) close to 1 keeps its difference from 1 to relative accuracy
    through the squarings instead of losing it to the rounding of I + c at
    each one.
    """
    theta, b = _PADE
    norm = np.linalg.norm(a, 1) * steps
    squarings = np.ceil(np.log2(np.maximum(norm / theta, 1.0))).astype(int)
    x = a * (steps / 2.0 ** squarings)[:, None, None]    # exact power-of-2 scaling
    eye = np.eye(len(a))
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    c = 2.0 * np.linalg.solve(v - u, u)
    for j in range(squarings.max()):
        sel = squarings > j
        cs = c[sel]
        c[sel] = 2.0 * cs + cs @ cs
    return eye + c


def _hop(hops: np.ndarray, hop_index: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ys[0] = y, ys[j + 1] = hops[hop_index[j]] @ ys[j], as a (len + 1, n) array.

    A blocked scan on the state, over blocks of L = ceil(sqrt(len)) hops (the
    padding of the last block feeds only results that are dropped).  One
    batched matmul per position turns every block's hops into its prefix
    products in place, one mat-vec per block carries the state across the
    blocks with each block's last prefix, and one batched product applies
    every prefix to its block's starting state: O(len) small products in
    about 2 sqrt(len) numpy calls.
    """
    m, n = len(hop_index), len(y)
    size = math.isqrt(m - 1) + 1
    blocks = -(-m // size)
    prefix = hops[np.pad(hop_index, (0, blocks * size - m))].reshape(blocks, size, n, n)
    for j in range(1, size):
        prefix[:, j] = prefix[:, j] @ prefix[:, j - 1]
    state = np.empty((blocks, 1, n, 1))
    state[0, 0] = y[:, None]
    for k in range(1, blocks):
        state[k] = prefix[k - 1, -1] @ state[k - 1]
    return np.vstack([y, (prefix @ state).reshape(-1, n)[:m]])


def _propagate_expm(a: np.ndarray, y0: np.ndarray, t: np.ndarray):
    """Linear propagation y(t_k) by matrix exponentials of the distinct gaps.

    One batched degree-13 Pade call of _expm_stack gives expm(A dt) for every
    distinct gap; the samples are then these hops applied to y0 in turn, by
    one blocked scan of prefix products (_hop).  The Pade exponential is
    backward stable, so an eigenvalue l with |l| << ||A|| is off by
    ~eps*||A||, which the hops turn into a state error growing like
    eps*||A||*t.  Step halving cannot see it: at the rate antiresonance
    whole-generator hops pass that check with n_e off by 1.2e-8 (by 2.5e-6
    with scipy's expm, which squares the rounded I + c).  The modes below
    SLOW_MODE_RATIO*||A|| (such as the antiresonance mode) are therefore
    split off by their spectral projection of y0 and hopped with
    exponentials of their own refined k x k generator, whose eigenvalue
    errors are of order eps*|l|.  The rest stays on the expm(A dt) hops.
    The largest gap is validated by comparing one full expm(A dt) hop against
    two half hops, which bounds the local error of the exponential itself;
    IntegrationError is raised unless that defect is at most 1e-7*scale +
    1e-9, with scale the largest |sample| floored at 1.

    Returns (ys, info): the samples as an (n, len(t)) array and the
    trajectory metadata entries integrator ("expm"), expm_defect (that
    step-halving defect) and slow_modes (the number of slow modes split off).
    """
    gaps = np.diff(t)
    dts, hop_index = np.unique(gaps, return_inverse=True)
    steps = np.append(dts, dts[-1] / 2.0)   # + half largest gap
    hops = _expm_stack(a, steps)
    basis, proj, gen = _slow_modes(a)
    if len(gen):
        # the slow amplitudes hop apart; the rest of y0 stays on expm(A dt)
        amp = proj @ y0
        ys = _hop(hops, hop_index, y0 - basis @ amp)
        ys += _hop(_expm_stack(gen, steps), hop_index, amp) @ basis.T
        ys[0] = y0    # the first sample is the initial condition exactly
    else:
        ys = _hop(hops, hop_index, y0)
    half, full = hops[-1], hops[-2]
    defect = np.abs(half @ half - full).max()
    scale = max(np.abs(ys).max(), 1.0)
    if not defect <= 1e-7 * scale + 1e-9:    # a NaN defect fails too
        raise IntegrationError(
            f"matrix-exponential propagation failed validation: "
            f"step-halving defect {defect:.3e} at gap {dts[-1]:.3e}")
    return ys.T, {"integrator": "expm", "expm_defect": float(defect),
                  "slow_modes": len(gen)}


def evolve_triple(p: SystemParams, t_grid) -> Trajectory:
    """Integrate the (n_e, n_c, p) equations of motion on a sample grid.

    The emitter starts excited: (n_e, n_c, p) = (1, 0, 0) at t = 0, the state
    that the moments and the coarse-grained solution assume too.  The
    propagation is exact up to rounding, and reruns give the same bytes.
    """
    _require_scalar_omega_c(p, "evolve_triple")
    t = _check_t_grid(t_grid)
    a = triple_generator_matrix(p)
    y0 = np.array([0.0, 1.0, 0.0, 0.0])    # (n_c, n_e, Re p, Im p)
    ys, info = _propagate_expm(a, y0, t)
    return Trajectory(
        t=t, n_e=ys[1], n_c=ys[0], pol=ys[2] + 1j * ys[3],
        metadata={**info, "equations": "bloch-triple", "params": p})


def _lowest_eigenvalues(r_ee, r_11, abs_e1, r_00):
    """Lowest eigenvalue of each rho without ground coherences, in closed form.

    rho is [[r_ee, r_e1], [r_e1*, r_11]] plus r_00, and abs_e1 = |r_e1|:
    min(r_00, (r_ee + r_11)/2 - hypot((r_ee - r_11)/2, |r_e1|)).
    """
    return np.minimum(r_00, 0.5 * (r_ee + r_11) - np.hypot(0.5 * (r_ee - r_11), abs_e1))


def evolve_lindblad(p: SystemParams, t_grid) -> Trajectory:
    """Integrate the full master equation from |e,0><e,0|; emit (n_e, n_c, pol).

    The emitter starts excited, as in evolve_triple.  The Lindblad-sum
    Liouvillian is checked to be block lower triangular with exact zeros and
    to have a vanishing trace row (IntegrationError otherwise).  The ground
    coherences (rho_e0, rho_10) start and stay zero, so only the
    one-excitation block is propagated, as a real 4x4 in (rho_ee, rho_11,
    Re rho_e1, Im rho_e1), and rho_00 = 1 - rho_ee - rho_11.  (n_e, n_c, pol)
    = (rho_ee, rho_11, rho_1e) thus hold every entry of each sampled density
    matrix, which is Hermitian by construction and has unit trace up to
    rounding (trace_defect in the metadata).  Its lowest eigenvalue, in
    closed form, must stay above -POSITIVITY_ABORT (else PositivityError with
    the offending time).
    """
    _require_scalar_omega_c(p, "evolve_lindblad")
    t = _check_t_grid(t_grid)
    liou = liouvillian_matrix(p)
    # rho.ravel() holds rho_ij at 3*i + j.  In the order
    # (ee, 11, e1, 1e | e0, 10 | 0e, 01 | 00) the blocks evolve on their own,
    # except that rho_00 is fed by the one-excitation block
    one = [0, 4, 1, 3]
    off_block = np.ones((9, 9), bool)
    for block in (one, [2, 5], [6, 7]):
        off_block[np.ix_(block, block)] = False
    off_block[8, one] = False
    if np.any(liou[off_block] != 0.0):
        raise IntegrationError(
            "master-equation generator leaks out of its blocks: "
            f"off-block entry {np.abs(liou[off_block]).max():.3e}")
    trace_row = np.abs(liou[[0, 4, 8]].sum(axis=0)).max()
    if trace_row > 16.0 * np.finfo(float).eps * np.abs(liou).max():
        raise IntegrationError(
            f"master-equation generator does not preserve the trace: "
            f"trace row {trace_row:.3e}")
    # rows ee, 11, e1 on columns (rho_ee, rho_11, Re rho_e1, Im rho_e1)
    b = liou[np.ix_([0, 4, 1], one)]
    b = np.column_stack([b[:, 0], b[:, 1], b[:, 2] + b[:, 3], 1j * (b[:, 2] - b[:, 3])])
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    (n_e, n_c, re_e1, im_e1), info = _propagate_expm(np.vstack([b.real, b[2].imag]), y0, t)
    pol = np.conj(re_e1 + 1j * im_e1)
    r_00 = 1.0 - n_e - n_c

    tr_err = np.abs(n_e + n_c + r_00 - 1.0).max()
    lowest = _lowest_eigenvalues(n_e, n_c, np.abs(pol), r_00)
    k = int(np.argmin(lowest))
    min_eig = float(lowest[k])
    if min_eig < -POSITIVITY_ABORT:
        raise PositivityError(
            f"density matrix eigenvalue {min_eig:.3e} < -{POSITIVITY_ABORT:.1e} "
            f"at t = {t[k]:.6e}")
    return Trajectory(
        t=t, n_e=n_e, n_c=n_c, pol=pol,
        metadata={**info, "equations": "lindblad", "params": p,
                  "min_eigenvalue": min_eig, "trace_defect": float(tr_err)})


def _exprel(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z elementwise, 1 at z = 0."""
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)


def coarse_grained_solution(p: SystemParams, t):
    """Closed-form coarse-grained populations (n_e, n_c) at time(s) t.

    Valid for the fixed initial conditions n_e(0) = 1, n_c(0) = 0.  With the
    divided difference D = (exp(L+ t) - exp(L- t))/(L+ - L-), written
    t exp(L+ t) exprel(-(L+ - L-) t) so that it holds through the confluent
    point L+ = L- (the eigenvalues are real, L+ >= L-):
    n_e = exp(L+ t) + (L- + R_pm + kappa) D and n_c = R_pp D.
    """
    _require_scalar_omega_c(p, "coarse_grained_solution")
    t = np.asarray(t, float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    cs = rate_coefficients(p)
    lp, lm = cs.lambda_plus, cs.lambda_minus
    ep = np.exp(lp * t)
    dd = t * ep * _exprel(-(lp - lm) * t)
    return ep + (lm + cs.r_pm + p.kappa) * dd, cs.r_pp * dd


def adiabatic_polarization(p: SystemParams, n_e, n_c):
    """Quasi-steady polarization (-i g+* n_e + i g-* n_c)/(i detuning + Gamma).

    This is the value the polarization relaxes to once its fast transient has
    died out; in the strong-coupling regime it represents the running average
    over the population oscillations rather than an instantaneous value.
    """
    dc = derive_couplings(p)
    return (-1j * np.conj(dc.g_plus) * n_e + 1j * np.conj(dc.g_minus) * n_c) / (
        1j * dc.detuning + dc.gamma_tot)


def envelope_decay_rate(traj: Trajectory) -> float:
    """Decay rate of n_e from successive oscillation maxima (or direct fit).

    Oscillatory trajectories need at least 5 interior local maxima; their
    log-values are fit linearly against time.  Monotone decays are fit
    directly on log n_e.  Anything in between raises TooFewExtremaError;
    non-positive or degenerate fit data raises EnvelopeFitError.
    """
    t, x = traj.t, traj.n_e
    interior = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]))[0] + 1
    if len(interior) >= 5:
        tm, xm = t[interior], x[interior]
        if np.any(xm <= 0.0):
            raise EnvelopeFitError("non-positive values at oscillation maxima")
        slope = np.polyfit(tm, np.log(xm), 1)[0]
    elif np.all(np.diff(x) <= 1e-12 * max(float(x.max()), 1.0)):
        good = x > 0.0
        if good.sum() < 2:
            raise EnvelopeFitError("too few positive samples for a decay fit")
        slope = np.polyfit(t[good], np.log(x[good]), 1)[0]
    else:
        raise TooFewExtremaError(
            f"only {len(interior)} local maxima and the decay is not monotone; "
            "need >= 5 maxima or a monotone trajectory")
    rate = -float(slope)
    if rate <= 0.0:
        raise EnvelopeFitError(f"fitted envelope rate {rate} is not positive")
    return rate
