"""Time evolution of the emitter-cavity system in the one-excitation sector.

Two independent routes are provided and cross-checked against each other:

* ``evolve_triple`` integrates the three coupled equations of motion for the
  excited-state population n_e = <sigma+ sigma->, the cavity photon number
  n_c = <a+ a>, and the polarization p = <sigma+ a>.
* ``evolve_lindblad`` integrates the full master equation for the 3x3 density
  matrix on the basis {|e,0>, |g,1>, |g,0>}, which is closed under the
  dynamics because the initial state carries one excitation and every
  dissipator is excitation-non-increasing.  Its generator is built from the
  operators and is block lower triangular: the one-excitation block
  (rho_ee, rho_11, rho_e1) and the ground coherences (rho_e0, rho_10) evolve
  on their own, and rho_00 follows from the trace.  The route checks that
  structure and propagates the blocks as real 4x4 generators.

Both generators are linear and time independent, so the default integrator
propagates with matrix exponentials: one batched scaling-and-squaring
evaluation of the degree-13 Pade approximant for all distinct gaps of the
grid, then a blocked scan of in-block prefix products that carries the state
through those hops (``_hop``).  The exponentials are backward stable: every
eigenvalue carries an absolute error of order eps*||A||, harmless for modes
that decay at the generator's scale but amplified by t for a mode far slower
than it, such as the one at the rate antiresonance.  Such slow modes, where
an eigenvalue screen finds any, are split off and hopped by their own refined
generator (``_propagate_expm``).
Adaptive DOP853 (scipy's solve_ivp) is kept as the independent cross-check.
In this sector the closure <sigma_z a+ a> = -<a+ a> is exact, so the two
routes must agree to integrator accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# scipy is imported inside the functions that call it: `import fanoqed` stays
# cheap for the commands that never propagate
from .params import SystemParams, _require_scalar_omega_c, derive_couplings
from .rates import rate_coefficients

__all__ = [
    "Trajectory",
    "IntegrationError",
    "PositivityError",
    "TooFewExtremaError",
    "EnvelopeFitError",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "A_OP",
    "A_DAG",
    "SIGMA_Z",
    "excited_state_dm",
    "hamiltonian_matrix",
    "triple_generator_matrix",
    "lindblad_generator",
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


# DOP853's tolerances; the expm route's step-halving check allows 1e3 times them
RTOL = 1e-10
ATOL = 1e-12
# evolve_lindblad raises PositivityError below a lowest eigenvalue of -POSITIVITY_ABORT
POSITIVITY_ABORT = 1e-7


# Operators on the ordered basis {|e,0>, |g,1>, |g,0>}.  sigma+ and a+ are the
# in-sector projections; states with two excitations are excluded by
# construction, not by tolerance.
SIGMA_MINUS = np.zeros((3, 3)); SIGMA_MINUS[2, 0] = 1.0
SIGMA_PLUS = SIGMA_MINUS.T.copy()
A_OP = np.zeros((3, 3)); A_OP[2, 1] = 1.0
A_DAG = A_OP.T.copy()
SIGMA_Z = np.diag([1.0, -1.0, -1.0])
_SIGMA_PLUS_A = SIGMA_PLUS @ A_OP      # |e,0><g,1|
_A_DAG_SIGMA_MINUS = A_DAG @ SIGMA_MINUS


def excited_state_dm() -> np.ndarray:
    """|e,0><e,0| as a 3x3 complex array."""
    rho = np.zeros((3, 3), complex)
    rho[0, 0] = 1.0
    return rho


@dataclass
class Trajectory:
    """Sampled time evolution of (n_e, n_c, pol) with provenance metadata."""

    t: np.ndarray
    n_e: np.ndarray
    n_c: np.ndarray
    pol: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

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


def lindblad_generator(p: SystemParams):
    """Action rho -> drho/dt of the master equation, in the Schroedinger picture.

    The cross dissipator couples the sigma- and a decay channels with the
    complex rate gamma_f; its interaction-picture phases are absorbed by the
    frame change, so the returned action is time independent.  For eta = 1 it
    is equivalent to a single collective jump operator
    sqrt(gamma)*sigma- + exp(i(theta21 - theta_c))*sqrt(kappa)*a.
    """
    _require_scalar_omega_c(p, "lindblad_generator")
    dc = derive_couplings(p)
    h = hamiltonian_matrix(p)
    gamma, kappa, gph = p.gamma, p.kappa, p.gamma_ph
    gf = dc.gamma_f
    gfc = np.conj(gf)

    def action(rho: np.ndarray) -> np.ndarray:
        d = -1j * (h @ rho - rho @ h)
        d += 0.5 * gamma * (2.0 * SIGMA_MINUS @ rho @ SIGMA_PLUS
                            - SIGMA_PLUS @ SIGMA_MINUS @ rho
                            - rho @ SIGMA_PLUS @ SIGMA_MINUS)
        d += 0.5 * kappa * (2.0 * A_OP @ rho @ A_DAG
                            - A_DAG @ A_OP @ rho - rho @ A_DAG @ A_OP)
        d += 0.5 * gf * (2.0 * A_OP @ rho @ SIGMA_PLUS
                         - _SIGMA_PLUS_A @ rho - rho @ _SIGMA_PLUS_A)
        d += 0.5 * gfc * (2.0 * SIGMA_MINUS @ rho @ A_DAG
                          - _A_DAG_SIGMA_MINUS @ rho - rho @ _A_DAG_SIGMA_MINUS)
        if gph != 0.0:
            d += 0.5 * gph * (SIGMA_Z @ rho @ SIGMA_Z - rho)
        return d

    return action


def liouvillian_matrix(p: SystemParams) -> np.ndarray:
    """9x9 complex matrix form of the master-equation generator."""
    _require_scalar_omega_c(p, "liouvillian_matrix")
    # one call on the stack of the nine basis matrices: the image of basis
    # matrix k, raveled, is row k of the result and column k of the matrix
    basis = np.eye(9, dtype=complex).reshape(9, 3, 3)
    return lindblad_generator(p)(basis).reshape(9, 9).T


def _check_t_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("t_grid must be a 1-d array with at least two samples")
    if t[0] != 0.0:
        raise ValueError("t_grid must start at 0 (the initial-condition time)")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
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
    W1 of the spectral projector Q1 @ W1 (k x n), and the k x k generator of
    the mode amplitudes, so that A Q1 = Q1 gen.  Q1 comes from an ordered
    real Schur form A Z = Z T, W1 from the Sylvester equation that decouples
    T11 from T22.  gen is one two-sided block Rayleigh-quotient step from T11,
    T11 + W1 (A Q1 - Q1 T11), with the residual computed by Dot2: T11 itself
    carries the eps*||A|| error that the split is there to remove.  k = 0
    gives empty arrays, without the Schur form when every |eigvals(A)| clears
    twice the cut: their error of about eps*||A|| is far below that margin.
    """
    from scipy.linalg import schur, solve_sylvester

    n = len(a)
    cut = SLOW_MODE_RATIO * np.linalg.norm(a, 1)
    if np.abs(np.linalg.eigvals(a)).min() >= 2.0 * cut:
        return np.empty((n, 0)), np.empty((0, n)), np.empty((0, 0))
    t, z, k = schur(a, output="real", sort=lambda re, im: math.hypot(re, im) < cut)
    basis, t11 = z[:, :k], t[:k, :k]
    proj = basis.T
    if 0 < k < n:
        x = solve_sylvester(t11, -t[k:, k:], -t[:k, k:])
        proj = proj - x @ z[:, k:].T
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

    Scaling and squaring (Higham 2005) in batched numpy: every a s is scaled
    by 2**-k, k = ceil(log2(max(||a s||_1 / theta_13, 1))), into the degree-13
    Pade approximant, evaluated for all steps at once, and the result is then
    squared k times, on the entries that still need it only.  The approximant
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
    errors are of order eps*|l|.  The rest stays on the expm(A dt) hops.  The largest gap is validated by
    comparing one full expm(A dt) hop against two half hops, which bounds
    the local error of the exponential itself.

    Returns (ys, defect, k): the samples as an (n, len(t)) array, that
    step-halving defect and the number k of slow modes split off.
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
    if not defect <= 1e3 * (RTOL * scale + ATOL):    # a NaN defect fails too
        raise IntegrationError(
            f"matrix-exponential propagation failed validation: "
            f"step-halving defect {defect:.3e} at gap {dts[-1]:.3e}")
    return ys.T, float(defect), len(gen)


def _propagate(a, y0, t, method):
    """Samples of dy/dt = A y and the integrator's metadata entries."""
    if method == "expm":
        ys, defect, k = _propagate_expm(a, y0, t)
        return ys, {"integrator": "expm", "expm_defect": defect, "slow_modes": k}
    if method != "dop853":
        raise ValueError(f"unknown integration method {method!r}")
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda _t, y: a @ y, (t[0], t[-1]), y0, t_eval=t,
                    rtol=RTOL, atol=ATOL, method="DOP853")
    if not sol.success:
        raise IntegrationError(
            f"DOP853 failed at t = {sol.t[-1] if len(sol.t) else t[0]}: "
            f"{sol.message}")
    return sol.y, {"integrator": "DOP853"}


def evolve_triple(p: SystemParams, t_grid=None, method: str = "expm") -> Trajectory:
    """Integrate the (n_e, n_c, p) equations of motion on a sample grid.

    The emitter starts excited: (n_e, n_c, p) = (1, 0, 0) at t = 0, the state
    that the moments and the coarse-grained solution assume too.
    method: "expm" (exact linear propagation, default; reruns give the same
    bytes) or "dop853" (adaptive solve_ivp at RTOL and ATOL, the independent
    cross-check).
    """
    _require_scalar_omega_c(p, "evolve_triple")
    t = _check_t_grid(t_grid)
    a = triple_generator_matrix(p)
    y0 = np.array([0.0, 1.0, 0.0, 0.0])    # (n_c, n_e, Re p, Im p)
    ys, info = _propagate(a, y0, t, method)
    return Trajectory(
        t=t, n_e=ys[1], n_c=ys[0], pol=ys[2] + 1j * ys[3],
        metadata={**info, "equations": "bloch-triple", "params": p})


def _lowest_eigenvalues(rhos: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each rho without ground coherences, in closed form.

    rho is [[a, c], [c*, b]] plus rho_00: min(rho_00, (a+b)/2 - hypot((a-b)/2, |c|)).
    """
    a, b, c = rhos[:, 0, 0].real, rhos[:, 1, 1].real, np.abs(rhos[:, 0, 1])
    return np.minimum(rhos[:, 2, 2].real, 0.5 * (a + b) - np.hypot(0.5 * (a - b), c))


def evolve_lindblad(p: SystemParams, rho0: np.ndarray | None = None,
                    t_grid=None, method: str = "expm",
                    return_states: bool = False):
    """Integrate the full master equation; emit (n_e, n_c, pol) per sample.

    The operator-built Liouvillian is checked to be block lower triangular
    with exact zeros and to have a vanishing trace row (IntegrationError
    otherwise).  Its one-excitation block is propagated as a real 4x4 in
    (rho_ee, rho_11, Re rho_e1, Im rho_e1), its ground-coherence block
    (rho_e0, rho_10) as a real 4x4 only when rho0 has ground coherences, and
    rho_00 comes from the trace.  Each sampled density matrix is thus
    Hermitian by construction (real diagonal, lower triangle the conjugate of
    the upper) and has the initial trace up to rounding (trace_defect in the
    metadata).  Its lowest eigenvalue, in closed form without
    ground coherences and by eigvalsh with them, must stay above
    -POSITIVITY_ABORT (else PositivityError with the offending time).  With
    return_states=True the sampled 3x3 matrices are returned alongside.
    """
    _require_scalar_omega_c(p, "evolve_lindblad")
    if rho0 is None:
        rho0 = excited_state_dm()
    rho0 = np.asarray(rho0, complex)
    if rho0.shape != (3, 3):
        raise ValueError(f"rho0 must be 3x3, got {rho0.shape}")
    if np.abs(rho0 - rho0.conj().T).max() > 1e-12:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError(f"rho0 must have unit trace, got {np.trace(rho0)}")
    t = _check_t_grid(t_grid)
    liou = liouvillian_matrix(p)
    # rho.ravel() holds rho_ij at 3*i + j.  In the order
    # (ee, 11, e1, 1e | e0, 10 | 0e, 01 | 00) the blocks evolve on their own,
    # except that rho_00 is fed by the one-excitation block
    one, coh = [0, 4, 1, 3], [2, 5]
    off_block = np.ones((9, 9), bool)
    for block in (one, coh, [6, 7]):
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
    y0 = np.array([rho0[0, 0].real, rho0[1, 1].real, rho0[0, 1].real, rho0[0, 1].imag])
    ys, info = _propagate(np.vstack([b.real, b[2].imag]), y0, t, method)
    rhos = np.zeros((len(t), 3, 3), complex)
    rhos[:, 0, 0] = ys[0]
    rhos[:, 1, 1] = ys[1]
    rhos[:, 0, 1] = ys[2] + 1j * ys[3]
    rhos[:, 2, 2] = np.trace(rho0).real - ys[0] - ys[1]
    z0 = rho0[:2, 2]
    if np.any(z0):
        c = liou[np.ix_(coh, coh)]
        zs, info_coh = _propagate(np.block([[c.real, -c.imag], [c.imag, c.real]]),
                                  np.concatenate([z0.real, z0.imag]), t, method)
        rhos[:, :2, 2] = (zs[:2] + 1j * zs[2:]).T
        if "slow_modes" in info:
            info["slow_modes"] += info_coh["slow_modes"]
            info["expm_defect"] = max(info["expm_defect"], info_coh["expm_defect"])
    rhos[:, 1, 0] = rhos[:, 0, 1].conj()
    rhos[:, 2, :2] = rhos[:, :2, 2].conj()

    tr_err = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max()
    lowest = np.linalg.eigvalsh(rhos)[:, 0] if np.any(z0) else _lowest_eigenvalues(rhos)
    k = int(np.argmin(lowest))
    min_eig = float(lowest[k])
    if min_eig < -POSITIVITY_ABORT:
        raise PositivityError(
            f"density matrix eigenvalue {min_eig:.3e} < -{POSITIVITY_ABORT:.1e} "
            f"at t = {t[k]:.6e}")

    traj = Trajectory(
        t=t, n_e=rhos[:, 0, 0].real, n_c=rhos[:, 1, 1].real, pol=rhos[:, 1, 0],
        metadata={**info, "equations": "lindblad", "params": p,
                  "min_eigenvalue": min_eig, "trace_defect": float(tr_err)})
    if return_states:
        return traj, rhos
    return traj


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
    cs = rate_coefficients(derive_couplings(p), p)
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
    return (-1j * np.conj(dc.g_plus) * np.asarray(n_e)
            + 1j * np.conj(dc.g_minus) * np.asarray(n_c)) / (
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
