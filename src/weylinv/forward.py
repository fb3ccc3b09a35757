"""Forward solver for the half-line problem L(Q, A, h).

Computes the Jost solution and Jost matrix, regular solutions, Weyl
solutions and the Weyl matrix, and the block diagnostic P comparing two
problems with the same projector A.  Adjoint objects are the transposed
objects of the transposed problem (transpose_problem).

The outgoing solution is computed in the scaled variable
E(x) = e(x, rho) * exp(-i rho x), which stays O(1) for Im rho > 0; this
lets the solver evaluate far up the imaginary axis (rho = 400i) without
overflow.  Successive approximation of the scaled Volterra equation

    E(x) = I + (1 / 2 i rho) [e^{-2 i rho x} I2(x) - I0(x)],
    I2(x) = int_x^X e^{2 i rho t} Q E dt,   I0(x) = int_x^X Q E dt,

uses 4th-order cumulative tail quadrature.  Differentiating the
representation gives E'(x) = -e^{-2 i rho x} I2(x) exactly, so no
numerical differencing enters the Jost matrix; the Jost matrix needs E'
at x = 0 only, which is one weighted sum.

The solver works on blocks of spectral points, (N, n, n, B) arrays with
the points last, and a point drops out as soon as it has converged, so it
stops at the sweep count it would reach alone.  A sweep is a fixed, small
number of whole-block numpy operations, with no Python loop over x and no
product per matrix: Q E is one (n, n) @ (n, n B) product per x-node; the
scaled integral's backward recurrence J_i = a J_{i+1} + s_i,
a = exp(2 i rho dx), is a chunked scan of about 2 sqrt(N) small steps;
the plain integral is a cumulative sum; and the 4th-order endpoint terms
of the two integrals cancel at every interior node, so no gradient is
taken (_sweep_increment).  B comes from a fixed memory budget, so the
working set does not grow with the number of points.  For real Q,
e(x, -conj rho) = conj e(x, rho), so the Jost data at x = 0 are marched
once per mirror pair and per repeated point (_jost_at_zero).

The regular solutions are marched for many energies at once, with Q
frozen at each step midpoint.  Each step map exp(dx [[0, I], [B, 0]]) is
a Taylor series in W = dx^2 B, summed by one Horner pass over the whole
(step, energy) stack, with scaling and doubling when W is large; no
matrix exponential is called per matrix.  The maps are chained by a
chunked prefix-product scan of about 2 sqrt(N) small steps, not one
Python step per grid node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryCondition,
    ConvergenceError,
    DomainError,
    MatrixWave,
    PoleProximityError,
    PotentialGrid,
    SpectralPoint,
    apply_T,
    matnorm,
)

__all__ = [
    "Problem",
    "AsymptoticsReport",
    "solve_jost",
    "jost_matrix",
    "solve_regular",
    "weyl_matrix",
    "weyl_solution",
    "adjoint_weyl_matrix",
    "check_m_equals_mstar",
    "scan_jost_zeros",
    "p_matrix_diagnostic",
    "omega",
    "kappa",
    "transpose_problem",
    "fit_decay_order",
    "asymptotics_report",
    "zero_potential",
]

# Largest Jost-matrix 1-norm condition number the Weyl objects accept, and
# the update tolerance and sweep budget of the Jost iteration.
COND_LIMIT = 1e10
JOST_TOL = 1e-12
JOST_MAX_ITER = 50
# Memory budget of one (N, n, n, B) complex array of the Jost march; the
# block size B is the largest that fits it.  Re-measured for the loop-free
# sweep on forward-matrix (seed 7, one BLAS thread, 5 calls of
# generate_weyl_data in one process): one block of all 104 points took
# 0.092 s a call against 0.083 s, and raised peak memory from 64.5 to
# 80.4 MB; a 512 KB budget was no faster and added 2.6 MB.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Problem:
    """A potential together with projector-form boundary data."""

    potential: PotentialGrid
    bc: BoundaryCondition

    def __post_init__(self):
        if self.potential.dim != self.bc.dim:
            raise ValueError(
                f"potential dim {self.potential.dim} != boundary dim {self.bc.dim}"
            )

    @property
    def dim(self) -> int:
        return self.bc.dim


def zero_potential(n: int, x_max: float = 1.0, nodes: int = 201) -> PotentialGrid:
    """Q identically zero; handy model and test fixture."""
    x = np.linspace(0.0, x_max, nodes)
    return PotentialGrid(x_nodes=x, values=np.zeros((nodes, n, n), dtype=complex))


def transpose_problem(problem: Problem) -> Problem:
    """The problem with Q, A, h transposed.

    The adjoint equation -Z'' + Z Q = lambda Z is the transpose of the
    direct equation with Q -> Q^T, so every adjoint object is obtained by
    transposing the corresponding object of this problem.
    """
    pot = PotentialGrid(
        x_nodes=problem.potential.x_nodes,
        values=np.transpose(problem.potential.values, (0, 2, 1)),
    )
    bc = BoundaryCondition(A=problem.bc.A.T, h=problem.bc.h.T)
    return Problem(potential=pot, bc=bc)


# ---------------------------------------------------------------------------
# Jost solution
# ---------------------------------------------------------------------------

def _node_product(Q, E):
    """Q(x) E(x, rho) for every node and point of an (N, n, m, B) block
    (points last): one (n, n) @ (n, m B) product per node, not one per
    node and point."""
    N, n, m, B = E.shape
    return (Q @ E.reshape(N, n, m * B)).reshape(N, n, m, B)


def _powers(rhos, N, dx):
    """a^k = exp(2 i rho k dx) for k < N and every rho, as (N, B).

    |a| <= 1 for Im rho >= 0, so no power overflows; far up the imaginary
    axis the high powers underflow to 0, which is their value to rounding.
    """
    return np.exp(2j * rhos * (np.arange(N) * dx)[:, None])


def _backward_scan(s, pw):
    """J_i = a J_{i+1} + s_i for i < M and J_M = 0, as M + 1 rows, for an
    (M, ...) array s and the powers pw of a (pw[k] = a^k for k <= M).

    A chunked scan: the rows go into C chunks of L = ceil(sqrt(M)) rows
    (the first chunk padded in front), every chunk is scanned on its own,
    all chunks at once; one pass over the chunks carries J at the start
    of the next chunk with a^L; one fix-up adds a^(L - j) times that
    carry to row j of every chunk.  That is L + C small steps, not M.
    """
    M, rest = s.shape[0], s.shape[1:]
    L = math.isqrt(M - 1) + 1
    C = -(-(M + 1) // L)
    pad = C * L - M - 1
    y = np.zeros((C * L,) + rest, dtype=complex)
    y[pad:-1] = s
    y = y.reshape((C, L) + rest)
    for j in range(L - 2, -1, -1):
        y[:, j] += pw[1] * y[:, j + 1]
    carry = np.zeros((C,) + rest, dtype=complex)
    for c in range(C - 2, -1, -1):
        np.multiply(pw[L], carry[c + 1], out=carry[c])
        carry[c] += y[c + 1, 0]
    y += pw[L - np.arange(L)] * carry[:, None]
    return y.reshape((C * L,) + rest)[pad:]


def _end_slopes(g, dx):
    """g'(x_0) and g'(x_N) by the one-sided 3-point stencils that
    np.gradient(edge_order=2) uses at the ends."""
    return ((-1.5 * g[0] + 2.0 * g[1] - 0.5 * g[2]) / dx,
            (0.5 * g[-3] - 2.0 * g[-2] + 1.5 * g[-1]) / dx)


def _sweep_increment(P, pw, w, inv, dx):
    """E_new - I = (S2(P) - S0(P)) / (2 i rho) for P = Q E of one sweep.

    S2 is the scaled tail integral of P (_scaled_tail_integrals) and S0
    the plain one (core.tail_integrals).  Their endpoint terms
    (dx^2/12) P'(x_i) cancel at every node, which leaves the two
    trapezoid sums plus (dx^2/12) [P + P'_N w - decay P_N] with
    decay_i = a^(N-1-i) and w = (1 - decay) / (2 i rho), so no interior
    gradient is taken.  pw are the powers of a and inv = 1 / (2 i rho);
    the last row is zero.

    The terms are formed in place in one scratch array s.  Freed
    whole-block temporaries go back to the system, so each new one costs
    its page faults again: written as plain expressions, a
    generate_weyl_data call on forward-matrix took about 22 000 page
    faults and 0.15 s, against 3 800 and 0.08 s in place.
    """
    half = 0.5 * dx
    s = pw[1] * P[1:]
    s += P[:-1]
    s *= half
    out = _backward_scan(s, pw)
    np.add(P[:-1], P[1:], out=s)
    s *= half
    np.cumsum(s[::-1], axis=0, out=s[::-1])
    out[:-1] -= s
    out[:-1] *= inv
    np.multiply(w[:-1], _end_slopes(P, dx)[1], out=s)
    s -= pw[:0:-1] * P[-1]
    s += P[:-1]
    s *= dx * dx / 12.0
    out[:-1] += s
    return out


def _sweep_factors(rhos, shape, dx):
    """The rho-only factors of a sweep over an (N, n, n, B) block: the
    powers pw of a, w = (1 - decay) / (2 i rho) and inv = 1 / (2 i rho).
    They are stored at full width, so every product with them runs over
    contiguous rows instead of broadcasting short ones."""
    pw = np.broadcast_to(_powers(rhos, shape[0], dx)[:, None, None],
                         shape).copy()
    inv = np.broadcast_to(1.0 / (2j * rhos), shape[1:]).copy()
    return pw, (1.0 - pw[::-1]) * inv, inv


def _jost_scaled(Q, rhos, dx, names=None):
    """Scaled Jost solutions E = e * exp(-i rho x) for a block of points.

    Q is the (N, n, n) potential and rhos a (B,) array; returns E as an
    (N, n, n, B) array (points last) and the (B,) sweep count of each
    point.  A point leaves the sweep once its update norm is within
    JOST_TOL, so it stops after as many sweeps as it would alone.  A NaN
    update never counts as converged; the ConvergenceError names the
    point's entry of names (the (B,) points the caller asked for, rhos
    when None).
    """
    N, n = Q.shape[:2]
    eye = np.eye(n, dtype=complex)[..., None]
    E = np.broadcast_to(eye, (N, n, n, rhos.size)).copy()
    sweeps = np.zeros(rhos.size, dtype=int)
    if not np.any(Q):
        return E, sweeps

    # formed once per block and cut down to the points still live
    pw, w, inv = _sweep_factors(rhos, E.shape, dx)
    live = np.arange(rhos.size)
    going = np.ones(rhos.size, dtype=bool)
    Ea = E
    for _ in range(JOST_MAX_ITER):
        if not going.all():
            live, pw, w, inv = (live[going], pw[..., going], w[..., going],
                                inv[..., going])
            Ea = Ea[..., going]
        E_new = _sweep_increment(_node_product(Q, Ea), pw, w, inv, dx)
        E_new += eye
        upd = np.abs(E_new - Ea).sum(axis=2).max(axis=(0, 1))
        E[..., live] = E_new
        sweeps[live] += 1
        going = ~(upd <= JOST_TOL)
        if not going.any():
            return E, sweeps
        Ea = E_new
    worst = np.argmax(np.where(np.isnan(upd), np.inf, upd))
    last = float(upd[worst])
    raise ConvergenceError(
        f"Jost iteration did not reach {JOST_TOL} in {JOST_MAX_ITER} sweeps; "
        f"largest last update {last:.3e} at rho = "
        f"{complex((rhos if names is None else names)[live[worst]])}",
        residual=last,
    )


def _scaled_tail_integrals(g, rhos, dx: float):
    """J_i = int_{x_i}^{x_N} exp(2 i rho (t - x_i)) g(t) dt for sampled g.

    g is (N, B, n, n) with one column per entry of the (B,) array rhos
    (a column of size one is shared by all of them).  The kernel is
    pre-scaled to the left endpoint, so every factor is a power of
    a = exp(2 i rho dx) with |a| <= 1 for Im rho >= 0 and nothing
    overflows at large |rho|.  The trapezoid sums obey the backward
    recurrence J_i = a J_{i+1} + (dx/2)(g_i + a g_{i+1}), solved by the
    chunked scan of _backward_scan; the trapezoid endpoint correction
    (dx^2/12)(f'(x_i) - scaled f'(x_N)) with f = exp(2 i rho (t - x_i)) g
    restores 4th-order accuracy.  A Jost sweep does not call this: there
    the g'(x_i) terms cancel against those of the plain integral
    (_sweep_increment).  solve_jost uses it for E' on the whole grid.
    """
    N = g.shape[0]
    r = rhos[:, None, None]
    pw = _powers(rhos, N, dx)[..., None, None]
    J = _backward_scan(0.5 * dx * (g[:-1] + pw[1] * g[1:]), pw)
    gp = np.gradient(g, dx, axis=0, edge_order=2)
    J += (dx * dx / 12.0) * (gp + 2j * r * g
                             - pw[::-1] * (gp[-1] + 2j * r * g[-1]))
    J[-1] = 0.0
    return J


def _scaled_integral_at_start(g, rhos, dx):
    """J_0 of _scaled_tail_integrals alone, (n, n, B): one weighted sum of
    g against the trapezoid weights times a^k, plus the endpoint terms.

    The sum is a running sum, so the order of its additions, and with it
    the rounding, does not depend on how many points share the block.
    """
    N = g.shape[0]
    pw = _powers(rhos, N, dx)[:, None, None]
    wt = np.full((N, 1, 1, 1), dx)
    wt[0] = wt[-1] = 0.5 * dx
    d0, dN = _end_slopes(g, dx)
    return (np.cumsum(wt * pw * g, axis=0)[-1]
            + (dx * dx / 12.0) * (d0 + 2j * rhos * g[0]
                                  - pw[-1] * (dN + 2j * rhos * g[-1])))


def _jost_at_zero(problem: Problem, rhos):
    """e(0, rho) and e'(0, rho) for every rho of a (K,) array, each
    (K, n, n).

    For real Q, conjugating the equation gives e(x, -conj rho) =
    conj e(x, rho), so a point with Re rho < 0 is marched as its mirror
    -conj rho and conjugated back; with exact repeats merged too, each
    mirror pair and each repeat is marched once.  The distinct points go
    in blocks of the most that fit _BLOCK_BYTES.  E' is formed at x = 0
    only: E'(0) = -J_0 of the scaled tail integral of Q E.  A
    ConvergenceError names the point as the caller passed it."""
    pot = problem.potential
    rhos = np.asarray(rhos, dtype=complex)
    flip = (rhos.real < 0) & (not pot.values.imag.any())
    march, first, where = np.unique(np.where(flip, -rhos.conj(), rhos),
                                    return_index=True, return_inverse=True)
    N, n = pot.x_nodes.size, pot.dim
    B = max(1, _BLOCK_BYTES // (16 * N * n * n))
    e0 = np.empty((march.size, n, n), dtype=complex)
    e0p = np.empty_like(e0)
    for s in range(0, march.size, B):
        r = march[s:s + B]
        E, _ = _jost_scaled(pot.values, r, pot.dx, rhos[first[s:s + B]])
        # i rho e(0) on (B, n, n) arrays: numpy's complex product rounds by
        # the loop it picks, and with the points last a block of one point
        # picks another loop than a block of many
        e0[s:s + B] = np.moveaxis(E[0], -1, 0)
        e0p[s:s + B] = 1j * r[:, None, None] * e0[s:s + B] - np.moveaxis(
            _scaled_integral_at_start(_node_product(pot.values, E), r, pot.dx),
            -1, 0)
    e0, e0p = e0[where], e0p[where]
    e0[flip] = e0[flip].conj()
    e0p[flip] = e0p[flip].conj()
    return e0, e0p


def solve_jost(problem: Problem, pt: SpectralPoint) -> MatrixWave:
    """Jost solution e(., rho) and e'(., rho) on the potential grid.

    Q is treated as zero beyond x_max, where e = exp(i rho x) I holds
    exactly.  Raises ConvergenceError if the successive approximations do
    not settle within the sweep budget.
    """
    rho = pt.rho
    pot = problem.potential
    rhos = np.array([rho])
    E, _ = _jost_scaled(pot.values, rhos, pot.dx)
    Eprime = -_scaled_tail_integrals(
        np.moveaxis(_node_product(pot.values, E), -1, 1), rhos, pot.dx)
    phase = np.exp(1j * rho * pot.x_nodes)[:, None, None]
    value = E[..., 0] * phase
    derivative = (1j * rho * E[..., 0] + Eprime[:, 0]) * phase
    return MatrixWave(grid=pot.x_nodes, value=value, derivative=derivative,
                      at=pt)


def jost_matrix(problem: Problem, pt: SpectralPoint) -> np.ndarray:
    """Jost matrix J(rho) = T(e(., rho))."""
    return apply_T(problem.bc, *_jost_at_zero(problem, [pt.rho]))[0]


def omega(problem: Problem, x: float, rhos) -> np.ndarray:
    """Tail transform omega(x, rho) = (1/2) int_x^X Q(t) e^{2 i rho (t-x)} dt.

    rhos is one value, giving an (n, n) matrix, or an array, giving one
    matrix per entry.  A direct sum over the suffix [x, X] for all rho at
    once: the trapezoid rule plus the endpoint correction
    (dx^2/12)(f'(x) - f'(X)) of the Jost solver's backward recurrence,
    which it matches to rounding.
    """
    pot = problem.potential
    rhos = np.asarray(rhos, dtype=complex)
    Q = pot.values[pot.index_of(x):]
    if Q.shape[0] < 3:
        raise ValueError("omega needs at least 3 grid nodes in [x, x_max]")
    out = 0.5 * _scaled_integral_at_start(Q[..., None], rhos.reshape(-1), pot.dx)
    return np.moveaxis(out, -1, 0).reshape(rhos.shape + Q.shape[1:])


def kappa(problem: Problem, rhos) -> np.ndarray:
    """kappa(rho) = (A_perp - A) omega(0, rho), for one rho or an array."""
    return (problem.bc.A_perp - problem.bc.A) @ omega(problem, 0.0, rhos)


# ---------------------------------------------------------------------------
# Regular solutions (exponential midpoint stepper)
# ---------------------------------------------------------------------------

# Truncation target of the Taylor step maps, and the largest ||W||_1 they
# are summed at; larger W are scaled by 4^-m and doubled back m times.
_STEP_TAYLOR_TOL = 1e-17
_STEP_NORM_MAX = 0.25


def _mm(a, b):
    """a @ b for long stacks of small matrices, as one whole-stack
    broadcast product per inner index.  numpy's matmul makes one BLAS
    call per matrix of a stack, and for the 2n x 2n step maps that fixed
    cost is most of the time (16 solve_regular calls on forward-matrix:
    0.020-0.029 s with matmul throughout, 0.011-0.013 s with this for the
    long stacks, one BLAS thread on a 2-core x86 host).  Short stacks are
    faster with matmul (see _MM_MIN_STACK)."""
    out = a[..., :, :1] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


# Shortest stack that _prefix_apply multiplies by _mm.  One BLAS thread on a
# 2-core x86 host, matmul against _mm: 2 x 2 @ 2 x 2 stacks of 64 take 20
# and 8 us, of 6440 1.9 and 0.6 ms (the n = 1 chunk steps of
# closure_residual at K = 320); 4 x 4 @ 4 x 2 stacks of 322 take 169 and
# 125 us, but 4 x 4 @ 4 x 4 stacks of 64 take 24 and 30 us.  The chunk
# steps of a one-energy march (solve_regular) stack about sqrt(N)
# matrices, below 64 for grids of up to 4000 nodes, and stay on matmul.
_MM_MIN_STACK = 64


def _propagators(pot: PotentialGrid, lams):
    """Step maps of Y'' = (Q - lambda) Y, one per step and energy.

    Returns an (N-1, K, 2n, 2n) stack for the (K,) array lams: the map
    P = exp(dx [[0, I], [B, 0]]) from (Y, Y') at x_k to x_{k+1}, with
    B = Q_mid - lambda frozen at the step midpoint.  The block matrix
    squares to diag(B, B), so with W = dx^2 B

        P = [[C, S], [B S, C]],  C = sum_j W^j / (2j)!,
                                 S = dx sum_j W^j / (2j + 1)!.

    The step map is the exact exponential of the frozen system, so the
    phase accuracy is uniform in |lambda| (no error growth at large |rho|,
    unlike a fixed-step Runge-Kutta scheme).  Both series are summed by
    one Horner pass over the whole stack, to the fewest terms J with
    ||W||^J / (2J)! <= _STEP_TAYLOR_TOL for the largest ||W||_1.  Past
    ||W|| = _STEP_NORM_MAX the step is halved m times (W -> 4^-m W) and
    doubled back: S <- 2 S C, C <- 2 C^2 - I, carried on D = C - I as
    S <- 2 (S + S D), D <- 2 D^2 + 4 D.  The same path serves
    every n.  A non-finite W or step map raises ConvergenceError.
    """
    n, dx = pot.dim, pot.dx
    lams = np.asarray(lams, dtype=complex)
    eye = np.eye(n)
    B = 0.5 * (pot.values[:-1] + pot.values[1:])[:, None] - lams[:, None, None] * eye
    W = (dx * dx) * B
    norm = float(np.abs(W).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise ConvergenceError(
            f"regular march: step matrix not finite (|W| = {norm})", residual=norm)
    m = 0
    while norm > _STEP_NORM_MAX:
        norm *= 0.25
        m += 1
    W *= 0.25 ** m
    J, term = 1, 0.5 * norm                     # term = norm^J / (2J)!
    while term > _STEP_TAYLOR_TOL:
        J += 1
        term *= norm / ((2 * J - 1) * (2 * J))
    # D = C - I and S / dx side by side, one product with W per Horner
    # step; the doubling is carried on D, which keeps its relative accuracy
    # when D is small, where 2 C^2 - I would lose it 4-fold per doubling
    fact = [math.factorial(k) for k in range(2 * J + 1)]
    DS = np.broadcast_to(np.hstack([eye / fact[2 * J], eye / fact[2 * J - 1]]),
                         W.shape[:-1] + (2 * n,))
    for j in range(J - 2, -1, -1):
        DS = _mm(W, DS)
        DS += np.hstack([eye / fact[2 * j + 2], eye / fact[2 * j + 1]])
    D, S = _mm(W, DS[..., :n]), DS[..., n:] * (dx * 0.5 ** m)
    for _ in range(m):
        S = 2.0 * (S + _mm(S, D))
        D = 2.0 * _mm(D, D) + 4.0 * D
    C = D + eye
    P = np.empty(W.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    P[..., :n, :n] = P[..., n:, n:] = C
    P[..., :n, n:] = S
    P[..., n:, :n] = _mm(B, S)
    if not np.isfinite(P).all():
        raise ConvergenceError("regular march: step map not finite "
                               f"after {m} doublings", residual=float("inf"))
    return P


def _prefix_apply(P, Y):
    """Y_k = P_{k-1} ... P_0 Y for k <= M, (M + 1, K, 2n, m), from an
    (M, K, 2n, 2n) stack of step maps P and a (2n, m) block Y.

    A chunked scan shaped like _backward_scan: the steps go into C chunks
    of L = ceil(sqrt(M)) steps (the last chunk padded with identities),
    and the local prefix products of every chunk are formed together; one
    pass over the chunks carries the data T_{cL} Y to the start of each
    chunk; one fix-up product applies every local product to its chunk's
    carried data.  That is about L + C small steps, not M.  The chunk
    steps multiply stacks of C K matrices and the carries stacks of K,
    each by _mm from _MM_MIN_STACK matrices on.
    """
    M, K, n2 = P.shape[:3]
    L = math.isqrt(M - 1) + 1
    C = -(-M // L)
    U = np.empty((C * L, K, n2, n2), dtype=complex)
    U[:M] = P
    U[M:] = np.eye(n2)
    U = U.reshape(C, L, K, n2, n2)
    step = _mm if C * K >= _MM_MIN_STACK else np.matmul
    for j in range(1, L):
        U[:, j] = step(U[:, j], U[:, j - 1])
    g = np.empty((C, K) + Y.shape, dtype=complex)
    g[0] = Y
    carry = _mm if K >= _MM_MIN_STACK else np.matmul
    for c in range(1, C):
        g[c] = carry(U[c - 1, -1], g[c - 1])
    out = np.empty((M + 1, K) + Y.shape, dtype=complex)
    out[0] = Y
    out[1:] = _mm(U, g[:, None]).reshape((C * L, K) + Y.shape)[:M]
    return out


def _march_many(pot: PotentialGrid, lams, Y0, Y0p):
    """Initial-value march of an (n x m) solution block from the data
    (Y0, Y0p) at x = 0 for every energy; values and derivatives (N, K, n, m).

    The Taylor step maps of _propagators, chained by the prefix-product
    scan of _prefix_apply.  A solution that overflows (the growing wave
    reaches exp(|Im rho| x_max) past the float range) raises
    ConvergenceError naming the first energy affected."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _prefix_apply(_propagators(pot, lams), np.vstack([Y0, Y0p]))
    bad = ~np.isfinite(out).all(axis=(0, 2, 3))
    if bad.any():
        lam = np.asarray(lams, dtype=complex)[bad][0]
        raise ConvergenceError(
            f"regular march overflowed at lambda = {lam:.6g} "
            f"({bad.sum()} of {bad.size} energies)", residual=float("inf"))
    n = pot.dim
    return out[..., :n, :], out[..., n:, :]


def solve_regular(problem: Problem, pt: SpectralPoint):
    """Regular solutions (phi, S) fixed by their data at x = 0:

    phi(0) = A, phi'(0) = A_perp + h;  S(0) = -A_perp, S'(0) = A.
    Both are propagated together through the same step maps.
    """
    bc = problem.bc
    pot = problem.potential
    n = bc.dim
    Y0 = np.hstack([bc.A, -bc.A_perp])
    Y0p = np.hstack([bc.A_perp + bc.h, bc.A])
    val, der = _march_many(pot, [pt.lam], Y0, Y0p)
    phi = MatrixWave(grid=pot.x_nodes, value=val[:, 0, :, :n],
                     derivative=der[:, 0, :, :n], at=pt)
    S = MatrixWave(grid=pot.x_nodes, value=val[:, 0, :, n:],
                   derivative=der[:, 0, :, n:], at=pt)
    return phi, S


# ---------------------------------------------------------------------------
# Weyl objects
# ---------------------------------------------------------------------------

def _checked_inv(J):
    """Inverse of a Jost matrix, or of each of a stack of them."""
    cond = np.linalg.cond(J, 1)
    if not np.all(cond <= COND_LIMIT):
        worst = float(np.max(cond))
        raise PoleProximityError(
            f"Jost matrix nearly singular (cond = {worst:.3e})", cond=worst)
    return np.linalg.inv(J)


def _weyl_many(problem: Problem, rhos) -> np.ndarray:
    """Weyl matrices M = [A e(0) + A_perp e'(0)] J^{-1} at every rho, (K, n, n)."""
    bc = problem.bc
    e0, e0p = _jost_at_zero(problem, rhos)
    Jinv = _checked_inv(apply_T(bc, e0, e0p))
    return (bc.A @ e0 + bc.A_perp @ e0p) @ Jinv


def weyl_matrix(problem: Problem, pt: SpectralPoint) -> np.ndarray:
    """Weyl matrix M(lambda) = [A e(0) + A_perp e'(0)] J(rho)^{-1}."""
    return _weyl_many(problem, [pt.rho])[0]


def weyl_solution(problem: Problem, pt: SpectralPoint) -> MatrixWave:
    """Weyl solution Phi(x, lambda) = e(x, rho) J(rho)^{-1}."""
    e = solve_jost(problem, pt)
    Jinv = _checked_inv(apply_T(problem.bc, e.value[0], e.derivative[0]))
    return MatrixWave(grid=e.grid, value=e.value @ Jinv,
                      derivative=e.derivative @ Jinv, at=pt)


def adjoint_weyl_matrix(problem: Problem, pt: SpectralPoint) -> np.ndarray:
    """Adjoint Weyl matrix M*(lambda) = Phi*(0) A + Phi*'(0) A_perp, which
    is the transposed Weyl matrix of the transposed problem."""
    return weyl_matrix(transpose_problem(problem), pt).T


def check_m_equals_mstar(problem: Problem, pts) -> float:
    """Max norm of M(lambda) - M*(lambda) over the given points."""
    rhos = [pt.rho for pt in pts]
    if not rhos:
        return 0.0
    M = _weyl_many(problem, rhos)
    Ms = np.swapaxes(_weyl_many(transpose_problem(problem), rhos), -1, -2)
    return matnorm(M - Ms)


# ---------------------------------------------------------------------------
# Jost-zero scan
# ---------------------------------------------------------------------------

def _detJ(problem, rho):
    return np.linalg.det(jost_matrix(problem, SpectralPoint(rho)))


# Floor of max |rho_0|^2 in the circle radius that scan_jost_zeros suggests,
# and the secant budget of _refine_zero.  _detJ raises only these errors.
_R0_FLOOR = 1.0
_SECANT_ITERS = 40
_DET_ERRORS = (ConvergenceError, DomainError)


def _scan_grid(radius: float, grid_density: int) -> np.ndarray:
    """The polar grid of scan_jost_zeros, (radii, angles): grid_density
    radii up to radius and grid_density + 1 angles over [0, pi].  The
    left half is laid out as the mirror -conj rho of the right half, bit
    for bit, with theta = pi/2 on the imaginary axis exactly, so that for
    real Q _jost_at_zero marches each mirror pair once (312 of the 600
    points at grid_density 24)."""
    radii = np.linspace(radius / grid_density, radius, grid_density)
    angles = np.linspace(0.0, np.pi, grid_density + 1)
    right = grid_density // 2 + 1
    grid = np.empty((grid_density, grid_density + 1), dtype=complex)
    grid[:, :right] = radii[:, None] * np.exp(1j * angles[:right])
    if grid_density % 2 == 0:
        grid[:, grid_density // 2] = 1j * radii
    grid[:, right:] = -grid[:, grid_density - right::-1].conj()
    return grid


def scan_jost_zeros(problem: Problem, radius: float, grid_density: int = 24):
    """Scan Omega for zeros of det J(rho) up to |rho| = radius.

    Evaluates |det J| on a polar grid, refines local minima by a secant
    iteration, and keeps refined points with |det J| < 1e-6.  Returns
    (zeros as lambda values, suggested r0) where
    r0 = 1.5 * max(max|rho_0|^2, 1).  An empty list is a valid outcome;
    the zero set is always bounded.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if grid_density < 1:
        raise ValueError("grid_density must be >= 1")
    grid = _scan_grid(radius, grid_density)
    J = apply_T(problem.bc, *_jost_at_zero(problem, grid.ravel()))
    vals = np.abs(np.linalg.det(J)).reshape(grid.shape)

    pad = np.pad(vals, 1, constant_values=np.inf)
    cands = grid[(vals <= pad[:-2, 1:-1]) & (vals <= pad[2:, 1:-1])
                 & (vals <= pad[1:-1, :-2]) & (vals <= pad[1:-1, 2:])]

    zeros = []
    step = radius / grid_density
    for rho0 in cands:
        rho = _refine_zero(problem, rho0, step)
        # rho = 0 sits on the boundary of the domain, not inside it
        if (rho is not None and abs(rho) > 1e-8
                and all(abs(rho - z) > 1e-6 for z in zeros)):
            zeros.append(rho)

    lam_zeros = [z * z for z in zeros]
    r0 = 1.5 * max([abs(z) ** 2 for z in zeros] + [_R0_FLOOR])
    return lam_zeros, r0


def _refine_zero(problem, rho0, step):
    """Secant iteration on det J from a starting guess; None on escape or
    if |det J| at the last iterate is not below 1e-6."""
    z0, z1 = complex(rho0), complex(rho0) + step * 1e-2
    try:
        f0, f1 = _detJ(problem, z0), _detJ(problem, z1)
    except _DET_ERRORS:
        return None
    for _ in range(_SECANT_ITERS):
        if f1 == f0:
            break
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        if z2.imag < 0:
            if z2.imag < -1e-8:
                return None
            z2 = complex(z2.real, 0.0)
        if z2 == 0:
            return None
        z0, f0 = z1, f1
        z1 = z2
        try:
            f1 = _detJ(problem, z1)
        except _DET_ERRORS:
            return None
        if abs(z1 - z0) < 1e-12:
            break
    return z1 if abs(f1) < 1e-6 else None


# ---------------------------------------------------------------------------
# P-matrix diagnostic
# ---------------------------------------------------------------------------

def p_matrix_diagnostic(problem: Problem, model: Problem, pt: SpectralPoint,
                        x: float):
    """Block diagnostic P(x, lambda) between two problems sharing A:

        P_j1 = phi^(j-1) Phi~*' - Phi^(j-1) phi~*',
        P_j2 = Phi^(j-1) phi~*  - phi^(j-1) Phi~*,

    where phi, Phi belong to `problem` and the starred objects are the
    adjoint regular / adjoint Weyl solutions of `model`: the transposed
    regular / Weyl solutions of its transposed problem.
    """
    if matnorm(problem.bc.A - model.bc.A) > 1e-10:
        raise ValueError("P diagnostic requires identical projectors A")
    phi, _ = solve_regular(problem, pt)
    Phi = weyl_solution(problem, pt)
    tp = transpose_problem(model)
    phi_t, _ = solve_regular(tp, pt)
    Phi_t = weyl_solution(tp, pt)
    i = phi.index_of(x)
    phs, phs_d = phi_t.value[i].T, phi_t.derivative[i].T
    Phs, Phs_d = Phi_t.value[i].T, Phi_t.derivative[i].T

    P11 = phi.value[i] @ Phs_d - Phi.value[i] @ phs_d
    P21 = phi.derivative[i] @ Phs_d - Phi.derivative[i] @ phs_d
    P12 = Phi.value[i] @ phs - phi.value[i] @ Phs
    P22 = Phi.derivative[i] @ phs - phi.derivative[i] @ Phs
    return P11, P12, P21, P22


# ---------------------------------------------------------------------------
# Asymptotic expansion residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticsReport:
    """Residual norms of an asymptotic expansion along a probe sequence."""

    probes: tuple
    residuals: tuple
    order: float

    def __post_init__(self):
        if len(self.probes) != len(self.residuals):
            raise ValueError("one residual per probe point required")


def fit_decay_order(rho_abs, residuals) -> float:
    """Least-squares slope of log(residual) against log|rho|, negated.

    An order of 2.0 means the residuals fall off like 1/|rho|^2.
    """
    r = np.asarray(residuals, dtype=float)
    a = np.asarray(rho_abs, dtype=float)
    mask = r > 0
    slope = np.polyfit(np.log(a[mask]), np.log(r[mask]), 1)[0]
    return float(-slope)


def asymptotics_report(problem: Problem, probes, which: str) -> AsymptoticsReport:
    """Residual report for one large-|rho| expansion, with the fitted decay
    order attached.  which is one of

    'jost':            e(0) against I + (omega(0, rho) - omega(0, 0))/(i rho);
    'jost_derivative': e'(0)/(i rho) against I - (omega(0, 0) + omega(0, rho))/(i rho);
    'jost_matrix':     J0^{-1} J with J0^{-1} = A/(i rho) - A_perp, against
                       I - (h + omega(0, 0))/(i rho) + kappa/(i rho);
    'weyl':            (A + i rho A_perp)^{-1} M (i rho A - A_perp) against
                       I + h/(i rho) - 2 kappa/(i rho); the sandwich removes
                       the unbounded outer factors so the remainder decays
                       cleanly.
    """
    probes = tuple(probes)
    if which not in ("jost", "jost_derivative", "jost_matrix", "weyl"):
        raise ValueError(f"unknown expansion {which!r}")
    A, Ap, h = problem.bc.A, problem.bc.A_perp, problem.bc.h
    rhos = np.array([pt.rho for pt in probes], dtype=complex)
    r = rhos[:, None, None]
    eye = np.eye(problem.dim)
    if which == "weyl":
        inner = (A + Ap / (1j * r)) @ _weyl_many(problem, rhos) @ (1j * r * A - Ap)
        diff = inner - (eye + h / (1j * r)
                        - 2.0 * kappa(problem, rhos) / (1j * r))
    else:
        e0, e0p = _jost_at_zero(problem, rhos)
        w0 = omega(problem, 0.0, 0.0)
        if which == "jost":
            diff = e0 - (eye + (-w0 + omega(problem, 0.0, rhos)) / (1j * r))
        elif which == "jost_derivative":
            diff = e0p / (1j * r) - (eye - (w0 + omega(problem, 0.0, rhos))
                                     / (1j * r))
        else:
            J = apply_T(problem.bc, e0, e0p)
            diff = (A / (1j * r) - Ap) @ J - (eye - (h + w0) / (1j * r)
                                              + kappa(problem, rhos) / (1j * r))
    res = [matnorm(d) for d in diff]
    order = fit_decay_order([abs(p.rho) for p in probes], res)
    return AsymptoticsReport(probes=probes, residuals=tuple(res), order=order)
