"""Forward solver for the half-line problem L(Q, A, h).

Computes the Jost solution and Jost matrix, regular solutions, Weyl
solutions and the Weyl matrix, and the block diagnostic P comparing two
problems with the same projector A.  Adjoint objects are the transposed
objects of the transposed problem (transpose_problem).

The outgoing solution is computed in the scaled variable
E(x) = e(x, rho) * exp(-i rho x), which stays O(1) for Im rho > 0; this
lets the solver evaluate far up the imaginary axis (rho = 400i) without
overflow.  The scaled Volterra equation

    E(x) = I + (1 / 2 i rho) [e^{-2 i rho x} I2(x) - I0(x)],
    I2(x) = int_x^X e^{2 i rho t} Q E dt,   I0(x) = int_x^X Q E dt,

is discretized with 4th-order tail quadrature and solved directly, not
by successive approximation: one affine backward recurrence, run as a
chunked scan of about 2 sqrt(N) small steps (_jost_scaled).
Differentiating the representation gives E'(x) = -e^{-2 i rho x} I2(x)
exactly, so no numerical differencing of E enters the Jost matrix.

The solver works on blocks of spectral points, arrays with the points
last, with no Python loop over x or over the points and no product per
matrix (_pmm).  Where Q vanishes on
[x, X] the equation gets nothing from that stretch and E = I there
exactly, so the march stops three zero nodes past the last node where Q
is nonzero (_march_length); those zeros keep every endpoint term of the
full grid at 0, so the shorter march solves the full grid's equations and
its cost scales with the support of Q, not with the grid.  B comes from a
fixed memory budget over the marched rows, so the working set does not
grow with the number of points; the points go in P / B blocks, rounded
half up, of sizes that differ by at most one, so no block is a
near-empty tail that pays a block's fixed cost for a few points.  For
real Q, e(x, -conj rho) = conj e(x, rho), so the Jost data at x = 0 are
marched once per mirror pair and per repeated point (_jost_at_zero).

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

from .contour import _mirror_fill
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

# Largest Jost-matrix 1-norm condition number the Weyl objects accept.
COND_LIMIT = 1e10
# Memory budget of one (T, n, n, B) complex array of the Jost march over
# T = _march_length(Q) rows; B is the most points that fit it, and
# _jost_at_zero splits its points into blocks of about B.  A block holds
# two such arrays (the forcing f and K f of _jost_scaled).  On
# forward-matrix, where T = N = 301, B is 54 and its 55 distinct points
# march as one block (4 blocks at 256 KiB, B = 13).  perfbench on a 2-core
# x86 host, one BLAS thread, 3 alternated 20-s pairs, 256 KiB -> 1 MiB:
# forward_s 0.0138 -> 0.0097, 0.0141 -> 0.0097 and 0.0133 -> 0.0096 s,
# invert_or_certify_s 0.0215 -> 0.0210, 0.0220 -> 0.0209 and
# 0.0215 -> 0.0205 s, peak_rss_mb 66.97-67.09 -> 67.46-67.65 MB.  In
# process (8 problems of seed 11, 12 alternated rounds) 512 KiB and 1 MiB
# read median paired ratios of 0.88 and 0.83 against 256 KiB, winning all
# 12; 128 KiB read 1.57.
_BLOCK_BYTES = 1024 * 1024


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

def _mm(a, b):
    """a @ b for long stacks of small matrices, as one whole-stack
    broadcast product per inner index.  numpy's matmul makes one BLAS
    call per matrix of a stack, and for the 2n x 2n step maps that fixed
    cost is most of the time (16 solve_regular calls on forward-matrix:
    0.020-0.029 s with matmul throughout, 0.011-0.013 s with this for the
    long stacks, one BLAS thread on a 2-core x86 host).  Short stacks are
    faster with matmul.  Every entry adds the same products in the same
    order, so it rounds the same in any stack."""
    out = a[..., :, :1] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def _pmm(a, b):
    """_mm over the axes (-3, -2) of arrays whose last axis is the points
    (a size-one last axis is shared by all of them)."""
    out = a[..., :, :1, :] * b[..., None, 0, :, :]
    for k in range(1, a.shape[-2]):
        out += a[..., :, k, None, :] * b[..., None, k, :, :]
    return out


def _jost_step(D, H, K, F, a, b, dx):
    """Node i of _jost_scaled's recurrence: the state D, H of node i - 1
    and P_i from that of node i, K = K_i and F = K_i f_i, which is added
    to the last columns of the state (the others carry its response)."""
    P = _pmm(K, D)
    P[..., -F.shape[-2]:, :] += F
    H = H + dx * P
    return a * D + b * H, H, P


def _jost_scan(K, KF, D, H, a, b, dx, keep=False):
    """The state after M steps of _jost_step (K, KF in march order) from
    the (n, n, B) state D, H, and, if keep, the entry state and P of
    every step, (M, 3, n, n, B).

    A chunked scan like _prefix_apply's: C chunks of L = ceil(sqrt(M))
    steps (the first padded in front) are marched together for their
    response to their entry state (2n columns) and to the forcing (n
    columns); one pass carries the true state through them: L + C small
    steps, not M.  keep marches every chunk again from its true entry
    state, L steps more.
    """
    M, n = K.shape[0], D.shape[0]
    L = math.isqrt(M - 1) + 1
    C, pad = -(-M // L), -M % L                  # pad = C L - M
    S = np.zeros((C, 2 * n, 3 * n, D.shape[-1]), dtype=complex)
    S[:, :, :2 * n] = np.eye(2 * n)[..., None]
    # step j runs in chunks c, c + 1, ...: chunk 0 waits out its padding
    steps = [(int(j < pad), j - pad + int(j < pad) * L) for j in range(L)]
    for c, i in steps:
        S[c:, :n], S[c:, n:], _ = _jost_step(S[c:, :n], S[c:, n:], K[i::L],
                                             KF[i::L], a, b, dx)
    X = np.empty_like(S[..., :n, :])               # the chunks' entry states
    state = np.concatenate([D, H])
    for Sc, Xc in zip(S, X):
        Xc[...] = state
        state = _pmm(Sc[:, :2 * n], state) + Sc[:, 2 * n:]
    rows = np.empty((C if keep else 0, L, 3) + D.shape, dtype=complex)
    for j, (c, i) in enumerate(steps if keep else ()):
        rows[c:, j, 0], rows[c:, j, 1] = X[c:, :n], X[c:, n:]
        X[c:, :n], X[c:, n:], rows[c:, j, 2] = _jost_step(
            X[c:, :n], X[c:, n:], K[i::L], KF[i::L], a, b, dx)
    return state[:n], state[n:], rows.reshape((-1, 3) + D.shape)[pad:]


def _jost_scaled(Q, rhos, dx, names=None, full=False):
    """Scaled Jost solutions E = e exp(-i rho x) and their x-derivatives
    E' for a block of points, at x = 0 or, if full, on the whole grid:
    each (1 or T, n, n, B), points last, for the (T, n, n) potential Q
    and the (B,) array rhos.

    With c = dx^2 / 12, a = exp(2 i rho dx), m = T - 1 and the trapezoid
    sums J_i (scaled) and S_i (plain) of P = Q E over [x_i, x_m], the
    discrete equations read, from i = m - 1 down to 0,

        (I - c Q_i) E_i = f_i + (J_i - S_i) / (2 i rho),
        f_i = I + c (w_i P'_m - a^(m-i) Q_m),  w_i = (1 - a^(m-i)) / (2 i rho),

    and E_m = I; the P_i terms of J_i and S_i cancel.  So E_i = R_i (f_i +
    D_i) and P_i = K_i (f_i + D_i), R_i = (I - c Q_i)^-1, K_i = Q_i R_i,
    for the state D_i = (G_i - H_i) / (2 i rho), H_i (G_i, H_i: J_i, S_i
    less their P_i terms), which obeys (_jost_step)

        H_{i-1} = H_i + dx P_i,  D_{i-1} = a D_i + b H_{i-1},
        b = (a - 1) / (2 i rho).

    The end slope P'_m = Z couples forward, through P_{m-1} and P_{m-2}:
    two steps carry the response to Z beside the state, then one n x n
    solve per point gives Z.  Nodes m - 3 to 3 are _jost_scan's and the
    last three single steps, whose P give P'_0 for E'(0) = -J_0 less its
    endpoint terms: about 2 sqrt(T) steps (3 sqrt(T) if full).  Every
    product is _pmm's, so each point rounds as it would alone.

    A node with c |Q_i| >= 1/2 (dx^2 |Q_i| >= 6, where the periodicity
    interval of Numerov's method, with the same factor I - c Q_i, ends;
    |.| the max row-sum norm) marks a grid too coarse for Q: R_i grows
    without bound as c |Q_i| nears 1, where I - c Q_i can be singular.
    That, a singular end-slope system or a non-finite result raises
    ConvergenceError naming the point's entry of names (rhos when None).
    """
    T, n = Q.shape[:2]
    m, c, B = T - 1, dx * dx / 12.0, rhos.size
    names = rhos if names is None else names
    # numpy rounds a complex product whose result is one element by another
    # loop than longer ones, so a lone point is marched as two copies (seen
    # on numpy 2.4.6; an assumption about numpy's inner loops, not checked
    # on other versions)
    rhos = np.resize(rhos, max(B, 2))
    eye = np.eye(n, dtype=complex)[..., None]
    cq = c * matnorm(Q)
    if 0.5 <= cq < np.inf:              # a NaN or inf Q ends as not finite
        raise ConvergenceError(f"Jost solve: (dx^2/12) |Q| = {cq:.3g} >= 0.5, "
                               "the grid does not resolve Q; rho = "
                               f"{complex(names[0])}")
    two = 2j * rhos
    a, b = np.exp(two * dx), np.expm1(two * dx) / two
    xr = (np.arange(T) * dx)[:, None]          # x_m - x_i for row r = m - i
    d, w = np.exp(two * xr), -np.expm1(two * xr) / two
    Qm = np.broadcast_to(Q[-1, ..., None], (n, n, rhos.size))
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.linalg.inv(eye[..., 0] - c * Q)
        K = _mm(Q, R)[::-1, ..., None]               # row r is node m - r
        f = eye - c * d[1:, None, None] * Qm        # f less its Z term
        D0, H0 = 0.5 * dx * b * Qm, 0.5 * dx * Qm   # state of node m - 1
        # nodes m - 1 and m - 2 with the response to Z beside the state
        D, H = (np.concatenate([X, 0 * X], axis=1) for X in (D0, H0))
        Pz = []
        for r in (1, 2):
            F = np.concatenate([_pmm(K[r], f[r - 1]), c * w[r] * K[r]], 1)
            D, H, Pr = _jost_step(D, H, K[r], F, a, b, dx)
            Pz.append(Pr)
        slope = (0.5 * Pz[1] - 2.0 * Pz[0]) / dx
        slope[:, :n] += 1.5 * Qm / dx   # Z = slope[:, :n] + slope[:, n:] Z
        Mz = np.moveaxis(eye - slope[:, n:], -1, 0)
        try:
            Z = np.linalg.solve(Mz, np.moveaxis(slope[:, :n], -1, 0))
        except np.linalg.LinAlgError:
            k = np.argmin(np.abs(np.linalg.det(Mz[:B])))
            raise ConvergenceError(
                "Jost solve: the end-slope system is singular at rho = "
                f"{complex(names[k])}") from None
        Z = np.moveaxis(Z, 0, -1)
        f += c * w[1:, None, None] * Z
        KF = _pmm(K[1:], f)
        # the march, with the scan over rows 3 .. m - 3; kept holds the
        # entry state and P of the single steps, and of all if full
        D, H, kept = D0, H0, []
        for r in [1, 2, *range(max(3, m - 2), m + 1)]:
            if r > 3 and r == m - 2:
                D, H, rows = _jost_scan(K[3:r], KF[2:r - 1], D, H, a, b,
                                        dx, full)
                kept.append(rows)
            D1, H1, Pr = _jost_step(D, H, K[r], KF[r - 1], a, b, dx)
            kept.append(np.stack([D, H, Pr])[None])
            D, H = D1, H1
        kept = np.concatenate(kept)[::-1]        # nodes 0, 1, 2, ...
        k = m if full else 1                     # rows 0 .. k - 1
        P = np.concatenate([kept[:, 2], Qm[None]])[:max(k + 1, 3)]
        D, H = kept[:k, 0], kept[:k, 1]
        E = _pmm(R[:k, ..., None], D + f[::-1][:k])
        Ep = -(H + two * D + 0.5 * dx * P[:k] + c * (
            np.gradient(P, dx, axis=0, edge_order=2)[:k] + two * P[:k]
            - d[::-1][:k, None, None] * (Z + two * Qm)))
    if full:
        E = np.concatenate([E, np.broadcast_to(eye, (1,) + E.shape[1:])])
        Ep = np.concatenate([Ep, np.zeros((1,) + Ep.shape[1:])])
    bad = ~np.isfinite(Ep[..., :B]).all(axis=(0, 1, 2))
    if bad.any():
        raise ConvergenceError(
            "Jost solution not finite at rho = "
            f"{complex(names[np.argmax(bad)])}")
    return E[..., :B], Ep[..., :B]


def _scaled_integral_at_start(g, rhos, dx):
    """int_0^X exp(2 i rho t) g(t) dt for sampled g, (n, n, B): the
    trapezoid sum of g times a^k = exp(2 i rho k dx) (|a| <= 1), plus the
    4th-order endpoint terms with one-sided 3-point slopes of g."""
    pw = np.exp(2j * rhos * (np.arange(g.shape[0]) * dx)[:, None])[:, None, None]
    wt = np.full((g.shape[0], 1, 1, 1), dx)
    wt[0] = wt[-1] = 0.5 * dx
    d0 = (-1.5 * g[0] + 2.0 * g[1] - 0.5 * g[2]) / dx
    dN = (0.5 * g[-3] - 2.0 * g[-2] + 1.5 * g[-1]) / dx
    return (np.cumsum(wt * pw * g, axis=0)[-1]
            + (dx * dx / 12.0) * (d0 + 2j * rhos * g[0]
                                  - pw[-1] * (dN + 2j * rhos * g[-1])))


def _march_length(Q):
    """Rows of the (N, n, n) potential Q that the Jost march needs:
    min(N, t + 4) for the last node t where an entry of Q is nonzero (NaN
    and inf count as nonzero), 3 for Q = 0.

    Past t the equation gets nothing and E = I exactly; the three zero
    nodes at the end of the march keep the end terms P_m and P'_m of
    _jost_scaled at 0, as on the full grid, so the marched rows solve the
    full grid's equations.
    """
    nonzero = np.flatnonzero(Q.reshape(Q.shape[0], -1).any(axis=1))
    t = int(nonzero[-1]) if nonzero.size else -1
    return min(Q.shape[0], t + 4)


def _jost_at_zero(problem: Problem, rhos):
    """e(0, rho) and e'(0, rho) for every rho of a (K,) array, each
    (K, n, n).

    For real Q, conjugating the equation gives e(x, -conj rho) =
    conj e(x, rho), so a point with Re rho < 0 is marched as its mirror
    -conj rho and conjugated back; with exact repeats merged too, each
    mirror pair and each repeat is marched once.  Only the first
    T = _march_length(Q) rows are marched, the support of Q and three zero
    nodes; the rows past them hold E = I exactly.  B is the most points
    whose (T, n, n, B) array fits _BLOCK_BYTES, and the P distinct points
    go in C = max(1, P / B rounded half up) blocks of P // C or
    P // C + 1 points, so none is a near-empty tail and none holds more
    than 1.5 B.  Every step rounds per point, so the layout does not
    change the rounding.  A ConvergenceError names the point as the
    caller passed it."""
    pot = problem.potential
    rhos = np.asarray(rhos, dtype=complex)
    flip = (rhos.real < 0) & (not pot.values.imag.any())
    march, first, where = np.unique(np.where(flip, -rhos.conj(), rhos),
                                    return_index=True, return_inverse=True)
    Q = pot.values[:_march_length(pot.values)]
    T, n = Q.shape[:2]
    B = max(1, _BLOCK_BYTES // (16 * T * n * n))
    P = march.size
    C = min(P, max(1, (2 * P + B) // (2 * B)))  # P / B rounded half up
    e0, e0p = np.empty((2, P, n, n), dtype=complex)
    for k in range(C):
        blk = slice(k * P // C, (k + 1) * P // C)
        r = march[blk]
        E, Ep = _jost_scaled(Q, r, pot.dx, rhos[first[blk]])
        # i rho e(0) on (B, n, n) arrays: numpy's complex product rounds by
        # the loop it picks, and with the points last a block of one point
        # picks another loop than a block of many
        e0[blk] = np.moveaxis(E[0], -1, 0)
        e0p[blk] = 1j * r[:, None, None] * e0[blk] + np.moveaxis(Ep[0], -1, 0)
    e0, e0p = e0[where], e0p[where]
    e0[flip], e0p[flip] = e0[flip].conj(), e0p[flip].conj()
    return e0, e0p


def solve_jost(problem: Problem, pt: SpectralPoint) -> MatrixWave:
    """Jost solution e(., rho) and e'(., rho) on the potential grid.

    Q is treated as zero beyond x_max, where e = exp(i rho x) I holds
    exactly.  Raises ConvergenceError if the grid is too coarse for Q or
    the discrete equations have no finite solution (see _jost_scaled).
    """
    rho, pot = pt.rho, problem.potential
    E, Ep = _jost_scaled(pot.values, np.array([rho]), pot.dx, full=True)
    phase = np.exp(1j * rho * pot.x_nodes)[:, None, None]
    return MatrixWave(grid=pot.x_nodes, value=E[..., 0] * phase, at=pt,
                      derivative=(1j * rho * E[..., 0] + Ep[..., 0]) * phase)


def jost_matrix(problem: Problem, pt: SpectralPoint) -> np.ndarray:
    """Jost matrix J(rho) = T(e(., rho))."""
    return apply_T(problem.bc, *_jost_at_zero(problem, [pt.rho]))[0]


def omega(problem: Problem, x: float, rhos) -> np.ndarray:
    """Tail transform omega(x, rho) = (1/2) int_x^X Q(t) e^{2 i rho (t-x)} dt.

    rhos is one value, giving an (n, n) matrix, or an array, giving one
    matrix per entry.  A direct sum over the suffix [x, X] for all rho at
    once: the trapezoid rule plus the endpoint correction
    (dx^2/12)(f'(x) - f'(X)), with one-sided 3-point slopes
    (_scaled_integral_at_start).
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
            f"regular march: step matrix not finite (|W| = {norm})")
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
                               f"after {m} doublings")
    return P


def _prefix_apply(P, Y):
    """Y_k = P_{k-1} ... P_0 Y for k <= M, (M + 1, K, 2n, m), from an
    (M, K, 2n, 2n) stack of step maps P and a (2n, m) block Y.

    A chunked scan shaped like _jost_scan: the steps go into C chunks of
    L = ceil(sqrt(M)) steps (the last chunk padded with identities), and
    the local prefix products of every chunk are formed together; one
    pass over the chunks carries the data T_{cL} Y to the start of each
    chunk; one fix-up product (_mm) applies every local product to its
    chunk's carried data.  That is about L + C small steps, not M.
    """
    M, K, n2 = P.shape[:3]
    L = math.isqrt(M - 1) + 1
    C = -(-M // L)
    U = np.empty((C * L, K, n2, n2), dtype=complex)
    U[:M] = P
    U[M:] = np.eye(n2)
    U = U.reshape(C, L, K, n2, n2)
    for j in range(1, L):
        U[:, j] = U[:, j] @ U[:, j - 1]
    g = np.empty((C, K) + Y.shape, dtype=complex)
    g[0] = Y
    for c in range(1, C):
        g[c] = U[c - 1, -1] @ g[c - 1]
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
            f"({bad.sum()} of {bad.size} energies)")
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
    left half is laid out as the mirror -conj rho of the right half
    (_mirror_fill), with theta = pi/2 on the imaginary axis exactly, so
    that for real Q _jost_at_zero marches each mirror pair once (312 of
    the 600 points at grid_density 24)."""
    radii = np.linspace(radius / grid_density, radius, grid_density)
    angles = np.linspace(0.0, np.pi, grid_density + 1)
    grid = radii[:, None] * np.exp(1j * angles[:grid_density // 2 + 1])
    if grid_density % 2 == 0:
        grid[:, -1] = 1j * radii
    return _mirror_fill(grid, grid_density + 1, negate=True, axis=1)


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
