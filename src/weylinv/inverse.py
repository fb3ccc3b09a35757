"""Reconstruction of (Q, A, h) from Weyl-matrix samples on a contour.

Pipeline: read the projector A off the large-|rho| tail of M, take the
zero model (Q = 0, h = 0, same A), assemble the linear integral equation

    phi~(x, lam) = phi(x, lam) + (1/2 pi i) int_gamma phi(x, mu) r~(x, lam, mu) d mu,
    r~(x, lam, mu) = (M(mu) - M~(mu)) D~(x, lam, mu),

discretize it by collocation at the quadrature nodes (Nystrom), solve for
phi(x, .) at every x, and extract Q and h from the recovered solution.

The zero-model kernel D~ is a sum of sin((rho +- tau) x)/(rho +- tau)
terms.  Every contraction with it (the Nystrom matrix over contour x
contour, the Born tail source over contour x extension nodes, and the
Nystrom interpolation rows at off-node lambda against both) is assembled
in separable form: products of per-node sines and cosines times a Cauchy
matrix 1/(lambda - mu).  Coincident pairs (the diagonal, repeated joint
nodes, mirrored cut nodes, a row on a node) are masked and take the
direct closed form.

The unknown multiplies the kernel from the left, so the discrete system
acts on transposed blocks.  Unknowns are equilibrated with the weight
A + i rho A_perp (bounded on the contour for the exact solution), which
keeps the system well scaled along the unbounded cut.

For a real problem, M(conj lam) = conj M(lam), and on build_contour's
contour, its own mirror image under lam -> conj lam, the main equation
maps to itself under the mirror with conjugation: phi(x, conj lam) =
conj phi(x, lam).  Whether the data are mirror-symmetric bit for bit
(_mirror_symmetric, over the contour, the tail and the probes) is decided
once per inversion, in _Assembler.real_system, and every mirror shortcut
takes that decision: each x-slice is solved as an equivalent real system
of order K n, assembled from the rows of the first half of the nodes,
with a real probe gain and real probe values; the tail fit between the
passes is solved over real unknowns and the extension evaluated at half
its nodes (_tail_extension).  Q and h then come out real.  Other data
keep the complex system of order K n over all nodes and the complex fit.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
import scipy.linalg

from .contour import (Contour, _is_mirror, _mirror_fill, coarsen_contour,
                      extension_nodes)
from .core import (
    BoundaryCondition,
    DataQualityError,
    PotentialGrid,
    ReconstructionError,
    SpectralPoint,
    lambda_to_point,
    matnorm,
    prefix_integrals,
    sin_over,
    sinc,
)
from .forward import (Problem, _march_many, _weyl_many, kappa,
                      transpose_problem)

__all__ = [
    "WeylData",
    "MainEquationSolution",
    "ReconstructionResult",
    "InvertConfig",
    "model_weyl",
    "extract_A",
    "problem_D",
    "solve_main_equation",
    "closure_residual",
    "recover_potential",
    "invert",
    "generate_weyl_data",
]


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylData:
    """Weyl-matrix samples on a contour plus large-|rho| tail samples."""

    contour: Contour
    M_samples: np.ndarray              # (K, n, n)
    tail_samples: tuple                # ((SpectralPoint, matrix), ...)

    def __post_init__(self):
        M = np.asarray(self.M_samples, dtype=complex)
        if M.shape[0] != len(self.contour):
            raise ValueError("one M sample per contour node required")
        if M.ndim != 3 or M.shape[1] != M.shape[2]:
            raise ValueError(f"M samples must be (K, n, n), got {M.shape}")
        tail = tuple(sorted(self.tail_samples, key=lambda t: abs(t[0].rho)))
        if not (np.all(np.isfinite(M))
                and all(np.all(np.isfinite(m)) for _, m in tail)):
            raise DataQualityError("Weyl samples must be finite")
        object.__setattr__(self, "M_samples", M)
        object.__setattr__(self, "tail_samples", tail)

    @property
    def dim(self) -> int:
        return self.M_samples.shape[1]


@dataclass(frozen=True)
class MainEquationSolution:
    """Recovered phi(x, .) at the contour nodes for one x, with the
    reciprocal 1-norm condition number of the Nystrom system solved (of
    the real system, for mirror-symmetric data)."""

    x: float
    phi_nodes: np.ndarray         # (K, n, n)
    phi_tilde_nodes: np.ndarray   # (K, n, n)
    rcond: float = math.nan

    def __post_init__(self):
        if self.phi_nodes.shape != self.phi_tilde_nodes.shape:
            raise ValueError("phi and phi~ node arrays must have equal shapes")


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered boundary data and potential, with residual diagnostics."""

    A: np.ndarray
    h: np.ndarray
    Q: PotentialGrid
    diagnostics: dict = field(default_factory=dict)


# Largest s = |lambda_j|^(3/4) dx of a lambda probe.  Q is read off phi''
# by a fourth-order second difference, whose truncation error in Q is about
# rho^6 dx^4 / 90 = s^4 / 90, whatever the data's R.  On the box data of
# tests/test_inverse.py (n = 1, 2; R = 50, 200; 25 to 1601 slices; probes
# (-2, lambda) out to 14 sqrt(R)) the relative L1 error of Q followed s, not
# |rho| / sqrt(R): against a probe at 0.16 sqrt(R) it grew at most 13% up to
# s = 0.8, 7-56% at s = 1, 25-107% at 1.12 and 5 to 8 times at 1.6.
_PROBE_STEP_LIMIT = 1.0


@dataclass(frozen=True)
class InvertConfig:
    """Knobs of the inversion pipeline.

    Q is recovered on x_nodes (odd, at least 7, the span of the read-out's
    finite-difference stencils) uniform slices of [0, x_max].
    lambda_probes are the energies at which Q is read off the recovered
    solution.  Any nonzero lambda serves, the positive real axis
    included; only probes with lambda < 0 keep mirror-symmetric data on
    the real half system (_Assembler.real_system), and any other probe
    puts them on the complex one.

    passes > 1 enables the self-consistent tail extension: the previous
    reconstruction supplies an asymptotic model of the kernel beyond the
    data truncation radius (out to 7 sqrt(R) in rho), which enters the
    next pass as a Born-approximated source term.  This sharpens the band
    limit of the recovered Q without growing the linear system.

    The fixed class constants phi_cond_limit and system_cond_limit bound
    the condition number of phi(x, lam) at which a probe still enters the
    Q average (recover_potential), and that of the Nystrom system at each
    x-slice.

    x_max must be finite and positive, every probe finite and resolved by
    the x-grid, |lambda_j|^(3/4) x_max / (x_nodes - 1) <= _PROBE_STEP_LIMIT;
    anything else raises ValueError.
    """

    x_max: float
    x_nodes: int
    lambda_probes: tuple = (-2.0, -5.0)
    passes: int = 2
    phi_cond_limit: ClassVar[float] = 1e8
    system_cond_limit: ClassVar[float] = 1e12

    def __post_init__(self):
        if self.x_nodes < 7 or self.x_nodes % 2 == 0:
            raise ValueError("x_nodes must be odd and >= 7")
        if not (math.isfinite(self.x_max) and self.x_max > 0):
            raise ValueError("x_max must be finite and positive")
        if len(self.lambda_probes) < 2:
            raise ValueError("need at least two lambda probes")
        lams = np.asarray(self.lambda_probes, complex)
        if not np.all(np.isfinite(lams)):
            raise ValueError("lambda probes must be finite")
        j = np.abs(lams).argmax()
        step = abs(lams[j]) ** 0.75 * self.x_max / (self.x_nodes - 1)
        if step > _PROBE_STEP_LIMIT:
            raise ValueError(
                f"lambda probe {self.lambda_probes[j]:.6g} has |lambda|^(3/4) "
                f"dx = {step:.3g} > {_PROBE_STEP_LIMIT:g}: refine the x-grid "
                "or take probes nearer 0")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")


# ---------------------------------------------------------------------------
# Zero-model closed forms
# ---------------------------------------------------------------------------

def model_weyl(A, pt: SpectralPoint) -> np.ndarray:
    """Weyl matrix of the zero model: M~ = A/(i rho) - i rho A_perp."""
    return _model_weyl(A, [pt.rho])[0]


def _model_weyl(A, rhos) -> np.ndarray:
    """model_weyl at every rho of an array, (K, n, n)."""
    A = np.asarray(A, dtype=complex)
    r = np.asarray(rhos, dtype=complex)[:, None, None]
    return A / (1j * r) - 1j * r * (np.eye(A.shape[0]) - A)


def _model_D_coeffs(x: float, rhos, taus):
    """Coefficients (cA, cP) of D~(x, lambda, mu) = cA A + cP A_perp,

        cA = (s+ + s-) / 2,   cP = (s- - s+) / (2 tau rho),
        s+- = sin((rho +- tau) x) / (rho +- tau),

    with the removable singularities at tau = -+ rho handled by series.
    rhos (of lambda) and taus (of mu) broadcast against each other.
    """
    r = np.asarray(rhos)
    t = np.asarray(taus)
    sp = sin_over(r + t, x)
    sm = sin_over(r - t, x)
    cA = (sp + sm) / 2.0
    cP = (sm - sp) / (2.0 * t * r)
    return cA, cP


# Pairs with |rho -+ tau| below this take the direct closed form in
# _SeparableD.  Outside it, cancellation in the separable form costs at
# most about 2 eps exp((|Im rho| + |Im tau|) x) / |rho -+ tau|, i.e.
# < 5e-14 exp((|Im rho| + |Im tau|) x) in absolute terms, against entries
# of size up to about x exp(|Im(rho -+ tau)| x).  Contour node spacings
# are far larger (0.14 on the benchmark contour), so in practice only
# exact coincidences and their rounding-level near copies are masked.
_COINCIDENT = 1e-2

# (sin z - z)/z^3 = sum_k (-1)^k z^(2k-2) / (2k+1)!, k = 1..9; the first
# term left out is below 1e-19 for |z| <= 1
_SIN_SERIES = [(-1) ** k / math.factorial(2 * k + 1) for k in range(1, 10)]


def _node_factors(r, xs):
    """Per-node factors of _SeparableD for the nodes r at every x of xs:
    the row factors (X, 6, J) of r taken as rho and the column factors
    (X, 6, J) of r taken as tau, from s = sin(r x), c = cos(r x),
    v = s / r, b = c - 1 = -2 sin^2(r x / 2) and a = v - x (by series
    where |r x| < 1, and v = x + a there).  The column factors also carry
    the c (index 0) and v (index 5) of phi~ = c A + v A_perp.  All of it
    is elementwise: a slice of a block has the bits of its x alone."""
    x = np.asarray(xs, dtype=float)[:, None]
    z = r * x
    # the sines of a node far off the real axis overflow; the finiteness
    # check of _Assembler._factor reports the slice
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s, c = np.sin(z), np.cos(z)
        v = s / r
        a = v - x
        small = np.abs(z) < 1.0
        zs, x_s = z[small], np.broadcast_to(x, z.shape)[small]
        a[small] = x_s * zs ** 2 * np.polynomial.polynomial.polyval(
            zs ** 2, _SIN_SERIES)
        v[small] = x_s + a[small]
        b = -2.0 * np.sin(z / 2.0) ** 2
        one = np.ones_like(z)
        return (np.stack([r * s, -c, a, -one, v, -b], axis=1),
                np.stack([c, r * s, one, a, b, v], axis=1))


class _SeparableD:
    """Contractions with D~ over fixed rho rows and tau columns.

    sin((rho +- tau) x) / (rho +- tau)
        = [sin(rho x) cos(tau x) +- cos(rho x) sin(tau x)] / (rho +- tau),

    and combining the two terms of cA and cP over the Cauchy matrix
    C = 1 / (rho^2 - tau^2) = 1 / (lambda - mu) gives

        cA = C (rho s(rho) c(tau) - tau c(rho) s(tau)),
        cP = C (v(rho) c(tau) - c(rho) v(tau)),

    with s = sin(. x), c = cos(. x) and v = s / (.).  C does not depend
    on x and is built once; a block of x-slices passes in the per-node
    factors (_node_factors) of the rows and of the columns at its xs:
    the numerator of cA is sum_i rows_i cols_i over i < 2, that of cP
    over i >= 2.  For small x the two terms of cP are each O(x) while cP
    is O(x^3), so cP is evaluated as
    C (a(rho) - a(tau) + v(rho) b(tau) - b(rho) v(tau)) with the small
    quantities a = v - x and b = c - 1 = -2 sin^2(. x / 2) computed
    without cancellation.  Coincident pairs, |rho -+ tau| < _COINCIDENT
    (the diagonal, repeated nodes and mirrored cut nodes rho = -tau), are
    masked out of C (near lists them) and take the direct closed form
    _model_D_coeffs.
    """

    def __init__(self, rhos, taus):
        self.rhos = np.asarray(rhos, dtype=complex)
        self.taus = np.asarray(taus, dtype=complex)
        dm = self.rhos[:, None] - self.taus[None, :]
        dp = self.rhos[:, None] + self.taus[None, :]
        near = (np.abs(dm) < _COINCIDENT) | (np.abs(dp) < _COINCIDENT)
        self.C = np.where(near, 0.0, 1.0 / np.where(near, 1.0, dm * dp))
        self.near = np.nonzero(near)

    def apply(self, xs, rows, cols, U, V):
        """cA @ U.T + cP @ V.T at every x of xs, transposed: shape
        (X, m, J) for (X, m, K) arrays U and V (the columns last) and the
        row and column factors (X, 6, .) at xs.

        The row factors come out of the sum over columns, which leaves one
        product of a (X 6 m, K) array with C^T for the whole block."""
        X, m, K = U.shape
        Z = np.empty((X, 6, m, K), dtype=complex)
        Z[:, :2] = cols[:, :2, None] * U[:, None]
        Z[:, 2:] = cols[:, 2:, None] * V[:, None]
        Y = (Z.reshape(-1, K) @ self.C.T).reshape(X, 6, m, -1)
        out = (rows[:, :, None] * Y).sum(axis=1)
        j, k = self.near
        dA, dP = _model_D_coeffs(xs[:, None], self.rhos[j], self.taus[k])
        np.add.at(out, (slice(None), slice(None), j),
                  dA[:, None] * U[..., k] + dP[:, None] * V[..., k])
        return out


def problem_D(problem: Problem, x: float, lam: SpectralPoint,
              mu: SpectralPoint) -> np.ndarray:
    """Kernel D(x, lambda, mu) = int_0^x phi*(t, mu) phi(t, lambda) dt

    by quadrature of the solved regular and adjoint solutions."""
    pot = problem.potential
    phi = _phi_values(problem, [lam.lam])[:, 0]
    phi_s = _phi_values(problem, [mu.lam], adjoint=True)[:, 0]
    return prefix_integrals(phi_s @ phi, pot.dx)[pot.index_of(x)]


# ---------------------------------------------------------------------------
# Projector extraction from the tail
# ---------------------------------------------------------------------------

# Largest tail extrapolation misfit extract_A accepts.
_A_RESIDUAL_TOL = 1e-3


def extract_A(tail_samples) -> np.ndarray:
    """Recover A from the Weyl tail: A = I - lim M(lambda)/(-i rho).

    Fits I - M/(-i rho) entrywise against a cubic in 1/|rho| and takes
    the constant term, then projects onto the nearest orthogonal
    projector (symmetrize, eigendecompose, round eigenvalues to {0, 1}).
    Eigenvalues in the ambiguous band [0.25, 0.75], extrapolation
    misfits above _A_RESIDUAL_TOL and a fitted constant farther than that
    from its projector raise DataQualityError, and so do samples that
    overflow the fit (a non-finite misfit).
    """
    if len(tail_samples) < 4:
        raise DataQualityError("need at least 4 tail samples")
    rhos = np.array([pt.rho for pt, _ in tail_samples])
    mats = np.array([np.asarray(M, dtype=complex) for _, M in tail_samples])
    n = mats.shape[1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = np.eye(n) - mats / (-1j * rhos)[:, None, None]
        V = np.vander(1.0 / np.abs(rhos), 4, increasing=True)  # [1, 1/r, 1/r^2, 1/r^3]
        if not (np.isfinite(vals).all() and np.isfinite(V).all()):
            raise DataQualityError("tail samples overflow the extrapolation fit")
        coef, *_ = np.linalg.lstsq(V, vals.reshape(rhos.size, -1), rcond=None)
        misfit = matnorm(vals - (V @ coef).reshape(vals.shape))
    # written so that a NaN misfit fails too
    if not misfit <= _A_RESIDUAL_TOL:
        raise DataQualityError(
            f"tail extrapolation residual {misfit:.3e} exceeds {_A_RESIDUAL_TOL}")
    A_raw = coef[0].reshape(n, n)

    A_sym = (A_raw + A_raw.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(A_sym)
    if np.any((evals > 0.25) & (evals < 0.75)):
        raise DataQualityError(
            f"projector rank ambiguous: eigenvalues {evals} inside [0.25, 0.75]"
        )
    rounded = (evals > 0.5).astype(float)
    A_proj = (evecs * rounded) @ evecs.conj().T
    A_proj = (A_proj + A_proj.conj().T) / 2.0

    residual = matnorm(A_raw - A_proj)
    if residual > _A_RESIDUAL_TOL:
        raise DataQualityError(
            f"fitted A is {residual:.3e} from the nearest projector, more "
            f"than {_A_RESIDUAL_TOL}")
    return A_proj


# ---------------------------------------------------------------------------
# Nystrom solver for the main equation
# ---------------------------------------------------------------------------

# Memory budget of the B and L rows of one block of x-slices in
# _Assembler, with the real form of the real system, and the most slices
# a block holds; a block holds the most slices that fit both, at least
# one: 8 on the scalar benchmark contour, 4 on the matrix one.  Benchmark
# runs (perfbench, 2 cores, 2 workers, real system, 4 seeds): on
# roundtrip-matrix 4 slices per block took invert_or_certify_s from
# 0.150 to 0.130 against 2, at 1.2 MB more peak memory; on
# roundtrip-scalar 16 slices per block took it from 0.050 to 0.058 and
# peak memory from 69.9 to 73.5 MB against 8.  With the complex system,
# 13 slices per block added 2.7 MB of peak memory on roundtrip-scalar
# and 27 slices 8 MB.
_BLOCK_BYTES = 2560 * 1024
_BLOCK_SLICES = 8

# Cut-node midpoints at which _Assembler.residual probes a slice.
_N_RESIDUAL_PROBES = 8

# Thread-count getters an OpenBLAS build may export (numpy and scipy each
# bundle their own, with prefixed symbols); each has a setter of the same
# name with "set" for "get".
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def _openblas() -> tuple:
    """The thread-count getter and setter (None where the library lacks
    it) of every OpenBLAS mapped into this process, found once; empty
    where the process map cannot be read."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f
                            if "openblas" in ln.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _OPENBLAS_GETTERS:
            if hasattr(lib, sym):
                get = getattr(lib, sym)
                get.argtypes, get.restype = (), ctypes.c_int
                put = getattr(lib, sym.replace("_get_", "_set_"), None)
                if put is not None:
                    put.argtypes, put.restype = (ctypes.c_int,), None
                found.append((get, put))
                break
    return tuple(found)


def _blas_threads():
    """The largest thread count any loaded OpenBLAS reports now, or None
    when none can be read."""
    return max((get() for get, _ in _openblas()), default=None)


@contextlib.contextmanager
def _one_blas_thread():
    """Set every loaded OpenBLAS that runs more than one thread to one
    for the duration, and back to its own count after, also on error.
    The LUs of the slices gain nothing from a second BLAS thread: on a
    2-core host, invert ran 4 to 5 times slower with two BLAS threads than
    with one, where its blocks take both cores.  OpenBLAS's count is
    global to the process: of two calls that overlap, the first to
    finish sets it back."""
    pinned = []
    try:
        for get, put in _openblas():
            count = get()
            if count > 1 and put is not None:
                put(1)
                pinned.append((put, count))
        yield
    finally:
        for put, count in pinned:
            put(count)


def _slice_workers(n_blocks: int) -> int:
    """Threads for n_blocks blocks of x-slices: the usable CPUs, at most
    one per block, where every loaded OpenBLAS runs at one thread (as
    _one_blas_thread sets each one that has a setter); otherwise 1, also
    where no OpenBLAS can be read, so that the LUs of the blocks and the
    BLAS threads do not contend for cores (with OpenBLAS at 2 threads on
    a 2-core host, 2 workers made invert about twice as slow as 1)."""
    if _blas_threads() != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_blocks))


def _map_blocks(work, blocks, workers: int) -> list:
    """[work(b) for b in blocks], on the caller's thread and workers - 1
    pool threads, each taking the next block in order.  The caller works
    too: that saves a thread and the malloc arena it would fill (on a
    2-core host, two workers raised the peak memory of perfbench's
    roundtrip-matrix by 3.4 MB this way and by 5.8 MB with two pool
    threads).  Pool threads run in a copy of the caller's context, so
    its np.errstate holds there.  After a block fails no further block is
    taken; every earlier one was taken already, so the first failure in
    block order is the one raised.  No thread outlives the call."""
    lock = threading.Lock()
    todo = iter(range(len(blocks)))
    results, errors = [None] * len(blocks), {}

    def run():
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                results[i] = work(blocks[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    # the pool starts a thread per submit only, so one worker starts none
    with concurrent.futures.ThreadPoolExecutor(max(1, workers - 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run)
                   for _ in range(workers - 1)]
        run()
        for f in futures:
            f.result()
    if errors:
        raise errors[min(errors)]
    return results


def _mirror_symmetric(weyl: WeylData, A, probes) -> bool:
    """Whether the data are their own mirror image under lambda ->
    conj lambda, bit for bit: the contour's rhos, weights and samples
    are in the mirror layout (_is_mirror: node K-1-k is -conj rho_k, with
    the weight -conj w_k and the sample conj M_k), every tail
    point is its own mirror (Re rho = 0) with a real sample, A is real,
    and every probe is its own mirror (Re rho = 0, lambda < 0).  Then the
    main equation maps to itself under the mirror with conjugation, and
    so does its solution: phi(x, conj lambda) = conj phi(x, lambda); so
    do the tail fit and the extension of a real prior.  An empty tail
    passes."""
    tail_rhos = np.array([pt.rho for pt, _ in weyl.tail_samples], complex)
    tail_M = np.array([m for _, m in weyl.tail_samples], complex)
    return (_is_mirror(weyl.contour.rhos, negate=True)
            and _is_mirror(weyl.contour.weights, negate=True)
            and _is_mirror(weyl.M_samples)
            and not tail_rhos.real.any() and not tail_M.imag.any()
            and not A.imag.any() and not probes.real.any())


class _Assembler:
    """Precomputed node data shared by all x-slices of one inversion.

    Every D~ contraction goes through _SeparableD.  The Cauchy matrices of
    the fixed grids are built once: the row nodes (contour rows and
    probes) x contour (the Nystrom matrix B and the interpolation rows L
    at the lambda probes) and, once extend() is called, the row nodes x
    extension (the Born tail source at both).

    For mirror-symmetric data (_mirror_symmetric, evaluated once here and
    recorded in real_system, which invert hands on to the tail step),
    node K-1-k is the mirror of node k and its unknown the conjugate of
    node k's.  Only the first ceil(K/2) nodes are then row
    nodes, and each slice is solved as the equivalent real system of
    order K n: with H the first K/2 nodes, B1 = B[H, H] and
    B2 = B[H, mirror(H)], over the unknowns (Re psi_H, Im psi_H),

        [[Re(B1 + B2), -Im(B1 - B2)],     [Re rhs_H]
         [Im(B1 + B2),  Re(B1 - B2)]]  =  [Im rhs_H],

    and a probe row is [Re(L1 + L2), -Im(L1 - L2)]: its imaginary half
    vanishes for a probe on its own mirror.  A self-mirror node (the
    theta = pi node of an odd circle) has one real unknown, Re psi, and
    one real equation.  The node factors, the fill, the sources and the
    LU are halved or real, the gain G = L B^-1 is real, and so are the
    probe values phi(x, lambda_j).  Other data take the complex system of
    order K n over all K nodes.

    The fill keeps its own column order (_order, _contour_cols and the
    scatter in solve), not the contour's mirror layout (_mirror_fill):
    the first ceil(K/2) nodes, then the mirrors of the first K/2 in the
    order of their nodes, so that _real_form reads B1 and B2 as forward
    slices of the same width.  Filling in contour order and reading the
    mirror columns reversed in _real_form gives the same bits but is
    slower: the node factors and fill of a 4-slice roundtrip-matrix block
    took 4.3-5.9 ms against 3.6-3.9 ms (medians of three runs of 400 on
    a 2-core x86 host, one BLAS thread).

    The x-grid is worked through in blocks of as many slices as fit their
    B and L rows into _BLOCK_BYTES, at most _BLOCK_SLICES (8 on the scalar
    benchmark contour, 4 on the matrix one), each array with a leading
    block axis.  Per block,
    the node factors are evaluated once, _factor() fills B and L with one
    batched product, the Born source is one product with a Cauchy matrix,
    and read_probes() reads the probes off the gains with one batched
    product.  The LU, its condition check and the gain stay per slice.
    The blocks run concurrently (_map_blocks on _slice_workers threads);
    slices are independent, so the results do not depend on the thread
    count, and errors are reported in x order.  solve() runs the same
    routine on one slice and returns phi at all K nodes; phi_at()
    interpolates a solution through the same _SeparableD.apply, on grids
    built for the call, and residual() checks a solution with it at cut
    midpoints.

    extend() adds synthetic cut nodes beyond the data truncation.  Their
    unknowns are replaced by the model solution (a Born approximation,
    accurate to O(Mhat^2)), so they only contribute source terms: B and
    L are unchanged and the system never grows.  The extension must
    mirror, and on the real system its samples too.
    """

    def __init__(self, weyl: WeylData, A, probes=()):
        self.weyl = weyl
        self.A = np.asarray(A, dtype=complex)
        n = weyl.dim
        self.n = n
        self.Ap = np.eye(n) - self.A
        self.rhos = weyl.contour.rhos
        self.weights = weyl.contour.weights
        self.wt = self.weights / (2j * np.pi)
        self.K = len(weyl.contour)
        probes = np.asarray(probes, complex)
        self.real_system = _mirror_symmetric(weyl, self.A, probes)
        # the contour nodes whose rows are filled: ceil(K/2) for the real
        # system, all K otherwise
        self._nk = (self.K + 1) // 2 if self.real_system else self.K
        self.Mhat = weyl.M_samples - _model_weyl(self.A, self.rhos)
        # [Mhat A | Mhat A_perp], (K, n, 2n)
        self._MhatAP = self.Mhat @ np.hstack([self.A, self.Ap])
        self.MhatA, self.MhatP = self._MhatAP[..., :n], self._MhatAP[..., n:]
        # equilibration weights W_k = A + i rho_k A_perp and inverses
        self.W = (self.A[None, :, :]
                  + (1j * self.rhos)[:, None, None] * self.Ap[None, :, :])
        self.Winv = (self.A[None, :, :]
                     + (1.0 / (1j * self.rhos))[:, None, None] * self.Ap[None, :, :])
        # the row nodes: the probe rhos follow the contour rows in every
        # per-slice array
        self._nodes = np.concatenate([self.rhos[:self._nk], probes])
        # the contour node of each column of the fill: for the real
        # system, the mirrors K-1-k of the first K/2 nodes k follow the
        # first ceil(K/2) nodes in the order of k
        self._order = np.arange(self.K)
        if self.real_system:
            self._order[self._nk:] = self._order[:self._nk - 1:-1]
        self._D_nodes = _SeparableD(self._nodes, self.rhos[self._order])
        # Block (j, k) of the Nystrom matrix is Winv_k (delta_jk I + R_jk) W_j.
        # As A A_perp = 0 and Winv_k W_k = I, it equals
        # delta_jk I + cA_jk FA_k + i rho_j cP_jk FP_k, where
        # FA_k = w_k Winv_k Mhat_k A / (2 pi i) and FP_k is the same with
        # A_perp.  They are held as [k, d, a] = F_k[a, d], since the
        # system stores each block transposed.  A probe row j of L is
        # cA_jk FA_k + cP_jk FP_k: the kernel sum over the unknowns psi_k.
        wt = self.wt[:, None, None]
        # (in the column order of the fill)
        self._FA = np.swapaxes(wt * (self.Winv @ self.MhatA), 1, 2)[self._order]
        self._FP = np.swapaxes(wt * (self.Winv @ self.MhatP), 1, 2)[self._order]
        # bytes per slice and (n K n) of the fill of the row nodes and of
        # its real form
        width = 16 * self._nodes.size
        if self.real_system:
            width += 8 * (self.K + probes.size)
        self._block = max(1, min(_BLOCK_SLICES,
                                 _BLOCK_BYTES // (width * n * self.K * n)))
        # threads of the last read_probes
        self.slice_workers = 1
        self.ext_rhos = None

    def extend(self, ext_rhos, ext_w, ext_Mhat):
        """Set the Born tail extension: the rhos, quadrature weights and
        model Mhat samples of the synthetic nodes (replacing any earlier
        ones).  The rhos and weights must be in the mirror layout
        (_is_mirror), as extension_nodes lays them out (_ext_source
        completes the column factors of the mirrors), and on the real
        system, which reads the source at the rows of half the nodes
        only, the samples too; anything else raises ValueError."""
        if not (_is_mirror(ext_rhos, negate=True)
                and _is_mirror(ext_w, negate=True)
                and (not self.real_system or _is_mirror(ext_Mhat))):
            raise ValueError("the extension must mirror")
        self.ext_rhos = np.asarray(ext_rhos)
        self.ext_wt = ext_w / (2j * np.pi)
        # phi~ = c A + v A_perp at these nodes, so w phi~ Mhat [A | A_perp]
        # is c and v times the two halves of _ext_UV, (2, n, 2n, E)
        MAP = (self.ext_wt[:, None, None] * ext_Mhat) @ np.hstack([self.A, self.Ap])
        self._ext_UV = np.ascontiguousarray(
            np.moveaxis(np.stack([self.A @ MAP, self.Ap @ MAP]), 1, -1))
        self._D_ext = _SeparableD(self._nodes, self.ext_rhos)

    def phi_tilde(self, cols):
        """Zero-model solution phi~(x, .) = cos(rho x) A + sin(rho x)/rho
        A_perp at the nodes of the column factors cols (_node_factors at
        xs), shape (X, J, n, n)."""
        return (cols[:, 0, :, None, None] * self.A
                + cols[:, 5, :, None, None] * self.Ap)

    def _contour_cols(self, cols):
        """The column factors (X, 6, K) of the contour nodes in the column
        order of the fill, from those of the row nodes: for the real
        system, the mirrors are the conjugates of the first K/2 (every
        factor of -conj rho is the conjugate of that of rho)."""
        if not self.real_system:
            return cols[:, :, :self.K]
        return np.concatenate([cols[:, :, :self._nk],
                               cols[:, :, :self.K // 2].conj()], axis=2)

    def _kernel_sum(self, D, xs, rows, cols, UV):
        """sum_k wt_k phi_k r~(x, ., mu_k) over the columns mu_k of the grid
        D, at its rows and every x of xs, shape (X, J, n, n); rows and
        cols are the factors of D's rows and columns at xs.  UV holds
        [U_k | V_k] = wt_k phi_k Mhat_k [A | A_perp] as (X, n, 2n, K), and
        the sum is cA @ U + cP @ V."""
        X, n = UV.shape[0], self.n
        out = D.apply(xs, rows, cols, UV[:, :, :n].reshape(X, n * n, -1),
                      UV[:, :, n:].reshape(X, n * n, -1))
        return np.moveaxis(out.reshape(X, n, n, -1), -1, 1)

    def _ext_source(self, xs, D, rows):
        """Born tail term (1/2 pi i) sum_e w_e phi~(x, mu_e) r~(x, ., mu_e)
        at the rows of D (row factors rows at xs), a grid whose columns
        are the extension nodes, for every x of xs.  The column factors
        are evaluated at the first half of the nodes and completed onto
        their mirrors (_mirror_fill): every factor of -conj rho is the
        conjugate of that of rho."""
        E = self.ext_rhos.size
        _, cols = _node_factors(self.ext_rhos[:(E + 1) // 2], xs)
        cols = _mirror_fill(cols, E, axis=2)
        UV = (cols[:, 0, None, None] * self._ext_UV[0]
              + cols[:, 5, None, None] * self._ext_UV[1])
        return self._kernel_sum(D, xs, rows, cols, UV)

    def _source(self, xs, rows, cols):
        """The source F = phi~ - Born tail source at the probes, and the
        Nystrom right-hand side (X, K n, n) of F at the contour rows
        (rows and cols: the factors of the row nodes at xs).  For the
        real system, both are real: every probe is its own mirror, so F
        is real there (up to the rounding of the Born source, which is
        dropped), and the right-hand side is in the row order of
        _real_form: the imaginary parts of the rows of the mirror pairs,
        then the real parts of all contour rows."""
        nk = self._nk
        F = self.phi_tilde(cols)
        if self.ext_rhos is not None:
            F = F - self._ext_source(xs, self._D_ext, rows)
        rhs = np.swapaxes(F[:, :nk] @ self.W[:nk], -1, -2).reshape(xs.size, -1,
                                                                  self.n)
        if self.real_system:
            rhs = np.concatenate(
                [rhs[:, :self.K // 2 * self.n].imag, rhs.real], axis=1)
            return F[:, nk:].real, rhs
        return F[:, nk:], rhs

    def _real_form(self, BL):
        """The real system of the row-node fill BL (X, J n, K n), as
        _Assembler states it: the imaginary rows of the mirror pairs, then
        the real rows of the contour rows and of the probe rows, shape
        (X, (K + P) n, K n) for P probes, over the unknowns Re psi of the
        first ceil(K/2) nodes, then Im psi of the first K/2."""
        X, K, n, nk = BL.shape[0], self.K, self.n, self._nk
        h = K // 2
        S = BL.reshape(X, -1, K, n)
        re, im = S.real, S.imag
        # B2: the columns of the mirrors, the last h of the fill
        re2, im2 = re[:, :, nk:], im[:, :, nk:]
        out = np.empty((X, h * n + S.shape[1], K, n))
        top, bot = out[:, :h * n], out[:, h * n:]
        np.add(im[:, :h * n, :h], im2[:, :h * n], out=top[:, :, :h])
        np.subtract(re[:, :h * n, :h], re2[:, :h * n], out=top[:, :, nk:])
        np.add(re[:, :, :h], re2, out=bot[:, :, :h])
        np.subtract(im2, im[:, :, :h], out=bot[:, :, nk:])
        if nk > h:
            # the self-mirror node: one real unknown, its column of B
            top[:, :, h] = im[:, :h * n, h]
            bot[:, :, h] = re[:, :, h]
        return out.reshape(X, -1, K * n)

    def _factor(self, xs, rows, cols, cond_limit):
        """Fill B over L for every x of xs, (X, J n, K n): the row factors
        R (X, J, 6) of the row nodes, with i rho_j on the cP terms of B's
        rows, times the contour column factors cols (X, 6, K, in the
        column order of the fill) times FA (i < 2) or FP (i >= 2), in one
        batched product, times C; the coincident pairs from the direct
        closed form, then the identity on B; for the real system, its
        real form (_real_form).  Then,
        slice by slice in x order within the block, check that B and L
        are finite, LU-factor B and check its reciprocal 1-norm condition
        number (of the real form, for the real system) against
        cond_limit.  Yields the LU factors, rcond and L of each slice."""
        K, n, nk = self.K, self.n, self._nk
        X, _, J = rows.shape
        Kn = K * n
        # non-finite node factors or data overflow the fill; the check
        # below reports the slice
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.swapaxes(rows, 1, 2).copy()
            R[:, :nk, 2:] *= (1j * self._nodes[:nk])[:, None]
            T = np.empty((X, 6, n, K, n), dtype=complex)
            T[:, :2] = cols[:, :2, None, :, None] * np.swapaxes(self._FA, 0, 1)
            T[:, 2:] = cols[:, 2:, None, :, None] * np.swapaxes(self._FP, 0, 1)
            BL = (R @ T.reshape(X, 6, -1)).reshape(X, J, n, K, n)
            BL *= self._D_nodes.C[:, None, :, None]
            j, k = self._D_nodes.near
            cA, cP = _model_D_coeffs(xs[:, None], self._nodes[j],
                                     self._D_nodes.taus[k])
            cP = np.where(j < nk, 1j * self._nodes[j], 1.0) * cP
            # indexing at [:, j, :, k] puts the pairs first
            BL[:, j, :, k] = (
                cA.T[..., None, None] * self._FA[k, None]
                + cP.T[..., None, None] * self._FP[k, None])
            BL = BL.reshape(X, J * n, Kn)
            diag = np.arange(nk * n)
            BL[:, diag, diag] += 1.0
            if self.real_system:
                BL = self._real_form(BL)
            # the 1-norm of each B: NaN or inf if B is not finite
            norms = np.abs(BL[:, :Kn]).sum(axis=1).max(axis=1)
        finite = np.isfinite(norms) & np.isfinite(BL[:, Kn:]).all(axis=(1, 2))
        gecon = scipy.linalg.get_lapack_funcs("gecon", (BL,))
        for x, ok, norm, S in zip(xs, finite, norms, BL):
            if not ok:
                raise ReconstructionError(
                    f"main-equation system not finite at x = {x:.6g}")
            lu, piv = scipy.linalg.lu_factor(S[:Kn], check_finite=False)
            rcond, _ = gecon(lu, norm)
            # written so that a NaN rcond fails too
            if not (rcond > 0 and 1.0 / rcond <= cond_limit):
                raise ReconstructionError(
                    f"main-equation system ill-conditioned at x = {x:.6g} "
                    f"(cond ~ {1.0 / max(rcond, 1e-300):.2e}); refine the contour")
            yield (lu, piv), float(rcond), S[Kn:]

    def solve(self, x: float,
              cond_limit: float = InvertConfig.system_cond_limit
              ) -> MainEquationSolution:
        """Solve the main equation at x: the block routine on one slice,
        also at one BLAS thread.  For the real system, the unknowns of the
        mirrors are the conjugates of those of the first K/2 nodes."""
        K, n, nk = self.K, self.n, self._nk
        xs = np.array([float(x)])
        rows, cols = _node_factors(self._nodes, xs)
        node_cols = self._contour_cols(cols)
        with _one_blas_thread():
            (fac, rcond, _), = self._factor(xs, rows, node_cols, cond_limit)
            _, rhs = self._source(xs, rows, cols)
            X = scipy.linalg.lu_solve(fac, rhs[0], check_finite=False)
        if self.real_system:
            h = K // 2
            X, V = X[:nk * n] + 0j, X[nk * n:]
            X[:h * n] += 1j * V
            X = np.concatenate([X, X[:h * n].conj()])
        # from the column order of the fill to the contour's
        psi = np.empty((K, n, n), dtype=complex)
        psi[self._order] = np.swapaxes(X.reshape(K, n, n), 1, 2)
        F0 = np.empty_like(psi)
        F0[self._order] = self.phi_tilde(node_cols)[0]
        return MainEquationSolution(x=x, phi_nodes=psi @ self.Winv,
                                    phi_tilde_nodes=F0, rcond=rcond)

    def read_probes(self, xs,
                    cond_limit: float = InvertConfig.system_cond_limit,
                    gains=None):
        """phi(x, lambda_j) at the probes for every x of xs, (X, J, n, n):
        F - G rhs, with the current extension in the source F and the
        right-hand side.  Without gains, each slice is factored first
        (_factor) and its gain G = L B^-1 kept, from one transposed solve
        with J n right-hand sides; G and the values are real for the real
        system.  The
        blocks run concurrently on _slice_workers threads, recorded in
        slice_workers, with every loaded OpenBLAS at one thread
        (_one_blas_thread); errors are reported in x order.  Returns the
        values, the gains (X, J n, K n) and the rconds (None when the
        gains were given)."""
        xs = np.asarray(xs, dtype=float)
        rcond = None
        if gains is None:
            Kn = self.K * self.n
            gains = np.empty((xs.size, (self._nodes.size - self._nk) * self.n,
                              Kn), dtype=float if self.real_system else complex)
            rcond = np.empty(xs.size)

        def read(s):
            # each block writes the gains and rconds of its own slices
            blk = slice(s, s + self._block)
            rows, cols = _node_factors(self._nodes, xs[blk])
            if rcond is not None:
                for i, (fac, rc, L) in enumerate(self._factor(
                        xs[blk], rows, self._contour_cols(cols), cond_limit)):
                    rcond[s + i] = rc
                    gains[s + i] = scipy.linalg.lu_solve(
                        fac, L.T, trans=1, check_finite=False).T
            F, rhs = self._source(xs[blk], rows, cols)
            return F - np.swapaxes((gains[blk] @ rhs).reshape(F.shape), -1, -2)

        starts = range(0, xs.size, self._block)
        with _one_blas_thread():
            self.slice_workers = _slice_workers(len(starts))
            out = _map_blocks(read, starts, self.slice_workers)
        return np.concatenate(out), gains, rcond

    def phi_at(self, sol: MainEquationSolution, rhos) -> np.ndarray:
        """Nystrom interpolation of the solved phi(x, .) to the lambda of
        each of the given rhos, shape (J, n, n)."""
        xs = np.array([sol.x])
        rhos = np.asarray(rhos, dtype=complex)
        rows, cols = _node_factors(rhos, xs)
        _, node_cols = _node_factors(self.rhos, xs)
        UV = (self.wt[:, None, None] * sol.phi_nodes) @ self._MhatAP
        out = self.phi_tilde(cols) - self._kernel_sum(
            _SeparableD(rhos, self.rhos), xs, rows, node_cols,
            np.moveaxis(UV, 0, -1)[None])
        if self.ext_rhos is not None:
            out -= self._ext_source(xs, _SeparableD(rhos, self.ext_rhos), rows)
        return out[0]

    def residual(self, sol: MainEquationSolution) -> float:
        """Off-node consistency residual of a solved x-slice: phi is
        interpolated linearly between adjacent cut nodes and the main
        equation re-evaluated at up to _N_RESIDUAL_PROBES of their
        midpoints, with the current extension; the max norm excess."""
        lams, segs = self.weyl.contour.lambdas, self.weyl.contour.segments
        picks = [k for k in range(self.K - 1)
                 if segs[k] == segs[k + 1] and segs[k] != "circle"]
        if not picks:
            return 0.0
        step = max(1, len(picks) // _N_RESIDUAL_PROBES)
        ks = np.array(picks[::step][:_N_RESIDUAL_PROBES])
        rhos = [lambda_to_point(0.5 * (lams[k] + lams[k + 1]),
                                "upper" if segs[k] == "upper_cut" else "lower").rho
                for k in ks]
        phi_mid = 0.5 * (sol.phi_nodes[ks] + sol.phi_nodes[ks + 1])
        return matnorm(phi_mid - self.phi_at(sol, rhos))


def solve_main_equation(weyl: WeylData, A, x: float,
                        cond_limit: float = InvertConfig.system_cond_limit
                        ) -> MainEquationSolution:
    """Solve the main equation at a single x by Nystrom collocation."""
    return _Assembler(weyl, A).solve(x, cond_limit=cond_limit)


# ---------------------------------------------------------------------------
# Kernel-closure consistency residual (round-trip mode)
# ---------------------------------------------------------------------------

def _phi_values(problem: Problem, lams, adjoint=False):
    """Regular solutions phi(., lam) on the problem grid, (N, K, n, n).

    With adjoint set, the adjoint solutions phi*(., lam) instead: the
    transposed regular solutions of the transposed problem.
    """
    if adjoint:
        problem = transpose_problem(problem)
    bc = problem.bc
    val, _ = _march_many(problem.potential, lams, bc.A, bc.A_perp + bc.h)
    return np.swapaxes(val, -1, -2) if adjoint else val


def closure_residual(weyl: WeylData, problem: Problem, x: float,
                     probe_pairs) -> float:
    """Max residual of the two closure identities linking r and r~.

    Requires the true problem, so this is a round-trip diagnostic only.
    probe_pairs is an iterable of (lam, mu) SpectralPoint pairs.  The
    regular solutions at the contour nodes and every lam are one march,
    the adjoint ones at the contour nodes and every mu another.
    """
    pairs = list(probe_pairs)
    if not pairs:
        return 0.0
    A, Ap = problem.bc.A, problem.bc.A_perp
    rhos = weyl.contour.rhos
    K = rhos.size
    pot = problem.potential
    i = pot.index_of(x)
    dx = pot.dx
    w = weyl.contour.weights / (2j * np.pi)
    nodes = weyl.contour.lambdas
    mu_rhos = [mu.rho for _, mu in pairs]
    Mhat_nodes = weyl.M_samples - _model_weyl(A, rhos)
    MhatA, MhatP = np.split(Mhat_nodes @ np.hstack([A, Ap]), 2, axis=-1)

    phi = _phi_values(problem, np.concatenate([nodes, [lam.lam for lam, _ in pairs]]))
    phis = _phi_values(problem, np.concatenate([nodes, [mu.lam for _, mu in pairs]]),
                       adjoint=True)
    phi_nodes, phis_nodes = phi[:, :K], phis[:, :K]            # (N, K, n, n)
    Mhat = _weyl_many(problem, mu_rhos) - _model_weyl(A, mu_rhos)

    worst = 0.0
    for p, (lam, mu) in enumerate(pairs):
        Mhat_mu = Mhat[p]
        phi_lam, phis_mu = phi[:, K + p], phis[:, K + p]

        cA, cP = _model_D_coeffs(x, lam.rho, rhos)
        rt_lam = (cA[:, None, None] * MhatA
                  + cP[:, None, None] * MhatP)                # (K, n, n)
        cA, cP = _model_D_coeffs(x, lam.rho, mu.rho)
        rt_mu = Mhat_mu @ (cA * A + cP * Ap)

        # D(x, xi_k, mu) and r(x, xi_k, mu)
        integ = prefix_integrals(phis_mu[:, None] @ phi_nodes, dx)[i]
        r_nodes_mu = Mhat_mu @ integ                          # (K, n, n)
        r_mu = Mhat_mu @ prefix_integrals(phis_mu @ phi_lam, dx)[i]

        res1 = rt_mu - r_mu - np.sum(w[:, None, None] * (r_nodes_mu @ rt_lam),
                                     axis=0)

        # D(x, lam, xi_k) and r(x, lam, xi_k)
        integ2 = prefix_integrals(phis_nodes @ phi_lam[:, None], dx)[i]
        r_lam_nodes = Mhat_nodes @ integ2                     # (K, n, n)
        cA, cP = _model_D_coeffs(x, rhos, mu.rho)
        rt_nodes_mu = Mhat_mu @ (cA[:, None, None] * A
                                 + cP[:, None, None] * Ap)
        res2 = rt_mu - r_mu - np.sum(w[:, None, None] * (rt_nodes_mu @ r_lam_nodes),
                                     axis=0)
        worst = max(worst, matnorm(res1), matnorm(res2))
    return worst


# ---------------------------------------------------------------------------
# Self-consistent tail extension
# ---------------------------------------------------------------------------

# The Born tail extension reaches out to this multiple of sqrt(R) in rho.
_TAIL_EXTENSION_FACTOR = 7.0
# Largest q_pass_change invert accepts: a last pass that changes Q by more
# than Q's own L1 norm shows that the passes do not converge.  Healthy
# round trips read at most 0.27; those seen above 1 (boxes sampled on 9 to
# 31 nodes, a bound state or a Robin condition on 9 to 151 slices) were
# off by 0.8 to 93 in relative L1 after the pass.
_Q_PASS_CHANGE_LIMIT = 1.0


def _tail_extension(weyl: WeylData, A, Q_prior: PotentialGrid, real: bool):
    """Synthetic Born-tail nodes past the data truncation radius.

    Fits (Q, h) to the data tail (_fit_tail_model, anchored to the
    reconstruction Q_prior) and returns the extension nodes' rhos,
    weights and the leading Weyl-matrix deviation from the zero model,

        M - M~ = (A + i rho A_perp) (h - 2 kappa(rho)) (A/(i rho) - A_perp) / (i rho),

    of the fitted problem at them, followed by the fit's relative data
    misfit.  real is _Assembler.real_system: for its mirror-symmetric data
    and the real Q it returns, the fit is real, and so is A, so kappa and
    the deviation are evaluated at the first ceil(E/2) nodes and completed
    onto the mirrors (_mirror_fill), as _Assembler.extend requires.
    """
    rhos, w = extension_nodes(weyl.contour, _TAIL_EXTENSION_FACTOR)
    Q_fit, h_fit, misfit = _fit_tail_model(weyl, A, Q_prior, real)
    A = np.asarray(A, dtype=complex)
    Ap = np.eye(A.shape[0]) - A
    # for a real fit and A, kappa(-conj rho) = conj kappa(rho), and the
    # deviation at -conj rho is the conjugate of that at rho
    r = rhos[:(rhos.size + 1) // 2] if real else rhos
    # kappa depends on Q and A only
    kap = kappa(Problem(potential=Q_fit,
                        bc=BoundaryCondition(A=A, h=np.zeros_like(A))), r)
    r = r[:, None, None]
    left = A[None] + 1j * r * Ap[None]
    right = A[None] / (1j * r) - Ap[None]
    mid = (h_fit[None] - 2.0 * kap) / (1j * r)
    Mhat = left @ mid @ right
    if real:
        Mhat = _mirror_fill(Mhat, rhos.size)
    return rhos, w, Mhat, misfit


# Settings of _fit_tail_model: the coarse node count of the fitted Q (odd),
# the weights of the total-variation and prior-anchor rows, and the number
# of reweighting passes.
_FIT_NODES = 101
_FIT_TV_WEIGHT = 3e-3
_FIT_ANCHOR_WEIGHT = 0.5
_FIT_IRLS_ITERS = 8


def _fit_tail_model(weyl: WeylData, A, Q_prior: PotentialGrid, real: bool):
    """Fit (Q, h) to the large-|rho| structure of the measured Weyl data.

    For |rho| past the low-lying singularities,

        (i rho) (A + i rho A_perp)^{-1} Mhat (A/(i rho) - A_perp)^{-1}
            = h - 2 (A_perp - A) omega(0, rho) + O(1/rho^2),

    and omega(0, rho) = (1/2) int_0^X Q(t) exp(2 i rho t) dt is linear in
    the samples of Q, so the outer cut nodes, |rho| >= max(3, 0.45 sqrt(R)),
    and the imaginary-axis tail samples give a linear system for (h, Q).
    The outer band carries no low-frequency information, so the smooth
    component is anchored to the first-pass reconstruction Q_prior, while
    an edge-preserving total variation penalty (iteratively reweighted
    least squares, _tv_irls) supplies the compact-support extrapolation
    beyond the data band.  The result seeds the synthetic kernel tail past
    the truncation radius; it is a coarse estimate of Q only, never the
    reconstruction itself.

    real is _Assembler.real_system: for mirror-symmetric data
    (_mirror_symmetric, whose tail points are their own mirrors with real
    samples) and a real prior, which the real system returns, the rows of
    rho and -conj rho are conjugates and the anchor rows real, so the
    unique minimizer is real.  The fit is then solved over real
    unknowns, with each data row split into its real and imaginary parts
    (the same misfit for real z), the real part of the anchor rows and
    real arithmetic throughout.  Otherwise it keeps the complex rows.

    Returns (Q, h) and the relative misfit of the (row-weighted) data
    rows.  Data rows that are not finite raise DataQualityError; anchor
    rows, a solution or a misfit that are not finite (a prior far out of
    scale) raise ReconstructionError.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    Ap = np.eye(n) - A
    S = Ap - A                       # involution: S @ S = I
    rho_R = np.sqrt(weyl.contour.R)
    rho_fit_min = max(3.0, 0.45 * rho_R)

    cont = weyl.contour
    keep = ((np.array(cont.segments) != "circle")
            & (np.abs(cont.rhos) >= rho_fit_min))
    tail = weyl.tail_samples
    tail_rhos = np.array([pt.rho for pt, _ in tail], dtype=complex)
    tail_M = np.reshape([M for _, M in tail], (-1, n, n))
    # samples near 0 or far out overflow the data rows, and a prior far
    # out of scale the anchor rows or the fit; the checks reject them
    with np.errstate(over="ignore", invalid="ignore"):
        rhos = np.concatenate([cont.rhos[keep], tail_rhos])
        Ys = (np.concatenate([weyl.M_samples[keep], tail_M])
              - _model_weyl(A, rhos))
        Linv = A[None] + Ap[None] / (1j * rhos)[:, None, None]
        Rinv = (1j * rhos)[:, None, None] * A[None] - Ap[None]
        Ys = (1j * rhos)[:, None, None] * (Linv @ Ys @ Rinv)

        x_max = Q_prior.x_max
        n_coarse = _FIT_NODES
        t = np.linspace(0.0, x_max, n_coarse)
        dt = t[1] - t[0]
        # Y = h + c/rho + basis . (S Q); basis integrates the piecewise-linear
        # hat at each node against -exp(2 i rho t) in closed form (Filon), so
        # the design stays exact however fast the kernel oscillates.  The
        # 1/rho nuisance column absorbs the next-order model bias, which is
        # otherwise degenerate with the endpoint value Q(0).
        a = 2j * rhos[:, None]
        basis = np.exp(a * t[None, :]) * dt * sinc(rhos[:, None] * dt) ** 2
        basis[:, 0] = (-1.0 / a[:, 0]
                       + (np.exp(a[:, 0] * dt) - 1.0) / (a[:, 0] ** 2 * dt))
        basis[:, -1] = np.exp(a[:, 0] * x_max) * (
            1.0 / a[:, 0] + (np.exp(-a[:, 0] * dt) - 1.0) / (a[:, 0] ** 2 * dt))
        basis = -basis
        row_w = np.abs(rhos) / rho_R
        design = row_w[:, None] * np.hstack(
            [np.ones((len(rhos), 1)), 1.0 / (1j * rhos)[:, None], basis])
        rhs_data = row_w[:, None] * Ys.reshape(len(rhos), n * n)
        if not (np.isfinite(design).all() and np.isfinite(rhs_data).all()):
            raise DataQualityError("the tail fit's data rows are not finite")
        if real:
            # for real z, |d z - y|^2 = (Re d z - Re y)^2 + (Im d z - Im y)^2
            design = np.vstack([design.real, design.imag])
            rhs_data = np.vstack([rhs_data.real, rhs_data.imag])

        # anchor: the band-limited component of Q must match the prior
        sigma = 2.0 / rho_R
        prior = Q_prior.sample(t)
        kern = np.exp(-0.5 * ((t[:, None] - t[None, :]) / sigma) ** 2)
        kern /= kern.sum(axis=1, keepdims=True)
        # the prior carries a spurious boundary layer at x = 0, so ramp the
        # anchor in from zero there and let the data set the endpoint
        layer = 3.0 / rho_R
        ramp = np.clip(t / layer - 1.0, 0.0, 1.0)
        kern = ramp[:, None] * kern
        anchor = (np.hstack([np.zeros((n_coarse, 2)), kern])
                  * _FIT_ANCHOR_WEIGHT)
        SQ_prior = np.einsum("ab,tbc->tac", S, prior)
        rhs_anchor = _FIT_ANCHOR_WEIGHT * (kern @ SQ_prior.reshape(n_coarse,
                                                                   n * n))
        if real:
            rhs_anchor = rhs_anchor.real
        if not np.isfinite(rhs_anchor).all():
            raise ReconstructionError("the tail fit's anchor rows are not "
                                      "finite")

        # first differences of the Q columns (the two leading columns are h, c)
        D1 = (np.eye(n_coarse - 1, n_coarse + 2, k=3)
              - np.eye(n_coarse - 1, n_coarse + 2, k=2))
        Z, misfit = _tv_irls(np.vstack([design, anchor]),
                             np.vstack([rhs_data, rhs_anchor]), D1,
                             len(design))
    if not (np.isfinite(Z).all() and np.isfinite(misfit)):
        raise ReconstructionError("the tail fit is not finite")

    h_fit = A @ Z[0].reshape(n, n) @ A
    Q_fit = np.einsum("ab,tbc->tac", S, Z[2:].reshape(n_coarse, n, n))
    # resample onto the prior's fine grid so downstream Fourier integrals
    # of the fit stay resolved well past the data band
    tf = Q_prior.x_nodes
    fine = PotentialGrid(x_nodes=t, values=Q_fit).sample(tf)
    return PotentialGrid(x_nodes=tf, values=fine), h_fit, misfit


def _tv_irls(top, b, D1, n_data):
    """Total-variation regularized least squares for every column of b.

    Column c solves min ||top z - b_c||^2 + ||T_c z||^2 with the TV rows
    T_c = _FIT_TV_WEIGHT diag(w_c) D1, reweighted _FIT_IRLS_ITERS times
    with w_c = (|D1 z_c| + 1e-3)^(-1/2) from the previous solution (w = 1
    at first).  top = Q0 R0 is factored once, since ||top z - b_c|| and
    ||R0 z - Q0^H b_c|| differ by a constant.  Each iteration takes, per
    column, one QR of the triangle [R0 Q0^H b_c; 0 0] stacked over the TV
    rows [T_c 0] (LAPACK ?tpqrt, which keeps the triangle's structure),
    and z_c is one triangular solve with the leading block of its R.
    Real or complex: the arithmetic is that of top and b, which must share
    a dtype.  Returns Z (columns z_c) and the relative misfit
    ||b - top Z|| / ||b|| of the first n_data rows.
    """
    P = top.shape[1]
    Q0, R0 = np.linalg.qr(top)
    tri = np.zeros((b.shape[1], P + 1, P + 1), dtype=top.dtype)
    tri[:, :P, :P] = R0
    tri[:, :P, P] = (Q0.conj().T @ b).T
    TV = np.zeros((D1.shape[0], P + 1), dtype=top.dtype)
    tpqrt = scipy.linalg.get_lapack_funcs("tpqrt", (top,))
    w = np.ones((D1.shape[0], b.shape[1]))
    Z = np.empty((P, b.shape[1]), dtype=top.dtype)
    for it in range(_FIT_IRLS_ITERS):
        if it:
            w = 1.0 / np.sqrt(np.abs(D1 @ Z) + 1e-3)
        for c in range(b.shape[1]):
            TV[:, :P] = _FIT_TV_WEIGHT * w[:, c, None] * D1
            # block size 16: 8 to 16 are fastest at P = 103
            R = tpqrt(0, min(16, P + 1), tri[c], TV)[0]
            Z[:, c] = scipy.linalg.solve_triangular(R[:P, :P], R[:P, P],
                                                    check_finite=False)
    r = b[:n_data] - top[:n_data] @ Z
    return Z, float(np.linalg.norm(r) / np.linalg.norm(b[:n_data]))


# ---------------------------------------------------------------------------
# Potential and boundary extraction
# ---------------------------------------------------------------------------

def _fd_weights(offsets, order):
    """Finite-difference weights for d^order/dx^order at offset 0."""
    offsets = np.asarray(offsets, dtype=float)
    m = len(offsets)
    V = np.vander(offsets, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = float(math.factorial(order))
    return np.linalg.solve(V, rhs)


def _fd_operators(N, dx):
    """4th-order finite differences on N uniform nodes of step dx: the
    second derivative at every node, (N, N), with the 5-point central
    stencil inside and 6-point one-sided stencils at the two nodes at
    each end, and the first derivative at the first node, (N,), from the
    5-point one-sided stencil."""
    D2 = np.zeros((N, N))
    i = np.arange(2, N - 2)[:, None]
    D2[i, i + np.arange(-2, 3)] = _fd_weights(np.arange(-2, 3), 2)
    for i, base in ((0, 0), (1, 0), (N - 2, N - 6), (N - 1, N - 6)):
        D2[i, base:base + 6] = _fd_weights(np.arange(base, base + 6) - i, 2)
    d1 = np.zeros(N)
    d1[:5] = _fd_weights(np.arange(5), 1)
    return D2 / dx**2, d1 / dx


def recover_potential(solutions, weyl: WeylData, A, lambda_probes,
                      phi_cond_limit: float = InvertConfig.phi_cond_limit,
                      edge_layer: float = 0.0):
    """Extract (Q, h) from main-equation solutions on an x-grid.

    Each solution is interpolated to the probe energies (_Assembler.phi_at)
    and passed to _potential_from_probes, which states the formulas.
    """
    solutions = sorted(solutions, key=lambda s: s.x)
    A = np.asarray(A, dtype=complex)
    probes = [lambda_to_point(l) for l in np.atleast_1d(lambda_probes)]
    asm = _Assembler(weyl, A)
    PHI = np.array([asm.phi_at(sol, [pt.rho for pt in probes])
                    for sol in solutions])                  # (N, J, n, n)
    Q, h, _ = _potential_from_probes(
        np.array([s.x for s in solutions]), PHI, A,
        np.array([pt.lam for pt in probes]), phi_cond_limit, edge_layer)
    return Q, h


def _potential_from_probes(xs, PHI, A, lams, phi_cond_limit, edge_layer):
    """(Q, h) from phi(x_i, lambda_j) on a uniform x-grid, PHI (N, J, n, n),
    and the number of x-nodes where phi was rejected at every probe.

    Q(x) = phi''(x, lam) phi(x, lam)^{-1} + lam I, averaged over the probe
    energies; h = phi'(0, lam) - A_perp, compressed to A h A.  Nodes where
    phi is ill-conditioned at every probe are filled from the nearest
    valid neighbor, and the last two nodes are set to zero (Q is assumed
    compactly supported inside the grid).

    The recovered phi is band-limited by the contour truncation, and its
    curvature excess vanishes identically at x = 0 (the kernel basis is
    odd in x), so Q cannot converge pointwise there.  edge_layer gives
    the width of that boundary layer; Q on it is replaced by a linear
    extrapolation from just outside.
    """
    if xs.size < 7:
        raise ReconstructionError("need at least 7 x-slices for the stencils")
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx, rtol=1e-10, atol=1e-12):
        raise ReconstructionError("x-slices must form a uniform grid")
    n = A.shape[0]
    Ap = np.eye(n) - A

    D2, d1 = _fd_operators(xs.size, dx)
    d2 = np.tensordot(D2, PHI, axes=(1, 0))
    ok = ~(np.linalg.cond(PHI) > phi_cond_limit)                   # (N, J)
    # phi(0) = A is singular when A != I, so only accepted entries are inverted
    inv = np.linalg.inv(np.where(ok[..., None, None], PHI, np.eye(n)))
    Q_j = d2 @ inv + lams[:, None, None] * np.eye(n)
    Q_acc = np.where(ok[..., None, None], Q_j, 0.0).sum(axis=1)
    count = ok.sum(axis=1)

    good = np.flatnonzero(count)
    if not good.size:
        raise ReconstructionError("phi singular at every probe and node")
    # each node reads the nearest valid node, itself if valid and the left
    # one on a tie: this fills the skipped nodes (typically x = 0, where
    # phi(0) = A is singular)
    near = good[np.abs(np.arange(xs.size)[:, None] - good).argmin(axis=1)]
    Q = Q_acc[near] / count[near, None, None]
    Q[-2:] = 0.0

    if edge_layer > 0:
        i0 = int(np.ceil(edge_layer / dx))
        i1 = min(i0 + max(6, i0), xs.size - 3)
        if 0 < i0 < i1:
            coef = np.polynomial.polynomial.polyfit(
                xs[i0:i1], Q[i0:i1].reshape(i1 - i0, -1), 1)
            fill = np.polynomial.polynomial.polyval(xs[:i0], coef).T
            Q[:i0] = fill.reshape(i0, n, n)

    h = np.mean(np.tensordot(d1, PHI, axes=(0, 0)) - Ap, axis=0)
    h = A @ h @ A
    return PotentialGrid(x_nodes=xs, values=Q), h, xs.size - good.size


# ---------------------------------------------------------------------------
# End-to-end inversion
# ---------------------------------------------------------------------------

def invert(weyl: WeylData, config: InvertConfig) -> ReconstructionResult:
    """Run the reconstruction pipeline on measured Weyl data.

    The x-grid is worked through in blocks of slices
    (_Assembler.read_probes, under a private 2.5 MB budget).  Pass 1 fills,
    LU-factors and checks every slice once and keeps only its probe gain
    ((J n) x (K n) per slice, about 8 MB at the criterion-6 matrix size).
    Whether the data are mirror-symmetric (real potential and boundary
    data sampled on build_contour's mirror-symmetric contour and on the
    imaginary axis, probes with lambda < 0) is decided once
    (_Assembler.real_system), and every step takes that decision: each
    slice is then solved as an equivalent real system of order K n on the
    rows of half the contour nodes, with a real gain and real probe
    values, and the tail fit between the passes is solved over real
    unknowns, with the extension evaluated at half its nodes; Q and h
    come out real.  Other data take the complex system over all nodes and
    the complex fit.  Every pass reads the probe values off the gains and
    its own right-hand side, which alone carries the tail extension,
    fitted to the previous pass's Q (_tail_extension).  The blocks run
    concurrently; errors are reported in x order.  Every loaded OpenBLAS
    runs at one thread for the duration (_one_blas_thread), so every
    result is the same for any thread count, of the blocks or of BLAS.
    Diagnostics: main_equation_residual (of the middle slice, solved
    after the last pass), min_rcond and min_rcond_x (the worst-conditioned
    Nystrom system; for the real system, the reciprocal 1-norm condition
    number of the real system: a unitary change of basis of the complex
    one, up to scale, so of the same 2-norm condition number and a 1-norm
    one at most 2 times the complex system's, 4 times with a self-mirror
    node), phi_filled_nodes (x-nodes
    where phi was rejected at every probe and filled in, last pass),
    q_pass_change (relative L1 change of Q over the last pass, 0 for one
    pass; above _Q_PASS_CHANGE_LIMIT = 1 the passes do not converge and
    ReconstructionError is raised), slice_workers (the threads the blocks
    ran on: the usable CPUs, at most one per block, or 1 where BLAS could
    not be set to one thread), blas_threads (the largest thread
    count a loaded OpenBLAS reports outside invert, None when none can be
    read), real_system (whether the slices were solved as the real half
    system) and, with passes > 1, tail_fit_residual (relative data misfit
    of the last tail fit).
    """
    blas = _blas_threads()
    with _one_blas_thread():
        A = extract_A(weyl.tail_samples)
        xs = np.linspace(0.0, config.x_max, config.x_nodes)
        probes = [lambda_to_point(l) for l in config.lambda_probes]
        lams = np.array([pt.lam for pt in probes])

        asm = _Assembler(weyl, A, [pt.rho for pt in probes])
        PHI, gains, rcond = asm.read_probes(xs, config.system_cond_limit)
        fit = {}
        Q = Q_prev = None
        rho_band = math.sqrt(weyl.contour.R)
        for p in range(config.passes):
            if p > 0:
                *ext, fit["tail_fit_residual"] = _tail_extension(
                    weyl, A, Q, asm.real_system)
                asm.extend(*ext)
                rho_band = _TAIL_EXTENSION_FACTOR * np.sqrt(weyl.contour.R)
                PHI = asm.read_probes(xs, gains=gains)[0]
            Q_prev = Q
            Q, h, filled = _potential_from_probes(
                xs, PHI, A, lams, config.phi_cond_limit, 1.5 / rho_band)
        residual = asm.residual(asm.solve(xs[xs.size // 2],
                                          config.system_cond_limit))

    change = 0.0
    if Q_prev is not None:
        change = PotentialGrid(x_nodes=xs,
                               values=Q.values - Q_prev.values).l1_norm()
        change /= Q_prev.l1_norm() or 1.0
    if change > _Q_PASS_CHANGE_LIMIT:
        raise ReconstructionError(
            f"the Born tail passes do not converge: the last changed Q by "
            f"q_pass_change = {change:.3g} > {_Q_PASS_CHANGE_LIMIT:g} times "
            "its L1 norm")
    worst = int(np.argmin(rcond))
    diag = {
        "main_equation_residual": residual,
        "min_rcond": float(rcond[worst]),
        "min_rcond_x": float(xs[worst]),
        "phi_filled_nodes": filled,
        "q_pass_change": change,
        "slice_workers": asm.slice_workers,
        "blas_threads": blas,
        "real_system": asm.real_system,
        **fit,
    }
    return ReconstructionResult(A=A, h=h, Q=Q, diagnostics=diag)


def generate_weyl_data(problem: Problem, contour: Contour,
                       tail_ts=None) -> WeylData:
    """Forward-compute Weyl data for a known problem (round-trip mode).

    Every contour node and tail point goes through one batched Jost solve,
    which for real Q marches one point per mirror pair rho, -conj rho
    (the contour is mirror-symmetric) and one per exact repeat.
    """
    if tail_ts is None:
        tail_ts = np.linspace(50.0, 400.0, 8)
    tail_pts = [SpectralPoint(1j * t) for t in tail_ts]
    K = len(contour)
    M = _weyl_many(problem,
                   np.concatenate([contour.rhos, [p.rho for p in tail_pts]]))
    return WeylData(contour=contour, M_samples=M[:K],
                    tail_samples=tuple(zip(tail_pts, M[K:])))


def coarsen_weyl_data(weyl: WeylData, mode: str) -> WeylData:
    """Degrade measured data for self-convergence estimates: the samples
    at the nodes that coarsen_contour keeps, on its coarse contour (mode
    "nodes" doubles the spacing, mode "radius" halves the truncation
    radius), so the result is a valid data set, just a coarser one."""
    coarse, keep = coarsen_contour(weyl.contour, mode)
    return WeylData(contour=coarse, M_samples=weyl.M_samples[keep],
                    tail_samples=weyl.tail_samples)


def discretization_estimate(weyl: WeylData, config: InvertConfig,
                            result: ReconstructionResult) -> float:
    """Self-convergence error estimate for a finished reconstruction.

    Reruns the inversion on deliberately degraded inputs (half x-grid
    density, half contour-node density, halved truncation radius) and
    returns the largest relative L1 change of Q.  Refining any knob from
    the base configuration moves Q by less than this coarsening did, so
    it bounds the discretization error of the reported Q from above.
    The half-density grid needs x_nodes >= 13 (InvertConfig's minimum of
    7 slices) and must resolve every probe with dx doubled (InvertConfig's
    probe rule); otherwise it raises ValueError.
    """
    # the largest odd count <= (N + 1) / 2: N = 201 gives 101, N = 63 gives 31
    coarse_x = replace(config, x_nodes=(config.x_nodes - 1) // 4 * 2 + 1)
    runs = [invert(weyl, coarse_x)] + [
        invert(coarsen_weyl_data(weyl, mode), config)
        for mode in ("nodes", "radius")]
    return max(res.Q.relative_l1(result.Q) for res in runs)
