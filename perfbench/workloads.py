"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload draws its problems from one generator seeded with the
run's seed; the library only ever sees the generated problem, contour and
config.

* ``roundtrip-scalar``: n = 1 Neumann box potential, generate_weyl_data
  then invert.
* ``roundtrip-matrix``: n = 2, A = diag(1, 0), h = 0, rotated two-channel
  box potential, generate_weyl_data then invert.
* ``forward-matrix``: n = 2 Gaussian bumps in every entry with a random
  projector and a Hermitian h = A h A, generate_weyl_data then the
  M = M* certificate and the regular solutions at seeded points.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from weylinv import (BoundaryCondition, InvertConfig, PotentialGrid, Problem,
                     SpectralPoint, build_contour, check_m_equals_mstar,
                     generate_weyl_data, invert, matnorm, solve_regular)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes shared by all workloads."""

    n_cut: int          # contour nodes per cut side
    n_circle: int       # contour nodes on the circle
    x_nodes: int        # inversion x-grid (odd)
    refine: int         # potential grid = refine x finer than the x-grid
    passes: int         # inversion passes (2 = Born tail extension)
    fm_nodes: int       # forward-matrix potential grid on [0, 1.5]
    n_certify: int      # certification points per forward-matrix operation

    def contour_kwargs(self) -> dict:
        return dict(r0=2.0, R=200.0, n_cut=self.n_cut,
                    n_circle=self.n_circle, delta=0.0)

    def invert_config(self, passes=None) -> InvertConfig:
        return InvertConfig(x_max=2.0, x_nodes=self.x_nodes,
                            passes=self.passes if passes is None else passes)


# K = 2 * 32 + 32 = 96 contour nodes plus 8 imaginary-axis tail points.
FULL = Sizes(n_cut=32, n_circle=32, x_nodes=61, refine=4, passes=2,
             fm_nodes=301, n_certify=16)
# For the smoke test only: correct structure, not accurate answers.
TINY = Sizes(n_cut=32, n_circle=32, x_nodes=9, refine=4, passes=1,
             fm_nodes=41, n_certify=2)
SIZES = {"full": FULL, "tiny": TINY}

# Correctness bounds. H_TOL and MSTAR_TOL are the acceptance-suite
# bounds (criteria 6 and 3). The q_l1_rel bounds are about 1.3 times the
# largest value weylinv 0.1.0 gave at FULL size: 0.046 over 238 scalar
# and 0.090 over 138 matrix problems (seeds 101-110 and 201-210).
SCALAR_Q_TOL = 0.06
MATRIX_Q_TOL = 0.12
H_TOL = 1e-2
A_TOL = 1e-6
MSTAR_TOL = 1e-7


@dataclass(frozen=True)
class Case:
    """One generated input: the problem plus what a check needs."""

    problem: Problem
    q_true: np.ndarray | None = None   # true Q on the inversion x-grid
    q_tol: float = 0.0                 # bound on q_l1_rel
    points: tuple = ()                 # certification points


def _box_grid(sizes: Sizes):
    nodes = sizes.refine * (sizes.x_nodes - 1) + 1
    return np.linspace(0.0, 2.0, nodes)


def _with_truth(sizes: Sizes, x, values, A, q_tol) -> Case:
    n = A.shape[0]
    problem = Problem(potential=PotentialGrid(x_nodes=x, values=values),
                      bc=BoundaryCondition(A=A, h=np.zeros((n, n), complex)))
    return Case(problem=problem, q_true=values[::sizes.refine], q_tol=q_tol)


def scalar_case(rng: np.random.Generator, sizes: Sizes) -> Case:
    """Neumann box: coupling in [0.2, 0.4], cut in [0.8, 1.2]."""
    c = rng.uniform(0.2, 0.4)
    a = rng.uniform(0.8, 1.2)
    x = _box_grid(sizes)
    values = (c * (x <= a)).astype(complex)[:, None, None]
    return _with_truth(sizes, x, values, np.eye(1, dtype=complex),
                       SCALAR_Q_TOL)


def matrix_case(rng: np.random.Generator, sizes: Sizes) -> Case:
    """Q = U(theta) diag(c1 1[x<=a1], c2 1[x<=a2]) U(theta)^T, A = diag(1, 0)."""
    theta = rng.uniform(0.2, 0.8)
    c = rng.uniform(0.15, 0.35, size=2)
    a = rng.uniform(0.7, 1.1, size=2)
    x = _box_grid(sizes)
    U = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    D = np.zeros((x.size, 2, 2))
    D[:, 0, 0] = c[0] * (x <= a[0])
    D[:, 1, 1] = c[1] * (x <= a[1])
    values = (U @ D @ U.T).astype(complex)
    return _with_truth(sizes, x, values, np.diag([1.0, 0.0]).astype(complex),
                       MATRIX_Q_TOL)


def forward_case(rng: np.random.Generator, sizes: Sizes) -> Case:
    """Gaussian bump per entry, random projector, Hermitian h = A h A."""
    x = np.linspace(0.0, 1.5, sizes.fm_nodes)
    values = np.zeros((x.size, 2, 2), complex)
    for i in range(2):
        for j in range(2):
            c = rng.normal(0.0, 0.4)
            w = rng.uniform(0.15, 0.4)
            m = rng.uniform(0.2, 1.2)
            values[:, i, j] = c * np.exp(-(((x - m) / w) ** 2))
    k = int(rng.integers(0, 3))
    Z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    V, _ = np.linalg.qr(Z)
    A = V[:, :k] @ V[:, :k].conj().T
    A = (A + A.conj().T) / 2
    h = rng.normal(size=(2, 2))
    h = A @ ((h + h.T) / 2) @ A
    points = tuple(
        SpectralPoint(rho=rng.uniform(1, 6)
                      * np.exp(1j * rng.uniform(0.1, np.pi - 0.1)))
        for _ in range(sizes.n_certify))
    problem = Problem(potential=PotentialGrid(x_nodes=x, values=values),
                      bc=BoundaryCondition(A=A, h=h))
    return Case(problem=problem, points=points)


def q_l1_rel(q_rec, q_true, x) -> float:
    """Relative L1 error of Q, as in acceptance criterion 6."""
    num = np.trapezoid(np.abs(q_rec - q_true).sum(-1).max(-1), x)
    den = np.trapezoid(np.abs(q_true).sum(-1).max(-1), x)
    return float(num / den)


def roundtrip_accuracy(case: Case, result) -> dict:
    bc = case.problem.bc
    return {
        "q_l1_rel": q_l1_rel(result.Q.values, case.q_true, result.Q.x_nodes),
        "h_err": matnorm(result.h - bc.h),
        "A_err": matnorm(result.A - bc.A),
    }


def roundtrip_problems(case: Case, result, acc: dict) -> list:
    """Violated checks of one round trip; empty when it is correct."""
    bad = []
    finite = (np.all(np.isfinite(result.Q.values)) and np.all(np.isfinite(result.h))
              and np.all(np.isfinite(result.A)))
    if not finite:
        bad.append("non-finite output")
    if not acc["q_l1_rel"] <= case.q_tol:
        bad.append(f"q_l1_rel {acc['q_l1_rel']:.3g} > {case.q_tol}")
    if not acc["h_err"] <= H_TOL:
        bad.append(f"h_err {acc['h_err']:.3g} > {H_TOL}")
    if not acc["A_err"] <= A_TOL:
        bad.append(f"A_err {acc['A_err']:.3g} > {A_TOL}")
    return bad


def forward_problems(data, mstar: float, regulars) -> list:
    """Violated checks of one forward-matrix operation."""
    bad = []
    arrays = [data.M_samples] + [m for _, m in data.tail_samples]
    for phi, S in regulars:
        arrays += [phi.value, phi.derivative, S.value, S.derivative]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        bad.append("non-finite output")
    if not mstar <= MSTAR_TOL:
        bad.append(f"mstar_resid {mstar:.3g} > {MSTAR_TOL}")
    return bad


# Time of reference_kernel on the reference machine (2 vCPUs of an Intel
# Xeon, numpy 2.4.6, scipy 1.17.1, one OpenBLAS thread) in its fastest
# stretches; in slow ones it took up to 0.14 s. It only sets the scale of
# the timed end-to-end metrics.
REFERENCE_S = 0.080

_REF_RNG = np.random.default_rng(0)
_REF_G = _REF_RNG.normal(size=(241, 2, 2)) + 1j * _REF_RNG.normal(size=(241, 2, 2))
_REF_Z = _REF_RNG.normal(size=(96, 96)) + 1j * _REF_RNG.normal(size=(96, 96))
_REF_B = _REF_RNG.normal(size=(192, 192)) + 1j * _REF_RNG.normal(size=(192, 192))


def reference_kernel(reps: int = 12) -> float:
    """Seconds taken by a fixed kernel with the mix of an operation: a
    Python loop of small complex array updates (as in the forward tail
    integrals), a complex sinc over a 3-index array (as in kernel
    assembly) and the LU of a 192 x 192 complex matrix. It uses numpy
    and scipy only, so a change to weylinv cannot move it."""
    t0 = time.perf_counter()
    for _ in range(reps):
        a = np.exp(0.01j)
        J = np.zeros_like(_REF_G)
        for i in range(_REF_G.shape[0] - 2, -1, -1):
            J[i] = a * J[i + 1] + 0.5 * (_REF_G[i] + a * _REF_G[i + 1])
        np.sinc(_REF_Z[:, :, None] * _REF_Z[None, :, :4].real)
        scipy.linalg.lu_factor(_REF_B)
    return time.perf_counter() - t0


class ReferenceClock:
    """Host speed next to each timed stage.

    The host this benchmark was tuned on ran identical work up to 1.8
    times slower for seconds to minutes at a time. The reference kernel
    runs before the first stage and after every stage, and a stage's
    reference time is the mean of the samples on either side of it, so
    stage time / reference time * REFERENCE_S removes most of that from
    the end-to-end metrics. Bracketing each stage rather than the whole
    operation gave a lower spread on the same runs."""

    def __init__(self):
        self.last = reference_kernel()

    def bracket(self) -> float:
        after = reference_kernel()
        mean, self.last = (self.last + after) / 2, after
        return mean


@dataclass
class Outcome:
    """Stage times, reference times, accuracy figures, violated checks and
    the exception, if any, of one operation.

    An operation fills it in as it goes, so a stage that raises still
    leaves its time behind."""

    clock: ReferenceClock | None = None
    times: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.error is not None

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0
            if self.clock is not None:
                self.ref[name] = self.clock.bracket()


def run_roundtrip(out: Outcome, case: Case, contour, config):
    """generate_weyl_data then invert."""
    with out.stage("forward_s"):
        data = generate_weyl_data(case.problem, contour)
    with out.stage("invert_s"):
        result = invert(data, config)
    out.values = roundtrip_accuracy(case, result)
    out.values.update(result.diagnostics)
    out.problems += roundtrip_problems(case, result, out.values)


def run_forward(out: Outcome, case: Case, contour, config):
    """generate_weyl_data, then M = M* and solve_regular at the points."""
    with out.stage("forward_s"):
        data = generate_weyl_data(case.problem, contour)
    with out.stage("certify_s"):
        mstar = check_m_equals_mstar(case.problem, case.points)
        regulars = [solve_regular(case.problem, pt) for pt in case.points]
    out.values = {"mstar_resid": mstar}
    out.problems += forward_problems(data, mstar, regulars)


@dataclass(frozen=True)
class Workload:
    name: str
    make_case: object       # (rng, sizes) -> Case
    run: object             # (outcome, case, contour, config)


WORKLOADS = {
    w.name: w for w in (
        Workload("roundtrip-scalar", scalar_case, run_roundtrip),
        Workload("roundtrip-matrix", matrix_case, run_roundtrip),
        Workload("forward-matrix", forward_case, run_forward),
    )
}


def build_inputs(workload: Workload, seed: int, sizes: Sizes):
    """The set-up step: first problem, contour and config of a run."""
    rng = np.random.default_rng(seed)
    case = workload.make_case(rng, sizes)
    contour = build_contour(**sizes.contour_kwargs())
    config = sizes.invert_config()
    return rng, case, contour, config
