"""Forward solver: Jost and regular solutions, Weyl matrix, diagnostics."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from weylinv import (
    BoundaryCondition,
    ConvergenceError,
    PoleProximityError,
    PotentialGrid,
    Problem,
    SpectralPoint,
    asymptotics_report,
    build_contour,
    check_m_equals_mstar,
    generate_weyl_data,
    jost_matrix,
    matnorm,
    model_weyl,
    p_matrix_diagnostic,
    scan_jost_zeros,
    solve_jost,
    solve_regular,
    weyl_matrix,
    weyl_solution,
    zero_potential,
)
from weylinv.contour import _is_mirror
from weylinv.core import apply_T, bracket, tail_integrals
import weylinv.forward as fw
from weylinv.forward import (_STEP_NORM_MAX, _jost_at_zero, _jost_scaled,
                             _march_length, _march_many, _pmm, _prefix_apply,
                             _propagators, _weyl_many, adjoint_weyl_matrix,
                             kappa, omega, transpose_problem)

from conftest import random_projector, scalar_box_problem, smooth_matrix_problem


def ivp_jost_oracle(problem, rho):
    """Independent scalar Jost oracle: integrate the equation backward

    from x_max with the free-field data e = exp(i rho x)."""
    pot = problem.potential
    X = pot.x_max
    q = lambda x: np.interp(x, pot.x_nodes, pot.values[:, 0, 0].real)

    def f(x, y):
        return [y[1], (q(x) - rho ** 2) * y[0]]

    y0 = [np.exp(1j * rho * X), 1j * rho * np.exp(1j * rho * X)]
    sol = solve_ivp(f, [X, 0.0], y0, rtol=1e-11, atol=1e-13,
                    dense_output=True)
    return sol.y[0][-1], sol.y[1][-1]


def reference_scaled_tail_integrals(g, rho, dx):
    """One point's backward recurrence J_i = a J_{i+1} + trapezoid step,
    with the 4th-order endpoint correction (the per-point direct path)."""
    N = g.shape[0]
    a = np.exp(2j * rho * dx)
    J = np.zeros_like(g)
    for i in range(N - 2, -1, -1):
        J[i] = a * J[i + 1] + 0.5 * dx * (g[i] + a * g[i + 1])
    gp = np.gradient(g, dx, axis=0, edge_order=2)
    x_rel = np.arange(N)[::-1] * dx
    decay = np.exp(2j * rho * x_rel)[:, None, None]
    J += (dx * dx / 12.0) * (gp + 2j * rho * g
                             - decay * (gp[-1] + 2j * rho * g[-1]))
    J[-1] = 0.0
    return J


def reference_sweep(Q, E, rho, dx):
    """One successive-approximation sweep E -> I + (S2 - S0) / (2 i rho)
    of the scaled Jost equation for one point, P = Q E, with the two
    4th-order tail integrals formed separately: the iteration whose fixed
    point the direct solve computes."""
    P = Q @ E
    return np.eye(Q.shape[1]) + (reference_scaled_tail_integrals(P, rho, dx)
                                 - tail_integrals(P, dx)) / (2j * rho)


def reference_jost_at_zero(Q, dx, rho, tol=1e-14, max_iter=50):
    """e(0, rho), e'(0, rho) for the (N, n, n) potential Q by successive
    approximation, one point at a time, sweeping until the update is
    within tol."""
    n = Q.shape[1]
    eye = np.eye(n, dtype=complex)
    E = np.broadcast_to(eye, Q.shape).copy()
    if not np.any(Q):
        return eye, 1j * rho * eye
    for _ in range(max_iter):
        E_new = reference_sweep(Q, E, rho, dx)
        last = matnorm(E_new - E)
        E = E_new
        if last <= tol:
            break
    else:
        raise ConvergenceError("reference Jost iteration did not converge")
    Eprime0 = -reference_scaled_tail_integrals(Q @ E, rho, dx)[0]
    return E[0], 1j * rho * E[0] + Eprime0


def assert_fixed_point(Q, E, rhos, dx):
    """One reference sweep moves every point's (N, n, n) E of the
    (N, n, n, B) array E by at most 1e-13 max(1, |E|)."""
    for k, rho in enumerate(rhos):
        Ek = E[..., k]
        moved = np.abs(reference_sweep(Q, Ek, rho, dx) - Ek).max()
        assert moved <= 1e-13 * max(1.0, np.abs(Ek).max()), (rho, moved)


def reference_weyl(problem, rho):
    bc = problem.bc
    pot = problem.potential
    e0, e0p = reference_jost_at_zero(pot.values, pot.dx, rho)
    return (bc.A @ e0 + bc.A_perp @ e0p) @ np.linalg.inv(apply_T(bc, e0, e0p))


def reference_expansion_residuals(problem, probes, which):
    """The four large-|rho| expansion residuals as three separate formulas,
    in the expression order asymptotics_report keeps."""
    A, Ap, h = problem.bc.A, problem.bc.A_perp, problem.bc.h
    rhos = np.array([pt.rho for pt in probes], dtype=complex)
    r = rhos[:, None, None]
    eye = np.eye(problem.dim)
    w0 = omega(problem, 0.0, 0.0)
    if which in ("jost", "jost_derivative"):
        e0, e0p = _jost_at_zero(problem, rhos)
        wr = omega(problem, 0.0, rhos)
        if which == "jost_derivative":
            diff = e0p / (1j * r) - (eye - (w0 + wr) / (1j * r))
        else:
            diff = e0 - (eye + (-w0 + wr) / (1j * r))
    elif which == "jost_matrix":
        J = apply_T(problem.bc, *_jost_at_zero(problem, rhos))
        J0inv = A / (1j * r) - Ap
        expansion = (np.eye(problem.dim) - (h + w0) / (1j * r)
                     + kappa(problem, rhos) / (1j * r))
        diff = J0inv @ J - expansion
    else:
        left_inv = A + Ap / (1j * r)
        right = 1j * r * A - Ap
        inner = left_inv @ _weyl_many(problem, rhos) @ right
        expansion = (np.eye(problem.dim) + h / (1j * r)
                     - 2.0 * kappa(problem, rhos) / (1j * r))
        diff = inner - expansion
    return [matnorm(d) for d in diff]


def nonsymmetric_problem(nodes=801):
    """n = 2 problem with Q != Q^T, A = diag(1, 0) and a complex h."""
    x = np.linspace(0.0, 2.0, nodes)
    vals = np.zeros((nodes, 2, 2), complex)
    vals[:, 0, 0] = 0.2 * np.exp(-(((x - 0.9) / 0.3) ** 2))
    vals[:, 0, 1] = 0.5 * np.exp(-(((x - 0.6) / 0.2) ** 2))
    vals[:, 1, 0] = -0.3j * np.exp(-(((x - 1.0) / 0.3) ** 2))
    h = np.zeros((2, 2), complex)
    h[0, 0] = 0.1 + 0.05j
    A = np.diag([1.0, 0.0]).astype(complex)
    return Problem(potential=PotentialGrid(x_nodes=x, values=vals),
                   bc=BoundaryCondition(A=A, h=h))


def reference_grid_minima(problem, radius, density):
    """Local minima of |det J| on the polar grid of scan_jost_zeros, found by
    comparing each grid point with its in-grid neighbours one at a time."""
    grid = fw._scan_grid(radius, density)
    J = apply_T(problem.bc, *_jost_at_zero(problem, grid.ravel()))
    vals = np.abs(np.linalg.det(J)).reshape(grid.shape)
    ni, nj = grid.shape
    out = []
    for i in range(ni):
        for j in range(nj):
            neigh = [vals[a, b]
                     for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                     if 0 <= a < ni and 0 <= b < nj]
            if vals[i, j] <= min(neigh):
                out.append(grid[i, j])
    return out


def neumann_well(depth, nodes=401):
    """Scalar Neumann problem with Q = -depth on [0, 1] inside [0, 2]."""
    x = np.linspace(0.0, 2.0, nodes)
    v = (-depth * (x <= 1.0))[:, None, None].astype(complex)
    return Problem(potential=PotentialGrid(x_nodes=x, values=v),
                   bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                        h=np.zeros((1, 1), complex)))


def transposed_wave(w):
    return np.transpose(w.value, (0, 2, 1)), np.transpose(w.derivative, (0, 2, 1))


def batch_problems():
    rng = np.random.default_rng(5)
    return {
        "scalar": scalar_box_problem(nodes=201),
        "matrix": smooth_matrix_problem(2, rng, nodes=301),
        "zero": Problem(potential=zero_potential(2, 1.0, 41),
                        bc=BoundaryCondition(A=np.diag([1.0, 0.0]).astype(complex),
                                             h=np.zeros((2, 2), complex))),
    }


class TestBatchedJost:
    """The block solver against the per-point recurrence it replaced."""

    TAIL = np.linspace(50.0, 400.0, 8)

    @pytest.mark.parametrize("name", ["scalar", "matrix", "zero"])
    def test_matches_per_point_reference(self, monkeypatch, name):
        prob = batch_problems()[name]
        # delta = 0: the two cut sides meet as mirrored nodes +-rho
        contour = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32,
                                delta=0.0)
        rhos = contour.rhos
        assert np.any(np.isclose(rhos[:, None], -rhos[None, :]))
        rhos = np.concatenate([rhos, rhos[:1], 1j * self.TAIL])  # repeat
        T, n = _march_length(prob.potential.values), prob.dim
        # a budget of B = 13 points: the 55 marched points go in several
        # blocks of uneven size, not in full blocks of B
        B = 13
        monkeypatch.setattr(fw, "_BLOCK_BYTES", 16 * T * n * n * B)
        spy = MarchSpy(monkeypatch)
        e0, e0p = _jost_at_zero(prob, rhos)
        assert sum(spy.sizes) == 55 and len(set(spy.sizes)) > 1
        assert set(spy.sizes) != {B}
        pot = prob.potential
        E = _jost_scaled(pot.values, rhos, pot.dx, full=True)[0]
        assert_fixed_point(pot.values, E, rhos, pot.dx)
        for k, rho in enumerate(rhos):
            r0, r0p = reference_jost_at_zero(pot.values, pot.dx, rho)
            assert matnorm(e0[k] - r0) <= 1e-13 * max(1.0, matnorm(r0))
            assert matnorm(e0p[k] - r0p) <= 1e-13 * max(1.0, matnorm(r0p))
        assert matnorm(e0[0] - e0[-len(self.TAIL) - 1]) == 0.0

        data = generate_weyl_data(prob, contour, tail_ts=self.TAIL)
        samples = list(data.M_samples) + [M for _, M in data.tail_samples]
        for rho, M in zip(np.concatenate([contour.rhos, 1j * self.TAIL]),
                          samples):
            ref = reference_weyl(prob, rho)
            assert matnorm(M - ref) <= 1e-13 * max(1.0, matnorm(ref))
            assert np.array_equal(M, weyl_matrix(prob, SpectralPoint(rho)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.inf])
    def test_nan_potential_does_not_converge(self, value):
        prob = scalar_box_problem(nodes=201)
        vals = prob.potential.values.copy()
        vals[50] = value
        bad = Problem(potential=PotentialGrid(prob.potential.x_nodes, vals),
                      bc=prob.bc)
        contour = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32)
        with pytest.raises(ConvergenceError, match="Jost solution not finite"):
            generate_weyl_data(bad, contour)
        # the message names the point, with no RuntimeWarning on the way
        with pytest.raises(ConvergenceError,
                           match=r"not finite at rho = \(1\+1j\)"):
            weyl_matrix(bad, SpectralPoint(1.0 + 1.0j))
        with pytest.raises(ConvergenceError, match=r"rho = \(1\+1j\)"):
            solve_jost(bad, SpectralPoint(1.0 + 1.0j))

    @pytest.mark.parametrize("q", [40.0, 48.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_unresolved_node_raises(self, n, q):
        # dx = 0.5: (dx^2/12) |Q| = 0.83 at Q = 40 (where successive
        # approximation did not converge either) and 1 at Q = 48, where
        # I - (dx^2/12) Q is exactly singular
        c = 0.5 * 0.5 / 12.0
        assert q < 48.0 or 1.0 - c * q == 0.0
        vals = np.zeros((5, n, n), dtype=complex)
        vals[1, 0, 0] = q
        bad = Problem(potential=PotentialGrid(np.linspace(0.0, 2.0, 5), vals),
                      bc=BoundaryCondition(A=np.eye(n, dtype=complex),
                                           h=np.zeros((n, n), complex)))
        # marched as its mirror 2 + 1j, named as passed
        with pytest.raises(ConvergenceError, match=r"does not resolve Q; "
                           r"rho = \(-2\+1j\)"):
            weyl_matrix(bad, SpectralPoint(-2.0 + 1.0j))
        with pytest.raises(ConvergenceError, match="does not resolve Q"):
            solve_jost(bad, SpectralPoint(3.0 + 1.0j))

    @pytest.mark.parametrize("n", [1, 2])
    def test_node_below_the_resolution_limit_solves(self, n):
        # (dx^2/12) |Q| = 0.479 < 0.5: solved, and equal to successive
        # approximation
        Q = np.zeros((5, n, n), dtype=complex)
        Q[1, 0, 0] = 23.0
        rhos = np.array([2.0 + 1.0j, 0.1 + 0.01j, 50.0 + 0j, 400j])
        E, Ep = _jost_scaled(Q, rhos, 0.5, full=True)
        assert_fixed_point(Q, E, rhos, 0.5)
        for k, rho in enumerate(rhos):
            r0, _ = reference_jost_at_zero(Q, 0.5, rho)
            assert matnorm(E[0, ..., k] - r0) <= 1e-13 * max(1.0, matnorm(r0))

    def test_singular_end_slope_system_raises(self, monkeypatch):
        # a singular end-slope system names the point too, not LinAlgError
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConvergenceError, match=r"end-slope system is "
                           r"singular at rho = \(-2\+1j\)"):
            weyl_matrix(scalar_box_problem(nodes=41), SpectralPoint(-2.0 + 1.0j))

    def test_point_at_jost_zero_raises(self):
        # Q = 0, A = 1, h = -2: J(rho) = i rho + 2 vanishes at rho = 2i,
        # which is the middle tail point
        prob = Problem(potential=zero_potential(1, 1.0, 41),
                       bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                            h=np.array([[-2.0 + 0j]])))
        contour = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32)
        with pytest.raises(PoleProximityError):
            generate_weyl_data(prob, contour, tail_ts=[1.0, 2.0, 3.0])

    def test_regular_march_matches_solve_regular(self, rng):
        prob = smooth_matrix_problem(2, rng, nodes=301)
        bc = prob.bc
        pts = [SpectralPoint(r) for r in (1.0 + 0.7j, -3.0 + 0.1j, 20.0, 5j)]
        val, der = _march_many(prob.potential, [p.lam for p in pts],
                               np.hstack([bc.A, -bc.A_perp]),
                               np.hstack([bc.A_perp + bc.h, bc.A]))
        for k, pt in enumerate(pts):
            phi, S = solve_regular(prob, pt)
            ref = np.concatenate([phi.value, S.value], axis=-1)
            ref_der = np.concatenate([phi.derivative, S.derivative], axis=-1)
            assert matnorm(val[:, k] - ref) <= 1e-13 * matnorm(ref)
            assert matnorm(der[:, k] - ref_der) <= 1e-13 * matnorm(ref_der)


def block_jost_at_zero(Q, dx, rhos):
    """e(0), e'(0) as (B, n, n) arrays of _jost_at_zero's block step for
    the (B,) points rhos, marched over all rows of Q."""
    E, Ep = _jost_scaled(Q, rhos, dx)
    e0 = np.moveaxis(E[0], -1, 0)
    e0p = 1j * rhos[:, None, None] * e0 + np.moveaxis(Ep[0], -1, 0)
    return e0, e0p


def unpaired_jost_at_zero(problem, rho):
    """e(0, rho), e'(0, rho) of _jost_at_zero's block step for one point,
    marched at rho itself, never at its mirror, over the same rows."""
    pot = problem.potential
    e0, e0p = block_jost_at_zero(pot.values[:_march_length(pot.values)],
                                 pot.dx, np.array([rho]))
    return e0[0], e0p[0]


def block_count(P, B):
    """The blocks _jost_at_zero splits P distinct points into: P / B
    rounded half up, at least one, and none for no points."""
    return min(P, max(1, math.floor(P / B + 0.5)))


class MarchSpy:
    """Records the points every _jost_scaled call marches, how many it
    marches at once and the rows of Q it marches them over."""

    def __init__(self, monkeypatch):
        self.points, self.sizes, self.rows = [], [], []
        march = fw._jost_scaled

        def spy(Q, rhos, dx, names=None, full=False):
            self.points.extend(rhos)
            self.sizes.append(rhos.size)
            self.rows.append(Q.shape[0])
            return march(Q, rhos, dx, names, full)

        monkeypatch.setattr(fw, "_jost_scaled", spy)


class TestMirrorPairs:
    """For real Q, _jost_at_zero marches one point per mirror pair
    rho, -conj rho and per repeat; for complex Q it flips nothing."""

    TAIL = np.linspace(50.0, 400.0, 8)

    def points(self):
        # mirrored cut and circle nodes at delta = 0 (where the cut/circle
        # joints repeat) and at the default delta, a repeat, tail points
        # on the imaginary axis and Re rho < 0 points without a mirror
        c0 = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=33, delta=0.0)
        c1 = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32)
        lone = [-1.3 + 0.4j, -7.1 + 0.02j, -0.5 + 3.0j]
        return np.concatenate([c0.rhos, c1.rhos, c0.rhos[40:41], 1j * self.TAIL,
                               lone])

    @pytest.mark.parametrize("complex_q", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_unpaired_march_bitwise(self, rng, n, complex_q):
        # for complex Q nothing is flipped, so this checks that a point
        # marched in a block rounds as it does alone
        prob = (scalar_box_problem(nodes=201) if n == 1
                else smooth_matrix_problem(2, rng, nodes=301))
        if complex_q:
            pot = prob.potential
            prob = Problem(potential=PotentialGrid(
                pot.x_nodes, pot.values * (1.0 + 0.7j)), bc=prob.bc)
        assert prob.potential.values.imag.any() == complex_q
        rhos = self.points()
        e0, e0p = _jost_at_zero(prob, rhos)
        for k, rho in enumerate(rhos):
            r0, r0p = unpaired_jost_at_zero(prob, rho)
            assert np.array_equal(e0[k], r0) and np.array_equal(e0p[k], r0p)

    def test_complex_q_flips_nothing(self, monkeypatch):
        prob = nonsymmetric_problem(nodes=201)
        assert prob.potential.values.imag.any()
        c = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32)
        rhos = np.concatenate([c.rhos[::12], -c.rhos[::12].conj(),
                               [-1.3 + 0.4j]])
        spy = MarchSpy(monkeypatch)
        M = _weyl_many(prob, rhos)
        assert np.array_equal(spy.points, np.unique(rhos))
        assert len(spy.points) == rhos.size
        for rho, Mk in zip(rhos, M):
            ref = reference_weyl(prob, rho)
            assert matnorm(Mk - ref) <= 1e-13 * max(1.0, matnorm(ref))
            assert np.array_equal(Mk, weyl_matrix(prob, SpectralPoint(rho)))

    def test_benchmark_contour_marches_55_points(self, monkeypatch):
        # 2 x 32 cut nodes, 32 circle nodes and 8 tail points: 32 cut
        # pairs, 15 circle pairs besides the two joints with the cut
        # (delta = 0) and the 8 tail points
        prob = scalar_box_problem(nodes=201)
        c = build_contour(r0=2.0, R=200.0, n_cut=32, n_circle=32, delta=0.0)
        spy = MarchSpy(monkeypatch)
        generate_weyl_data(prob, c, tail_ts=self.TAIL)
        assert len(c) + self.TAIL.size == 104
        assert len(spy.points) == 55

    def test_error_names_the_callers_point(self):
        prob = scalar_box_problem(nodes=201)
        vals = prob.potential.values.copy()
        vals[50] = np.nan
        bad = Problem(potential=PotentialGrid(prob.potential.x_nodes, vals),
                      bc=prob.bc)
        # marched as its mirror 1 + 1j, named as passed
        with pytest.raises(ConvergenceError,
                           match=r"not finite at rho = \(-1\+1j\)"):
            weyl_matrix(bad, SpectralPoint(-1.0 + 1.0j))
        # a pair marched once is named by the first of its points passed
        with pytest.raises(ConvergenceError,
                           match=r"not finite at rho = \(-2\+0\.5j\)"):
            _jost_at_zero(bad, [-2.0 + 0.5j, 2.0 + 0.5j])


class TestBlockSplit:
    """_jost_at_zero splits its P distinct points into P / B blocks,
    rounded half up, whose sizes differ by at most one; for real and
    complex Q the layout leaves every point's e(0), e'(0) as a one-block
    march gives them."""

    N, B = 41, 6

    @pytest.mark.parametrize("P", [0, 1, B - 1, B, B + 1, B + 3, 2 * B - 1,
                                   2 * B + 1, 3 * B])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("complex_q", [False, True])
    def test_balanced_blocks(self, rng, monkeypatch, complex_q, n, P):
        # Q nonzero on every node and Re rho > 0: every point is marched
        # as itself, over all rows
        vals = rng.normal(scale=0.8, size=(self.N, n, n)).astype(complex)
        if complex_q:
            vals += 0.5j * rng.normal(size=vals.shape)
        pot = PotentialGrid(np.linspace(0.0, 1.0, self.N), vals)
        prob = Problem(potential=pot,
                       bc=BoundaryCondition(A=np.eye(n, dtype=complex),
                                            h=np.zeros((n, n), complex)))
        assert _march_length(vals) == self.N
        monkeypatch.setattr(fw, "_BLOCK_BYTES", 16 * self.N * n * n * self.B)
        rhos = rng.uniform(1.0, 30.0, P) * np.exp(
            1j * rng.uniform(0.05, 0.5 * np.pi - 0.05, P))
        spy = MarchSpy(monkeypatch)
        e0, e0p = _jost_at_zero(prob, rhos)
        assert e0.shape == e0p.shape == (P, n, n)
        assert len(spy.sizes) == block_count(P, self.B)
        assert sum(spy.sizes) == P
        if P:
            assert max(spy.sizes) - min(spy.sizes) <= 1
            assert max(spy.sizes) <= 1.5 * self.B
            r0, r0p = block_jost_at_zero(vals, pot.dx, rhos)
            assert np.array_equal(e0, r0) and np.array_equal(e0p, r0p)


class TestSupportMarch:
    """_jost_at_zero marches Q only up to three zero nodes past its
    support; the rows it drops hold E = I exactly on the full grid."""

    N = 41
    RHOS = np.array([0.8 + 0.5j, -2.0 + 0.3j, 3.0j, 9.0 + 1.0j, -9.0 + 1.0j,
                     25.0 + 0.1j, 40.0j])

    def problem(self, rng, n, complex_q, gap):
        """A random Q on N nodes that is nonzero up to gap nodes before the
        last node (gap = N: Q = 0)."""
        vals = rng.normal(scale=0.8, size=(self.N, n, n)).astype(complex)
        if complex_q:
            vals += 0.5j * rng.normal(size=vals.shape)
        vals[self.N - gap:] = 0.0
        pot = PotentialGrid(np.linspace(0.0, 1.0, self.N), vals)
        return Problem(potential=pot,
                       bc=BoundaryCondition(A=np.eye(n, dtype=complex),
                                            h=np.zeros((n, n), complex)))

    @pytest.mark.parametrize("gap", [0, 1, 2, 3, 4, 17, 41])
    @pytest.mark.parametrize("complex_q", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_full_grid_march(self, rng, monkeypatch, n, complex_q,
                                     gap):
        prob = self.problem(rng, n, complex_q, gap)
        pot = prob.potential
        T = 3 if gap == self.N else min(self.N, self.N - gap + 3)
        assert _march_length(pot.values) == T
        # two points a block on the full grid, more on the marched rows
        budget = 16 * self.N * n * n * 2
        monkeypatch.setattr(fw, "_BLOCK_BYTES", budget)
        spy = MarchSpy(monkeypatch)
        e0, e0p = _jost_at_zero(prob, self.RHOS)
        real = not pot.values.imag.any()  # Q = 0 is real
        marched = np.unique(np.where((self.RHOS.real < 0) & real,
                                     -self.RHOS.conj(), self.RHOS))
        assert np.array_equal(spy.points, marched)
        # B (2 on the full grid) does not divide the 5 or 7 marched points
        B = budget // (16 * T * n * n)
        assert spy.rows == [T] * block_count(marched.size, B)

        # the solution on the T rows, with E = I past them, is a fixed
        # point of the full grid's equations
        E = _jost_scaled(pot.values[:T], self.RHOS, pot.dx, full=True)[0]
        E = np.concatenate([E, np.broadcast_to(
            np.eye(n)[..., None], (self.N - T, n, n, self.RHOS.size))])
        assert_fixed_point(pot.values, E, self.RHOS, pot.dx)
        r0, r0p = block_jost_at_zero(pot.values, pot.dx, self.RHOS)
        for k in range(self.RHOS.size):
            assert matnorm(e0[k] - r0[k]) <= 1e-14 * matnorm(r0[k])
            assert matnorm(e0p[k] - r0p[k]) <= 1e-14 * matnorm(r0p[k])
        if gap == self.N:
            assert np.array_equal(e0, np.broadcast_to(np.eye(n), e0.shape))
            assert np.array_equal(e0p, 1j * self.RHOS[:, None, None] * np.eye(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_count_as_support(self, bad):
        vals = np.zeros((41, 2, 2), dtype=complex)
        vals[30, 1, 0] = bad
        assert _march_length(vals) == 34
        vals[30, 1, 0] = 1j * bad
        assert _march_length(vals) == 34

    def test_nan_in_the_zero_tail_raises(self, monkeypatch):
        prob = scalar_box_problem(nodes=201)
        vals = prob.potential.values.copy()
        assert not vals[101:].any()
        vals[150] = np.nan
        bad_prob = Problem(potential=PotentialGrid(prob.potential.x_nodes,
                                                   vals), bc=prob.bc)
        spy = MarchSpy(monkeypatch)
        with pytest.raises(ConvergenceError,
                           match=r"not finite at rho = \(1\+1j\)"):
            jost_matrix(bad_prob, SpectralPoint(1.0 + 1.0j))
        assert spy.rows == [154]


def expm_step(Qm, lam, dx):
    """exp(dx [[0, I], [Qm - lam, 0]]) of one frozen step, by scipy's expm
    (the per-matrix direct path)."""
    n = Qm.shape[0]
    G = np.zeros((2 * n, 2 * n), dtype=complex)
    G[:n, n:] = np.eye(n)
    G[n:, :n] = Qm - lam * np.eye(n)
    return scipy.linalg.expm(dx * G)


def unit_grid(values):
    return PotentialGrid(np.linspace(0.0, 1.0, values.shape[0]), values)


class TestRegularMarch:
    """The Taylor step maps and the prefix-product scan against the
    per-matrix expm and the sequential march they replace."""

    @staticmethod
    def assert_matches_expm(pot, lams):
        P = _propagators(pot, lams)
        V = pot.values
        n = pot.dim
        assert P.shape == (V.shape[0] - 1, len(lams), 2 * n, 2 * n)
        Qm = 0.5 * (V[:-1] + V[1:])
        for k in range(Qm.shape[0]):
            for j, lam in enumerate(lams):
                ref = expm_step(Qm[k], lam, pot.dx)
                assert (np.linalg.norm(P[k, j] - ref, 1)
                        <= 1e-13 * np.linalg.norm(ref, 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_maps_match_expm(self, rng, n):
        # dx = 0.05, so ||W|| = dx^2 ||Q - lambda|| reaches about 10
        V = rng.normal(size=(21, n, n)) + 1j * rng.normal(size=(21, n, n))
        self.assert_matches_expm(unit_grid(V), [1.0, -3.0 + 2.0j, 200.0, 4000j])

    @pytest.mark.parametrize("n", [1, 2])
    def test_doubling_branch_matches_expm(self, rng, n):
        # ||W|| about 100 forces scaling and doubling for the whole stack,
        # small-lambda maps included
        V = rng.normal(size=(21, n, n)) + 1j * rng.normal(size=(21, n, n))
        pot = unit_grid(V)
        lams = [4e4, -4e4 + 3.0j, 1.0]
        assert 4e4 * pot.dx ** 2 > 100 * _STEP_NORM_MAX
        self.assert_matches_expm(pot, lams)

    def test_defective_step_matrix(self):
        # Q - lambda is a 2 x 2 Jordan block, nilpotent at lambda = 0.7
        V = np.broadcast_to(np.array([[0.7, 1.0], [0.0, 0.7]], dtype=complex),
                            (11, 2, 2))
        self.assert_matches_expm(unit_grid(V), [0.7, 5.7, -30.0 + 2.0j])

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_step_matrix_is_exact(self, n):
        # lambda equal to a constant scalar Q: W = 0 and P = [[I, dx I], [0, I]]
        pot = unit_grid(np.broadcast_to(1.5 * np.eye(n, dtype=complex),
                                        (11, n, n)))
        P = _propagators(pot, [1.5])
        ref = np.eye(2 * n, dtype=complex)
        ref[:n, n:] = pot.dx * np.eye(n)
        assert np.array_equal(P, np.broadcast_to(ref, P.shape))

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 15, 16, 17, 300])
    def test_prefix_scan_matches_sequential(self, rng, M):
        # one chunk, exact squares and padded last chunks
        K, n2, m = 3, 4, 2
        P = (np.eye(n2) + 0.3 * (rng.normal(size=(M, K, n2, n2))
                                 + 1j * rng.normal(size=(M, K, n2, n2))))
        Y = rng.normal(size=(n2, m)) + 1j * rng.normal(size=(n2, m))
        ref = np.empty((M + 1, K, n2, m), dtype=complex)
        ref[0] = Y
        for k in range(M):
            ref[k + 1] = P[k] @ ref[k]
        got = _prefix_apply(P, Y)
        assert got.shape == ref.shape
        for k in range(M + 1):
            assert matnorm(got[k] - ref[k]) <= 1e-12 * matnorm(ref[k])


class TestDirectSolve:
    """The direct solve of the discrete Jost equations against the
    successive approximation whose fixed point it is."""

    @staticmethod
    def points():
        # around both cut/circle joints at delta = 0: 24 nodes, 22
        # distinct (the joints repeat), in 11 mirror pairs; tail points up
        # to 400i
        c = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32, delta=0.0)
        return np.concatenate([c.rhos[26:38], c.rhos[58:70], [50j, 400j]])

    # N < 9 has no chunked scan; N = 9, 15, 41 and 301 scan N - 6 = 3, 9,
    # 35 and 295 nodes in 2, 3, 6 and 17 chunks of 2, 3, 6 and 18, all
    # but 15 with a padded first chunk
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 9, 15, 41, 301])
    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("complex_q", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_successive_approximation(self, rng, n, complex_q, tail,
                                              N):
        Q = rng.normal(scale=0.8, size=(N, n, n)).astype(complex)
        if complex_q:
            Q += 0.5j * rng.normal(size=Q.shape)
        if tail:
            Q[N // 2 + 1:] = 0.0
        dx = 1.5 / (N - 1)
        rhos = self.points()
        E, Ep = _jost_scaled(Q, rhos, dx)
        Ef, Epf = _jost_scaled(Q, rhos, dx, full=True)
        assert E.shape == Ep.shape == (1, n, n, rhos.size)
        assert Ef.shape == Epf.shape == (N, n, n, rhos.size)
        assert_fixed_point(Q, Ef, rhos, dx)
        e0 = np.moveaxis(E[0], -1, 0)
        e0p = 1j * rhos[:, None, None] * e0 + np.moveaxis(Ep[0], -1, 0)
        if N % 2:
            # odd grids also go through _jost_at_zero: mirror pairs,
            # repeats and the march over the support of Q
            prob = Problem(potential=PotentialGrid(
                np.linspace(0.0, 1.5, N), Q), bc=BoundaryCondition(
                    A=np.eye(n, dtype=complex), h=np.zeros((n, n), complex)))
            e0, e0p = _jost_at_zero(prob, rhos)
        for k, rho in enumerate(rhos):
            r0, r0p = reference_jost_at_zero(Q, dx, rho)
            assert matnorm(e0[k] - r0) <= 1e-13 * max(1.0, matnorm(r0))
            assert matnorm(e0p[k] - r0p) <= 1e-13 * max(1.0, matnorm(r0p))
            # the whole-grid solve gives the same x = 0 values
            assert np.abs(Ef[0, ..., k] - E[0, ..., k]).max() <= 1e-13
            assert (np.abs(Epf[0, ..., k] - Ep[0, ..., k]).max()
                    <= 1e-13 * max(1.0, np.abs(Ep[0, ..., k]).max()))
        assert np.array_equal(Ef[-1], np.broadcast_to(Ef[-1, ..., :1],
                                                      Ef[-1].shape))
        assert not Epf[-1].any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_products_round_each_point_alone(self, rng, n):
        # a stack of shared (size-one point axis) or per-point matrices
        # times per-point ones: bit for bit as one point at a time, and
        # matmul to rounding
        B = 7
        b = rng.normal(size=(5, n, n, B)) + 1j * rng.normal(size=(5, n, n, B))
        for a in (rng.normal(size=(5, n, n, 1)) + 1j * rng.normal(size=(5, n, n, 1)),
                  rng.normal(size=(5, n, n, B)) + 1j * rng.normal(size=(5, n, n, B))):
            got = _pmm(a, b)
            ref = np.moveaxis(np.moveaxis(a, -1, 1) @ np.moveaxis(b, -1, 1), 1, -1)
            assert np.abs(got - ref).max() <= 4e-16 * n * np.abs(ref).max()
            for j in range(B):
                aj = a[..., j:j + 1] if a.shape[-1] == B else a
                assert np.array_equal(got[..., j:j + 1], _pmm(aj, b[..., j:j + 1]))


class TestJostSolution:
    def test_free_field_exact(self):
        # Q = 0 goes through the general solve on the whole grid, which
        # gives E = I and E' = 0 exactly
        for n in (1, 2):
            prob = Problem(potential=zero_potential(n, 1.0, 41),
                           bc=BoundaryCondition(A=np.eye(n, dtype=complex),
                                                h=np.zeros((n, n), complex)))
            for rho in (1.5 + 0.5j, -1.5 + 0.5j, 50.0, 400j):
                e = solve_jost(prob, SpectralPoint(rho))
                phase = np.exp(1j * rho * prob.potential.x_nodes)[:, None, None]
                assert np.array_equal(e.value, phase * np.eye(n))
                assert np.array_equal(e.derivative,
                                      1j * rho * phase * np.eye(n))

    @pytest.mark.parametrize("rho", [1.7, 4.0 + 0.3j, 0.5 + 2.0j, -3.0 + 1.0j])
    def test_box_against_ivp_oracle(self, rho):
        # smooth the box edge out of the comparison by using a smooth Q
        x = np.linspace(0.0, 2.0, 801)
        v = (0.3 * np.exp(-(((x - 0.8) / 0.3) ** 2)))[:, None, None]
        prob = Problem(potential=PotentialGrid(x_nodes=x, values=v.astype(complex)),
                       bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                            h=np.zeros((1, 1), complex)))
        e = solve_jost(prob, SpectralPoint(rho))
        e0_ref, e0p_ref = ivp_jost_oracle(prob, rho)
        scale = abs(e0_ref) + abs(rho) ** -1 * abs(e0p_ref)
        assert abs(e.value[0, 0, 0] - e0_ref) / scale < 2e-6
        assert abs(e.derivative[0, 0, 0] - e0p_ref) / (abs(rho) * scale) < 2e-6

    def test_large_imaginary_rho_stable(self):
        prob = scalar_box_problem(nodes=401)
        e = solve_jost(prob, SpectralPoint(400.0j))
        assert np.all(np.isfinite(e.value))
        # deep in the upper half plane the potential is invisible at x_max
        assert abs(e.value[-1, 0, 0] - np.exp(-400.0 * 2.0)) < 1e-200

    def test_omega_matches_direct_quadrature(self):
        prob = scalar_box_problem(nodes=801)
        rho = 3.0 + 0.2j
        x = prob.potential.x_nodes
        integ = np.trapezoid(prob.potential.values[:, 0, 0]
                             * np.exp(2j * rho * x), x)
        assert abs(omega(prob, 0.0, rho)[0, 0] - 0.5 * integ) < 1e-4

    def test_omega_needs_three_nodes(self):
        prob = scalar_box_problem(nodes=201)
        pot = prob.potential
        for x in (pot.x_max, pot.x_max - pot.dx):
            with pytest.raises(ValueError, match="3 grid nodes"):
                omega(prob, x, 3.0 + 1j)
        assert omega(prob, pot.x_max - 2 * pot.dx, 3.0 + 1j).shape == (1, 1)

    def test_kappa_sign_convention(self):
        prob = scalar_box_problem(nodes=401)
        rho = 2.0 + 0.1j
        # A = I so kappa = -omega
        assert np.allclose(kappa(prob, rho), -omega(prob, 0.0, rho))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("x", [0.0, 0.6])
    def test_omega_matches_jost_recurrence(self, rng, n, x):
        # the direct sum against the backward recurrence the Jost solver
        # runs, at both cut sides, far up the imaginary axis and off-axis
        prob = (scalar_box_problem(nodes=401) if n == 1
                else smooth_matrix_problem(2, rng, nodes=301))
        pot = prob.potential
        rhos = np.concatenate([np.linspace(-99.0, 99.0, 12),
                               [50j, 400j, 3 + 2j]]).astype(complex)
        i = pot.index_of(x)
        ref = 0.5 * np.stack([reference_scaled_tail_integrals(
            pot.values[i:], rho, pot.dx)[0] for rho in rhos])
        got = omega(prob, x, rhos)
        assert got.shape == (rhos.size, n, n)
        scale = np.abs(ref).max(axis=(1, 2))
        assert np.all(np.abs(got - ref).max(axis=(1, 2)) <= 1e-12 * scale)
        # one rho gives one matrix, its row of the batch
        one = omega(prob, x, rhos[3])
        assert one.shape == (n, n)
        assert np.abs(one - got[3]).max() <= 1e-14 * scale[3]
        assert np.array_equal(kappa(prob, rhos), (prob.bc.A_perp - prob.bc.A)
                              @ omega(prob, 0.0, rhos))


class TestRegularSolutions:
    def test_initial_data(self, rng):
        prob = smooth_matrix_problem(2, rng, nodes=301)
        pt = SpectralPoint(1.0 + 0.7j)
        phi, S = solve_regular(prob, pt)
        bc = prob.bc
        assert matnorm(phi.value[0] - bc.A) < 1e-13
        assert matnorm(phi.derivative[0] - (bc.A_perp + bc.h)) < 1e-13
        assert matnorm(S.value[0] + bc.A_perp) < 1e-13
        assert matnorm(S.derivative[0] - bc.A) < 1e-13

    def test_boundary_functional_values(self, rng):
        # T(phi) = 0 and T(S) = I follow from the initial data
        prob = smooth_matrix_problem(2, rng, nodes=301)
        pt = SpectralPoint(2.0 + 0.2j)
        phi, S = solve_regular(prob, pt)
        bc = prob.bc
        assert matnorm(apply_T(bc, phi.value[0], phi.derivative[0])) < 1e-12
        assert matnorm(apply_T(bc, S.value[0], S.derivative[0])
                       - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_potential_raises(self, bad):
        prob = scalar_box_problem(nodes=201)
        vals = prob.potential.values.copy()
        vals[50] = bad
        broken = Problem(potential=PotentialGrid(prob.potential.x_nodes, vals),
                         bc=prob.bc)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConvergenceError, match="not finite"):
            solve_regular(broken, SpectralPoint(1.0 + 1.0j))

    def test_overflowing_march_raises(self):
        # x_max = 2: the growing wave reaches about e^600 at rho = 300i,
        # which is finite, and e^800 at rho = 400i, which is not
        prob = scalar_box_problem(nodes=201)
        phi, S = solve_regular(prob, SpectralPoint(300j))
        assert np.isfinite(phi.value).all() and np.isfinite(S.value).all()
        assert np.abs(phi.value).max() > 1e250
        with pytest.raises(ConvergenceError, match="-160000"):
            solve_regular(prob, SpectralPoint(400j))
        with pytest.raises(ConvergenceError, match=r"2 of 3 energies"):
            _march_many(prob.potential, [-1.6e5, -4.0, -2.5e5],
                        prob.bc.A, prob.bc.A_perp)

    def test_scalar_free_solution_closed_form(self):
        # A = 1, h = 0, Q = 0: phi = cos(rho x)
        prob = Problem(potential=zero_potential(1, 1.0, 201),
                       bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                            h=np.zeros((1, 1), complex)))
        pt = SpectralPoint(2.0)
        phi, _ = solve_regular(prob, pt)
        x = prob.potential.x_nodes
        assert np.max(np.abs(phi.value[:, 0, 0] - np.cos(2.0 * x))) < 1e-7


class TestWeylMatrix:
    def test_problem_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="potential dim 2 != boundary dim 1"):
            Problem(potential=zero_potential(2, 1.0, 41),
                    bc=BoundaryCondition(A=np.eye(1, dtype=complex),
                                         h=np.zeros((1, 1), complex)))

    def test_zero_potential_closed_form(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 5))
            A = random_projector(n, rng)
            prob = Problem(potential=zero_potential(n, 1.0, 41),
                           bc=BoundaryCondition(A=A, h=np.zeros((n, n), complex)))
            pt = SpectralPoint(rng.uniform(0.5, 5.0)
                               * np.exp(1j * rng.uniform(0.1, np.pi - 0.1)))
            assert matnorm(weyl_matrix(prob, pt) - model_weyl(A, pt)) < 1e-10

    def test_weyl_solution_decomposition(self):
        # T(Phi) = I and Phi = S + phi M; discretization noise grows with
        # |rho| dx
        prob = scalar_box_problem(nodes=801)
        pt = SpectralPoint(1.5 + 0.8j)
        Phi = weyl_solution(prob, pt)
        assert matnorm(apply_T(prob.bc, Phi.value[0], Phi.derivative[0])
                       - np.eye(prob.dim)) <= 2e-6
        phi, S = solve_regular(prob, pt)
        M = weyl_matrix(prob, pt)
        assert matnorm(Phi.value - S.value - phi.value @ M) <= 2e-6

    def test_m_equals_mstar(self, rng):
        prob = smooth_matrix_problem(2, rng, nodes=1501)
        pts = [SpectralPoint(rng.uniform(1, 5)
                             * np.exp(1j * rng.uniform(0.1, np.pi - 0.1)))
               for _ in range(3)]
        gap = check_m_equals_mstar(prob, pts)
        assert gap < 1e-7
        # M* is the transposed problem's M, transposed, and the check is
        # the largest gap between M and M*; no points, no gap
        tp = transpose_problem(prob)
        mstar = [adjoint_weyl_matrix(prob, pt) for pt in pts]
        for pt, Ms in zip(pts, mstar):
            assert np.array_equal(Ms, weyl_matrix(tp, pt).T)
        assert max(matnorm(weyl_matrix(prob, pt) - Ms)
                   for pt, Ms in zip(pts, mstar)) == gap
        assert check_m_equals_mstar(prob, []) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(amp=st.lists(st.floats(-0.8, 0.8), min_size=4, max_size=4),
           center=st.lists(st.floats(0.2, 1.2), min_size=4, max_size=4),
           width=st.lists(st.floats(0.15, 0.4), min_size=4, max_size=4),
           rank=st.integers(0, 2),
           basis=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           herm=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           polar=st.lists(st.tuples(st.floats(1.0, 6.0),
                                    st.floats(0.1, np.pi - 0.1)),
                          min_size=1, max_size=4))
    def test_m_equals_mstar_property(self, amp, center, width, rank, basis,
                                     herm, polar):
        # a Gaussian bump in every entry of Q, a projector of any rank and a
        # Hermitian h = A h A; the bound is criterion 3's
        x = np.linspace(0.0, 1.5, 301)
        prof = np.exp(-(((x[:, None] - np.array(center)) / np.array(width)) ** 2))
        Q = PotentialGrid(x_nodes=x,
                          values=(prof * np.array(amp)).reshape(-1, 2, 2))
        X = np.reshape(basis[:4], (2, 2)) + 1j * np.reshape(basis[4:], (2, 2))
        V = np.linalg.qr(X)[0][:, :rank]
        A = V @ V.conj().T
        A = (A + A.conj().T) / 2.0
        H = np.reshape(herm[:4], (2, 2)) + 1j * np.reshape(herm[4:], (2, 2))
        h = A @ ((H + H.conj().T) / 2.0) @ A
        prob = Problem(potential=Q, bc=BoundaryCondition(A=A, h=h))
        pts = [SpectralPoint(r * np.exp(1j * t)) for r, t in polar]
        assert check_m_equals_mstar(prob, pts) <= 1e-7

    def test_bracket_of_weyl_and_regular(self):
        # <Phi^t, phi> is constant in x for the scalar problem; its value
        # at 0 is fixed by the initial data
        prob = scalar_box_problem(nodes=801)
        pt = SpectralPoint(1.2 + 0.4j)
        phi, _ = solve_regular(prob, pt)
        Phi = weyl_solution(prob, pt)
        vals = [bracket(Phi.value[i], Phi.derivative[i],
                        phi.value[i], phi.derivative[i])[0, 0]
                for i in (0, 200, 400, 800)]
        assert np.max(np.abs(np.diff(vals))) < 5e-5


class TestDiagnostics:
    def test_asymptotic_orders(self, rng):
        prob = smooth_matrix_problem(2, rng, nodes=1501, scale=0.3)
        probes = [SpectralPoint(r + 1.0j) for r in np.geomspace(10, 60, 8)]
        assert asymptotics_report(prob, probes, "jost").order > 1.8
        assert asymptotics_report(prob, probes, "weyl").order > 0.8

    @pytest.mark.parametrize("which", ["jost", "jost_derivative",
                                       "jost_matrix", "weyl"])
    def test_report_matches_expansion_formulas(self, rng, which):
        probes = [SpectralPoint(r + 1.0j) for r in np.geomspace(10, 60, 6)]
        for prob in (smooth_matrix_problem(2, rng, nodes=601, scale=0.3),
                     nonsymmetric_problem()):
            rep = asymptotics_report(prob, probes, which)
            ref = reference_expansion_residuals(prob, probes, which)
            assert list(rep.residuals) == ref

    def test_p_matrix_nonsymmetric_model(self, rng):
        """The starred objects of a model with Q != Q^T are the transposed
        regular and Weyl solutions of the transposed model problem."""
        model = nonsymmetric_problem()
        prob = Problem(potential=smooth_matrix_problem(
            2, rng, x_max=2.0, nodes=801).potential, bc=model.bc)
        pt, x = SpectralPoint(7.0 + 1.0j), 0.7
        tp = transpose_problem(model)
        phi, _ = solve_regular(prob, pt)
        Phi = weyl_solution(prob, pt)
        phis, phis_d = transposed_wave(solve_regular(tp, pt)[0])
        Phis, Phis_d = transposed_wave(weyl_solution(tp, pt))
        i = phi.index_of(x)
        ref = (phi.value[i] @ Phis_d[i] - Phi.value[i] @ phis_d[i],
               Phi.value[i] @ phis[i] - phi.value[i] @ Phis[i],
               phi.derivative[i] @ Phis_d[i] - Phi.derivative[i] @ phis_d[i],
               Phi.derivative[i] @ phis[i] - phi.derivative[i] @ Phis[i])
        got = p_matrix_diagnostic(prob, model, pt, x)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        # the model is far from symmetric, so a missing transpose would show
        phis_u, Phis_u = solve_regular(model, pt)[0], weyl_solution(model, pt)
        untransposed = (phi.value[i] @ Phis_u.derivative[i]
                        - Phi.value[i] @ phis_u.derivative[i])
        assert matnorm(untransposed - got[0]) > 1e-3 * matnorm(got[0])

    def test_unknown_expansion_rejected(self, rng):
        prob = smooth_matrix_problem(2, rng, nodes=301)
        with pytest.raises(ValueError):
            asymptotics_report(prob, [SpectralPoint(5.0 + 1.0j)], "fourier")

    def test_report_needs_one_residual_per_probe(self):
        with pytest.raises(ValueError, match="one residual per probe"):
            fw.AsymptoticsReport(probes=(SpectralPoint(5.0 + 1.0j),),
                                 residuals=(1e-3, 1e-4), order=2.0)

    def test_p_matrix_requires_same_projector(self, rng):
        prob = smooth_matrix_problem(2, rng, nodes=301)
        other = Problem(potential=prob.potential,
                        bc=BoundaryCondition(A=np.eye(2, dtype=complex),
                                             h=np.zeros((2, 2), complex)))
        if matnorm(prob.bc.A - np.eye(2)) > 1e-10:
            with pytest.raises(ValueError):
                p_matrix_diagnostic(prob, other, SpectralPoint(5.0 + 1.0j), 0.5)

    def test_scan_jost_zeros_zero_potential(self):
        prob = Problem(potential=zero_potential(1, 1.0, 41),
                       bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                            h=np.zeros((1, 1), complex)))
        zeros, r0 = scan_jost_zeros(prob, 3.0)
        assert zeros == []
        assert r0 >= 1.0

    def test_scan_propagates_unexpected_errors(self, monkeypatch):
        prob = Problem(potential=zero_potential(1, 1.0, 41),
                       bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                            h=np.zeros((1, 1), complex)))

        def broken(problem, pt):
            raise RuntimeError("not a convergence or domain failure")

        monkeypatch.setattr(fw, "jost_matrix", broken)
        with pytest.raises(RuntimeError, match="not a convergence"):
            scan_jost_zeros(prob, 3.0)

    @pytest.mark.parametrize("depth, density", [(0.0, 6), (1.5, 24), (9.0, 12)])
    def test_scan_candidates_match_neighbour_loop(self, monkeypatch, depth,
                                                  density):
        # depth 0 has |det J| = |rho|: a whole ring of tied minima
        prob = neumann_well(depth)
        seen = []
        monkeypatch.setattr(fw, "_refine_zero",
                            lambda problem, rho0, step: seen.append(rho0))
        assert scan_jost_zeros(prob, 3.0, grid_density=density)[0] == []
        assert seen == reference_grid_minima(prob, 3.0, density)

    @pytest.mark.parametrize("density", [1, 7, 8, 24])
    def test_scan_grid_is_its_own_mirror(self, density):
        # theta and pi - theta mirror bit for bit, by hand and by
        # contour's check, theta = pi/2 lies on the imaginary axis, and the
        # grid stays within 4 eps radius of r exp(i theta)
        grid = fw._scan_grid(3.0, density)
        assert grid.shape == (density, density + 1)
        assert np.array_equal(grid[:, ::-1], -grid.conj())
        assert _is_mirror(grid, negate=True, axis=1)
        if density % 2 == 0:
            assert not grid[:, density // 2].real.any()
        assert grid.imag.min() >= 0.0
        radii = np.linspace(3.0 / density, 3.0, density)
        polar = radii[:, None] * np.exp(1j * np.linspace(0.0, np.pi, density + 1))
        assert np.abs(grid - polar).max() <= 4 * np.finfo(float).eps * 3.0

    def test_scan_marches_each_mirror_pair_once(self, monkeypatch):
        # real Q: 24 radii times the 13 angles in [0, pi/2] of the 25
        spy = MarchSpy(monkeypatch)
        monkeypatch.setattr(fw, "_refine_zero", lambda problem, rho0, step: None)
        scan_jost_zeros(neumann_well(1.5), 3.0)
        assert len(spy.points) == len(set(spy.points)) == 24 * 13

    @pytest.mark.parametrize("depth", [1.5, 9.0])
    def test_scan_zeros_match_the_polar_grid(self, monkeypatch, depth):
        # the zeros refined from the mirrored grid are those refined from
        # r exp(i theta) at every angle (mirrored only to rounding)
        prob = neumann_well(depth)
        zeros, r0 = scan_jost_zeros(prob, 3.0)
        assert zeros
        monkeypatch.setattr(fw, "_scan_grid", lambda radius, density: (
            np.linspace(radius / density, radius, density)[:, None]
            * np.exp(1j * np.linspace(0.0, np.pi, density + 1))))
        polar, polar_r0 = scan_jost_zeros(prob, 3.0)
        assert len(zeros) == len(polar)
        assert np.abs(np.sort_complex(zeros) - np.sort_complex(polar)).max() <= 1e-10
        assert abs(r0 - polar_r0) <= 1e-10 * r0

    def test_scan_finds_bound_state(self):
        # Q = -1.5 on [0,1] with Neumann data has a negative eigenvalue,
        # which is a zero of det J on the positive imaginary rho axis
        x = np.linspace(0.0, 2.0, 401)
        v = (-1.5 * (x <= 1.0))[:, None, None].astype(complex)
        prob = Problem(potential=PotentialGrid(x_nodes=x, values=v),
                       bc=BoundaryCondition(A=np.array([[1.0 + 0j]]),
                                            h=np.zeros((1, 1), complex)))
        zeros, r0 = scan_jost_zeros(prob, 3.0)
        assert len(zeros) >= 1
        lam0 = min(zeros, key=lambda z: abs(z))
        assert lam0.real < 0 and abs(lam0.imag) < 1e-2
        assert r0 > abs(lam0)
