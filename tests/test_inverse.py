"""Main integral equation, data extraction and the reconstruction loop."""

import os
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from weylinv import (
    BoundaryCondition,
    DataQualityError,
    DimensionMismatchError,
    InvertConfig,
    PotentialGrid,
    Problem,
    ReconstructionError,
    SpectralPoint,
    build_contour,
    extract_A,
    generate_weyl_data,
    invert,
    lambda_to_point,
    matnorm,
    model_weyl,
    solve_regular,
    weyl_matrix,
    zero_potential,
)
from weylinv.contour import extension_nodes
from weylinv.core import sin_over
from weylinv.forward import kappa, omega
from weylinv import inverse
from weylinv.inverse import (
    _FIT_IRLS_ITERS,
    _FIT_TV_WEIGHT,
    WeylData,
    _Assembler,
    _SeparableD,
    _fit_tail_model,
    _model_D_coeffs,
    _node_factors,
    closure_residual,
    problem_D,
    recover_potential,
    solve_main_equation,
)
from weylinv import boundary

from conftest import scalar_box_problem, smooth_matrix_problem


# The benchmark contour: K = 96 with repeated and mirrored nodes (delta = 0),
# and its x-grid of 61 slices on [0, 2].
BENCH_CONTOUR = dict(r0=2.0, R=200.0, n_cut=32, n_circle=32, delta=0.0)
X_MAX = 2.0
X_STEP = X_MAX / 60


def model_weyl_data(A, r0=2.0, R=100.0, n_cut=64, n_circle=64):
    """Weyl data of the zero-potential model itself (Mhat = 0)."""
    cont = build_contour(r0=r0, R=R, n_cut=n_cut, n_circle=n_circle, delta=0.0)
    M = np.array([model_weyl(A, nd.point) for nd in cont.nodes])
    tail = tuple((SpectralPoint(1j * t), model_weyl(A, SpectralPoint(1j * t)))
                 for t in (50.0, 100.0, 200.0, 400.0))
    return WeylData(contour=cont, M_samples=M, tail_samples=tail)


class TestModelQuantities:
    def test_model_weyl_satisfies_closed_form(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        pt = SpectralPoint(1.0 + 2.0j)
        M = model_weyl(A, pt)
        expected = A / (1j * pt.rho) - 1j * pt.rho * (np.eye(2) - A)
        assert matnorm(M - expected) < 1e-14

    def test_model_phi_matches_zero_potential_solver(self):
        # the solver's phi~ = cos(rho x) A + sin(rho x)/rho A_perp, from the
        # column factors at every x of the grid
        A = np.diag([1.0, 0.0]).astype(complex)
        prob = Problem(potential=zero_potential(2, 1.0, 201),
                       bc=BoundaryCondition(A=A, h=np.zeros((2, 2), complex)))
        pt = SpectralPoint(1.5 + 0.5j)
        phi, _ = solve_regular(prob, pt)
        x = prob.potential.x_nodes
        _, cols = _node_factors(np.array([pt.rho]), x)
        ref = _Assembler(model_weyl_data(A), A).phi_tilde(cols)[:, 0]
        assert matnorm(phi.value - ref) < 1e-7

    def test_model_D_is_zero_model_quadrature(self):
        # the closed form equals int_0^x phi~*(t, mu) phi~(t, lam) dt,
        # also at the removable singularities tau = rho and tau = -rho
        A = np.diag([1.0, 0.0]).astype(complex)
        prob = Problem(potential=zero_potential(2, 1.0, 401),
                       bc=BoundaryCondition(A=A, h=np.zeros((2, 2), complex)))
        pairs = [(SpectralPoint(1.5 + 0.5j), SpectralPoint(2.0 + 0.2j)),
                 (SpectralPoint(1.5 + 0.5j), SpectralPoint(1.5 + 0.5j)),
                 (SpectralPoint(2.5), SpectralPoint(-2.5))]
        for lam, mu in pairs:
            D = problem_D(prob, 0.8, lam, mu)
            cA, cP = _model_D_coeffs(0.8, lam.rho, mu.rho)
            closed = cA * A + cP * (np.eye(2) - A)
            assert matnorm(closed - D) < 1e-8 * matnorm(D)


class TestMainEquation:
    def test_degenerate_case_identity(self):
        # Mhat = 0: the equation reduces to phi = phi~
        A = np.diag([1.0, 0.0]).astype(complex)
        weyl = model_weyl_data(A)
        asm = _Assembler(weyl, A)
        sol = asm.solve(0.7)
        assert matnorm(sol.phi_nodes - sol.phi_tilde_nodes) < 1e-12

    def test_solution_matches_forward_oracle(self):
        # recovered phi(0.5, -4) agrees with the true regular solution
        prob = scalar_box_problem(nodes=401)
        cont = build_contour(r0=2.0, R=200.0, n_cut=128, n_circle=64,
                             delta=0.0)
        weyl = generate_weyl_data(prob, cont)
        asm = _Assembler(weyl, np.array([[1.0 + 0j]]))
        sol = asm.solve(0.5)
        pt = lambda_to_point(-4.0, "upper")
        phi = asm.phi_at(sol, [pt.rho])[0]
        phi_true, _ = solve_regular(prob, pt)
        i = prob.potential.index_of(0.5)
        assert matnorm(phi - phi_true.value[i]) < 1e-3

    def test_banach_weight_bounded_under_refinement(self):
        # max_k |phi(x, mu_k)(A + i rho_k A_perp)| stable within 5%
        prob = scalar_box_problem(nodes=401)
        A = np.array([[1.0 + 0j]])
        norms = []
        for n_cut, n_circle in ((64, 64), (128, 128)):
            cont = build_contour(r0=2.0, R=200.0, n_cut=n_cut,
                                 n_circle=n_circle, delta=0.0)
            weyl = generate_weyl_data(prob, cont)
            asm = _Assembler(weyl, A)
            sol = asm.solve(0.5)
            w = np.abs(A[None] + (1j * asm.rhos)[:, None, None]
                       * (np.eye(1) - A)[None])
            norms.append(float(np.max(np.abs(sol.phi_nodes) * w)))
        assert abs(norms[1] - norms[0]) < 0.05 * norms[0]

    def test_min_rcond_in_diagnostics(self):
        prob = scalar_box_problem(nodes=201)
        weyl = generate_weyl_data(prob, build_contour(**BENCH_CONTOUR))
        res = invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=9))
        rcond, x = res.diagnostics["min_rcond"], res.diagnostics["min_rcond_x"]
        assert isinstance(rcond, float) and isinstance(x, float)
        assert 0.0 < rcond <= 1.0
        assert 0.0 <= x <= X_MAX

    def test_interpolated_residual_small(self):
        prob = scalar_box_problem(nodes=401)
        cont = build_contour(r0=2.0, R=200.0, n_cut=128, n_circle=64,
                             delta=0.0)
        weyl = generate_weyl_data(prob, cont)
        A = np.array([[1.0 + 0j]])
        asm = _Assembler(weyl, A)
        sol = asm.solve(0.5)
        assert asm.residual(sol) < 5e-3


def _rel(a, b):
    """Max-abs difference relative to max |b|; 0 when both vanish."""
    scale = np.abs(b).max()
    return np.abs(a - b).max() / scale if scale else np.abs(a).max()


def _box_problem(n, coupling=0.3):
    """The box potential of _box_weyl, with A and h = 0."""
    x = np.linspace(0.0, 2.0, 241)
    if n == 1:
        vals = (coupling * (x <= 1.0)).astype(complex)[:, None, None]
        A = np.eye(1, dtype=complex)
    else:
        c, s = np.cos(0.5), np.sin(0.5)
        U = np.array([[c, -s], [s, c]])
        D = np.zeros((x.size, 2, 2))
        D[:, 0, 0] = 0.25 * (x <= 0.9)
        D[:, 1, 1] = 0.2 * (x <= 0.8)
        vals = (U @ D @ U.T).astype(complex)
        A = np.diag([1.0, 0.0]).astype(complex)
    return Problem(potential=PotentialGrid(x_nodes=x, values=vals),
                   bc=BoundaryCondition(A=A, h=np.zeros((n, n), complex)))


def _box_weyl(n, contour=BENCH_CONTOUR, coupling=0.3):
    """Box-potential Weyl data on the benchmark contour (or the one of the
    build_contour arguments given), for n = 1 (of the given coupling) or
    2."""
    prob = _box_problem(n, coupling)
    return generate_weyl_data(prob, build_contour(**contour)), prob.bc.A


def _direct_ext_source(asm, x, ext_rhos, ext_w, ext_Mhat, rows=None):
    """Born tail source from the direct (J, E, n, n) kernel tensor, at the
    contour nodes or at the given row rhos."""
    A, Ap = asm.A, asm.Ap
    rows = asm.rhos if rows is None else rows
    cA, cP = _model_D_coeffs(x, rows[:, None], ext_rhos[None, :])
    Rt = (cA[:, :, None, None] * (ext_Mhat @ A)[None]
          + cP[:, :, None, None] * (ext_Mhat @ Ap)[None])
    phi_e = (np.cos(ext_rhos * x)[:, None, None] * A
             + sin_over(ext_rhos, x)[:, None, None] * Ap)
    return np.einsum("e,eab,jebc->jac", ext_w / (2j * np.pi), phi_e, Rt,
                     optimize=True)


def _direct_rtilde(asm, x, rhos):
    """Kernel tensor r~(x, lam_j, mu_k) from the direct closed form, at the
    lam_j of the given rhos and the contour nodes mu_k, shape (J, K, n, n)."""
    cA, cP = _model_D_coeffs(x, np.asarray(rhos)[:, None], asm.rhos[None, :])
    return (cA[:, :, None, None] * asm.MhatA[None]
            + cP[:, :, None, None] * asm.MhatP[None])


def _direct_phi_at(asm, sol, rhos, ext):
    """Nystrom interpolation rows from the direct closed form of D~."""
    x = sol.x
    rhos = np.asarray(rhos, dtype=complex)
    Rt = _direct_rtilde(asm, x, rhos)
    corr = np.einsum("k,kab,jkbc->jac", asm.weights / (2j * np.pi),
                     sol.phi_nodes, Rt, optimize=True)
    out = (np.cos(rhos * x)[:, None, None] * asm.A
           + sin_over(rhos, x)[:, None, None] * asm.Ap) - corr
    if ext is None:
        return out
    return out - _direct_ext_source(asm, x, *ext, rows=rhos)


def _direct_solve(asm, x, ext):
    """phi at the nodes from the Nystrom system assembled on the direct path
    (ext None: without the Born tail source)."""
    K, n = asm.K, asm.n
    Rt = (_direct_rtilde(asm, x, asm.rhos)
          * (asm.weights / (2j * np.pi))[None, :, None, None])
    G = np.einsum("kab,jkbc,jcd->jkad", asm.Winv, Rt, asm.W, optimize=True)
    G[np.arange(K), np.arange(K)] += asm.Winv @ asm.W
    B = np.transpose(G, (0, 3, 1, 2)).reshape(K * n, K * n)
    F = (np.cos(asm.rhos * x)[:, None, None] * asm.A
         + sin_over(asm.rhos, x)[:, None, None] * asm.Ap)
    if ext is not None:
        F = F - _direct_ext_source(asm, x, *ext)
    rhs = np.transpose(F @ asm.W, (0, 2, 1)).reshape(K * n, n)
    psi = np.transpose(np.linalg.solve(B, rhs).reshape(K, n, n), (0, 2, 1))
    return psi @ asm.Winv


def _factors_at(grid, x):
    """Row factors of a _SeparableD grid's rhos and column factors of its
    taus at x, each (1, 6, .)."""
    return _node_factors(grid.rhos, [x])[0], _node_factors(grid.taus, [x])[1]


def _patch_lapack(mp, **wrap):
    """Resolve the ?getrf, ?gecon and ?getrs of every _Assembler built
    under mp as wrap[name](the routine) for the names given."""
    real = scipy.linalg.get_lapack_funcs

    def resolve(names, *args, **kwargs):
        funcs = real(names, *args, **kwargs)
        if isinstance(names, str):
            return funcs
        return [wrap[nm](f) if nm in wrap else f for nm, f in zip(names, funcs)]

    mp.setattr(scipy.linalg, "get_lapack_funcs", resolve)


def _factored(mp):
    """The (shape, dtype) of every matrix the ?getrf of an _Assembler built
    under mp receives, each checked to be Fortran-ordered and factored in
    place (the factors are the array passed in)."""
    seen = []

    def wrap(getrf):
        def spy(a, **kwargs):
            assert a.flags.f_contiguous and kwargs == {"overwrite_a": 1}
            lu, piv, info = getrf(a, **kwargs)
            assert lu is a
            seen.append((a.shape, a.dtype))
            return lu, piv, info
        return spy

    _patch_lapack(mp, getrf=wrap)
    return seen


def _grid_coeffs(grid, x):
    """(cA, cP) of a _SeparableD grid at x, (J, K) each: apply on unit
    columns."""
    eye = np.eye(grid.taus.size)[None]
    zero = np.zeros_like(eye)
    xs = np.array([x])
    return tuple(grid.apply(xs, *_factors_at(grid, x), U, V)[0].T
                 for U, V in ((eye, zero), (zero, eye)))


class TestSeparableKernel:
    """The separable D~ grids and everything built on them, against the
    direct closed form on the benchmark contour."""

    @pytest.fixture(scope="class", params=[1, 2], ids=["n1", "n2"])
    def setup(self, request):
        n = request.param
        weyl, A = _box_weyl(n)
        ext_rhos, ext_w = extension_nodes(weyl.contour, 7.0)
        rng = np.random.default_rng(3)
        E = ext_rhos.size // 2
        ext_Mhat = ((rng.normal(size=(E, n, n)) + 1j * rng.normal(size=(E, n, n)))
                    / ext_rhos[:E, None, None])
        # mirror-symmetric, as the extension of mirror-symmetric data is:
        # the assembler of these data solves the real half system
        ext_Mhat = np.concatenate([ext_Mhat, ext_Mhat[::-1].conj()])
        ext = (ext_rhos, ext_w, ext_Mhat)
        asm = _Assembler(weyl, A)
        assert asm.real_system
        asm.extend(*ext)
        return asm, ext

    def test_contour_coincidences_are_masked(self, setup):
        asm, (ext_rhos, _, _) = setup
        r = asm.rhos
        same = np.abs(r[:, None] - r[None, :]) < 1e-12
        mirrored = np.abs(r[:, None] + r[None, :]) < 1e-12
        # the diagonal plus the 4 duplicated cut/circle joint nodes, and
        # the mirrored cut nodes
        assert same.sum() == len(r) + 4
        assert mirrored.sum() == 70
        # the real half system fills the rows of the first ceil(K/2)
        # nodes, its columns in the order _order
        nk = asm._nodes.size
        j, c = asm._D_nodes.near
        assert np.array_equal(asm._D_nodes.rhos, r[:nk])
        assert np.array_equal(asm._D_nodes.taus, r[asm._order])
        assert (set(zip(j, asm._order[c]))
                == set(zip(*np.nonzero((same | mirrored)[:nk]))))
        # contour and extension meet at the cut endpoint sqrt(R), once on
        # each side of the cut and once mirrored
        same_e = np.abs(r[:, None] - ext_rhos[None, :]) < 1e-12
        mirrored_e = np.abs(r[:, None] + ext_rhos[None, :]) < 1e-12
        assert same_e.sum() == 2 and mirrored_e.sum() == 2
        j, _ = np.nonzero(same_e | mirrored_e)
        assert np.allclose(np.abs(r[j]), np.sqrt(asm.weyl.contour.R))
        assert (set(zip(*asm._D_ext.near))
                == set(zip(*np.nonzero((same_e | mirrored_e)[:nk]))))

    @pytest.mark.parametrize("x", [0.0, X_STEP, X_MAX])
    def test_grids_match_direct(self, setup, x):
        asm, (ext_rhos, _, _) = setup
        for grid in (asm._D_nodes, asm._D_ext):
            direct = _model_D_coeffs(x, grid.rhos[:, None], grid.taus[None, :])
            for fast, ref in zip(_grid_coeffs(grid, x), direct):
                assert _rel(fast, ref) < 1e-12

    @pytest.mark.parametrize("x", [0.0, X_STEP, X_MAX])
    def test_ext_source_matches_einsum(self, setup, x):
        asm, ext = setup
        rows, _ = _node_factors(asm._nodes, [x])
        assert _rel(asm._ext_source(np.array([x]), asm._D_ext, rows)[0],
                    _direct_ext_source(asm, x, *ext, rows=asm._nodes)) < 1e-12

    @pytest.mark.parametrize("x", [X_STEP, 1.0, X_MAX])
    def test_solve_matches_direct_assembly(self, setup, x):
        asm, ext = setup
        sol = asm.solve(x)
        assert _rel(sol.phi_nodes, _direct_solve(asm, x, ext)) < 1e-10
        assert 0.0 < sol.rcond <= 1.0

    @staticmethod
    def _rows(asm):
        """Interpolation rows: the probes i sqrt(2) and i sqrt(5), exact
        contour nodes (on the circle and on the cut), the mirror -rho of
        that cut node and a cut midpoint."""
        segs = asm.weyl.contour.segments
        k = segs.index("upper_cut") + 5
        lams = asm.weyl.contour.lambdas
        mid = lambda_to_point(0.5 * (lams[k] + lams[k + 1]), "upper").rho
        assert abs(asm.rhos[k].imag) == 0.0
        return np.array([1j * np.sqrt(2.0), 1j * np.sqrt(5.0), asm.rhos[40],
                         asm.rhos[k], -asm.rhos[k], mid])

    @pytest.mark.parametrize("x", [X_STEP, 1.0, X_MAX])
    @pytest.mark.parametrize("extended", [False, True], ids=["plain", "ext"])
    def test_phi_at_matches_direct(self, setup, x, extended):
        asm, ext = setup
        if not extended:
            asm = _Assembler(asm.weyl, asm.A)
            ext = None
        rhos = self._rows(asm)
        sol = asm.solve(x)
        fast = asm.phi_at(sol, rhos)
        ref = _direct_phi_at(asm, sol, rhos, ext)
        assert fast.shape == (rhos.size, asm.n, asm.n)
        for f, r in zip(fast, ref):
            assert _rel(f, r) < 1e-12

    def _stepper(self, setup, extended):
        """An assembler with the rows of _rows as its probes, extended or
        not, and the extension (None when plain)."""
        asm, ext = setup
        rhos = self._rows(asm)
        stepper = _Assembler(asm.weyl, asm.A, rhos)
        if not extended:
            return stepper, rhos, None
        stepper.extend(*ext)
        return stepper, rhos, ext

    @pytest.mark.parametrize("x", [0.0, X_STEP, 1.0, X_MAX])
    @pytest.mark.parametrize("extended", [False, True], ids=["plain", "ext"])
    def test_step_probe_rows_match_direct(self, setup, x, extended):
        # the same rows as test_phi_at_matches_direct, now as the probes of
        # the assembler, read for the four slices of the parameters in one
        # block: the values at x come from its gain G = L B^-1 and its
        # right-hand side, with the Born source of the extension stacked
        # under the contour rows; at x = 0, B = I
        stepper, rhos, ext = self._stepper(setup, extended)
        xs = np.array([0.0, X_STEP, 1.0, X_MAX])
        stepper._block = xs.size
        probe, G, rcond = stepper.read_probes(xs)
        n, K = stepper.n, stepper.K
        assert G.shape == (xs.size, rhos.size * n, K * n)
        assert probe.shape == (xs.size, rhos.size, n, n)
        i = int(np.flatnonzero(xs == x)[0])
        sol = stepper.solve(x)
        assert _rel(sol.phi_nodes, _direct_solve(stepper, x, ext)) < 1e-10
        # solve is the block routine on one slice: the same B bits
        assert rcond[i] == sol.rcond
        if x == 0.0:
            assert rcond[i] == pytest.approx(1.0, abs=1e-15) and not G[i].any()
        else:
            assert 0.0 < rcond[i] < 1.0
        ref = _direct_phi_at(stepper, sol, rhos, ext)
        for f, r in zip(probe[i], ref):
            assert _rel(f, r) < 1e-12
        # reads with given gains are the same reads
        again, G2, none = stepper.read_probes(xs, gains=G)
        assert G2 is G and none is None and np.array_equal(again, probe)

    @pytest.mark.parametrize("extended", [False, True], ids=["plain", "ext"])
    def test_blocks_that_do_not_divide_the_grid(self, setup, extended):
        # 7 slices in blocks of 3, 3 and 1, against one slice per block
        # and against the direct interpolation of each slice's solution
        stepper, rhos, ext = self._stepper(setup, extended)
        xs = np.linspace(0.0, X_MAX, 7)
        stepper._block = 3
        probe, G, rcond = stepper.read_probes(xs)
        stepper._block = 1
        single, G1, rcond1 = stepper.read_probes(xs)
        assert np.array_equal(rcond, rcond1)
        assert _rel(G, G1) < 1e-12 and _rel(probe, single) < 1e-12
        for x, P in zip(xs, probe):
            ref = _direct_phi_at(stepper, stepper.solve(x), rhos, ext)
            for f, r in zip(P, ref):
                assert _rel(f, r) < 1e-12

    def test_node_factors_of_a_block_equal_per_x(self, setup):
        asm, (ext_rhos, _, _) = setup
        xs = np.array([0.0, X_STEP, 0.3, 1.0, X_MAX])
        for r in (asm._nodes, ext_rhos, self._rows(asm)):
            block = _node_factors(r, xs)
            for i, x in enumerate(xs):
                for b, one in zip(block, _node_factors(r, [x])):
                    assert np.array_equal(b[i], one[0])

    def test_non_finite_system_raises(self, setup):
        # a NaN in the fill fails the finiteness check before the LU, in
        # the block path and in solve, and so do probe rows whose sines
        # overflow; a NaN rcond fails the condition check
        asm, _ = setup
        bad = _Assembler(asm.weyl, asm.A, [1j * np.sqrt(2.0)])
        bad._FA[5, 0, 0] = np.nan
        with pytest.raises(ReconstructionError, match="not finite at x = 1"):
            bad.solve(1.0)
        with pytest.raises(ReconstructionError, match="not finite at x = 0.5"):
            bad.read_probes([0.5, 1.0])
        huge = _Assembler(asm.weyl, asm.A, [1j * np.sqrt(2.0), 1000j])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ReconstructionError, match="not finite at x = 1"):
                huge.read_probes([0.0, 0.5, 1.0, X_MAX])
        with pytest.MonkeyPatch.context() as mp:
            _patch_lapack(mp, gecon=lambda _: lambda *a, **kw: (np.nan, 0))
            good = _Assembler(asm.weyl, asm.A)
            with pytest.raises(ReconstructionError, match="ill-conditioned"):
                good.solve(1.0)


_node = st.builds(complex, st.floats(-12.0, 12.0),
                  st.floats(0.0, 2.0)).filter(lambda z: abs(z) >= 0.5)


@settings(max_examples=40, deadline=None)
@given(rhos=st.lists(_node, min_size=1, max_size=6),
       taus=st.lists(_node, min_size=1, max_size=6),
       cut=st.lists(st.floats(0.5, 12.0), min_size=1, max_size=3),
       x=st.floats(0.0, 2.0))
def test_separable_grids_equal_direct(rhos, taus, cut, x):
    # inject exact coincidences (a shared complex node, shared real nodes),
    # mirrored ones (rho = -tau on the real axis) and a near one
    r = np.array(rhos + cut, dtype=complex)
    t = np.array(taus + cut + [-c for c in cut] + [rhos[0], rhos[0] + 1e-9],
                 dtype=complex)
    grid = _SeparableD(r, t)
    direct = _model_D_coeffs(x, r[:, None], t[None, :])
    # rounding bound: eps exp((|Im rho| + |Im tau|) x) (x + 1/|rho -+ tau|)
    # with |rho -+ tau| >= 1e-2 outside the mask
    gap = np.minimum(np.abs(r[:, None] - t[None, :]),
                     np.abs(r[:, None] + t[None, :]))
    amp = np.exp((r.imag[:, None] + t.imag[None, :]) * x)
    bound = 32 * np.finfo(float).eps * amp * (x + 1.0 / np.maximum(gap, 1e-2))
    for fast, ref in zip(_grid_coeffs(grid, x), direct):
        assert np.all(np.abs(fast - ref) <= bound)
    rng = np.random.default_rng(len(t))
    U, V = rng.normal(size=(2, t.size, 3)) + 1j * rng.normal(size=(2, t.size, 3))
    ref = direct[0] @ U + direct[1] @ V
    out = grid.apply(np.array([x]), *_factors_at(grid, x), U.T[None], V.T[None])
    assert np.all(np.abs(out[0].T - ref) <= 2 * bound @ (np.abs(U) + np.abs(V)))


class TestExtractA:
    def _tails(self, bc, ts=None):
        x = np.linspace(0.0, 1.2, 241)
        vals = np.zeros((241, 2, 2), dtype=complex)
        vals[:, 0, 0] = 0.3 * (x <= 0.8)
        vals[:, 1, 1] = 0.2 * np.exp(-(((x - 0.5) / 0.3) ** 2))
        prob = Problem(potential=PotentialGrid(x_nodes=x, values=vals), bc=bc)
        if ts is None:
            ts = np.geomspace(1e4, 1e8, 12)
        out = []
        for t in ts:
            pt = SpectralPoint(1j * np.sqrt(t))
            out.append((pt, weyl_matrix(prob, pt)))
        return out

    def test_catalog_recovery(self):
        for bc in (boundary.dirichlet(2), boundary.neumann(2),
                   boundary.delta_condition(2, 0.7)):
            A_rec = extract_A(self._tails(bc))
            assert matnorm(A_rec - bc.A) < 1e-8

    def test_too_few_samples_rejected(self):
        bc = boundary.neumann(2)
        with pytest.raises(DataQualityError):
            extract_A(self._tails(bc)[:3])

    @pytest.mark.parametrize("limit, match", [
        ((0.5, 0.5), "rank ambiguous"),
        # no eigenvalue in the ambiguous band, but 0.1 from diag(1, 0)
        ((1.0, 0.1), "1.000e-01 from the nearest projector")],
        ids=["I/2", "diag(1, 0.1)"])
    def test_non_projector_limit_rejected(self, limit, match):
        # synthetic data whose limit A = diag(limit) is not a projector
        tails = []
        for t in (50.0, 100.0, 200.0, 400.0, 800.0):
            pt = SpectralPoint(1j * t)
            M = -1j * pt.rho * (np.eye(2) - np.diag(limit))
            tails.append((pt, M))
        with pytest.raises(DataQualityError, match=match):
            extract_A(tails)


class TestTailModelFit:
    def test_recovers_box_structure(self):
        prob = scalar_box_problem(nodes=401)
        cont = build_contour(r0=2.0, R=200.0, n_cut=128, n_circle=64,
                             delta=0.0)
        weyl = generate_weyl_data(prob, cont)
        A = np.array([[1.0 + 0j]])
        # prior: the true potential smeared by a crude band limit
        x = prob.potential.x_nodes
        prior_vals = prob.potential.values.copy()
        prior_vals[:20] = 0.0
        prior = PotentialGrid(x_nodes=x, values=prior_vals)
        Q_fit, h_fit, _ = _fit_tail_model(weyl, A, prior,
                                          _Assembler(weyl, A).real_system)
        rhos = np.linspace(15.0, 40.0, 9) + 0j
        om_f = omega(Problem(potential=Q_fit, bc=prob.bc), 0.0, rhos)
        om_t = omega(prob, 0.0, rhos)
        scale = np.abs(om_t).max()
        assert np.abs(om_f - om_t).max() < 0.35 * scale
        assert matnorm(h_fit) < 5e-2

    def test_recovers_two_channel_box_structure(self):
        # the rotated two-channel box of the matrix benchmark, A = diag(1, 0)
        x = np.linspace(0.0, 2.0, 401)
        c, s = np.cos(0.5), np.sin(0.5)
        U = np.array([[c, -s], [s, c]])
        D = np.zeros((x.size, 2, 2))
        D[:, 0, 0] = 0.25 * (x <= 0.9)
        D[:, 1, 1] = 0.2 * (x <= 0.8)
        A = np.diag([1.0, 0.0]).astype(complex)
        prob = Problem(potential=PotentialGrid(x_nodes=x,
                                               values=(U @ D @ U.T).astype(complex)),
                       bc=BoundaryCondition(A=A, h=np.zeros((2, 2), complex)))
        cont = build_contour(r0=2.0, R=200.0, n_cut=128, n_circle=64,
                             delta=0.0)
        weyl = generate_weyl_data(prob, cont)
        prior_vals = prob.potential.values.copy()
        prior_vals[:20] = 0.0
        prior = PotentialGrid(x_nodes=x, values=prior_vals)
        Q_fit, h_fit, _ = _fit_tail_model(weyl, A, prior,
                                          _Assembler(weyl, A).real_system)
        rhos = np.linspace(15.0, 40.0, 9) + 0j
        om_f = omega(Problem(potential=Q_fit, bc=prob.bc), 0.0, rhos)
        om_t = omega(prob, 0.0, rhos)
        scale = np.abs(om_t).max()
        assert np.abs(om_f - om_t).max() < 0.35 * scale
        assert matnorm(h_fit) < 5e-2


def _fits(mp):
    """The (dtype, Z) of every stacked system inverse._tv_irls receives."""
    real, seen = inverse._tv_irls, []

    def spy(top, b, D1, n_data):
        out = real(top, b, D1, n_data)
        seen.append((top.dtype, out[0]))
        return out

    mp.setattr(inverse, "_tv_irls", spy)
    return seen


class TestRealTailFit:
    """The tail fit of a problem that is its own conjugate, solved over
    real unknowns, against the complex fit of the same data."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_complex_fit(self, n):
        weyl, A = _box_weyl(n)
        prior = invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=13,
                                          passes=1)).Q
        assert not prior.values.imag.any()
        runs = {}
        for real in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                seen = _fits(mp)
                runs[real] = _fit_tail_model(weyl, A, prior, real), seen
        (Q, h, misfit), [(dtype, Z)] = runs[True]
        (Q0, h0, misfit0), [(dtype0, Z0)] = runs[False]
        assert dtype == np.float64 and dtype0 == np.complex128
        assert _rel(Z, Z0) < 1e-12
        assert _rel(Q.values, Q0.values) < 1e-12
        assert np.abs(h - h0).max() < 1e-12
        assert misfit == pytest.approx(misfit0, rel=1e-12)

    def test_other_data_keep_the_complex_fit(self):
        # invert hands its one mirror decision to the fit: the real fit
        # for mirror-symmetric data, the complex one for the rest
        weyl, _ = _box_weyl(1)
        complex_q, _ = _box_weyl(1, coupling=0.3 + 0.05j)
        tail = list(weyl.tail_samples)
        tail[0] = (tail[0][0], tail[0][1] + 1e-9j)
        complex_tail = replace(weyl, tail_samples=tuple(tail))
        M = weyl.M_samples.copy()
        M[3, 0, 0] = complex(np.nextafter(M[3, 0, 0].real, np.inf),
                             M[3, 0, 0].imag)
        ulp = replace(weyl, M_samples=M)
        weyl2, _ = _box_weyl(2)
        cases = [(weyl, np.float64), (weyl2, np.float64),
                 (complex_q, np.complex128), (complex_tail, np.complex128),
                 (ulp, np.complex128)]
        cfg = InvertConfig(x_max=X_MAX, x_nodes=13)
        for data, dtype in cases:
            with pytest.MonkeyPatch.context() as mp:
                seen = _fits(mp)
                res = invert(data, cfg)
            assert [d for d, _ in seen] == [dtype]
            assert res.diagnostics["real_system"] is (dtype == np.float64)

    @pytest.mark.parametrize("scale", [1e308, 1e300])
    def test_prior_out_of_scale_raises(self, scale):
        # a prior that overflows the anchor rows (1e308) or the fit (1e300)
        weyl, A = _box_weyl(1)
        vals = np.zeros((61, 1, 1))
        vals[30] = scale
        prior = PotentialGrid(x_nodes=np.linspace(0.0, X_MAX, 61),
                              values=vals)
        with pytest.raises(ReconstructionError, match="tail fit"):
            _fit_tail_model(weyl, A, prior, True)


class TestHalvedExtension:
    """The Born tail extension of mirror-symmetric data, evaluated at half
    the extension nodes and conjugated onto the mirrors, against the
    evaluation at every node."""

    @pytest.fixture(scope="class", params=[1, 2], ids=["n1", "n2"])
    def setup(self, request):
        weyl, A = _box_weyl(request.param)
        prior = invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=13,
                                          passes=1)).Q
        return weyl, A, prior

    def test_tail_extension_mirrors(self, setup):
        weyl, A, prior = setup
        rhos, w, Mhat, _ = inverse._tail_extension(weyl, A, prior, True)
        assert np.array_equal(Mhat[::-1], Mhat.conj())
        # so the real system takes it
        asm = _Assembler(weyl, A, PROBES)
        assert asm.real_system
        asm.extend(rhos, w, Mhat)
        # M - M~ at every node, from the same fit
        Q_fit, h_fit, _ = _fit_tail_model(weyl, A, prior, True)
        Ap = np.eye(A.shape[0]) - A
        kap = kappa(Problem(potential=Q_fit,
                            bc=BoundaryCondition(A=A, h=np.zeros_like(A))),
                    rhos)
        r = rhos[:, None, None]
        ref = ((A + 1j * r * Ap) @ ((h_fit - 2.0 * kap) / (1j * r))
               @ (A / (1j * r) - Ap))
        assert _rel(Mhat, ref) < 1e-13

    @pytest.mark.parametrize("real", [True, False], ids=["real", "plain"])
    def test_ext_source_from_half_the_columns(self, setup, real):
        # a probe off the imaginary axis puts the same data on the complex
        # system, which takes the extension of the complex fit
        weyl, A, prior = setup
        ext = inverse._tail_extension(weyl, A, prior, real)[:3]
        asm = _Assembler(weyl, A, PROBES if real else [PROBES[0], 1.0 + 1.0j])
        asm.extend(*ext)
        assert asm.real_system is real
        xs = np.array([X_STEP, 1.0, X_MAX])
        rows, _ = _node_factors(asm._nodes, xs)
        half = asm._ext_source(xs, asm._D_ext, rows)
        # _ext_source's sum on the column factors of every node
        _, cols = _node_factors(asm.ext_rhos, xs)
        UV = (cols[:, 0, None, None] * asm._ext_UV[0]
              + cols[:, 5, None, None] * asm._ext_UV[1])
        full = asm._kernel_sum(asm._D_ext, xs, rows, cols, UV)
        for i in range(xs.size):
            assert _rel(half[i], full[i]) < 1e-13


def _lstsq_irls(top, b, D1):
    """The TV-regularized IRLS fit one column at a time, each least-squares
    problem stacked in full and solved by lstsq (the reference for the
    batched QR solve)."""
    Z = None
    for _ in range(_FIT_IRLS_ITERS):
        w = (np.ones((D1.shape[0], b.shape[1])) if Z is None
             else 1.0 / np.sqrt(np.abs(D1 @ Z) + 1e-3))
        Z = np.stack([np.linalg.lstsq(
            np.vstack([top, _FIT_TV_WEIGHT * w[:, c, None] * D1]),
            np.concatenate([b[:, c], np.zeros(D1.shape[0])]), rcond=None)[0]
            for c in range(b.shape[1])], axis=1)
    return Z


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lapack_tpqrt_resolves(rng, dtype):
    # the tail fit (_tv_irls) takes ?tpqrt from scipy's LAPACK wrappers;
    # scipy >= 1.13 is the declared floor, which the CI floors job pins.
    # R of the pentagonal QR of [T; V] (T triangular, V full) is the R of
    # the stacked matrix: R^H R = T^H T + V^H V
    tpqrt = scipy.linalg.get_lapack_funcs("tpqrt", (np.zeros(1, dtype),))
    assert tpqrt.typecode == ("d" if dtype == np.float64 else "z")
    X = rng.normal(size=(9, 4)).astype(dtype)
    if dtype == np.complex128:
        X += 1j * rng.normal(size=X.shape)
    T, V = np.triu(X[:4]), X[4:]
    R, _, _, info = tpqrt(0, 2, T.copy(), V.copy())
    assert info == 0
    R = np.triu(R)
    gram = T.conj().T @ T + V.conj().T @ V
    assert np.abs(R.conj().T @ R - gram).max() <= 1e-13 * np.abs(gram).max()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lapack_transposed_lu_resolves(rng, dtype):
    # _Assembler factors B^T with ?getrf, reads rcond_1(B) off its factors
    # with ?gecon in the infinity norm, and solves with ?getrs at trans 0
    # (B^T X = b, the gain) and trans 1 (B X = b, solve); the CI floors
    # job checks that these keywords exist at the declared scipy floor
    getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("getrf", "gecon", "getrs"), dtype=dtype)
    assert getrf.typecode == ("d" if dtype == np.float64 else "z")
    B = rng.normal(size=(7, 7)).astype(dtype)
    b = rng.normal(size=(7, 3)).astype(dtype)
    if dtype == np.complex128:
        B += 1j * rng.normal(size=B.shape)
        b += 1j * rng.normal(size=b.shape)
    norm = np.abs(B).sum(axis=0).max()
    lu, piv, info = getrf(B)
    ref = gecon(lu, norm, norm="1")[0]
    lu, piv, info = getrf(B.T.copy(order="F"), overwrite_a=1)
    assert info == 0
    assert abs(gecon(lu, norm, norm="I")[0] - ref) <= 1e-12 * ref
    for trans, M in ((0, B.T), (1, B)):
        X, info = getrs(lu, piv, b.copy(order="F"), trans=trans, overwrite_b=1)
        assert info == 0
        assert _rel(X, np.linalg.solve(M, b)) <= 1e-12


class TestBatchedTailFit:
    """The tail fit of a two-pass invert on the benchmark contour: the
    stacked system _tv_irls received and what it returned, against the
    per-entry lstsq fit, and the diagnostics invert reports.  Real data
    take the real fit (dtpqrt), the complex box the complex one
    (ztpqrt)."""

    # n, the coupling of the scalar box and the dtype of the fit
    CASES = {"n1": (1, 0.3, np.float64), "n2": (2, 0.3, np.float64),
             "n1-complex": (1, 0.3 + 0.05j, np.complex128)}

    @pytest.fixture(scope="class", params=list(CASES))
    def run(self, request):
        n, coupling, dtype = self.CASES[request.param]
        weyl, _ = _box_weyl(n, coupling=coupling)
        real = inverse._tv_irls
        calls = []

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "_tv_irls", spy)
            result = invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=61))
        (args, out), = calls
        assert args[0].dtype == args[1].dtype == out[0].dtype == dtype
        return weyl, args, out, result

    def test_matches_per_entry_lstsq(self, run):
        _, (top, b, D1, n_data), (Z, misfit), _ = run
        ref = _lstsq_irls(top, b, D1)
        assert _rel(Z, ref) < 1e-10
        r = b[:n_data] - top[:n_data] @ ref
        assert misfit == pytest.approx(
            np.linalg.norm(r) / np.linalg.norm(b[:n_data]), rel=1e-10)

    def test_diagnostics(self, run):
        weyl, _, (_, misfit), result = run
        diag = result.diagnostics
        assert diag["tail_fit_residual"] == misfit
        assert 0.0 < misfit < 1.0
        # phi(0) = A is singular at every probe when A != I
        if weyl.dim == 1:
            assert diag["phi_filled_nodes"] == 0
        else:
            assert diag["phi_filled_nodes"] >= 1
        # pass 1 of a two-pass run is the one-pass run
        one = invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=61, passes=1))
        assert one.diagnostics["q_pass_change"] == 0.0
        assert "tail_fit_residual" not in one.diagnostics
        change = PotentialGrid(x_nodes=one.Q.x_nodes,
                               values=result.Q.values - one.Q.values)
        assert diag["q_pass_change"] == pytest.approx(
            change.l1_norm() / one.Q.l1_norm(), rel=1e-12)


def test_slice_by_slice_path_matches_one_pass_invert():
    # solve_main_equation at every x, then recover_potential, as a caller
    # outside invert does it, gives invert's one-pass Q and h
    for n in (1, 2):
        weyl, _ = _box_weyl(n)
        cfg = InvertConfig(x_max=X_MAX, x_nodes=13, passes=1)
        res = invert(weyl, cfg)
        A = extract_A(weyl.tail_samples)
        sols = [solve_main_equation(weyl, A, x,
                                    cond_limit=cfg.system_cond_limit)
                for x in np.linspace(0.0, cfg.x_max, cfg.x_nodes)]
        Q, h = recover_potential(sols, weyl, A, cfg.lambda_probes,
                                 phi_cond_limit=cfg.phi_cond_limit,
                                 edge_layer=1.5 / np.sqrt(weyl.contour.R))
        assert _rel(Q.values, res.Q.values) <= 1e-12
        assert np.abs(h - res.h).max() <= 1e-12
    # the stencils span 7 slices, and the grid must be uniform
    for bad, why in ((sols[:6], "at least 7"), (sols[:6] + sols[7:], "uniform")):
        with pytest.raises(ReconstructionError, match=why):
            recover_potential(bad, weyl, A, cfg.lambda_probes)
    # cond phi >= 1, so a limit of 0.5 rejects phi at every probe and node
    with pytest.raises(ReconstructionError, match="every probe and node"):
        recover_potential(sols, weyl, A, cfg.lambda_probes, phi_cond_limit=0.5)


@pytest.mark.parametrize("n", [1, 2])
def test_slice_by_slice_path_matches_two_pass_invert(n):
    # pass 2 reads its probe values off pass 1's gains; the reference
    # extends an assembler with the tail fitted to the one-pass Q, solves
    # every slice and recovers Q from the solutions.  The two-pass invert
    # factors each of its N slices once, plus the middle slice for the
    # main-equation residual.
    weyl, _ = _box_weyl(n)
    cfg = InvertConfig(x_max=X_MAX, x_nodes=13)
    with pytest.MonkeyPatch.context() as mp:
        calls = _factored(mp)
        res = invert(weyl, cfg)
    A = extract_A(weyl.tail_samples)
    asm = _Assembler(weyl, A)
    assert calls == [((asm.K * n, asm.K * n), np.float64)] * (cfg.x_nodes + 1)
    Q1 = invert(weyl, replace(cfg, passes=1)).Q
    asm.extend(*inverse._tail_extension(weyl, A, Q1, asm.real_system)[:3])
    xs = np.linspace(0.0, cfg.x_max, cfg.x_nodes)
    sols = [asm.solve(x) for x in xs]
    # recover_potential's steps, through the extended assembler
    probes = [lambda_to_point(l) for l in cfg.lambda_probes]
    PHI = np.array([asm.phi_at(sol, [pt.rho for pt in probes]) for sol in sols])
    Q, h, _ = inverse._potential_from_probes(
        xs, PHI, A, np.array([pt.lam for pt in probes]), cfg.phi_cond_limit,
        1.5 / (7.0 * np.sqrt(weyl.contour.R)))
    assert _rel(res.Q.values, Q.values) <= 1e-10
    assert np.abs(h - res.h).max() <= 1e-12


@pytest.mark.parametrize("N", [7, 13, 61])
def test_fd_operators_exact_on_polynomials(N):
    # phi'' at every node, the two one-sided rows at each end included, is
    # exact up to degree 5, and the phi'(0) row up to degree 4; each row
    # reads its stencil's nodes only
    dx = 2.0 / (N - 1)
    x = dx * np.arange(N)
    D2, d1 = inverse._fd_operators(N, dx)
    for deg in range(6):
        p = np.polynomial.Polynomial(np.linspace(1.0, -0.5, deg + 1))
        p2, p1 = p.deriv(2)(x), p.deriv()(0.0)
        # relative to the derivative, or to p where the derivative is 0
        scale = max(np.abs(p2).max(), np.abs(p(x)).max())
        assert np.abs(D2 @ p(x) - p2).max() <= 1e-9 * scale
        if deg <= 4:
            assert abs(d1 @ p(x) - p1) <= 1e-9 * max(abs(p1), scale)
    band = np.abs(np.subtract.outer(np.arange(N), np.arange(N))) <= 2
    assert np.array_equal(D2[2:-2] != 0, band[2:-2])
    assert not D2[:2, 6:].any() and not D2[-2:, :-6].any()
    assert not d1[5:].any()


@pytest.mark.parametrize("n", [1, 2])
def test_system_cond_limit_stops_pass_one(n):
    # a limit just below the worst slice's condition number raises while
    # pass 1 factors the slices, before any tail fit; just above it, the
    # run completes and reports the same worst rcond
    weyl, _ = _box_weyl(n)
    cfg = InvertConfig(x_max=X_MAX, x_nodes=13, passes=1)
    rcond = invert(weyl, cfg).diagnostics["min_rcond"]
    fits = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse, "_tv_irls", lambda *a: fits.append(a))
        mp.setattr(InvertConfig, "system_cond_limit", 0.99 / rcond)
        with pytest.raises(ReconstructionError, match="ill-conditioned"):
            invert(weyl, replace(cfg, passes=2))
    assert fits == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InvertConfig, "system_cond_limit", 1.01 / rcond)
        ok = invert(weyl, replace(cfg, passes=2))
    assert ok.diagnostics["min_rcond"] == rcond


def _one_slice_blocks(mp, workers):
    """Every x-slice in a block of its own, read on `workers` threads (at
    most one per block)."""
    mp.setattr(inverse, "_BLOCK_BYTES", 1)
    mp.setattr(inverse, "_slice_workers", lambda n_blocks: min(workers, n_blocks))


class TestSlicePool:
    """The blocks of read_probes on a thread pool, one slice per block."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_results_do_not_depend_on_worker_count(self, n):
        # the probe reads (values, gains, rconds) of an extended assembler
        # and a two-pass invert are bitwise equal on 1 and 3 threads; the
        # pooled invert still factors its N slices plus the middle one, and
        # no thread outlives either call
        weyl, A = _box_weyl(n)
        cfg = InvertConfig(x_max=X_MAX, x_nodes=13)
        xs = np.linspace(0.0, X_MAX, 7)
        ext_rhos, ext_w = extension_nodes(weyl.contour, 7.0)
        # i c / rho mirrors: at -conj rho it is conj(i c / rho)
        ext_Mhat = 1e-2j / ext_rhos[:, None, None] * np.eye(n)
        runs = {}
        for workers in (1, 3):
            threads = threading.active_count()
            with pytest.MonkeyPatch.context() as mp:
                _one_slice_blocks(mp, workers)
                asm = _Assembler(weyl, A, [1j * np.sqrt(2.0), 1j * np.sqrt(5.0)])
                asm.extend(ext_rhos, ext_w, ext_Mhat)
                reads = asm.read_probes(xs)
                assert asm.slice_workers == workers
                calls = _factored(mp)
                res = invert(weyl, cfg)
            assert threading.active_count() == threads
            assert calls == [((asm.K * n, asm.K * n), np.float64)] * (cfg.x_nodes + 1)
            runs[workers] = reads, res
        (reads1, res1), (reads3, res3) = runs[1], runs[3]
        for a, b in zip(reads1, reads3):
            assert np.array_equal(a, b)
        assert np.array_equal(res1.Q.values, res3.Q.values)
        assert np.array_equal(res1.h, res3.h) and np.array_equal(res1.A, res3.A)
        d1, d3 = dict(res1.diagnostics), dict(res3.diagnostics)
        assert d1.pop("slice_workers") == 1 and d3.pop("slice_workers") == 3
        assert d1 == d3

    def test_first_failing_slice_in_x_order_is_reported(self):
        # the sines of a probe at 1000i overflow from x ~ 0.71 on, so the
        # slices at x = 1 and 2 are not finite; the one at x = 1 is held
        # back, so x = 2 fails first in time.  No errstate here: the
        # overflow is silenced on the workers themselves.
        weyl, A = _box_weyl(1)
        real = inverse._node_factors

        def slow_at_one(r, xs):
            if 1.0 in np.asarray(xs):
                time.sleep(0.2)
            return real(r, xs)

        with pytest.MonkeyPatch.context() as mp:
            _one_slice_blocks(mp, 3)
            mp.setattr(inverse, "_node_factors", slow_at_one)
            huge = _Assembler(weyl, A, [1j * np.sqrt(2.0), 1000j])
            with pytest.raises(ReconstructionError, match="not finite at x = 1"):
                huge.read_probes([0.0, 0.5, 1.0, X_MAX])

    def test_no_block_is_taken_after_a_failure(self):
        # the block at x = 0 fails at once while the two taken with it are
        # held back; none of the other 10 is started
        weyl, A = _box_weyl(1)
        taken = []

        def fail_at_zero(r, xs):
            taken.append(xs[0])
            if xs[0] == 0.0:
                raise ReconstructionError("block at x = 0")
            time.sleep(0.2)
            return real(r, xs)

        real = inverse._node_factors
        with pytest.MonkeyPatch.context() as mp:
            _one_slice_blocks(mp, 3)
            mp.setattr(inverse, "_node_factors", fail_at_zero)
            asm = _Assembler(weyl, A, [1j * np.sqrt(2.0)])
            with pytest.raises(ReconstructionError, match="block at x = 0"):
                asm.read_probes(np.linspace(0.0, X_MAX, 13))
        assert 1 <= len(taken) <= 3

    def test_caller_errstate_holds_on_the_workers(self):
        # the caller takes blocks too; each block is held back a little so
        # that the pool threads take some
        weyl, A = _box_weyl(1)
        real, seen = inverse._node_factors, []

        def spy(r, xs):
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.geterr()))
            time.sleep(0.01)
            return real(r, xs)

        with pytest.MonkeyPatch.context() as mp:
            _one_slice_blocks(mp, 3)
            mp.setattr(inverse, "_node_factors", spy)
            asm = _Assembler(weyl, A, [1j * np.sqrt(2.0)])
            with np.errstate(divide="ignore", invalid="ignore"):
                caller = np.geterr()
                asm.read_probes(np.linspace(0.0, X_MAX, 7))
        assert caller != np.geterr()
        assert len(seen) == 7 and not all(main for main, _ in seen)
        assert all(err == caller for _, err in seen)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cond_limit_stops_pooled_pass_one(self, n):
        # as test_system_cond_limit_stops_pass_one, on 3 threads: the
        # ill-conditioned slice raises before any tail fit
        weyl, _ = _box_weyl(n)
        cfg = InvertConfig(x_max=X_MAX, x_nodes=13)
        fits = []
        with pytest.MonkeyPatch.context() as mp:
            _one_slice_blocks(mp, 3)
            rcond = invert(weyl, replace(cfg, passes=1)).diagnostics["min_rcond"]
            mp.setattr(inverse, "_tv_irls", lambda *a: fits.append(a))
            mp.setattr(InvertConfig, "system_cond_limit", 0.99 / rcond)
            with pytest.raises(ReconstructionError, match="ill-conditioned"):
                invert(weyl, cfg)
        assert fits == []

    def test_one_worker_when_blas_threads_fill_the_cpus(self):
        weyl, _ = _box_weyl(1)
        cfg = InvertConfig(x_max=X_MAX, x_nodes=13)
        cpus = os.cpu_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "_blas_threads", lambda: cpus)
            diag = invert(weyl, cfg).diagnostics
        assert diag["slice_workers"] == 1 and diag["blas_threads"] == cpus
        # no OpenBLAS to read: one worker, and blas_threads is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "_openblas", lambda: ())
            diag = invert(weyl, cfg).diagnostics
        assert diag["slice_workers"] == 1 and diag["blas_threads"] is None
        blas = inverse._blas_threads()
        assert blas is None or blas >= 1


def test_blas_runs_one_thread_while_inverting():
    # with every OpenBLAS at 2 threads, invert runs at one (also in the
    # blocks) and gives the bits of a run at one thread; the count is 2
    # again afterwards, also when invert raises
    ctl = inverse._openblas()
    if not ctl or any(put is None for _, put in ctl):
        pytest.skip("no OpenBLAS thread count to set")
    weyl, _ = _box_weyl(2)
    cfg = InvertConfig(x_max=X_MAX, x_nodes=13)
    before = [get() for get, _ in ctl]
    real, seen = inverse._node_factors, []

    def spy(r, xs):
        seen.append(inverse._blas_threads())
        return real(r, xs)

    try:
        for _, put in ctl:
            put(1)
        one = invert(weyl, cfg)
        for _, put in ctl:
            put(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "_node_factors", spy)
            two = invert(weyl, cfg)
        assert [get() for get, _ in ctl] == [2] * len(ctl)
        assert seen and set(seen) == {1}
        assert np.array_equal(one.Q.values, two.Q.values)
        assert np.array_equal(one.h, two.h) and np.array_equal(one.A, two.A)
        d1, d2 = dict(one.diagnostics), dict(two.diagnostics)
        assert d1.pop("blas_threads") == 1 and d2.pop("blas_threads") == 2
        assert d1 == d2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(InvertConfig, "system_cond_limit", 1.0)
            with pytest.raises(ReconstructionError, match="ill-conditioned"):
                invert(weyl, cfg)
        assert [get() for get, _ in ctl] == [2] * len(ctl)
    finally:
        for (_, put), count in zip(ctl, before):
            put(count)


# An odd circle: its theta = pi node, lambda = -r0, is its own mirror.
ODD_CONTOUR = dict(BENCH_CONTOUR, n_circle=33)
PROBES = [1j * np.sqrt(2.0), 1j * np.sqrt(5.0)]


class TestRealSystem:
    """The real half system of mirror-symmetric data against the complex
    system over all nodes, which the same data take when the symmetry
    check is patched to fail."""

    XS = np.array([X_STEP, 1.0, X_MAX])

    @staticmethod
    def _reads(asm, xs, ext):
        """Probe values, the gains applied to the right-hand side, and
        phi at the nodes, plain and then with the extension."""
        out = []
        values, G, _ = asm.read_probes(xs)
        for e in (None, ext):
            if e is not None:
                asm.extend(*e)
                values = asm.read_probes(xs, gains=G)[0]
            rows, cols = _node_factors(asm._nodes, xs)
            gained = G @ asm._source(xs, rows, cols)[1]
            out.append((values, gained, [asm.solve(x).phi_nodes for x in xs]))
        return out, G.dtype

    @pytest.mark.parametrize("contour", [BENCH_CONTOUR, ODD_CONTOUR],
                             ids=["bench", "odd"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_complex_system(self, n, contour):
        weyl, A = _box_weyl(n, contour)
        assert len(weyl.contour) % 2 == (contour is ODD_CONTOUR)
        ext = inverse._tail_extension(
            weyl, A, invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=13,
                                               passes=1)).Q, True)[:3]
        runs = {}
        for real in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not real:
                    mp.setattr(inverse, "_mirror_symmetric", lambda *a: False)
                asm = _Assembler(weyl, A, PROBES)
                assert asm.real_system is real
                runs[real] = self._reads(asm, self.XS, ext)
        (fast, dtype), (ref, ref_dtype) = runs[True], runs[False]
        assert dtype == np.float64 and ref_dtype == np.complex128
        for (v, g, phis), (v0, g0, phis0) in zip(fast, ref):
            assert _rel(v, v0) < 1e-12
            assert _rel(g, g0) < 1e-12
            for phi, phi0 in zip(phis, phis0):
                assert _rel(phi, phi0) < 1e-12

    def test_invert_reports_real_system(self):
        weyl, _ = _box_weyl(1)
        cfg = InvertConfig(x_max=X_MAX, x_nodes=9, passes=1)
        assert invert(weyl, cfg).diagnostics["real_system"] is True
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "_mirror_symmetric", lambda *a: False)
            assert invert(weyl, cfg).diagnostics["real_system"] is False

    def test_other_data_keep_the_complex_system(self):
        weyl, A = _box_weyl(1)
        M = weyl.M_samples.copy()
        M[3, 0, 0] = complex(np.nextafter(M[3, 0, 0].real, np.inf),
                             M[3, 0, 0].imag)
        ulp = WeylData(contour=weyl.contour, M_samples=M,
                       tail_samples=weyl.tail_samples)
        complex_q, _ = _box_weyl(1, coupling=0.3 + 0.05j)
        weyl2, _ = _box_weyl(2)
        v = np.array([1.0, 1j]) / np.sqrt(2.0)
        complex_A = np.outer(v, v.conj())
        # a tail sample that is not real, and a tail point off the
        # imaginary axis: the contour samples still mirror
        (pt, M0), *rest = weyl.tail_samples
        complex_tail = replace(weyl, tail_samples=((pt, M0 + 1e-9j), *rest))
        off_axis = replace(weyl, tail_samples=(
            (SpectralPoint(pt.rho + 1e-3), M0), *rest))
        cases = [(weyl, A, PROBES, np.float64),
                 (ulp, A, PROBES, np.complex128),
                 (complex_q, A, PROBES, np.complex128),
                 (weyl2, complex_A, PROBES, np.complex128),
                 (weyl, A, [1j * np.sqrt(2.0), 1.0 + 1.0j], np.complex128),
                 (complex_tail, A, PROBES, np.complex128),
                 (off_axis, A, PROBES, np.complex128)]
        for data, AA, probes, dtype in cases:
            with pytest.MonkeyPatch.context() as mp:
                seen = _factored(mp)
                asm = _Assembler(data, AA, probes)
                asm.read_probes([1.0])
                asm.solve(1.0)
            assert asm.real_system is (dtype == np.float64)
            assert [d for _, d in seen] == [dtype, dtype]

    def test_empty_tail_is_mirror_symmetric(self):
        # WeylData and solve_main_equation allow data without a tail,
        # which the main equation does not read: the same real system
        weyl, A = _box_weyl(1)
        bare = replace(weyl, tail_samples=())
        assert _Assembler(bare, A, PROBES).real_system
        assert np.array_equal(solve_main_equation(bare, A, 1.0).phi_nodes,
                              solve_main_equation(weyl, A, 1.0).phi_nodes)

    @pytest.mark.parametrize("passes", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_invert_returns_real_answers(self, n, passes):
        # the probe values of the real system are real in every pass, so
        # the Born source leaves no imaginary part in Q or h
        weyl, _ = _box_weyl(n)
        res = invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=13,
                                        passes=passes))
        assert res.diagnostics["real_system"] is True
        assert not res.Q.values.imag.any() and not res.h.imag.any()

    def test_extension_samples_off_their_mirror_rejected(self):
        # on the real system, one sample one ulp off its mirror fails as
        # an extension node off its mirror does; the complex system takes
        # it
        weyl, A = _box_weyl(1)
        ext_rhos, ext_w = extension_nodes(weyl.contour, 7.0)
        ext_Mhat = 1e-2j / ext_rhos[:, None, None] * np.ones((1, 1))
        _Assembler(weyl, A, PROBES).extend(ext_rhos, ext_w, ext_Mhat)
        off = ext_Mhat.copy()
        off[5, 0, 0] = complex(np.nextafter(off[5, 0, 0].real, np.inf),
                               off[5, 0, 0].imag)
        with pytest.raises(ValueError, match="must mirror"):
            _Assembler(weyl, A, PROBES).extend(ext_rhos, ext_w, off)
        plain = _Assembler(weyl, A, [PROBES[0], 1.0 + 1.0j])
        assert not plain.real_system
        plain.extend(ext_rhos, ext_w, off)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_asymmetric_extension_nodes_rejected(self, real):
        # _ext_source takes the column factors of the mirrors as
        # conjugates on either system
        weyl, A = _box_weyl(1)
        with pytest.MonkeyPatch.context() as mp:
            if not real:
                mp.setattr(inverse, "_mirror_symmetric", lambda *a: False)
            asm = _Assembler(weyl, A, PROBES)
        ext_rhos, ext_w = extension_nodes(weyl.contour, 7.0)
        ext_Mhat = 1e-2j / ext_rhos[:, None, None] * np.ones((1, 1))
        with pytest.raises(ValueError, match="must mirror"):
            asm.extend(ext_rhos[1:], ext_w[1:], ext_Mhat[1:])


class TestTransposedFactor:
    """The fast path of the slices against dense solves of the same fill:
    ?getrf factors B^T in place, ?gecon reads rcond_1(B) off it in the
    infinity norm, ?getrs gives the gain with trans 0 and solve's phi with
    trans 1.  On the benchmark contour (pairs rho = tau and rho = -tau)
    and ODD_CONTOUR (a self-mirror node), on the real and the complex
    system."""

    XS = np.array([0.0, X_STEP, 1.0, X_MAX])

    @staticmethod
    def _extension(weyl, n):
        """A Born tail extension in the mirror layout, samples too."""
        ext_rhos, ext_w = extension_nodes(weyl.contour, 7.0)
        E = ext_rhos.size // 2
        Mhat = (0.01 + 0.02j) / ext_rhos[:E, None, None] * np.ones((n, n))
        return ext_rhos, ext_w, np.concatenate([Mhat, Mhat[::-1].conj()])

    @pytest.mark.parametrize("extended", [False, True], ids=["plain", "ext"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("contour", [BENCH_CONTOUR, ODD_CONTOUR],
                             ids=["bench", "odd"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense_solves(self, n, contour, real, extended):
        weyl, A = _box_weyl(n, contour)
        fills, rhs, blocks = [], [], []

        def keep_fill(getrf):
            def spy(a, **kwargs):
                fills.append(a.T.copy())
                return getrf(a, **kwargs)
            return spy

        def keep_rhs(getrs):
            def spy(lu, piv, b, **kwargs):
                rhs.append((b.copy(), kwargs.get("trans", 0)))
                return getrs(lu, piv, b, **kwargs)
            return spy

        def dense(getrs):
            # B X = b (trans 1) or B^T X = b (trans 0), B the last fill
            return lambda lu, piv, b, trans=0, **kw: (np.linalg.solve(
                fills[-1] if trans else fills[-1].T, b), 0)

        asms = {}
        for lapack in ("fast", "dense"):
            with pytest.MonkeyPatch.context() as mp:
                if not real:
                    mp.setattr(inverse, "_mirror_symmetric", lambda *a: False)
                _patch_lapack(mp, getrf=keep_fill, getrs=keep_rhs
                              if lapack == "fast" else dense)
                asm = asms[lapack] = _Assembler(weyl, A, PROBES)
            assert asm.real_system is real
            if extended:
                asm.extend(*self._extension(weyl, n))
        asm = asms["fast"]
        # blocks of 3 and 1 slices, in x order on one thread
        asm._block = 3
        factor = asm._factor

        def spy(xs, rows, cols, pairs, cond_limit):
            blocks.append((xs, pairs.copy()))
            return factor(xs, rows, cols, pairs, cond_limit)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(asm, "_factor", spy)
            mp.setattr(inverse, "_slice_workers", lambda n_blocks: 1)
            _, G, rcond = asm.read_probes(self.XS)
        assert len(fills) == len(rhs) == self.XS.size
        gecon = scipy.linalg.get_lapack_funcs("gecon", (fills[0],))
        for i, (B, (b, trans)) in enumerate(zip(fills, rhs)):
            assert trans == 0
            assert _rel(G[i], np.linalg.solve(B.T, b).T) <= 1e-12
            lu, _ = scipy.linalg.lu_factor(B)
            ref, info = gecon(lu, np.abs(B).sum(axis=0).max(), norm="1")
            assert info == 0 and abs(rcond[i] - ref) <= 1e-12 * ref
        # each block read the coincident pairs of its own xs, bit for bit
        j, k = asm._D_nodes.near
        r, t = asm._nodes[j], asm._D_nodes.taus[k]
        assert np.any(r == t) and np.any(r == -t)
        assert [xs.size for xs, _ in blocks] == [3, 1]
        for xs, (cA, cP) in blocks:
            dA, dP = _model_D_coeffs(xs[:, None], r, t)
            assert np.array_equal(cA, dA)
            assert np.array_equal(cP, np.where(j < asm._nk, 1j * r, 1.0) * dP)
        for x in self.XS[1:]:
            phi = asm.solve(x).phi_nodes
            assert rhs[-1][1] == 1
            assert _rel(phi, asms["dense"].solve(x).phi_nodes) <= 1e-12

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_singular_slice_raises_without_warning(self, real):
        # a first column of B^T set to zero: ?getrf reports info = 1, and
        # the slice fails the condition check with no LinAlgWarning
        weyl, A = _box_weyl(2)
        infos = []

        def singular(getrf):
            def spy(a, **kwargs):
                a[:, 0] = 0.0
                out = getrf(a, **kwargs)
                infos.append(out[2])
                return out
            return spy

        with pytest.MonkeyPatch.context() as mp:
            if not real:
                mp.setattr(inverse, "_mirror_symmetric", lambda *a: False)
            _patch_lapack(mp, getrf=singular)
            asm = _Assembler(weyl, A, PROBES)
        assert asm.real_system is real
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReconstructionError,
                               match="ill-conditioned at x = 1"):
                asm.solve(1.0)
            with pytest.raises(ReconstructionError,
                               match="ill-conditioned at x = 0.5"):
                asm.read_probes([0.5, 1.0])
        assert infos == [1, 1]


@pytest.mark.parametrize("n", [1, 2])
def test_closure_residual_batch_matches_per_pair(rng, n):
    # all pairs marched together give the worst of the one-pair calls
    prob = (scalar_box_problem(nodes=201) if n == 1
            else smooth_matrix_problem(2, rng, nodes=301))
    weyl = generate_weyl_data(prob, build_contour(r0=2.0, R=50.0, n_cut=32,
                                                  n_circle=32))
    pairs = [(lambda_to_point(-4.0), lambda_to_point(-9.0)),
             (lambda_to_point(-2.0 + 1j), lambda_to_point(-6.0 - 1j)),
             (lambda_to_point(3.0 + 0.5j), lambda_to_point(-9.0))]
    each = [closure_residual(weyl, prob, 0.5, [p]) for p in pairs]
    assert len(set(each)) == len(pairs)
    assert abs(closure_residual(weyl, prob, 0.5, pairs) - max(each)) <= 1e-12
    assert closure_residual(weyl, prob, 0.5, []) == 0.0


def test_discretization_estimate_on_63_slices():
    # (63 - 1) // 2 + 1 = 32 slices is even; the half-density rerun takes
    # the largest odd count <= 32, 31.  The contour of criterion 10 has the
    # odd node counts that halving the nodes needs.
    weyl = generate_weyl_data(scalar_box_problem(nodes=201),
                              build_contour(r0=2.0, R=100.0, n_cut=65,
                                            n_circle=65, delta=0.0))
    cfg = InvertConfig(x_max=X_MAX, x_nodes=63, passes=1)
    real, grids = inverse.invert, []

    def spy(data, config):
        grids.append(config.x_nodes)
        return real(data, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse, "invert", spy)
        estimate = inverse.discretization_estimate(weyl, cfg, real(weyl, cfg))
    assert grids == [31, 63, 63]
    assert np.isfinite(estimate) and estimate > 0


class TestInvertConfig:
    @pytest.mark.parametrize("kwargs", [
        {"x_max": np.nan}, {"x_max": np.inf}, {"x_max": 0.0},
        {"lambda_probes": (np.nan, -5.0)}, {"lambda_probes": (-2.0, np.inf)},
        {"lambda_probes": (-2.0, complex(-5.0, np.nan))},
        # lambda = 0 has no image in Omega (a DomainError): rejected here,
        # not after every slice is solved
        {"lambda_probes": (0.0, -4.0)},
        # probes the x-grid does not resolve, |lambda|^(3/4) dx = 1.9 and
        # 167: invert returned a wrong h and Q without an error
        {"lambda_probes": (-2.0, -25.0), "x_nodes": 13},
        {"lambda_probes": (-2.0, -1e4), "x_nodes": 13},
        # no pass at all
        {"passes": 0},
    ], ids=str)
    def test_values_that_disable_checks_rejected(self, kwargs):
        cfg = dict(x_max=2.0, x_nodes=9) | kwargs
        with pytest.raises(ValueError):
            InvertConfig(**cfg)

    @pytest.mark.parametrize("x_nodes", [3, 5])
    def test_x_nodes_below_stencil_span_rejected(self, x_nodes):
        # the read-out's stencils span 7 slices; fewer used to pass here and
        # fail in invert only after every slice was factored
        with pytest.raises(ValueError, match=">= 7"):
            InvertConfig(x_max=2.0, x_nodes=x_nodes, lambda_probes=(-0.1, -0.2))

    @pytest.mark.parametrize("x_nodes, f, s", [
        (61, 0.95, "1.64"), (41, 0.7, "1.56"), (25, 0.4, "1.12")])
    def test_unresolved_probe_rejected(self, x_nodes, f, s):
        # a probe at f sqrt(R), R = 200, with |lambda|^(3/4) dx = s > 1:
        # invert returned Q at 1.5 to 8 times the grid's (-2, -5) error in
        # relative L1 without an error.  The last two have |rho| dx < 0.5
        # and |rho| <= 0.7 sqrt(R), so a bound on |rho| dx or on
        # |rho| / sqrt(R) lets them through
        weyl, _ = _box_weyl(1)
        lam = -(f * np.sqrt(weyl.contour.R)) ** 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "_Assembler",
                       lambda *a: pytest.fail("a slice was assembled"))
            with pytest.raises(ValueError,
                               match=rf"probe {-f * f * 200:g} .* = {s} > 1"):
                invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=x_nodes,
                                          lambda_probes=(-2.0, lam)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_far_resolved_probe_accepted(self, n):
        # 1.4 sqrt(R) on 241 slices: |lambda|^(3/4) dx = 0.73.  Past
        # sqrt(R), Q is as close to the truth as with the default probes
        # (relative L1 0.053 and 0.088)
        prob = _box_problem(n)
        weyl = generate_weyl_data(prob, build_contour(**BENCH_CONTOUR))
        errors = [
            invert(weyl, InvertConfig(x_max=X_MAX, x_nodes=241,
                                      lambda_probes=probes)
                   ).Q.relative_l1(prob.potential)
            for probes in ((-2.0, -5.0), (-2.0, -392.0))]
        assert errors[1] <= 1.05 * errors[0]

    def test_limits_are_fixed(self):
        cfg = InvertConfig(x_max=2.0, x_nodes=9)
        assert (cfg.phi_cond_limit, cfg.system_cond_limit) == (1e8, 1e12)
        for name in ("phi_cond_limit", "system_cond_limit"):
            with pytest.raises(TypeError):
                InvertConfig(x_max=2.0, x_nodes=9, **{name: 1.0})


class TestWeylDataValidation:
    def test_sample_count_must_match_contour(self):
        A = np.array([[1.0 + 0j]])
        weyl = model_weyl_data(A)
        with pytest.raises(Exception):
            WeylData(contour=weyl.contour, M_samples=weyl.M_samples[:-1],
                     tail_samples=weyl.tail_samples)

    @pytest.mark.parametrize("shape", [(1, 2), (2,)], ids=["1 x 2", "vectors"])
    def test_samples_must_be_square(self, shape):
        weyl = model_weyl_data(np.array([[1.0 + 0j]]))
        M = np.ones((len(weyl.contour),) + shape, dtype=complex)
        with pytest.raises(ValueError, match=r"must be \(K, n, n\)"):
            WeylData(contour=weyl.contour, M_samples=M,
                     tail_samples=weyl.tail_samples)

    def test_tail_samples_must_match_n(self):
        # n = 1 contour samples with 2 x 2 tail samples: rejected here,
        # not left to fail inside the slice factorization
        weyl = model_weyl_data(np.array([[1.0 + 0j]]))
        tail = tuple((pt, np.eye(2, dtype=complex)) for pt, _ in
                     weyl.tail_samples)
        with pytest.raises(DimensionMismatchError,
                           match=r"\(n, n\) = \(1, 1\), got \(2, 2\)"):
            WeylData(contour=weyl.contour, M_samples=weyl.M_samples,
                     tail_samples=tail)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        A = np.diag([1.0, 0.0]).astype(complex)
        weyl = model_weyl_data(A)
        M = weyl.M_samples.copy()
        M[3, 1, 0] = bad
        with pytest.raises(DataQualityError):
            WeylData(contour=weyl.contour, M_samples=M,
                     tail_samples=weyl.tail_samples)
        (pt, T), *rest = weyl.tail_samples
        T = T.copy()
        T[0, 0] = complex(0.0, bad)
        with pytest.raises(DataQualityError):
            WeylData(contour=weyl.contour, M_samples=weyl.M_samples,
                     tail_samples=((pt, T), *rest))

    def test_generate_structure(self):
        prob = scalar_box_problem(nodes=201)
        cont = build_contour(r0=2.0, R=50.0, n_cut=32, n_circle=32, delta=0.0)
        weyl = generate_weyl_data(prob, cont, tail_ts=(50.0, 100.0, 200.0,
                                                       400.0))
        assert weyl.M_samples.shape == (len(cont), 1, 1)
        assert weyl.dim == 1
        assert len(weyl.tail_samples) == 4
