"""Main integral equation, data extraction and the reconstruction loop."""

import numpy as np
import pytest

from weylinv import (
    BoundaryCondition,
    DataQualityError,
    PotentialGrid,
    Problem,
    SpectralPoint,
    build_contour,
    extract_A,
    generate_weyl_data,
    lambda_to_point,
    matnorm,
    model_weyl,
    solve_regular,
    weyl_matrix,
    zero_potential,
)
from weylinv.inverse import (
    WeylData,
    _Assembler,
    _fit_tail_model,
    _omega_of_grid,
    main_equation_residual,
    model_phi,
)
from weylinv import boundary

from conftest import scalar_box_problem


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
        A = np.diag([1.0, 0.0]).astype(complex)
        prob = Problem(potential=zero_potential(2, 1.0, 201),
                       bc=BoundaryCondition(A=A, h=np.zeros((2, 2), complex)))
        pt = SpectralPoint(1.5 + 0.5j)
        phi, _ = solve_regular(prob, pt)
        x = prob.potential.x_nodes
        ref, ref_der = model_phi(A, x, pt)
        assert matnorm(phi.value - ref) < 1e-7
        assert matnorm(phi.derivative - ref_der) < 1e-6


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
        phi = asm.phi_at(sol, pt)
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

    def test_interpolated_residual_small(self):
        prob = scalar_box_problem(nodes=401)
        cont = build_contour(r0=2.0, R=200.0, n_cut=128, n_circle=64,
                             delta=0.0)
        weyl = generate_weyl_data(prob, cont)
        A = np.array([[1.0 + 0j]])
        asm = _Assembler(weyl, A)
        sol = asm.solve(0.5)
        assert main_equation_residual(weyl, A, sol, assembler=asm) < 5e-3


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

    def test_ambiguous_rank_rejected(self):
        # synthetic data whose limit is A = I/2, not a projector
        tails = []
        for t in (50.0, 100.0, 200.0, 400.0, 800.0):
            pt = SpectralPoint(1j * t)
            M = -1j * pt.rho * 0.5 * np.eye(2)
            tails.append((pt, M))
        with pytest.raises(DataQualityError):
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
        Q_fit, h_fit = _fit_tail_model(weyl, A, prior, np.zeros((1, 1)))
        rhos = np.linspace(15.0, 40.0, 9) + 0j
        om_f = _omega_of_grid(Q_fit, rhos)
        om_t = _omega_of_grid(prob.potential, rhos)
        scale = np.abs(om_t).max()
        assert np.abs(om_f - om_t).max() < 0.35 * scale
        assert matnorm(h_fit) < 5e-2


class TestWeylDataValidation:
    def test_sample_count_must_match_contour(self):
        A = np.array([[1.0 + 0j]])
        weyl = model_weyl_data(A)
        with pytest.raises(Exception):
            WeylData(contour=weyl.contour, M_samples=weyl.M_samples[:-1],
                     tail_samples=weyl.tail_samples)

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
