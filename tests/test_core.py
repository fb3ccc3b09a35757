"""Core types, norms and quadrature helpers."""

import numpy as np
import pytest

from weylinv import (
    BoundaryCondition,
    DomainError,
    PotentialGrid,
    SpectralPoint,
    lambda_to_point,
    matnorm,
    potentials,
)
from weylinv.core import (
    apply_T,
    bracket,
    prefix_integrals,
    sin_over,
    sinc,
    tail_integrals,
)


class TestSpectralPoint:
    def test_lam_is_rho_squared(self):
        pt = SpectralPoint(2.0 + 1.0j)
        assert pt.lam == pytest.approx((2.0 + 1.0j) ** 2)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            SpectralPoint(1.0 - 0.5j)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            SpectralPoint(0.0)

    @pytest.mark.parametrize("rho", [complex("nan"), complex("inf"),
                                     complex(1.0, float("inf")), 1e200 + 1j])
    def test_non_finite_rho_or_lambda_rejected(self, rho):
        # 1e200 + 1j is finite, but its lambda = rho^2 overflows
        with pytest.raises(DomainError, match="not finite"):
            SpectralPoint(rho)

    def test_real_rho_allowed_on_both_rays(self):
        assert SpectralPoint(3.0).rho == 3.0
        assert SpectralPoint(-3.0).rho == -3.0


class TestLambdaToPoint:
    def test_positive_real_axis_sheets(self):
        up = lambda_to_point(9.0, "upper")
        lo = lambda_to_point(9.0, "lower")
        assert up.rho == pytest.approx(3.0)
        assert lo.rho == pytest.approx(-3.0)

    def test_off_axis_unique_root(self):
        pt = lambda_to_point(-4.0 + 0.1j)
        assert pt.rho.imag > 0
        assert pt.lam == pytest.approx(-4.0 + 0.1j)

    def test_negative_axis(self):
        pt = lambda_to_point(-4.0)
        assert pt.rho == pytest.approx(2.0j)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            lambda_to_point(0.0)

    def test_unknown_sheet_rejected(self):
        # the sheet tag is read only on the positive real axis
        assert lambda_to_point(-4.0, "middle").rho == pytest.approx(2.0j)
        with pytest.raises(DomainError, match="unknown sheet 'middle'"):
            lambda_to_point(9.0, "middle")


    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     -float("inf"), complex(1.0, float("nan"))])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(DomainError):
            lambda_to_point(lam)


class TestMatnorm:
    def test_max_row_sum(self, rng):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        expected = max(np.sum(np.abs(M[i])) for i in range(3))
        assert matnorm(M) == pytest.approx(expected)

    def test_reduces_leading_axes(self, rng):
        M = rng.normal(size=(5, 2, 2))
        assert matnorm(M) == pytest.approx(max(matnorm(M[k]) for k in range(5)))

    def test_identity(self):
        assert matnorm(np.eye(4)) == pytest.approx(1.0)


class TestBoundaryCondition:
    def test_projector_enforced(self):
        with pytest.raises(ValueError):
            BoundaryCondition(A=np.array([[0.5 + 0j]]),
                              h=np.zeros((1, 1), dtype=complex))

    def test_perp_complement(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        bc = BoundaryCondition(A=A, h=np.zeros((2, 2), dtype=complex))
        assert matnorm(bc.A + bc.A_perp - np.eye(2)) < 1e-14

    def test_apply_T_kernel(self):
        # y(0) in ran A with y'(0) = h y(0) satisfies the condition
        A = np.diag([1.0, 0.0]).astype(complex)
        h = np.diag([0.7, 0.0]).astype(complex)
        bc = BoundaryCondition(A=A, h=h)
        Y0 = A.copy()
        Y0der = h @ Y0
        assert matnorm(apply_T(bc, Y0, Y0der)) < 1e-14


class TestPotentialGrid:
    def test_rejects_even_node_count(self):
        x = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            PotentialGrid(x_nodes=x, values=np.zeros((4, 1, 1), dtype=complex))

    def test_rejects_nonuniform_grid(self):
        x = np.array([0.0, 0.4, 1.0])
        with pytest.raises(ValueError):
            PotentialGrid(x_nodes=x, values=np.zeros((3, 1, 1), dtype=complex))

    @pytest.mark.parametrize("x, shape, match", [
        (np.linspace(0.5, 1.0, 3), (3, 1, 1), "start at x = 0"),
        (np.linspace(0.0, 1.0, 3), (3, 1), "shape"),
        (np.linspace(0.0, 1.0, 3), (5, 1, 1), "shape"),
        (np.linspace(0.0, 1.0, 3), (3, 1, 2), "shape"),
    ], ids=["first node 0.5", "no matrix axes", "5 values for 3 nodes",
            "non-square values"])
    def test_rejects_bad_start_or_value_shape(self, x, shape, match):
        with pytest.raises(ValueError, match=match):
            PotentialGrid(x_nodes=x, values=np.zeros(shape, dtype=complex))

    def test_index_of_and_l1(self):
        x = np.linspace(0.0, 2.0, 201)
        v = np.ones((201, 1, 1), dtype=complex)
        g = PotentialGrid(x_nodes=x, values=v)
        assert g.index_of(1.0) == 100
        assert g.l1_norm() == pytest.approx(201 * 0.01, rel=1e-12)
        assert g.dx == pytest.approx(0.01)
        with pytest.raises(ValueError):
            g.index_of(1.0049)

    def test_sample_interpolates_each_entry_and_vanishes_beyond(self, rng):
        x = np.linspace(0.0, 1.0, 11)
        v = rng.normal(size=(11, 2, 2)) + 1j * rng.normal(size=(11, 2, 2))
        g = PotentialGrid(x_nodes=x, values=v)
        assert np.array_equal(g.sample(x), v)
        q = np.array([0.0, 0.05, 0.55, 1.0, 1.2])
        got = g.sample(q)
        assert got.shape == (5, 2, 2)
        for i, j in np.ndindex(2, 2):
            ref = (np.interp(q[:4], x, v[:, i, j].real)
                   + 1j * np.interp(q[:4], x, v[:, i, j].imag))
            assert np.array_equal(got[:4, i, j], ref)
        assert np.all(got[4] == 0)


class TestBracket:
    def test_constant_for_same_equation(self, rng):
        # <Z, Y> = Z'Y - ZY' is x-independent when Z^T, Y solve the same
        # scalar equation; check the algebraic definition directly
        Z, Zd = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        Y, Yd = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        assert np.allclose(bracket(Z, Zd, Y, Yd), Zd @ Y - Z @ Yd)


class TestScalarHelpers:
    def test_sinc_matches_ratio(self):
        z = 0.3 + 0.1j
        assert sinc(z) == pytest.approx(np.sin(z) / z)

    def test_sinc_at_zero(self):
        assert sinc(0.0) == pytest.approx(1.0)

    def test_sinc_series_region_continuous(self):
        # values just inside and outside the series cutoff agree
        assert abs(sinc(9.9e-5) - sinc(1.1e-4)) < 1e-8

    def test_sin_over_removable_singularity(self):
        assert sin_over(0.0, 0.7) == pytest.approx(0.7)
        a = 2.0 + 0.5j
        assert sin_over(a, 0.7) == pytest.approx(np.sin(a * 0.7) / a)


class TestCumulativeQuadrature:
    def test_prefix_matches_antiderivative(self):
        x = np.linspace(0.0, 2.0, 401)
        f = np.exp(-x) * np.cos(3 * x)
        exact = (1.0 - np.exp(-x) * (np.cos(3 * x) - 3 * np.sin(3 * x))) / 10.0
        out = prefix_integrals(f.astype(complex), x[1] - x[0])
        assert np.max(np.abs(out - exact)) < 1e-9

    def test_tail_complements_prefix(self):
        x = np.linspace(0.0, 1.0, 201)
        f = (x ** 2 + 1.0).astype(complex)
        dx = x[1] - x[0]
        total = prefix_integrals(f, dx)[-1]
        assert np.allclose(prefix_integrals(f, dx) + tail_integrals(f, dx),
                           total, atol=1e-12)

    def test_fourth_order_convergence(self):
        def err(nodes):
            x = np.linspace(0.0, 1.0, nodes)
            f = np.sin(5 * x).astype(complex)
            exact = (1.0 - np.cos(5 * x)) / 5.0
            return np.max(np.abs(prefix_integrals(f, x[1] - x[0]) - exact))

        # halving dx should cut the error by about 16
        assert err(101) / err(201) > 10.0

    def test_matrix_valued_samples(self):
        x = np.linspace(0.0, 1.0, 101)
        f = np.zeros((101, 2, 2), dtype=complex)
        f[:, 0, 1] = x
        out = prefix_integrals(f, x[1] - x[0])
        assert out[-1][0, 1] == pytest.approx(0.5, abs=1e-10)
        assert abs(out[-1][1, 0]) < 1e-14


class TestPotentialConstructors:
    @pytest.mark.parametrize("make, match", [
        (lambda: potentials.box(0.3, 0.0, 2.0), "x_cut"),
        (lambda: potentials.box(0.3, 2.0, 2.0), "x_cut"),
        (lambda: potentials.box(0.3, np.nan, 2.0), "x_cut"),
        (lambda: potentials.gaussian(0.3, 1.0, 0.0, 2.0), "width"),
        (lambda: potentials.gaussian(0.3, 1.0, -0.2, 2.0), "width"),
    ], ids=["box cut at 0", "box cut at x_max", "box cut NaN",
            "gaussian width 0", "gaussian width < 0"])
    def test_bad_arguments_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()
