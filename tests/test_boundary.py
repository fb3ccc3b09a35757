"""Boundary-condition construction and the unitary vertex dictionary."""

import numpy as np
import pytest

from weylinv import (
    BoundaryCondition,
    check_selfadjoint_pair,
    delta_condition,
    dirichlet,
    from_unitary,
    matnorm,
    neumann,
    pair_from_unitary,
)
from weylinv.core import apply_T

from conftest import random_unitary


class TestCatalog:
    def test_neumann(self):
        bc = neumann(3)
        assert matnorm(bc.A - np.eye(3)) < 1e-14
        assert matnorm(bc.h) == 0.0

    def test_dirichlet(self):
        bc = dirichlet(3)
        assert matnorm(bc.A) == 0.0

    def test_delta_projector_rank_one(self):
        bc = delta_condition(3, 0.5)
        evals = np.linalg.eigvalsh(bc.A)
        assert np.allclose(sorted(evals), [0.0, 0.0, 1.0], atol=1e-12)
        # continuity direction (1,..,1) carries coupling a
        ones = np.ones(3) / np.sqrt(3)
        assert ones @ bc.h @ ones == pytest.approx(0.5, abs=1e-12)

    def test_delta_rejects_empty(self):
        with pytest.raises(ValueError):
            delta_condition(0, 1.0)


class TestFromUnitary:
    def test_identity_gives_neumann(self):
        bc = from_unitary(np.eye(3))
        assert matnorm(bc.A - np.eye(3)) < 1e-12
        assert matnorm(bc.h) < 1e-12

    def test_minus_identity_gives_dirichlet(self):
        bc = from_unitary(-np.eye(3))
        assert matnorm(bc.A) < 1e-12

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            from_unitary(np.diag([1.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not unitary"):
            from_unitary(np.diag([np.nan, 1.0]))

    def test_scaled_unitary_within_tolerance(self, rng):
        # a unitary U scaled by 1 + eps, with ||U^dag U - I|| ~ 2 eps inside
        # the unitarity tolerance 1e-10, gives the condition of U itself
        V = random_unitary(3, rng)
        D = np.diag([np.exp(0.3j), 1.0])
        for U, scaled in ((V, V * (1 + 2e-11)),
                          (D, np.diag([np.exp(0.3j) * (1 + 3e-11), 1.0]))):
            want, got = from_unitary(U), from_unitary(scaled)
            assert matnorm(got.A - want.A) < 1e-13
            assert matnorm(got.h - want.h) < 1e-13
        with pytest.raises(ValueError, match="not unitary"):
            from_unitary(V * (1 + 1e-10))

    def test_null_space_equivalence(self, rng):
        # boundary data annihilated by the coefficient pair must be
        # annihilated by the projector form, and conversely
        for _ in range(10):
            U = random_unitary(3, rng)
            bc = from_unitary(U)
            pair = pair_from_unitary(U)
            # vertex condition A1^dag y' - B1^dag y = 0
            big = np.hstack([-pair.B1.conj().T, pair.A1.conj().T])
            _, _, Vh = np.linalg.svd(big)
            null = Vh[3:].conj().T
            y, yp = null[:3], null[3:]
            assert matnorm(apply_T(bc, y, yp)) < 1e-10

    def test_projector_and_coupling_hermitian(self, rng):
        U = random_unitary(4, rng)
        bc = from_unitary(U)
        assert matnorm(bc.A @ bc.A - bc.A) < 1e-12
        assert matnorm(bc.h - bc.h.conj().T) < 1e-12
        # h confined to ran A
        assert matnorm(bc.h - bc.A @ bc.h @ bc.A) < 1e-12


class TestSelfAdjointPair:
    def test_unitary_pairs_pass(self, rng):
        for _ in range(5):
            U = random_unitary(3, rng)
            report = check_selfadjoint_pair(pair_from_unitary(U))
            assert report["cond_A3"] and report["cond_A4"]

    def test_broken_pair_fails(self):
        pair = pair_from_unitary(np.eye(2))
        broken = type(pair)(pair.A1, pair.B1 + np.diag([0.0, 0.3j]))
        report = check_selfadjoint_pair(broken)
        assert not report["cond_A3"]


class TestProjectorValidation:
    def test_h_outside_range_rejected(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        h = np.array([[0.0, 0.4], [0.4, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            BoundaryCondition(A=A, h=h)

    @pytest.mark.parametrize("A, h", [
        ([[np.nan]], [[0.0]]),
        ([[1.0]], [[np.inf]]),
        (np.diag([1.0, 0.0]), np.diag([np.inf, 0.0])),
    ], ids=["NaN A", "infinite h", "infinite h, n = 2"])
    def test_non_finite_rejected(self, A, h):
        # a NaN residual used to pass the "> tol" check
        with pytest.raises(ValueError, match="invariants violated"):
            BoundaryCondition(A=A, h=h)

