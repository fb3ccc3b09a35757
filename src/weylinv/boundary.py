"""Conversion of unitary-form vertex conditions to projector form (A, h),
plus a small catalog of named boundary conditions and the self-adjointness
check of the coefficient form.  The invariants of a projector-form pair
are checked by BoundaryCondition.residuals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundaryCondition, DimensionMismatchError, matnorm

__all__ = [
    "GeneralBoundaryPair",
    "from_unitary",
    "delta_condition",
    "neumann",
    "dirichlet",
    "pair_from_unitary",
    "check_selfadjoint_pair",
]

# Eigenvalues of U this close to -1 go to the Dirichlet block, where the
# cotangent parameterization blows up.
_DIRICHLET_BAND = 1e-10

# Largest ||U^dag U - I|| that from_unitary accepts.
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class GeneralBoundaryPair:
    """Coefficient pair of the condition A1^dag Y'(0) - B1^dag Y(0) = 0."""

    A1: np.ndarray
    B1: np.ndarray

    def __post_init__(self):
        A1 = np.asarray(self.A1, dtype=complex)
        B1 = np.asarray(self.B1, dtype=complex)
        if A1.shape != B1.shape or A1.ndim != 2 or A1.shape[0] != A1.shape[1]:
            raise DimensionMismatchError(
                f"A1 {A1.shape} and B1 {B1.shape} must be square and equal-sized"
            )
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "B1", B1)

    @property
    def dim(self) -> int:
        return self.A1.shape[0]


def pair_from_unitary(U) -> GeneralBoundaryPair:
    """Coefficient pair A1 = (U + I)/2, B1 = i(U - I)/2 of a unitary U."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    return GeneralBoundaryPair((U + np.eye(n)) / 2.0, 1j * (U - np.eye(n)) / 2.0)


def from_unitary(U) -> BoundaryCondition:
    """Transform the unitary-form vertex condition into projector form.

    Each eigenvalue mu of U away from -1 is written mu = -exp(-2i*theta)
    with theta in (0, pi); those directions span ran A with boundary
    coupling -cot(theta), while the -1 eigenspace becomes the Dirichlet
    block (excluded from ran A).
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    if U.shape != (n, n):
        raise DimensionMismatchError(f"U must be square, got {U.shape}")
    if matnorm(U.conj().T @ U - np.eye(n)) > _UNITARY_TOL:
        raise ValueError("U is not unitary within tolerance")

    # U is normal, so an orthonormal eigenbasis exists; eigh on the
    # Hermitian part would not separate degenerate phases, use schur.
    from scipy.linalg import schur

    Tmat, N = schur(U, output="complex")
    mus = np.diag(Tmat)

    keep = np.abs(mus + 1.0) > _DIRICHLET_BAND
    theta = ((np.pi - np.angle(mus[keep])) / 2.0) % np.pi
    diag_a = keep.astype(float)
    diag_h = np.zeros(n)
    diag_h[keep] = -1.0 / np.tan(theta)

    A = N @ np.diag(diag_a) @ N.conj().T
    h = N @ np.diag(diag_h) @ N.conj().T
    # Spectral projectors are exactly Hermitian in theory; symmetrize away
    # the last-bit asymmetry so the strict validator accepts them.
    A = (A + A.conj().T) / 2.0
    h = (h + h.conj().T) / 2.0
    h = A @ h @ A
    return BoundaryCondition(A=A, h=h)


def delta_condition(n: int, a: complex) -> BoundaryCondition:
    """Delta-type vertex condition: continuity at 0, sum of slopes = a*y(0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    A = np.full((n, n), 1.0 / n, dtype=complex)
    return BoundaryCondition(A=A, h=a * A)


def neumann(n: int) -> BoundaryCondition:
    return BoundaryCondition(A=np.eye(n, dtype=complex), h=np.zeros((n, n), dtype=complex))


def dirichlet(n: int) -> BoundaryCondition:
    return BoundaryCondition(A=np.zeros((n, n), dtype=complex), h=np.zeros((n, n), dtype=complex))


def check_selfadjoint_pair(pair: GeneralBoundaryPair) -> dict:
    """Check the two self-adjointness characterizations of (A1, B1).

    cond_A3: B1^dag A1 = A1^dag B1 with A1^dag A1 + B1^dag B1 > 0.
    cond_A4: B1^dag A1 = A1^dag B1 with rank [-B1^dag, A1^dag] = n.
    """
    A1, B1 = pair.A1, pair.B1
    n = pair.dim
    sym = matnorm(B1.conj().T @ A1 - A1.conj().T @ B1) <= 1e-10

    G = A1.conj().T @ A1 + B1.conj().T @ B1
    eig_min = float(np.min(np.linalg.eigvalsh((G + G.conj().T) / 2.0)))
    positive = eig_min > 1e-12

    stacked = np.hstack([-B1.conj().T, A1.conj().T])
    sv = np.linalg.svd(stacked, compute_uv=False)
    full_rank = np.count_nonzero(sv > 1e-10 * max(sv[0], 1.0)) == n

    return {"cond_A3": bool(sym and positive), "cond_A4": bool(sym and full_rank)}

