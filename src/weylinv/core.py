"""Domain types and shared matrix utilities.

Everything downstream works in the rho half-plane

    Omega = {rho : Im rho >= 0, rho != 0},

with the energy lambda = rho**2 always derived from rho, never stored on
its own.  Carrying rho resolves the two-sheeted square-root ambiguity of
the lambda plane: a lambda on the positive real axis is disambiguated by
the sign of Re rho.

Matrix norms in all contracts are the max row-sum norm, matching the L1
assumption on the potential.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALGEBRAIC_TOL",
    "SpectralPoint",
    "BoundaryCondition",
    "PotentialGrid",
    "MatrixWave",
    "DimensionMismatchError",
    "DomainError",
    "ConvergenceError",
    "PoleProximityError",
    "DataQualityError",
    "ReconstructionError",
    "matnorm",
    "bracket",
    "apply_T",
    "lambda_to_point",
    "sinc",
    "sin_over",
    "tail_integrals",
    "prefix_integrals",
]

# Tolerance for algebraic invariants of exact inputs.
ALGEBRAIC_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Matrix arguments with incompatible shapes."""


class DomainError(ValueError):
    """Spectral parameter outside the admissible domain."""


class ConvergenceError(RuntimeError):
    """A forward solve has no finite answer: the grid does not resolve Q,
    a discrete system is singular, or a solution overflows."""


class PoleProximityError(RuntimeError):
    """Evaluation too close to a singularity of the Weyl matrix."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DataQualityError(RuntimeError):
    """Input data inconsistent with the expected asymptotic structure."""


class ReconstructionError(RuntimeError):
    """A reconstruction stage could not produce a usable value."""


def matnorm(M) -> float:
    """Max row-sum norm, ||M|| = max_l sum_s |M_ls|.

    Accepts any array whose last two axes are the matrix axes; reduces
    over those and returns the max over leading axes as well.
    """
    M = np.asarray(M)
    return float(np.max(np.sum(np.abs(M), axis=-1)))


def _as_square(M, dim=None, stacked=False):
    M = np.asarray(M, dtype=complex)
    if (M.ndim < 2 or (M.ndim > 2 and not stacked)
            or M.shape[-1] != M.shape[-2]):
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    if dim is not None and M.shape[-1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {M.shape[-1]}")
    return M


@dataclass(frozen=True)
class SpectralPoint:
    """A point of Omega together with its derived energy lambda = rho**2.

    Both rho and lambda must be finite; anything else raises DomainError.
    """

    rho: complex

    def __post_init__(self):
        rho = complex(self.rho)
        if not (cmath.isfinite(rho) and cmath.isfinite(rho * rho)):
            raise DomainError(f"rho = {rho} or lambda = rho^2 is not finite")
        if rho == 0:
            raise DomainError("rho = 0 is excluded from Omega")
        if rho.imag < 0:
            raise DomainError(f"rho = {rho} has Im rho < 0, not in Omega")
        object.__setattr__(self, "rho", rho)

    @property
    def lam(self) -> complex:
        return self.rho * self.rho


def lambda_to_point(lam: complex, sheet: str = "upper") -> SpectralPoint:
    """Map an energy lambda to the rho half-plane.

    For real positive lambda the two sheets give rho = +sqrt(lam) (upper)
    and rho = -sqrt(lam) (lower).  For any other lambda the sheet tag is
    ignored and the unique root with Im rho > 0 is taken.
    """
    lam = complex(lam)
    if lam == 0:
        raise DomainError("lambda = 0 has no image in Omega")
    if lam.imag == 0 and lam.real > 0:
        r = np.sqrt(lam.real)
        if sheet == "upper":
            return SpectralPoint(r)
        if sheet == "lower":
            return SpectralPoint(-r)
        raise DomainError(f"unknown sheet {sheet!r}")
    rho = complex(np.sqrt(lam))
    if rho.imag < 0:
        rho = -rho
    return SpectralPoint(rho)


@dataclass(frozen=True)
class BoundaryCondition:
    """Projector-form boundary data (A, h).

    A is an orthogonal projector (A^dag = A = A^2) and h satisfies
    h = A h A; the complement I - A is always derived, never stored.
    """

    A: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        A = _as_square(self.A)
        h = _as_square(self.h, A.shape[0])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "h", h)
        # a non-finite A or h gives NaN residuals, which fail the check
        with np.errstate(invalid="ignore", over="ignore"):
            rep = self.residuals()
        bad = [k for k, v in rep.items() if not (v <= ALGEBRAIC_TOL)]
        if bad:
            raise ValueError(f"boundary condition invariants violated: {rep}")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def A_perp(self) -> np.ndarray:
        return np.eye(self.dim) - self.A

    def residuals(self) -> dict:
        """Invariant residuals: idempotency, Hermiticity, h = AhA."""
        A, h = self.A, self.h
        return {
            "idempotent": matnorm(A @ A - A),
            "hermitian": matnorm(A.conj().T - A),
            "h_compressed": matnorm(A @ h @ A - h),
        }


def _node_index(grid, x: float) -> int:
    """Index of x on a uniform grid; ValueError if x is not a node."""
    i = int(round((x - grid[0]) / (grid[1] - grid[0])))
    if not (0 <= i < grid.size) or abs(grid[i] - x) > 1e-9:
        raise ValueError(f"x = {x} is not a grid node")
    return i


@dataclass(frozen=True)
class PotentialGrid:
    """Sampled n x n matrix potential Q on a uniform grid [0, x_max].

    The potential is treated as identically zero beyond x_max.  The node
    count must be odd and >= 3 so that 4th-order composite quadrature
    weights exist on every dyadic refinement.
    """

    x_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if x.ndim != 1 or x.size < 3 or x.size % 2 == 0:
            raise ValueError("grid needs an odd node count >= 3")
        if x[0] != 0.0:
            raise ValueError("grid must start at x = 0")
        dx = np.diff(x)
        if np.any(dx <= 0) or not np.allclose(dx, dx[0], rtol=1e-12, atol=1e-14):
            raise ValueError("grid must be strictly increasing and uniform")
        if v.ndim != 3 or v.shape[0] != x.size or v.shape[1] != v.shape[2]:
            raise ValueError(f"values must have shape (len(x), n, n), got {v.shape}")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    @property
    def x_max(self) -> float:
        return float(self.x_nodes[-1])

    def l1_norm(self) -> float:
        """Riemann estimate of the L1 norm, sum ||Q(x_i)|| * dx."""
        rows = np.sum(np.abs(self.values), axis=-1).max(axis=-1)
        return float(np.sum(rows) * self.dx)

    def relative_l1(self, reference: PotentialGrid) -> float:
        """||Q - reference||_1 / ||reference||_1, both by the trapezoid
        rule on this grid with reference sampled there (sample); the
        absolute distance when reference vanishes."""
        ref = reference.sample(self.x_nodes)
        err, norm = (np.trapezoid(np.abs(v).sum(axis=-1).max(axis=-1),
                                  self.x_nodes)
                     for v in (self.values - ref, ref))
        return float(err / norm) if norm > 0 else float(err)

    def sample(self, x) -> np.ndarray:
        """Q at the points x, shape x.shape + (n, n): linear interpolation
        of the real and imaginary parts of each entry, zero beyond x_max."""
        x = np.asarray(x, dtype=float)
        cols = self.values.reshape(self.x_nodes.size, -1).T
        out = [np.interp(x, self.x_nodes, c.real, right=0.0)
               + 1j * np.interp(x, self.x_nodes, c.imag, right=0.0)
               for c in cols]
        return np.stack(out, axis=-1).reshape(x.shape + self.values.shape[1:])

    def index_of(self, x: float) -> int:
        return _node_index(self.x_nodes, x)


@dataclass(frozen=True)
class MatrixWave:
    """A matrix solution sampled on the x-grid, with its x-derivative."""

    grid: np.ndarray
    value: np.ndarray
    derivative: np.ndarray
    at: SpectralPoint = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.value, dtype=complex)
        d = np.asarray(self.derivative, dtype=complex)
        if v.shape != d.shape or v.shape[0] != g.size:
            raise DimensionMismatchError(
                f"value {v.shape} / derivative {d.shape} must match grid length {g.size}"
            )
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "derivative", d)

    def index_of(self, x: float) -> int:
        return _node_index(self.grid, x)


def bracket(Zval, Zder, Yval, Yder) -> np.ndarray:
    """Wronskian-type bracket <Z, Y> = Z' Y - Z Y'."""
    Zval = _as_square(Zval)
    n = Zval.shape[0]
    Zder = _as_square(Zder, n)
    Yval = _as_square(Yval, n)
    Yder = _as_square(Yder, n)
    return Zder @ Yval - Zval @ Yder


def apply_T(bc: BoundaryCondition, Y0, Y0der) -> np.ndarray:
    """Boundary functional T(Y) = A(Y'(0) - h Y(0)) - (I - A) Y(0).

    Y0 and Y0der may also be stacks (..., n, n) of boundary values."""
    Y0 = _as_square(Y0, bc.dim, stacked=True)
    Y0der = _as_square(Y0der, bc.dim, stacked=True)
    return bc.A @ (Y0der - bc.h @ Y0) - bc.A_perp @ Y0


# -- small scalar helpers ---------------------------------------------------

_SMALL = 1e-4


def sinc(z):
    """sin(z)/z, stable near z = 0 (series for |z| < 1e-4)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _SMALL
    zs = z[small]
    out[small] = 1.0 - zs * zs / 6.0 + zs ** 4 / 120.0
    zb = z[~small]
    out[~small] = np.sin(zb) / zb
    return out if out.ndim else complex(out)


def sin_over(a, x):
    """sin(a*x)/a with the removable singularity at a = 0 (-> x)."""
    a = np.asarray(a, dtype=complex)
    return x * sinc(a * x)


# -- 4th-order cumulative quadrature ---------------------------------------

def _em_correction(f, dx):
    # Euler-Maclaurin endpoint-derivative term; a 2nd-order derivative
    # estimate suffices to keep the composite rule at O(dx^4).
    return np.gradient(f, dx, axis=0, edge_order=2)


def tail_integrals(f, dx):
    """All suffix integrals I_i = int_{x_i}^{x_end} f dt of sampled f.

    Trapezoid with Euler-Maclaurin endpoint correction (4th order for
    smooth integrands).  Works on arrays with trailing matrix axes.
    """
    f = np.asarray(f, dtype=complex)
    pair = 0.5 * dx * (f[:-1] + f[1:])
    out = np.zeros_like(f)
    out[:-1] = np.cumsum(pair[::-1], axis=0)[::-1]
    fp = _em_correction(f, dx)
    out -= (dx * dx / 12.0) * (fp[-1] - fp)
    out[-1] = 0.0
    return out


def prefix_integrals(f, dx):
    """All prefix integrals I_i = int_0^{x_i} f dt of sampled f."""
    f = np.asarray(f, dtype=complex)
    pair = 0.5 * dx * (f[:-1] + f[1:])
    out = np.zeros_like(f)
    out[1:] = np.cumsum(pair, axis=0)
    fp = _em_correction(f, dx)
    out -= (dx * dx / 12.0) * (fp - fp[0])
    out[0] = 0.0
    return out
