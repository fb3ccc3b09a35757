"""Quadrature contour in the lambda plane.

The contour gamma is a circle of radius r0 around the origin (enclosing
every Weyl-matrix singularity of both the true and the model problem)
joined with a two-sided cut along the positive real axis from r0 out to a
truncation radius R.  Traversal order: upper side of the cut inward from
R to r0, the circle counterclockwise, then the lower side outward from r0
back to R.  With this orientation

    (1/2 pi i) int_gamma d mu / (mu - lam0) = 1    for lam0 inside the circle,
    so f analytic inside is reproduced by the Cauchy transform there.

The cut is regularized by a small imaginary offset delta; each side then
carries the rho value with Im rho > 0, which lands on the correct sheet
automatically (Re rho > 0 above the cut, Re rho < 0 below).  delta = 0 is
supported through explicit sheet tags.  Cut nodes are spaced uniformly in
sqrt(Re lambda) so the oscillatory kernels stay resolved at large |lambda|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, DomainError, SpectralPoint

__all__ = ["ContourNode", "Contour", "build_contour", "coarsen_contour",
           "extension_nodes", "integrate", "cauchy_transform"]

SEGMENTS = ("circle", "upper_cut", "lower_cut")


@dataclass(frozen=True)
class ContourNode:
    """One quadrature node: spectral point, d-lambda weight, segment tag."""

    point: SpectralPoint
    weight: complex
    segment: str

    def __post_init__(self):
        if self.segment not in SEGMENTS:
            raise ValueError(f"unknown segment {self.segment!r}")
        w = complex(self.weight)
        if not np.isfinite(w) or w == 0:
            raise ValueError("weight must be finite and nonzero")
        object.__setattr__(self, "weight", w)


def _delta(r0, delta):
    """The cut offset delta, 1e-3 r0 when None."""
    return 1e-3 * r0 if delta is None else delta


@dataclass(frozen=True)
class Contour:
    """Ordered quadrature nodes realizing the truncated contour; a delta
    of None takes build_contour's default.  Every node lies in the disk
    the cut spans, |lambda| <= |R + i delta|; a node outside it raises
    DomainError."""

    r0: float
    R: float
    delta: float
    nodes: tuple

    def __post_init__(self):
        if not (0 < self.r0 < self.R):
            raise ValueError("need 0 < r0 < R")
        object.__setattr__(self, "delta", _delta(self.r0, self.delta))
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if len(self.nodes) < 64:
            raise ValueError("need at least 64 nodes")
        # the cut ends at R +- i delta, the farthest point of the contour
        bound = abs(complex(self.R, self.delta))
        lams = self.lambdas
        with np.errstate(over="ignore"):
            far = np.flatnonzero(np.abs(lams) > bound * (1 + 1e-9))
        if far.size:
            raise DomainError(f"contour node {far[0]} at lambda = "
                              f"{lams[far[0]]:.6g} lies outside |lambda| <= "
                              f"|R + i delta| = {bound:.6g}")

    def __len__(self):
        return len(self.nodes)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([nd.point.lam for nd in self.nodes])

    @property
    def rhos(self) -> np.ndarray:
        return np.array([nd.point.rho for nd in self.nodes])

    @property
    def weights(self) -> np.ndarray:
        return np.array([nd.weight for nd in self.nodes])

    @property
    def segments(self) -> tuple:
        return tuple(nd.segment for nd in self.nodes)


def _param_weights(mu_prime, h):
    """Trapezoid weights in a uniform parameter with endpoint correction.

    For int f(mu) d mu = int f(mu(t)) mu'(t) dt over t with step h, the
    composite trapezoid is corrected by (h^2/12)(g'(a) - g'(b)) with
    g = f mu' and one-sided 2nd-order difference estimates of g', which
    stays linear in the samples and restores 4th-order accuracy.
    """
    mu_prime = np.asarray(mu_prime, dtype=complex)
    w = h * mu_prime.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    c = h / 24.0
    w[0] += -3.0 * c * mu_prime[0]
    w[1] += 4.0 * c * mu_prime[1]
    w[2] += -1.0 * c * mu_prime[2]
    w[-1] += -3.0 * c * mu_prime[-1]
    w[-2] += 4.0 * c * mu_prime[-2]
    w[-3] += -1.0 * c * mu_prime[-3]
    return w


def _mirror_fill(first, size, negate=False, axis=0):
    """The mirror layout of size entries along axis, completed from its
    first ceil(size/2) entries: entry size-1-k is the conjugate of entry
    k, negated for rho and weights (rho -> -conj rho under lambda ->
    conj lambda) but not for lambda or samples.  An odd size's middle
    entry is the last of first, as given.  build_contour,
    extension_nodes and scan_jost_zeros lay their grids out with it, and
    the inverse completes its half evaluations with it."""
    tail = np.take(first, np.arange(size // 2)[::-1], axis=axis).conj()
    return np.concatenate([first, -tail if negate else tail], axis=axis)


def _is_mirror(full, negate=False, axis=0) -> bool:
    """Whether full is in _mirror_fill's layout along axis, bit for bit,
    its middle entry included."""
    mirror = np.flip(full, axis).conj()
    return bool(np.array_equal(full, -mirror if negate else mirror))


def _cut_sides(sig, h, delta):
    """The rhos and weights (2m,) of both cut sides on the grid
    sig = sqrt(Re lambda) of step h (m nodes): the upper side inward
    (lambda + i delta), with endpoint-corrected trapezoid weights, then
    the lower side outward (lambda - i delta), laid out as its mirror
    (_mirror_fill).  Im rho >= 0 on the upper side, which at delta = 0
    is the upper sheet rho = +sqrt(lambda)."""
    sg = sig[::-1]
    rho = np.sqrt(sg ** 2 + 1j * delta)
    w = _param_weights(-2.0 * sg, h)
    return tuple(_mirror_fill(np.stack([rho, w]), 2 * sg.size, negate=True,
                              axis=1))


def extension_nodes(contour: Contour, factor: float):
    """Synthetic cut nodes continuing both sides from R out to factor^2 R.

    Returns (rhos, weights) continuing the data cut's uniform-in-sqrt(s)
    spacing, ordered like the contour (upper side inward first, then the
    lower side outward), with endpoint-corrected trapezoid weights, in
    the mirror layout (_mirror_fill).
    """
    n_cut = contour.segments.count("upper_cut")
    sig_R = np.sqrt(contour.R)
    h_sig = (sig_R - np.sqrt(contour.r0)) / (n_cut - 1)
    sig_max = factor * sig_R
    m = max(8, int(np.ceil((sig_max - sig_R) / h_sig)) + 1)
    sig = sig_R + h_sig * np.arange(m)
    return _cut_sides(sig, h_sig, contour.delta)


def build_contour(r0: float, R: float, delta: float = None,
                  n_circle: int = 64, n_cut: int = 128) -> Contour:
    """Build the truncated contour with trapezoid weights per segment.

    delta defaults to 1e-3 * r0.  The total node count is
    n_circle + 2 * n_cut.  The contour is its own mirror image under
    lambda -> conj lambda, bit for bit: the cut sides and the circle are
    laid out by _mirror_fill, so node k from the end is the conjugate of
    node k (rho -> -conj rho) and carries the weight -conj w; for an odd
    n_circle the theta = pi node is -r0 exactly.  For real Q the forward
    solver then marches one point per mirror pair.
    """
    if not (0 < r0 < R):
        raise ValueError("need 0 < r0 < R")
    if n_circle < 32 or n_cut < 32:
        raise ValueError("need n_circle >= 32 and n_cut >= 32")
    delta = _delta(r0, delta)    # Contour rejects delta < 0

    # uniform in sqrt(s): resolves kernels oscillating in tau = sqrt(mu)
    sig = np.linspace(np.sqrt(r0), np.sqrt(R), n_cut)
    rho_cut, w_cut = _cut_sides(sig, sig[1] - sig[0], delta)

    theta0 = np.arcsin(min(delta / r0, 1.0)) if delta > 0 else 0.0
    theta = np.linspace(theta0, 2.0 * np.pi - theta0, n_circle)
    # the lower half is laid out as the upper half's mirror, as
    # r0 exp(i theta) is mirrored only to rounding; the upper half's
    # principal roots have Im rho >= 0, and at delta = 0 its theta = 0
    # node takes the upper cut side's sheet, rho = +sqrt(r0)
    lam_half = r0 * np.exp(1j * theta[:(n_circle + 1) // 2])
    if n_circle % 2:
        lam_half[-1] = -r0
    w_circ = _param_weights(1j * _mirror_fill(lam_half, n_circle),
                            theta[1] - theta[0])
    rho_circ = _mirror_fill(np.sqrt(lam_half), n_circle, negate=True)

    rhos = np.concatenate([rho_cut[:n_cut], rho_circ, rho_cut[n_cut:]])
    weights = np.concatenate([w_cut[:n_cut], w_circ, w_cut[n_cut:]])
    segs = (("upper_cut",) * n_cut + ("circle",) * n_circle
            + ("lower_cut",) * n_cut)
    nodes = tuple(ContourNode(point=SpectralPoint(r), weight=w, segment=s)
                  for r, w, s in zip(rhos, weights, segs))
    return Contour(r0=float(r0), R=float(R), delta=float(delta), nodes=nodes)


def coarsen_contour(contour: Contour, mode: str):
    """A coarser contour for self-convergence estimates, and the indices
    of the nodes of contour that it keeps.

    mode "nodes" keeps every other node of each segment (double spacing,
    same truncation radius); mode "radius" keeps the cut nodes with
    sigma = sqrt(Re lambda) <= sqrt(R / 2) (about half the truncation
    radius at unchanged spacing).  The result is build_contour's for the
    coarse parameters, so its weights are laid out afresh and its floors
    hold (32 nodes on the circle and on each cut side).  Raises
    ValueError for an unknown mode, a segment with an even node count in
    mode "nodes", coarse parameters build_contour rejects, or a contour
    whose kept nodes are not the rebuilt ones (one build_contour did not
    lay out).
    """
    segs = np.array(contour.segments)
    idx = {s: np.flatnonzero(segs == s) for s in SEGMENTS}
    n_circle, n_cut = idx["circle"].size, idx["upper_cut"].size
    if mode == "nodes":
        if n_circle % 2 == 0 or n_cut % 2 == 0:
            raise ValueError("halving the nodes needs odd node counts")
        keep = {s: ii[::2] for s, ii in idx.items()}
        params = dict(R=contour.R, n_circle=n_circle // 2 + 1,
                      n_cut=n_cut // 2 + 1)
    elif mode == "radius":
        lo = idx["lower_cut"]
        sig = np.sqrt(contour.lambdas[lo].real)
        m = int(np.searchsorted(sig, sig[-1] / np.sqrt(2.0), side="right"))
        keep = {"upper_cut": idx["upper_cut"][n_cut - m:],
                "circle": idx["circle"], "lower_cut": lo[:m]}
        params = dict(R=float(sig[m - 1] ** 2), n_circle=n_circle, n_cut=m)
    else:
        raise ValueError(f"unknown coarsening mode {mode!r}")
    keep = np.concatenate([keep[s] for s in ("upper_cut", "circle", "lower_cut")])
    coarse = build_contour(contour.r0, delta=contour.delta, **params)
    if not np.allclose(coarse.rhos, contour.rhos[keep], rtol=1e-12, atol=0.0):
        raise ValueError("the kept nodes are not build_contour's for the "
                         "coarse parameters")
    return coarse, keep


def integrate(contour: Contour, samples):
    """Sum of samples_k * weight_k over the contour; samples is one scalar
    or matrix per node."""
    samples = np.asarray(samples)
    if samples.shape[0] != len(contour):
        raise DimensionMismatchError(
            f"{samples.shape[0]} samples for {len(contour)} nodes"
        )
    w = contour.weights
    w = w.reshape((-1,) + (1,) * (samples.ndim - 1))
    return np.sum(samples * w, axis=0)


def cauchy_transform(contour: Contour, samples, lam: complex):
    """(1/2 pi i) int_gamma f(mu) / (mu - lam) d mu for sampled f.

    For lam enclosed by the circle and f analytic between the contour and
    the truncation radius, this reproduces f(lam); far outside the
    contour it decays with the truncation.
    """
    lams = contour.lambdas
    samples = np.asarray(samples)
    kern = 1.0 / (lams - lam)
    kern = kern.reshape((-1,) + (1,) * (samples.ndim - 1))
    return integrate(contour, samples * kern) / (2j * np.pi)
