"""Constructors for the compactly supported test potentials.

Every function returns a PotentialGrid sampled on a uniform grid over
[0, x_max].  Matrix-valued potentials are a scalar profile times a fixed
coupling matrix unless tabulated directly.  The zero potential is
forward.zero_potential.
"""

from __future__ import annotations

import numpy as np

from .core import PotentialGrid

__all__ = ["box", "gaussian", "from_table"]


def _profile_to_grid(profile, coupling, x_max, nodes):
    coupling = np.atleast_2d(np.asarray(coupling, dtype=complex))
    x = np.linspace(0.0, x_max, nodes)
    values = profile(x)[:, None, None] * coupling[None, :, :]
    return PotentialGrid(x_nodes=x, values=values)


def box(coupling, x_cut: float, x_max: float, nodes: int = 201) -> PotentialGrid:
    """Q(x) = coupling for x <= x_cut, zero beyond.

    coupling may be a scalar (n = 1) or an n x n matrix.
    """
    if not 0 < x_cut < x_max:
        raise ValueError("need 0 < x_cut < x_max")
    return _profile_to_grid(
        lambda x: (x <= x_cut).astype(float), coupling, x_max, nodes
    )


def gaussian(coupling, center: float, width: float, x_max: float,
             nodes: int = 201) -> PotentialGrid:
    """Q(x) = coupling * exp(-((x-center)/width)^2), truncated at x_max.

    The tail beyond x_max is dropped; choose x_max several widths past
    the center so the truncation error sits below the quadrature error.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    return _profile_to_grid(
        lambda x: np.exp(-(((x - center) / width) ** 2)), coupling, x_max, nodes
    )


def from_table(x_nodes, values) -> PotentialGrid:
    """Wrap tabulated samples; scalars are promoted to 1 x 1 matrices."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None, None]
    return PotentialGrid(x_nodes=np.asarray(x_nodes, dtype=float), values=values)
