#!/usr/bin/env python3
"""Round-trip reconstruction walkthrough.

Generates Weyl-matrix data for a scalar box potential on a closed
spectral contour, forgets the potential, and reconstructs it from the
data alone:

1. sample M(lambda) on a contour that encircles the Weyl-matrix
   singularities: a small circle around the origin joined to both sides
   of the positive real axis out to a large radius R;
2. recover the boundary projector A from deep imaginary-axis tail
   samples of M;
3. solve the main integral equation by Nystrom collocation on the
   contour nodes, which yields the regular solution phi(x, lambda) of
   the unknown operator at every grid point x;
4. read off Q(x) and the vertex coupling h from the recovered phi.

The second reconstruction pass replaces the rough first-pass tail model
with one fitted to the data, which sharpens the result near x = 0.

Run:  python3 demos/02_roundtrip_reconstruction.py
      (about 2 seconds; pass --quick for a coarser, faster contour)
"""

import sys
import time

import numpy as np

from weylinv import (
    BoundaryCondition,
    InvertConfig,
    Problem,
    build_contour,
    generate_weyl_data,
    invert,
    potentials,
)

quick = "--quick" in sys.argv[1:]

# ---------------------------------------------------------------------------
# Ground truth: q(x) = 0.3 on [0, 1], zero beyond, Neumann condition.
# ---------------------------------------------------------------------------

Q_true = potentials.box(0.3, x_cut=1.0, x_max=2.0, nodes=401)
problem = Problem(
    potential=Q_true,
    bc=BoundaryCondition(A=np.array([[1.0 + 0j]]), h=np.zeros((1, 1), complex)),
)

if quick:
    contour = build_contour(r0=2.0, R=80.0, n_cut=48, n_circle=48, delta=0.0)
else:
    contour = build_contour(r0=2.0, R=200.0, n_cut=128, n_circle=64, delta=0.0)
print(f"contour: {len(contour)} nodes, circle radius {contour.r0}, "
      f"cut reaching R = {contour.R}")

t0 = time.perf_counter()
weyl = generate_weyl_data(problem, contour)
print(f"forward data generated in {time.perf_counter() - t0:.1f}s "
      f"({len(weyl.tail_samples)} tail samples)")

# ---------------------------------------------------------------------------
# Inversion: two passes over the main equation.
# ---------------------------------------------------------------------------

config = InvertConfig(x_max=2.0, x_nodes=401, passes=2)
t0 = time.perf_counter()
result = invert(weyl, config)
print(f"inversion finished in {time.perf_counter() - t0:.1f}s")

print(f"\nrecovered projector A = {result.A.real.ravel()}")
print(f"recovered coupling  h = {result.h.real.ravel()} "
      f"(true value 0)")

x = Q_true.x_nodes
q_true = Q_true.values[:, 0, 0].real
q_rec = result.Q.values[:, 0, 0].real
l1 = np.trapezoid(np.abs(q_rec - q_true), x) / np.trapezoid(np.abs(q_true), x)
print(f"relative L1 error of q: {l1:.3f}")

print("\n   x     q_true   q_rec")
for xi in (0.0, 0.25, 0.5, 0.75, 0.95, 1.05, 1.5, 2.0):
    i = int(round(xi / 2.0 * (x.size - 1)))
    print(f"{x[i]:5.2f}  {q_true[i]:7.3f}  {q_rec[i]:7.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 3.5))
    ax.plot(x, q_true, "k-", label="true q")
    ax.plot(x, q_rec, "C1--", label="recovered q")
    ax.set_xlabel("x")
    ax.set_ylabel("q(x)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("roundtrip_box.png", dpi=150)
    print("\nwrote roundtrip_box.png")
except ImportError:
    pass
