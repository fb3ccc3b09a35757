#!/usr/bin/env python3
"""Vertex-condition dictionary walkthrough.

Self-adjoint boundary conditions at the origin of the half line are
often written in the coefficient form

    A1^dag Y'(0) - B1^dag Y(0) = 0,    A1 = (U + I)/2,  B1 = i(U - I)/2,

parameterized by a unitary matrix U. This toolkit works instead with
the equivalent projector form A(Y'(0) - h Y(0)) - A_perp Y(0) = 0.
The dictionary between the two:

* each eigenvalue of U away from -1, written -exp(-2i theta), puts its
  eigenvector into the range of A with coupling eigenvalue -cot(theta);
* the eigenspace of U at -1 becomes the Dirichlet block (kernel of A).

This script converts random unitaries, verifies the conversion by
checking that both forms annihilate exactly the same boundary data, and
shows the classical special cases U = I (Neumann) and U = -I
(Dirichlet).

Run:  python3 demos/03_vertex_conditions.py
"""

import numpy as np

from weylinv import from_unitary, matnorm, pair_from_unitary
from weylinv.core import apply_T

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# Special cases first.
# ---------------------------------------------------------------------------

for name, U in (("U = I", np.eye(3)), ("U = -I", -np.eye(3))):
    bc = from_unitary(U)
    kind = "Neumann (A = I)" if np.allclose(bc.A, np.eye(3)) else \
           "Dirichlet (A = 0)" if np.allclose(bc.A, 0) else "mixed"
    print(f"{name}: {kind}")

# ---------------------------------------------------------------------------
# A phase unitary: each channel gets its own Robin coupling -cot(theta).
# ---------------------------------------------------------------------------

thetas = np.array([0.3, 1.2])
U = np.diag(-np.exp(-2j * thetas))
bc = from_unitary(U)
print("\nphase unitary with thetas", thetas)
print("recovered A     =", np.round(bc.A.real, 10).diagonal())
print("recovered h     =", np.round(bc.h.real, 6).diagonal())
print("expected -cot   =", np.round(-1.0 / np.tan(thetas), 6))

# ---------------------------------------------------------------------------
# Random unitaries: the two forms must annihilate the same data.
# For each U we take a basis of the solution space of the coefficient
# form and push it through the projector-form functional T.
# ---------------------------------------------------------------------------

print("\nrandom unitaries, null-space agreement:")
worst = 0.0
for k in range(5):
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    U, _ = np.linalg.qr(X)
    bc = from_unitary(U)
    pair = pair_from_unitary(U)
    big = np.hstack([-pair.B1.conj().T, pair.A1.conj().T])
    _, _, Vh = np.linalg.svd(big)
    null = Vh[3:].conj().T
    y, yp = null[:3], null[3:]
    resid = matnorm(apply_T(bc, y, yp))
    checks = bc.residuals()
    print(f"  #{k}: |T(null basis)| = {resid:.2e}, "
          f"projector defect {checks['idempotent']:.1e}, "
          f"coupling compression defect {checks['h_compressed']:.1e}")
    worst = max(worst, resid)
print(f"worst residual: {worst:.2e}")
