"""The best-approximation constant of the smoothed scheme, and its attainment.

The nonconforming interpolation I maps the energy space onto the discrete
space; a companion operator J goes the other way and is a right-inverse
(I(Jv) = v).  The operator norm of (1 - J) on the discrete space, called
lambda0 here, controls the quality of the scheme whose right-hand side is
composed with J: its best-approximation constant is exactly

    C_qo = sqrt(1 + lambda0^2) = ||J||.

lambda0 is computable: with A the nonconforming stiffness matrix and B the
stiffness of the companion images, lambda0^2 + 1 is the largest eigenvalue
of B x = lambda A x.  This script computes it for both element families,
then builds the explicit load that attains C_qo: taking the extremal
eigenvector v, the load F = -a(Jv, .) has exact solution u = -Jv, the
discrete solution comes out as -(1 + lambda0^2) v, and the error ratio
equals C_qo to machine precision.
"""

import numpy as np

from ncfem.experiments import run_compare
from ncfem.mesh import red_refine, unit_square_mesh
from ncfem.operators import Discretization

print("lambda0 under uniform refinement (it converges to a constant):")
for kind in ("CR1_0", "MORLEY_0"):
    mesh = unit_square_mesh(1)
    values = []
    for _ in range(4):
        values.append(Discretization(mesh, kind).lam0.lambda0)
        mesh = red_refine(mesh)
    print(f"  {kind:9s}: " + "  ".join(f"{v:.6f}" for v in values))

print()
print("Attainment of C_qo on the 8-triangle square:")
for m in (1, 2):
    report = run_compare(unit_square_mesh(2), m)["attainment"]
    lam0 = report["values"]["lambda0"]
    print(f"  m={m}: lambda0 = {lam0:.6f}, C_qo = {np.sqrt(1 + lam0**2):.6f}")
    for a in report["assertions"]:
        mark = "ok " if a["pass"] else "FAIL"
        print(f"    [{mark}] {a['name']}: deviation {a.get('deviation', 0):.2e}")
