"""Guaranteed a posteriori error bounds with explicit constants.

The bounds need no jump terms: the error splits through the companion
image J u of the discrete solution into a conforming part and the
computable companion defect |||u_nc - J u_nc|||.  All constants are
explicit (the interpolation constants kappa_m, and lambda0 from the
defect eigenproblem).  On problems with a known solution the measured
errors never exceed the bounds; the efficiency index stays bounded under
refinement.
"""

from ncfem.estimator import efficiency_terms, estimate_modified, estimate_original
from ncfem.mesh import red_refine
from ncfem.operators import Discretization
from ncfem.problems import get_problem

prob = get_problem("square-smooth-m1")
mesh = prob.base_mesh()
print(f"{prob.name}: natural scheme bounds vs measured split errors")
print("  level  bound_a     measured    bound_b     measured    eff.index")
for lvl in range(4):
    disc = Discretization(mesh, "CR1_0")
    data = prob.data(mesh)
    u = disc.solve(disc.rhs("original", data))
    est = estimate_original(disc, data, u, reference=prob.reference())
    eff = efficiency_terms(disc.space, data, prob.reference())
    me = est["measured_errors"]
    print(
        f"  {lvl:5d}  {est['bounds']['bound_a']:.4e}  {me['split_a']:.4e}"
        f"  {est['bounds']['bound_b']:.4e}  {me['split_b']:.4e}"
        f"  {eff['efficiency_index']:.3f}"
    )
    mesh = red_refine(mesh)

print()
prob = get_problem("square-smooth-m2")
mesh = red_refine(prob.base_mesh())
disc = Discretization(mesh, "MORLEY_0")
data = prob.data(mesh)
u = disc.solve(disc.rhs("modified", data))
est = estimate_modified(disc, data, u, reference=prob.reference())
print(f"{prob.name}: smoothed scheme (lambda0 = {est['constants']['lambda0']:.3f}, "
      f"policy: {est['constants']['lambda_j_policy']})")
print(f"  |||u - J u_nc|||  <= {est['bounds']['bound_a']:.4e}"
      f"   measured {est['measured_errors']['energy_conf']:.4e}")
print(f"  |||u - u_nc|||_pw <= {est['bounds']['bound_b']:.4e}"
      f"   measured {est['measured_errors']['energy_pw']:.4e}")
