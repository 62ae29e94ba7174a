"""Convergence-rate studies at integer Sobolev indices.

Smooth solutions on the square converge at the full rates (energy 1.0,
post-processed L2 rate 2.0); the reentrant corner of the L-shape limits
the second-order energy rate to the corner exponent 2/3, and the rate of
the post-processed L2 error to min(2*sigma, 1 + sigma) = 4/3.

The fourth-order L-shape study with f = 1 is included to show its
preasymptotic behavior: the uniform-refinement rate at desk scale sits
near 0.9 and *rises* with level, because any fourth-order solution
compatible with the clamped outer boundary carries a smooth component
whose first-order error term dominates the corner term (exponent ~0.544)
until h is far below practical mesh sizes.
"""

from ncfem.experiments import run_rate_study

for problem, levels in [
    ("square-smooth-m1", 5),
    ("square-smooth-m2", 4),
    ("lshape-singular-m1", 5),
    ("lshape-f1-m2", 4),
]:
    table = run_rate_study(problem, levels)
    print(f"{problem} ({table['scheme']} scheme):")
    print("  level  ndof      hmax        " + "  ".join(f"{n:>12s}" for n in table["norms"]))
    for row in table["rows"]:
        errs = "  ".join(f"{row['errors'][n]:12.4e}" for n in table["norms"])
        print(f"  {row['level']:5d}  {row['ndof']:7d}  {row['hmax']:.4e}  {errs}")
    for name in table["norms"]:
        rates = ", ".join(f"{r:.3f}" for r in table["rates"][name]["rates"])
        print(f"  rate {name}: {rates}")
    if table["expected_rates"]:
        print(f"  expected: {table['expected_rates']}")
    print()
