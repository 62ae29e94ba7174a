"""Scripted reproductions of the exact discrete identities and rate laws.

Every run returns a JSON-ready report with named assertions (value,
target, tolerance, pass flag) so the command line can relay failures via
its exit code; computations are deterministic under the recorded seed.
"""

from __future__ import annotations

import datetime

import numpy as np
import scipy.sparse as sp

from . import assembly, linalg
from .estimator import estimate_modified, estimate_original
from .fespace import FeFunction, build_space, nc_kind
from .fields import fe_derivative, fe_rotated_gradient, sym_curl_of_pair, sym_gradient_of_pair
from .mesh import red_refine
from .norms import convergence_rate, error_norms, errors_vs_fine
from .operators import Discretization, companion, interpolate
from .problems import get_problem
from .quadrature import Cell, ordered_map

__all__ = [
    "run_compare",
    "run_counterexample_cr",
    "run_counterexample_morley",
    "run_oscillation_example",
    "run_rate_study",
    "rate_csv",
]

# tolerance of every exact identity, recorded with each assertion
TOL = 1e-8
# the refinement levels a rate study may run
RATE_LEVELS = range(2, 8)
# the most dofs a rate study solves on, at any level or in its fine-grid reference
DOF_CAP = 400_000
# red refinements of the fine-grid reference below a study's finest level
REFERENCE_EXTRA_LEVELS = 2


def _mesh_info(mesh, mesh_id=None):
    return {
        "id": mesh_id,
        "n_vertices": int(mesh.n_vertices),
        "n_edges": int(mesh.n_edges),
        "n_triangles": int(mesh.n_triangles),
        "h_max": float(mesh.diameter.max()),
    }


def _report(experiment, mesh, m, seed, mesh_id=None):
    return {
        "schema": "ncfem-report-v1",
        "experiment": experiment,
        "m": m,
        "mesh": _mesh_info(mesh, mesh_id),
        "seed": seed,
        "values": {},
        "assertions": [],
        "passed": True,
    }


def _record(report, ok, **entry):
    """Append a named assertion with its pass flag `ok`; return the flag."""
    ok = bool(ok)
    report["assertions"].append({**entry, "pass": ok})
    report["passed"] = report["passed"] and ok
    return ok


def _assert(report, name, value, target, tol, relative=True):
    value = float(value)
    target = float(target)
    err = abs(value - target)
    if relative:
        err /= max(abs(target), 1.0)
    return _record(report, err <= tol, name=name, value=value, target=target,
                   deviation=err, tol=tol, relative=relative)


def _assert_le(report, name, value, bound):
    return _record(report, value <= bound, name=name, value=float(value), bound=float(bound))


def _assert_ge(report, name, value, bound):
    return _record(report, value >= bound, name=name, value=float(value),
                   lower_bound=float(bound))


def run_compare(mesh, m, seed=0, mesh_id=None):
    """Scheme comparison with the attainment report under ``"attainment"``,
    on one companion and one lambda0 eigensolve; passes when both pass."""
    disc = Discretization(mesh, nc_kind(m))
    report = _scheme_comparison(disc, seed, mesh_id)
    report["attainment"] = _attainment(disc, seed, mesh_id)
    report["passed"] = report["passed"] and report["attainment"]["passed"]
    return report


def _attainment(disc, seed, mesh_id):
    """Exact attainment of the best-approximation constant.

    The extremal eigenfunction v of the defect eigenproblem defines the
    load F = -a(Jv, .) whose exact solution is -Jv; the smoothed scheme
    then returns -(1 + lambda0^2) v, and the error/interpolation-error
    ratio equals sqrt(1 + lambda0^2) exactly.
    """
    mesh, space, res = disc.mesh, disc.space, disc.lam0
    m = space.m
    lam0 = res.lambda0
    v = res.extremal_vector
    report = _report("attainment", mesh, m, seed, mesh_id)
    report["values"]["lambda0"] = lam0
    report["values"]["c_qo"] = res.c_qo
    report["values"]["eigen_residual"] = res.residual

    rhs = -(res.B @ v.coeffs)
    u_nc = disc.solve(rhs)
    u = companion(disc.cmap, v)
    u = FeFunction(u.space, -u.coeffs)

    scale = np.abs(u_nc.coeffs).max()
    dev = np.abs(u_nc.coeffs + (1.0 + lam0**2) * v.coeffs).max() / scale
    _assert(report, "coefficients u_nc = -(1+lambda0^2) v", dev, 0.0, TOL, relative=False)

    iu = interpolate(space, u)
    e_pw, e_int = (
        b.energy_pw for b in error_norms([(u_nc, (m,)), (iu, (m,))], reference=u)
    )
    _assert(report, "energy error equals lambda0*sqrt(1+lambda0^2)",
            e_pw, lam0 * np.sqrt(1.0 + lam0**2), TOL)
    _assert(report, "interpolation error equals lambda0", e_int, lam0, TOL)

    ratio = e_pw / e_int
    _assert(report, "ratio equals sqrt(1+lambda0^2)", ratio, np.sqrt(1.0 + lam0**2), TOL)
    _assert(report, "ratio^2 - 1 - lambda0^2", ratio**2 - 1.0 - lam0**2, 0.0, TOL,
            relative=False)

    if space.ndofs <= 200:
        x_dense = np.linalg.solve(disc.A.toarray(), rhs)
        dev_dense = np.abs(x_dense - u_nc.coeffs).max() / scale
        _assert(report, "dense brute-force solve agrees", dev_dense, 0.0, 1e-10,
                relative=False)
    return report


def _scheme_comparison(disc, seed, mesh_id):
    """Data built from the extremal defect function separates the schemes.

    With tensor data equal to the m-th derivative of the companion image
    of the extremal function z, the natural scheme reproduces the
    interpolant exactly while the smoothed scheme misses it by exactly
    lambda0^2 in energy.
    """
    mesh, space, res = disc.mesh, disc.space, disc.lam0
    m = space.m
    lam0 = res.lambda0
    z = res.extremal_vector
    jz = companion(disc.cmap, z)
    G = fe_derivative(jz, m)
    data = assembly.RhsData(G=G)

    report = _report("scheme-comparison", mesh, m, seed, mesh_id)
    report["values"]["lambda0"] = lam0

    u_org = disc.solve(disc.rhs("original", data))
    u_mod = disc.solve(disc.rhs("modified", data))

    iu = interpolate(space, jz)
    scale = max(np.abs(u_org.coeffs).max(), 1.0)
    dev_a = np.abs(u_org.coeffs - iu.coeffs).max() / scale
    _assert(report, "(a) natural solution equals the interpolant", dev_a, 0.0, TOL,
            relative=False)
    dev_a2 = np.abs(u_org.coeffs - z.coeffs).max() / scale
    _assert(report, "(a') natural solution equals z", dev_a2, 0.0, TOL, relative=False)

    diff = FeFunction(space, u_org.coeffs - u_mod.coeffs)
    e_diff = error_norms(diff, orders=(m,)).energy_pw
    _assert(report, "(b) scheme gap equals lambda0^2", e_diff, lam0**2, TOL)

    e_mod = error_norms(u_mod, reference=jz, orders=(m,)).energy_pw
    _assert(report, "(c) squared error equals lambda0^2 (1+lambda0^2)",
            e_mod**2, lam0**2 * (1.0 + lam0**2), TOL)

    g_osc_dist = assembly.oscillation(G, 0, mesh)
    _assert(report, "tensor-data oscillation equals lambda0", g_osc_dist, lam0, TOL)
    comparison_ratio = (e_diff / lam0) / g_osc_dist if lam0 > 0 else 0.0
    _assert_le(report, "scheme-gap bound holds with equality", comparison_ratio,
               1.0 + TOL)

    # the per-triangle constant part of the data is the derivative of z itself
    proj = assembly.l2_project(G, 0, mesh)
    dev_proj = np.abs(proj.coeffs[:, 0] - _at_centroids(fe_derivative(z, m), mesh)).max()
    _assert(report, "P0 projection of the data equals D^m z", dev_proj, 0.0, 1e-9,
            relative=False)
    return report


def _at_centroids(fld, mesh):
    """A field derived from finite element functions on `mesh`, sampled at
    each triangle's centroid: (F,) + fld.shape."""
    centroid = Cell(np.arange(mesh.n_triangles), 0, 1, np.full((1, 3), 1 / 3), None, None, None)
    return fld.eval_batch(centroid)[:, 0]


def _constrained_solver(K, C):
    """Solver of K x = f under C' x = 0, through the saddle-point matrix
    [[K, C], [C', 0]]; returns f -> x with the multipliers dropped, and raises
    RuntimeError when a solve misses ``linalg.check_solution``'s rule."""
    n, n_mult = C.shape
    C = sp.csr_matrix(C)
    saddle = sp.bmat([[K, C], [C.T, None]]).tocsr()
    lu = linalg.factor(saddle)

    def solve(f):
        x, rep = linalg.solve_spd(saddle, np.concatenate([f, np.zeros(n_mult)]), lu=lu)
        if not rep.converged:
            raise RuntimeError(f"saddle-point solve failed: residual {rep.residual:.2e}")
        return x[:n]

    return solve


def _first_nonconforming_direction(stiff_nc, riesz_map, kkt_solve, n_candidates):
    """First basis function with positive energy distance to the conforming
    subspace; returns (coefficients, energy) or (None, 0)."""
    for j in range(n_candidates):
        beta = np.zeros(stiff_nc.shape[0])
        beta[j] = 1.0
        f = riesz_map.T @ (stiff_nc @ beta)
        x = kkt_solve(f)
        b = beta - riesz_map @ x
        energy = float(b @ (stiff_nc @ b))
        if energy > 1e-10:
            return b, energy
    return None, 0.0


def _only_natural_scheme_fails(report, disc, data, rhs_tol):
    """The smoothed load and solution vanish; the natural solution has unit energy."""
    rhs_mod = disc.rhs("modified", data)
    rhs_org = disc.rhs("original", data)
    rhs_scale = max(np.abs(rhs_org).max(), 1e-30)
    _assert(report, "smoothed right-hand side vanishes",
            np.abs(rhs_mod).max() / rhs_scale, 0.0, rhs_tol, relative=False)
    energy = (disc.space.m,)
    _assert(report, "smoothed solution vanishes",
            error_norms(disc.solve(rhs_mod), orders=energy).energy_pw, 0.0, TOL,
            relative=False)
    _assert(report, "natural solution has unit energy",
            error_norms(disc.solve(rhs_org), orders=energy).energy_pw, 1.0, TOL)


def run_counterexample_cr(mesh, seed=0, mesh_id=None):
    """Natural right-hand side without best-approximation (second order).

    A Crouzeix-Raviart function orthogonal to the continuous P1 space is
    smoothed and rotated into divergence-free tensor data; the exact
    solution is zero, the smoothed scheme returns zero, but the natural
    scheme returns a discrete solution of unit energy.
    """
    report = _report("counterexample-cr", mesh, 1, seed, mesh_id)
    full = Discretization(mesh, "CR1_full")
    R = assembly.p1_to_cr(mesh)
    K = assembly.p1_stiffness(mesh)
    solve = _constrained_solver(K, np.ones((mesh.n_vertices, 1)))
    b_coeffs, energy = _first_nonconforming_direction(full.A, R, solve, full.space.ndofs)
    if b_coeffs is None:
        report["degenerate"] = True
        report["values"]["note"] = "every CR function is continuous on this mesh"
        return report
    b_coeffs = b_coeffs / np.sqrt(energy)
    ortho = np.abs(R.T @ (full.A @ b_coeffs)).max()
    report["values"]["p1_orthogonality_residual"] = float(ortho)
    b = FeFunction(full.space, b_coeffs)

    jb = companion(full.cmap, b)
    G = fe_rotated_gradient(jb)
    data = assembly.RhsData(G=G)

    _only_natural_scheme_fails(report, Discretization(mesh, "CR1_0"), data, 1e-10)

    # P0 part of the data is the rotated piecewise gradient of the seed
    proj = assembly.l2_project(G, 0, mesh)
    curl_b = _at_centroids(fe_rotated_gradient(b), mesh)
    _assert(report, "P0 projection equals rotated gradient of the seed",
            np.abs(proj.coeffs[:, 0] - curl_b).max(), 0.0, 1e-10, relative=False)
    report["values"]["G_osc"] = assembly.oscillation(G, 0, mesh)
    return report


def run_counterexample_morley(mesh, seed=0, mesh_id=None):
    """Natural right-hand side without best-approximation (fourth order).

    A vector Crouzeix-Raviart field whose symmetric gradient is orthogonal
    to the continuous strains (rigid motions factored out) produces
    tensor data orthogonal to all Hessians; again u = 0 and the natural
    Morley solution has unit energy.
    """
    report = _report("counterexample-morley", mesh, 2, seed, mesh_id)
    E, V = mesh.n_edges, mesh.n_vertices
    full = Discretization(mesh, "CR1_full")
    K_cr = assembly.eps_stiffness_cr_vector(full.space)
    K_p1 = assembly.eps_stiffness_p1_vector(mesh)
    R = assembly.p1_to_cr(mesh)
    R2 = sp.block_diag([R, R], format="csr")
    verts = mesh.vertices
    C = np.zeros((2 * V, 3))
    C[:V, 0] = 1.0
    C[V:, 1] = 1.0
    C[:V, 2] = verts[:, 1]
    C[V:, 2] = -verts[:, 0]
    solve = _constrained_solver(K_p1, C)
    b_coeffs, energy = _first_nonconforming_direction(K_cr, R2, solve, 2 * E)
    if b_coeffs is None:
        report["degenerate"] = True
        return report
    b_coeffs = b_coeffs / np.sqrt(energy)
    ortho = np.abs(R2.T @ (K_cr @ b_coeffs)).max()
    report["values"]["strain_orthogonality_residual"] = float(ortho)

    b1 = FeFunction(full.space, b_coeffs[:E])
    b2 = FeFunction(full.space, b_coeffs[E:])
    jb1 = companion(full.cmap, b1)
    jb2 = companion(full.cmap, b2)
    neg_jb1 = FeFunction(jb1.space, -jb1.coeffs)
    G = sym_curl_of_pair(jb2, neg_jb1)
    data = assembly.RhsData(G=G)

    # rotation identity: |sym Curl (phi2, -phi1)| = |eps(phi)| pointwise
    eps = sym_gradient_of_pair(jb1, jb2)
    nG = assembly.weighted_field_l2(G, mesh)
    nE_ = assembly.weighted_field_l2(eps, mesh)
    _assert(report, "rotation identity |G| = |strain(Jb)|", nG, nE_, 1e-11)

    _only_natural_scheme_fails(report, Discretization(mesh, "MORLEY_0"), data, 1e-9)

    # P0 projection equals the rotated piecewise gradient of the seed field:
    # sym Curl (b2, -b1), which matches the strain of b in norm, not entrywise
    proj = assembly.l2_project(G, 0, mesh)
    pw = _at_centroids(sym_curl_of_pair(b2, FeFunction(full.space, -b1.coeffs)), mesh)
    _assert(report, "P0 projection equals the rotated seed gradient",
            np.abs(proj.coeffs[:, 0] - pw).max(), 0.0, 1e-10, relative=False)
    report["values"]["G_osc"] = assembly.oscillation(G, 0, mesh)
    return report


def run_oscillation_example(mesh, seed=0, mesh_id=None):
    """Dominating data oscillations: zero error, order-one estimator.

    A continuous P1 vector field is enriched with volume bubbles that
    leave all edge integrals unchanged; its rotated symmetric gradient is
    tensor data with vanishing discrete solutions for both schemes while
    the data-oscillation term stays at a fixed positive value.
    """
    rng = np.random.default_rng(seed)
    report = _report("oscillation-example", mesh, 2, seed, mesh_id)
    host = build_space(mesh, "COMPANION_CR_full")
    V, F = mesh.n_vertices, mesh.n_triangles

    def make_component(nodal, amplitudes):
        c = np.zeros(host.ndofs)
        c[host.vertex_dof[host.vertex_dof >= 0]] = nodal
        c[host.tri_dofs[:, 0]] = amplitudes
        return FeFunction(host, c)

    nodal1, nodal2 = rng.standard_normal((2, V))
    amp1, amp2 = rng.standard_normal((2, F))
    zb1 = make_component(np.zeros(V), amp1)
    zb2 = make_component(np.zeros(V), amp2)
    bubble_osc = assembly.weighted_field_l2(sym_curl_of_pair(zb1, zb2), mesh)
    scale = 0.5 / bubble_osc  # the bubbles' share of the data norm
    z1 = make_component(nodal1, scale * amp1)
    z2 = make_component(nodal2, scale * amp2)
    G = sym_curl_of_pair(z1, z2)
    data = assembly.RhsData(G=G)

    disc = Discretization(mesh, "MORLEY_0")
    u_org = disc.solve(disc.rhs("original", data))
    u_mod = disc.solve(disc.rhs("modified", data))
    energy = (2,)
    _assert(report, "natural solution vanishes",
            error_norms(u_org, orders=energy).energy_pw, 0.0, TOL, relative=False)
    _assert(report, "smoothed solution vanishes",
            error_norms(u_mod, orders=energy).energy_pw, 0.0, TOL, relative=False)

    G_osc = assembly.oscillation(G, 0, mesh)
    report["values"]["G_osc"] = G_osc
    _assert_ge(report, "data oscillation stays bounded away from zero", G_osc, 0.1)

    est = estimate_original(disc, data, u_org)
    report["values"]["estimate_original"] = est
    _assert_ge(report, "estimator bound stays positive", est["bounds"]["bound_a"], 0.01)
    report["values"]["estimator_error_ratio"] = "unbounded (error at floor)"
    return report


def rate_csv(report):
    """The CSV table of a :func:`run_rate_study` report, under a
    ``# generated`` line that carries the time of the call."""
    norms, rates = report["norms"], report["rates"]
    lines = [f"# generated {datetime.datetime.now().isoformat(timespec='seconds')}"]
    rate_cols = [f"rate_{n}" for n in norms]
    lines.append(",".join(["level", "ndof", "hmax"] + norms + rate_cols))
    for i, row in enumerate(report["rows"]):
        vals = [str(row["level"]), str(row["ndof"]), repr(row["hmax"])]
        vals += [repr(row["errors"].get(n, float("nan"))) for n in norms]
        for n in norms:
            r = rates[n]["rates"]
            vals.append(repr(r[i - 1]) if 1 <= i <= len(r) else "")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def _fine_reference(problem, mesh):
    """Smoothed-scheme solution REFERENCE_EXTRA_LEVELS red refinements below
    `mesh`; its companion is released after the load, before the factor,
    and its Discretization is dropped on return."""
    for _ in range(REFERENCE_EXTRA_LEVELS):
        mesh = red_refine(mesh)
    disc = Discretization(mesh, nc_kind(problem.m))
    if disc.space.ndofs > DOF_CAP:
        raise ValueError(
            f"fine-grid reference needs {disc.space.ndofs} dofs, above the cap {DOF_CAP}"
        )
    load = disc.rhs("modified", problem.data(mesh))
    disc.release("cmap")
    return disc.solve(load)


def run_rate_study(
    problem_name,
    levels,
    scheme="modified",
    seed=0,
    include_estimates=False,
    h_convention="diameter",
):
    """Solve a built-in problem over a red-refinement hierarchy and fit rates.

    Returns the JSON-ready rate-table report: per-level errors (and
    estimator bounds with `include_estimates`), the fitted rates and the
    problem's expected rates; :func:`rate_csv` writes it as CSV.

    Every level is solved, then integrated, and neither stage reads another
    level.  The finest level is solved first on the calling thread; then
    :func:`~ncfem.quadrature.ordered_map` integrates its error norms there
    while a worker solves and integrates the coarser levels in turn.  Each
    level runs whole on one thread, so the report does not depend on the
    number of workers.
    """
    if levels not in RATE_LEVELS:
        lo, hi = RATE_LEVELS[0], RATE_LEVELS[-1]
        raise ValueError(f"a rate study needs {lo} to {hi} refinement levels, not {levels}")
    problem = get_problem(problem_name)
    m = problem.m
    meshes = [problem.base_mesh()]
    for _ in range(levels - 1):
        meshes.append(red_refine(meshes[-1]))
    discs = [Discretization(mesh, nc_kind(m)) for mesh in meshes]
    for lvl, disc in enumerate(discs):  # every level's size before any solve
        if disc.space.ndofs > DOF_CAP:
            raise ValueError(f"level {lvl} needs {disc.space.ndofs} dofs, above the cap")
    top = levels - 1
    reference = problem.reference()
    fine_ref = _fine_reference(problem, meshes[top]) if reference is None else None
    estimate = estimate_original if scheme == "original" else estimate_modified

    def solve(disc):
        """u_nc, J u_nc (exact reference) and the bounds (estimates) of one
        level, with every product its norms do not read released."""
        data = problem.data(disc.mesh)
        load = disc.rhs(scheme, data)
        if reference is None and not include_estimates:
            disc.release("cmap")  # the load was its last reader: out of the factor's peak
        u_nc = disc.solve(load)
        bounds = None
        if include_estimates:
            bounds = estimate(disc, data, u_nc, h_convention=h_convention)["bounds"]
        disc.release("A", "lu", "lam0")
        ju = companion(disc.cmap, u_nc) if reference is not None else None
        disc.release("cmap")
        return u_nc, ju, bounds

    def integrate(lvl, u_nc, ju, bounds):
        """The report row of one solved level."""
        if reference is not None:
            nc, post = error_norms([(u_nc, (0, m)), (ju, (0,))], reference=reference)
            errors = {"energy_pw": nc.energy_pw, "l2_nc": nc.l2, "l2_post": post.l2}
        else:
            gens = (top - lvl) + REFERENCE_EXTRA_LEVELS
            d = errors_vs_fine(u_nc, fine_ref, gens)
            errors = {"energy_pw": d["energy_pw"], "l2_nc": d["l2"]}
        row = {
            "level": lvl,
            "ndof": int(u_nc.space.ndofs),
            "hmax": float(u_nc.space.mesh.diameter.max()),
            "errors": errors,
        }
        if bounds is not None:
            row["bounds"] = bounds
        return row

    # before the hand-off: no product of the finest level is built during it
    solved = {top: solve(discs[top])}

    def run(lvls):
        return [integrate(lvl, *(solved.pop(lvl) if lvl == top else solve(discs[lvl])))
                for lvl in lvls]

    finest, coarser = ordered_map(run, [[top], range(top)])
    rows = coarser + finest
    norms = ["energy_pw", "l2_post", "l2_nc"] if reference else ["energy_pw", "l2_nc"]
    hs = [r["hmax"] for r in rows]
    rates = {
        n: convergence_rate(hs, [r["errors"][n] for r in rows]) for n in norms
    }
    expected = {}
    if problem.sigma is not None:
        expected = {
            "sigma": problem.sigma,
            "energy_pw": problem.expected_rate(m),
            "l2_post": problem.expected_rate(0),
        }
    return {
        "schema": "ncfem-report-v1",
        "report": "rate-table",
        "problem": problem_name,
        "m": m,
        "scheme": scheme,
        "norms": norms,
        "rows": rows,
        "rates": rates,
        "expected_rates": expected,
        "seed": seed,
        "h_convention": h_convention,
    }
