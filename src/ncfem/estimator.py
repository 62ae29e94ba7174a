"""Guaranteed a posteriori error bounds and efficiency-side quantities.

Both schemes get explicit-constant bounds built from computable terms:
the distance of the tensor data to piecewise constants, the weighted
L2 norm of the scalar data, the companion defect of the discrete
solution, and (for the natural right-hand side) a signed correction
term.  Vertex point forces drop out of every pairing the bounds use:
interpolation keeps vertex values, and the companion J, a right inverse of
the interpolation, keeps them too, so a vertex force pairs with v - J v to
exactly zero.  They are supported exactly; off-vertex forces are refused.
"""

from __future__ import annotations

import numpy as np

from . import assembly
from .fespace import FeFunction
from .fields import quad_degree
from .linalg import check_solution
from .mesh import mesh_size
from .norms import error_norms
from .operators import companion, interpolate, kappa_constant
from .quadrature import cells, pairing

__all__ = ["estimate_original", "estimate_modified", "efficiency_terms"]

LAMBDA_J_POLICY = "lambda_j ~ lambda0 (lower-bound surrogate)"


def _data_terms(space, data, h_convention):
    mesh = space.mesh
    m = space.m
    G_osc = assembly.oscillation(data.G, 0, mesh) if data.G is not None else 0.0
    if data.g is not None:
        h = mesh_size(mesh, h_convention)
        g_weighted = assembly.weighted_field_l2(data.g, mesh, weights=h**m)
        g_osc = assembly.oscillation(data.g, m, mesh, h_convention)
    else:
        g_weighted = 0.0
        g_osc = 0.0
    return G_osc, g_weighted, g_osc


def _check_point_forces(data):
    for pf in data.point_forces:
        if pf.vertex is None:
            raise ValueError(
                "off-vertex point forces are not covered by the guaranteed bounds"
            )


def _fhat_of_defect(space, data, u_nc, ju_nc):
    """Natural functional applied to u_nc - J u_nc (computable, signed).

    Only G and g contribute: J keeps the vertex values of u_nc, so every
    vertex force pairs with u_nc - J u_nc to exactly zero.
    """
    mesh = space.mesh
    m = space.m
    total = 0.0
    rule_terms = []
    if data.G is not None:
        rule_terms.append((data.G, m))
    if data.g is not None:
        rule_terms.append((data.g, 0))
    for fld, order in rule_terms:
        deg = quad_degree(fld) + max(space.poly_degree, ju_nc.space.poly_degree)
        for chunk in cells(mesh, deg, space, ju_nc.space, fld):
            for c in chunk:
                du = u_nc.at(c, order)
                dj = ju_nc.at(c, order)
                total += pairing(c, fld.eval_batch(c), du - dj)
    return total


def _measured(space, u_nc, ju_nc, reference):
    energy = (space.m,)
    iu = interpolate(space, reference)
    e_int = error_norms(
        FeFunction(space, iu.coeffs - u_nc.coeffs), orders=energy
    ).energy_pw
    conf, pw = error_norms([(ju_nc, energy), (u_nc, energy)], reference=reference)
    return {
        "energy_conf": conf.energy_pw,
        "energy_pw": pw.energy_pw,
        "energy_interp_defect": e_int,
    }


def _check_residual(disc, scheme, data, u_nc):
    rep = check_solution(disc.A, u_nc.coeffs, disc.rhs(scheme, data))
    if not rep.converged:
        raise ValueError(
            f"discrete function does not solve this scheme (residual {rep.residual:.2e})"
        )


def _shared_report(disc, scheme, data, u_nc, reference, h_convention):
    """What both estimators start from: checks of the data and of the
    solution, then (kappa_m, J u_nc, the report with its terms G_osc,
    g_weighted, g_osc and nonconf, and its measured errors)."""
    space = disc.space
    _check_point_forces(data)
    _check_residual(disc, scheme, data, u_nc)
    G_osc, g_weighted, g_osc = _data_terms(space, data, h_convention)
    ju = companion(disc.cmap, u_nc)
    nonconf = error_norms(u_nc, reference=ju, orders=(space.m,)).energy_pw
    measured = None if reference is None else _measured(space, u_nc, ju, reference)
    report = {
        "schema": "ncfem-report-v1",
        "report": "estimate",
        "scheme": scheme,
        "terms": {"G_osc": G_osc, "g_weighted": g_weighted, "g_osc": g_osc,
                  "nonconf": nonconf},
        "h_convention": h_convention,
        "measured_errors": measured,
    }
    return kappa_constant(space.m), ju, report


def estimate_original(disc, data, u_nc, reference=None, h_convention="diameter"):
    """Bounds for the scheme with the natural right-hand side on the
    :class:`~ncfem.operators.Discretization` `disc`.

    Returns the JSON-ready report of the estimator terms, constants,
    guaranteed bounds and measured errors (None without `reference`).
    The bounds are squared: ``bound_a`` bounds the split error
    |||u - J u_nc|||^2 + |||I u - u_nc|||_pw^2 and ``bound_b`` bounds
    |||u - u_nc|||_pw^2 + |||I u - u_nc|||_pw^2.
    """
    space = disc.space
    kappa, ju, report = _shared_report(disc, "original", data, u_nc, reference,
                                       h_convention)
    terms = report["terms"]
    fhat_corr = _fhat_of_defect(space, data, u_nc, ju)
    terms["Fhat_correction"] = fhat_corr
    base = terms["G_osc"] + kappa * terms["g_weighted"] + terms["nonconf"]
    report["bounds"] = {"bound_a": base**2, "bound_b": base**2 + 2.0 * fhat_corr}
    report["constants"] = {"kappa_m": kappa}
    measured = report["measured_errors"]
    if measured is not None:
        measured["split_a"] = (
            measured["energy_conf"] ** 2 + measured["energy_interp_defect"] ** 2
        )
        measured["split_b"] = (
            measured["energy_pw"] ** 2 + measured["energy_interp_defect"] ** 2
        )
    return report


def estimate_modified(
    disc, data, u_nc, lambda_j=None, reference=None, h_convention="diameter"
):
    """Bounds for the right-hand-side-smoothed scheme on `disc`.

    Returns the report of :func:`estimate_original`, with unsquared bounds:
    ``bound_a`` bounds |||u - J u_nc||| and ``bound_b`` bounds
    |||u - u_nc|||_pw.  ``lambda_j`` defaults to the computed lambda0
    (flagged as a lower-bound surrogate in the report); pass a certified
    value to make ``bound_b`` fully rigorous.  A ``lambda_j`` that is not at
    least lambda0 (NaN included) raises ValueError: the companion constant is
    at least lambda0.
    """
    kappa, ju, report = _shared_report(disc, "modified", data, u_nc, reference,
                                       h_convention)
    terms = report["terms"]
    G_osc, g_weighted, g_osc, nonconf = (
        terms[key] for key in ("G_osc", "g_weighted", "g_osc", "nonconf")
    )
    lam0 = disc.lam0.lambda0
    if lambda_j is not None and not lambda_j >= lam0:
        raise ValueError(f"lambda_j {lambda_j!r} is not at least lambda0 {lam0!r}"
                         " (compared at the full precision the JSON reports record)")
    policy = LAMBDA_J_POLICY if lambda_j is None else "user-supplied"
    lam_j = lam0 if lambda_j is None else float(lambda_j)
    apx_F = (1.0 + lam_j) * G_osc + kappa * g_weighted + kappa * lam_j * g_osc
    terms["apx_F"] = apx_F
    bound_a = np.sqrt(1.0 + lam0**2) * G_osc + np.sqrt(
        (kappa * g_weighted + nonconf) ** 2 + kappa**2 * lam0**2 * g_osc**2
    )
    bound_b = np.sqrt(2.0 * (nonconf**2 + apx_F**2))
    report["bounds"] = {"bound_a": float(bound_a), "bound_b": float(bound_b)}
    report["constants"] = {
        "kappa_m": kappa,
        "lambda0": lam0,
        "lambda_j": lam_j,
        "lambda_j_policy": policy,
    }
    return report


def efficiency_terms(space, data, reference, h_convention="diameter"):
    """Left- and right-hand quantities of the efficiency comparison.

    The weighted data norm ||h^m g|| is controlled (up to a generic
    constant) by the interpolation error of the exact solution plus the
    data oscillations; the returned index is their ratio.
    """
    mesh = space.mesh
    m = space.m
    G_osc, g_weighted, g_osc = _data_terms(space, data, h_convention)
    iu = interpolate(space, reference)
    interp_err = error_norms(iu, reference=reference, orders=(m,)).energy_pw
    rhs_sum = interp_err + g_osc + G_osc
    index = g_weighted / rhs_sum if rhs_sum > 0 else (0.0 if g_weighted == 0 else np.inf)
    return {
        "lhs_g_weighted": g_weighted,
        "interp_error": interp_err,
        "g_osc": g_osc,
        "G_osc": G_osc,
        "efficiency_index": float(index),
    }
