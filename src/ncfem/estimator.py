"""Guaranteed a posteriori error bounds and efficiency-side quantities.

Both schemes get explicit-constant bounds built from computable terms:
the distance of the tensor data to piecewise constants, the weighted
L2 norm of the scalar data, the companion defect of the discrete
solution, and (for the natural right-hand side) a signed correction
term.  Vertex point forces drop out of every pairing the bounds use
(interpolation and companion both preserve vertex values), so they are
supported exactly; off-vertex forces are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from ._hct import SUB_TO_PARENT
from .fespace import FeFunction, vertex_eval
from .mesh import mesh_size
from .norms import error_norms
from .operators import companion, compute_lambda0, interpolate, kappa_constant
from .quadrature import MAX_TRIANGLE_DEGREE, triangle_rule

__all__ = ["EstimateReport", "estimate_original", "estimate_modified", "efficiency_terms"]

LAMBDA_J_POLICY = "lambda_j ~ lambda0 (lower-bound surrogate)"


@dataclass
class EstimateReport:
    """Estimator terms, constants, guaranteed bounds and measured errors.

    For the original scheme, ``bound_a`` bounds the squared split error
    |||u - J u_nc|||^2 + |||I u - u_nc|||_pw^2 and ``bound_b`` the squared
    |||u - u_nc|||_pw^2 + |||I u - u_nc|||_pw^2.  For the modified scheme
    the bounds are unsquared: ``bound_a`` bounds |||u - J u_nc||| and
    ``bound_b`` bounds |||u - u_nc|||_pw.
    """

    scheme: str
    terms: dict
    constants: dict
    bounds: dict
    measured_errors: dict | None
    h_convention: str

    def to_dict(self):
        return {
            "schema": "ncfem-report-v1",
            "report": "estimate",
            "scheme": self.scheme,
            "terms": self.terms,
            "constants": self.constants,
            "bounds": self.bounds,
            "measured_errors": self.measured_errors,
            "h_convention": self.h_convention,
        }


def _data_terms(space, data, h_convention):
    mesh = space.mesh
    m = space.m
    G_osc = assembly.distance_to_p0(data.G, mesh) if data.G is not None else 0.0
    if data.g is not None:
        h = mesh_size(mesh, h_convention).per_triangle_h
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
    """Natural functional applied to u_nc - J u_nc (computable, signed)."""
    mesh = space.mesh
    m = space.m
    total = 0.0
    rule_terms = []
    if data.G is not None:
        rule_terms.append((data.G, m))
    if data.g is not None:
        rule_terms.append((data.g, 0))
    for fld, order in rule_terms:
        deg = min(
            fld.quad_degree() + max(space.poly_degree, ju_nc.space.poly_degree),
            MAX_TRIANGLE_DEGREE,
        )
        rule = triangle_rule(deg)
        nsub = max(ju_nc.space.n_subcells, fld.n_subcells)
        ts = np.arange(mesh.n_triangles)
        for s in range(nsub):
            bary = rule.points
            parent = bary if nsub == 1 else bary @ SUB_TO_PARENT[s]
            phys = bary @ assembly._subcell_corners(mesh, ts, s, nsub)
            fv = fld.eval_batch(ts, s if nsub > 1 else None, bary, parent, phys)
            du = u_nc.evaluate_batch(ts, 0, parent, order)[order]
            dj = (
                ju_nc.evaluate_batch(ts, s, bary, order)[order]
                if ju_nc.space.n_subcells > 1
                else ju_nc.evaluate_batch(ts, 0, parent, order)[order]
            )
            diff = (du - dj).reshape(du.shape[:2] + (-1,))
            fvf = fv.reshape(fv.shape[:2] + (-1,))
            dens = np.einsum("fkc,fkc->fk", fvf, diff)
            total += float(
                np.einsum("k,f,fk->", rule.weights, mesh.area / nsub, dens)
            )
    for pf in data.point_forces:
        total += pf.beta * (vertex_eval(u_nc, pf.vertex) - vertex_eval(ju_nc, pf.vertex))
    return total


def _measured(space, u_nc, ju_nc, reference):
    iu = interpolate(space, reference)
    e_int = error_norms(FeFunction(space, iu.coeffs - u_nc.coeffs)).energy_pw
    e_conf = error_norms(ju_nc, reference=reference).energy_pw
    e_pw = error_norms(u_nc, reference=reference).energy_pw
    return {
        "energy_conf": e_conf,
        "energy_pw": e_pw,
        "energy_interp_defect": e_int,
    }


def _check_residual(space, u_nc, rhs, tol=1e-9):
    A = assembly.assemble_stiffness(space)
    res = assembly.scheme_residual(A, u_nc.coeffs, rhs)
    if res > tol:
        raise ValueError(
            f"discrete function does not solve this scheme (residual {res:.2e})"
        )


def estimate_original(space, data, u_nc, cmap, reference=None, h_convention="diameter"):
    """Bounds for the scheme with the natural right-hand side."""
    _check_point_forces(data)
    _check_residual(space, u_nc, assembly.assemble_rhs_original(space, data))
    kappa = kappa_constant(space.m)
    G_osc, g_weighted, g_osc = _data_terms(space, data, h_convention)
    ju = companion(cmap, u_nc)
    nonconf = error_norms(u_nc, reference=ju).energy_pw
    fhat_corr = _fhat_of_defect(space, data, u_nc, ju)
    base = G_osc + kappa * g_weighted + nonconf
    bounds = {"bound_a": base**2, "bound_b": base**2 + 2.0 * fhat_corr}
    terms = {
        "G_osc": G_osc,
        "g_weighted": g_weighted,
        "g_osc": g_osc,
        "nonconf": nonconf,
        "Fhat_correction": fhat_corr,
    }
    constants = {"kappa_m": kappa}
    measured = None
    if reference is not None:
        measured = _measured(space, u_nc, ju, reference)
        measured["split_a"] = (
            measured["energy_conf"] ** 2 + measured["energy_interp_defect"] ** 2
        )
        measured["split_b"] = (
            measured["energy_pw"] ** 2 + measured["energy_interp_defect"] ** 2
        )
    return EstimateReport(
        scheme="original",
        terms=terms,
        constants=constants,
        bounds=bounds,
        measured_errors=measured,
        h_convention=h_convention,
    )


def estimate_modified(
    space,
    data,
    u_nc,
    cmap,
    lambda0_result=None,
    lambda_j=None,
    reference=None,
    h_convention="diameter",
):
    """Bounds for the right-hand-side-smoothed scheme.

    ``lambda_j`` defaults to the computed lambda0 (flagged as a
    lower-bound surrogate in the report); pass a certified value to make
    ``bound_b`` fully rigorous.
    """
    _check_point_forces(data)
    _check_residual(space, u_nc, assembly.assemble_rhs_modified(space, data, cmap))
    kappa = kappa_constant(space.m)
    if lambda0_result is None:
        lambda0_result = compute_lambda0(space, cmap)
    lam0 = lambda0_result.lambda0
    policy = LAMBDA_J_POLICY if lambda_j is None else "user-supplied"
    lam_j = lam0 if lambda_j is None else float(lambda_j)
    G_osc, g_weighted, g_osc = _data_terms(space, data, h_convention)
    ju = companion(cmap, u_nc)
    nonconf = error_norms(u_nc, reference=ju).energy_pw
    apx_F = (1.0 + lam_j) * G_osc + kappa * g_weighted + kappa * lam_j * g_osc
    bound_a = np.sqrt(1.0 + lam0**2) * G_osc + np.sqrt(
        (kappa * g_weighted + nonconf) ** 2 + kappa**2 * lam0**2 * g_osc**2
    )
    bound_b = np.sqrt(2.0 * (nonconf**2 + apx_F**2))
    terms = {
        "G_osc": G_osc,
        "g_weighted": g_weighted,
        "g_osc": g_osc,
        "nonconf": nonconf,
        "apx_F": apx_F,
    }
    constants = {
        "kappa_m": kappa,
        "lambda0": lam0,
        "lambda_j": lam_j,
        "lambda_j_policy": policy,
    }
    measured = None
    if reference is not None:
        measured = _measured(space, u_nc, ju, reference)
    return EstimateReport(
        scheme="modified",
        terms=terms,
        constants=constants,
        bounds={"bound_a": float(bound_a), "bound_b": float(bound_b)},
        measured_errors=measured,
        h_convention=h_convention,
    )


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
    interp_err = error_norms(iu, reference=reference).energy_pw
    rhs_sum = interp_err + g_osc + G_osc
    index = g_weighted / rhs_sum if rhs_sum > 0 else (0.0 if g_weighted == 0 else np.inf)
    return {
        "lhs_g_weighted": g_weighted,
        "interp_error": interp_err,
        "g_osc": g_osc,
        "G_osc": G_osc,
        "efficiency_index": float(index),
    }
