"""Command-line front end: configuration, experiment dispatch, report emission.

Exit codes: 0 on success with all asserted identities passing, 2 when an
assertion fails (the report is still written), 1 on usage or configuration
errors (argparse's own included) and when a computation fails with a
``RuntimeError`` such as a non-converged eigensolve; these print one
``ncfem: <message>`` line to stderr, not a traceback.  JSON reports are schema-versioned; CSV rate tables are
byte-reproducible for a fixed seed up to the timestamp header comment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

USAGE_ERROR, ASSERT_ERROR = 1, 2

_GLOBAL_KEYS = {
    "command", "m", "mesh", "scheme", "problem", "data", "levels", "seed",
    "h_convention", "out", "json", "csv", "solution", "threads", "samples",
    "kind", "level", "estimates", "lambda_j", "tol",
}


def _set_thread_env(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


class _Parser(argparse.ArgumentParser):
    """Report usage errors on one line with USAGE_ERROR, not argparse's 2."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"ncfem: {message}\n")


def _build_parser():
    p = _Parser(
        prog="ncfem",
        description="Nonconforming FEM laboratory (Crouzeix-Raviart / Morley)",
    )
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--threads", type=int, help="cap worker/BLAS threads")
    sub = p.add_subparsers(dest="command")

    def common(sp, mesh=True, m=True):
        if mesh:
            sp.add_argument("--mesh", help="square:N, lshape:N, or a mesh file path")
        if m:
            sp.add_argument("--m", type=int, choices=(1, 2))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--h-convention", dest="h_convention",
                        choices=("diameter", "sqrt_area"), default="diameter")
        sp.add_argument("--json", help="write the JSON report here")
        sp.add_argument("--out", help="output directory for default file names")

    sp = sub.add_parser("verify", help="run the operator-invariant suite")
    common(sp)
    sp.add_argument("--samples", type=int, default=20)

    sp = sub.add_parser("solve", help="solve one problem and report norms")
    common(sp)
    sp.add_argument("--scheme", choices=("original", "modified", "both"),
                    default="both")
    sp.add_argument("--problem", help="builtin problem id")
    sp.add_argument("--data", help="JSON file with inline G/g/point-force data")
    sp.add_argument("--solution", help="write solution coefficients here")

    sp = sub.add_parser("rates", help="convergence-rate study")
    common(sp, mesh=False, m=False)
    sp.add_argument("--problem", required=True)
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--scheme", choices=("original", "modified"), default="modified")
    sp.add_argument("--estimates", action="store_true")
    sp.add_argument("--csv", help="write the CSV rate table here")

    sp = sub.add_parser("lambda0", help="defect-norm eigencomputation")
    common(sp)

    sp = sub.add_parser("counterexample", help="best-approximation counterexamples")
    sp.add_argument("kind", choices=("cr", "morley", "oscillation"))
    common(sp, m=False)

    sp = sub.add_parser("compare", help="natural vs smoothed scheme comparison")
    common(sp)

    sp = sub.add_parser("estimate", help="a posteriori bounds for one solve")
    common(sp, mesh=False)
    sp.add_argument("--problem", required=True)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--scheme", choices=("original", "modified"), default="modified")
    sp.add_argument("--lambda-j", dest="lambda_j", type=float,
                    help="certified companion constant; defaults to lambda0")
    p.subcommands = sub.choices
    return p


def _parse_args(parser, argv):
    """Parse argv; with --config, file entries replace the built-in defaults.

    The config entries become parser defaults and argv is parsed again, so a
    flag given on the command line wins and every other key takes the file's
    value, whatever the built-in default is.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    unknown = set(cfg) - _GLOBAL_KEYS
    if unknown:
        raise SystemExit(
            f"ncfem: unknown config keys: {sorted(unknown)} (exit {USAGE_ERROR})"
        )
    if args.command is None and "command" in cfg:
        argv.append(cfg["command"])
    rest = {k: v for k, v in cfg.items() if k != "command"}
    # a subcommand's defaults overwrite the top-level namespace, so each
    # subparser takes only the keys it owns; the top level takes the rest
    for sp in parser.subcommands.values():
        sp.set_defaults(**{a.dest: rest[a.dest] for a in sp._actions if a.dest in rest})
    parser.set_defaults(**rest)
    args = parser.parse_args(argv)
    # argparse checks choices only for flags, not for defaults
    sp = parser.subcommands.get(args.command)
    for a in sp._actions if sp else ():
        value = getattr(args, a.dest, None)
        if a.dest in rest and a.choices is not None and value not in a.choices:
            raise SystemExit(
                f"ncfem: config entry {a.dest}={value!r} is not one of "
                f"{list(a.choices)} (exit {USAGE_ERROR})"
            )
    return args


def _slug(mesh_id):
    return str(mesh_id).replace(":", "-").replace("/", "_")


def _parse_mesh(spec):
    from .mesh import l_shape_mesh, load_mesh, unit_square_mesh

    if spec is None:
        raise SystemExit(f"ncfem: --mesh is required (exit {USAGE_ERROR})")
    if ":" in spec:
        name, _, n = spec.partition(":")
        try:
            n = int(n)
        except ValueError:
            raise SystemExit(f"ncfem: bad mesh size in {spec!r} (exit {USAGE_ERROR})")
        if name == "square":
            return unit_square_mesh(n), spec
        if name == "lshape":
            return l_shape_mesh(n), spec
        raise SystemExit(f"ncfem: unknown builtin mesh {name!r} (exit {USAGE_ERROR})")
    return load_mesh(spec), spec


def _poly_field(entry, shape):
    import numpy as np

    from .fields import MatrixField, ScalarField, VectorField

    def poly(terms):
        terms = [tuple(t) for t in terms]

        def fn(x, y):
            out = np.zeros(np.shape(x))
            for c, i, j in terms:
                out = out + c * x ** int(i) * y ** int(j)
            return out

        deg = max((int(i) + int(j) for _, i, j in terms), default=0)
        return fn, deg

    if shape == ():
        fn, deg = poly(entry)
        return ScalarField(fn, degree=deg)
    if shape == (2,):
        f1, d1 = poly(entry["poly1"])
        f2, d2 = poly(entry["poly2"])
        return VectorField(
            lambda x, y: np.stack([f1(x, y), f2(x, y)], axis=-1), degree=max(d1, d2)
        )
    f11, d11 = poly(entry["poly11"])
    f12, d12 = poly(entry["poly12"])
    f22, d22 = poly(entry["poly22"])

    def fn(x, y):
        out = np.empty(np.shape(x) + (2, 2))
        out[..., 0, 0] = f11(x, y)
        out[..., 0, 1] = f12(x, y)
        out[..., 1, 0] = f12(x, y)
        out[..., 1, 1] = f22(x, y)
        return out

    return MatrixField(fn, degree=max(d11, d12, d22))


def _load_inline_data(path, m, mesh):
    import numpy as np

    from .assembly import PointForce, RhsData

    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - {"G", "g", "point_forces"}
    if unknown:
        raise SystemExit(f"ncfem: unknown data keys {sorted(unknown)} (exit 1)")
    g = _poly_field(raw["g"], ()) if "g" in raw else None
    G = _poly_field(raw["G"], (2,) if m == 1 else (2, 2)) if "G" in raw else None
    forces = []
    for pf in raw.get("point_forces", []):
        if "vertex" in pf:
            forces.append(PointForce(beta=pf["beta"], vertex=int(pf["vertex"])))
        else:
            point = np.asarray(pf["edge_point"], dtype=float)
            edge = _find_edge(mesh, point)
            forces.append(
                PointForce(beta=pf["beta"], edge=edge, point=tuple(point),
                           mu=pf.get("mu", 0.5))
            )
    return RhsData(G=G, g=g, point_forces=forces)


def _find_edge(mesh, point):
    import numpy as np

    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    seg = b - a
    L2 = np.einsum("ed,ed->e", seg, seg)
    t = np.clip(np.einsum("ed,ed->e", point - a, seg) / L2, 0.0, 1.0)
    d = np.linalg.norm(a + t[:, None] * seg - point, axis=1)
    e = int(np.argmin(d))
    if d[e] > 1e-10 * max(1.0, np.sqrt(L2[e])):
        raise SystemExit(f"ncfem: point {point.tolist()} lies on no edge (exit 1)")
    return e


def _write_json(args, report, default_name):
    path = args.json
    if path is None and args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, default_name)
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return path


def _config_snapshot(args):
    # defaults and effective settings recorded for reproducibility
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k in _GLOBAL_KEYS and v is not None
    }


def _finish(args, report, default_name):
    report.setdefault("config", _config_snapshot(args))
    path = _write_json(args, report, default_name)
    passed = report.get("passed", True)
    for a in report.get("assertions", []):
        mark = "PASS" if a["pass"] else "FAIL"
        print(f"[{mark}] {a['name']}")
    if path:
        print(f"report written to {path}")
    return 0 if passed else ASSERT_ERROR


def _cmd_verify(args):
    import numpy as np

    from .experiments import _assert_le
    from .fespace import FeFunction, build_space, nc_kind
    from .linalg import EIG_RESIDUAL_TOL
    from .norms import error_norms
    from .operators import (
        best_approx_orthogonality_check,
        build_companion,
        companion,
        compute_lambda0,
        interpolate,
        kappa_constant,
    )

    mesh, mesh_id = _parse_mesh(args.mesh)
    space = build_space(mesh, nc_kind(args.m))
    cmap = build_companion(space)
    rng = np.random.default_rng(args.seed)
    report = {
        "schema": "ncfem-report-v1",
        "experiment": "verify",
        "m": args.m,
        "mesh": {"id": mesh_id, "n_triangles": int(mesh.n_triangles)},
        "seed": args.seed,
        "assertions": [],
        "passed": True,
    }

    worst_ri, worst_orth, worst_pyth, worst_kappa = 0.0, 0.0, 0.0, -np.inf
    energy = (space.m,)
    kappa = kappa_constant(args.m)
    h = mesh.diameter
    for _ in range(args.samples):
        v = FeFunction(space, rng.standard_normal(space.ndofs))
        jv = companion(cmap, v)
        ivjv = interpolate(space, jv)
        scale = max(np.abs(v.coeffs).max(), 1e-30)
        worst_ri = max(worst_ri, np.abs(ivjv.coeffs - v.coeffs).max() / scale)
        nrm = error_norms(v, orders=energy).energy_pw
        worst_orth = max(
            worst_orth, best_approx_orthogonality_check(space, jv) / max(nrm, 1e-30)
        )
        # interpolation-constant inequality for the conforming image
        defect = error_norms(jv, reference=v, orders=energy)
        wl2 = _weighted_l2_defect(space, v, jv, h)
        worst_kappa = max(worst_kappa, wl2 - kappa * defect.energy_pw)
        w = FeFunction(space, rng.standard_normal(space.ndofs))
        lhs = error_norms(w, reference=jv, orders=energy).energy_pw ** 2
        rhs = defect.energy_pw ** 2 + error_norms(
            FeFunction(space, w.coeffs - v.coeffs), orders=energy
        ).energy_pw ** 2
        worst_pyth = max(worst_pyth, abs(lhs - rhs) / max(rhs, 1e-30))
    _assert_le(report, "right-inverse coefficient identity", worst_ri, 1e-11)
    _assert_le(report, "piecewise polynomial moment orthogonality", worst_orth, 1e-10)
    _assert_le(report, "Pythagoras split", worst_pyth, 1e-10)
    _assert_le(report, "interpolation-constant inequality margin", worst_kappa, 1e-12)
    res = compute_lambda0(space, cmap)
    report["values"] = {"lambda0": res.lambda0, "c_qo": res.c_qo,
                        "eigen_residual": res.residual}
    _assert_le(report, "eigen residual", res.residual, EIG_RESIDUAL_TOL)
    return _finish(args, report, f"verify_m{args.m}_{_slug(mesh_id)}_{args.seed}.json")


def _weighted_l2_defect(space, v, jv, h):
    from . import assembly
    from .fields import fe_value, field_sum

    diff = field_sum(fe_value(jv), fe_value(v), 1.0, -1.0)
    return assembly.weighted_field_l2(diff, space.mesh, weights=h ** (-space.m))


def _cmd_lambda0(args):
    from .fespace import build_space, nc_kind
    from .linalg import EIG_RESIDUAL_TOL
    from .operators import build_companion, compute_lambda0

    mesh, mesh_id = _parse_mesh(args.mesh)
    space = build_space(mesh, nc_kind(args.m))
    res = compute_lambda0(space, build_companion(space))
    report = {
        "schema": "ncfem-report-v1",
        "experiment": "lambda0",
        "m": args.m,
        "mesh": {"id": mesh_id, "ndofs": space.ndofs},
        "seed": args.seed,
        "lambda0": res.lambda0,
        "c_qo": res.c_qo,
        "lambda_max": res.lambda_max,
        "eigen_residual": res.residual,
        "matrices_dim": res.A.shape[0],
        "passed": bool(res.residual <= EIG_RESIDUAL_TOL),
        "assertions": [],
    }
    print(f"lambda0 = {res.lambda0:.12g}  C_qo = {res.c_qo:.12g}  "
          f"residual = {res.residual:.3e}")
    return _finish(args, report, f"lambda0_m{args.m}_{_slug(mesh_id)}_{args.seed}.json")


def _cmd_counterexample(args):
    from .experiments import (
        run_counterexample_cr,
        run_counterexample_morley,
        run_oscillation_example,
    )

    mesh, mesh_id = _parse_mesh(args.mesh)
    fn = {
        "cr": run_counterexample_cr,
        "morley": run_counterexample_morley,
        "oscillation": run_oscillation_example,
    }[args.kind]
    report = fn(mesh, seed=args.seed, mesh_id=mesh_id)
    return _finish(args, report,
                   f"counterexample_{args.kind}_{_slug(mesh_id)}_{args.seed}.json")


def _cmd_compare(args):
    from .experiments import run_compare

    mesh, mesh_id = _parse_mesh(args.mesh)
    report = run_compare(mesh, args.m, seed=args.seed, mesh_id=mesh_id)
    return _finish(args, report, f"compare_m{args.m}_{_slug(mesh_id)}_{args.seed}.json")


def _cmd_rates(args):
    from .experiments import run_rate_study

    table = run_rate_study(
        args.problem,
        args.levels,
        scheme=args.scheme,
        seed=args.seed,
        include_estimates=bool(args.estimates),
        h_convention=args.h_convention,
    )
    report = table.to_dict()
    report["passed"] = True
    csv_path = args.csv
    if csv_path is None and args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(
            args.out, f"rates_{args.problem}_m{table.m}_{args.scheme}_{args.seed}.csv"
        )
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(table.to_csv())
        print(f"rate table written to {csv_path}")
    for row in report["rows"]:
        errs = " ".join(f"{k}={v:.4e}" for k, v in row["errors"].items())
        print(f"level {row['level']:2d} ndof {row['ndof']:7d} h {row['hmax']:.4e} {errs}")
    _write_json(args, report, f"rates_{args.problem}_{args.scheme}_{args.seed}.json")
    return 0


def _cmd_solve(args):
    import numpy as np

    from . import assembly
    from .fespace import FeFunction, build_space, nc_kind, save_function
    from .linalg import solve_spd
    from .norms import error_norms
    from .operators import build_companion
    from .problems import get_problem

    if (args.problem is None) == (args.data is None):
        raise SystemExit(
            f"ncfem: exactly one of --problem / --data is required (exit {USAGE_ERROR})"
        )
    if args.problem:
        prob = get_problem(args.problem)
        m = prob.m
        if args.mesh:
            mesh, mesh_id = _parse_mesh(args.mesh)
        else:
            mesh, mesh_id = prob.base_mesh(), f"{prob.domain}:{prob.base_n}"
        data = prob.data(mesh)
        reference = prob.reference() if prob.reference_kind == "analytic" else None
    else:
        if args.m not in (1, 2):
            raise SystemExit(f"ncfem: --m is required with --data (exit {USAGE_ERROR})")
        m = args.m
        mesh, mesh_id = _parse_mesh(args.mesh)
        data = _load_inline_data(args.data, m, mesh)
        reference = None
    space = build_space(mesh, nc_kind(m))
    cmap = build_companion(space)
    A = assembly.assemble_stiffness(space)
    report = {
        "schema": "ncfem-report-v1",
        "experiment": "solve",
        "m": m,
        "mesh": {"id": mesh_id, "ndofs": space.ndofs},
        "seed": args.seed,
        "schemes": {},
        "assertions": [],
        "passed": True,
    }
    schemes = ("original", "modified") if args.scheme == "both" else (args.scheme,)
    for scheme in schemes:
        if scheme == "original":
            rhs = assembly.assemble_rhs_original(space, data)
        else:
            rhs = assembly.assemble_rhs_modified(space, data, cmap)
        x, rep = solve_spd(A, rhs, tol=1e-10 if m == 1 else 1e-9)
        u = FeFunction(space, x)
        entry = {
            "solver": {"method": rep.method, "residual": rep.residual,
                       "converged": rep.converged},
            "energy_norm": error_norms(u, orders=(m,)).energy_pw,
        }
        if reference is not None:
            b = error_norms(u, reference=reference, orders=(0, m))
            entry["errors"] = {"energy_pw": b.energy_pw, "l2": b.l2}
        report["schemes"][scheme] = entry
        if args.solution:
            stem, ext = os.path.splitext(args.solution)
            path = args.solution if len(schemes) == 1 else f"{stem}_{scheme}{ext}"
            save_function(u, path)
            entry["solution_file"] = path
        report["passed"] &= rep.converged
    return _finish(args, report, f"solve_m{m}_{args.seed}.json")


def _cmd_estimate(args):
    from . import assembly
    from .estimator import estimate_modified, estimate_original
    from .fespace import FeFunction, build_space, nc_kind
    from .linalg import solve_spd
    from .mesh import red_refine
    from .operators import build_companion
    from .problems import get_problem

    prob = get_problem(args.problem)
    mesh = prob.base_mesh()
    for _ in range(args.level):
        mesh = red_refine(mesh)
    space = build_space(mesh, nc_kind(prob.m))
    cmap = build_companion(space)
    data = prob.data(mesh)
    A = assembly.assemble_stiffness(space)
    if args.scheme == "original":
        rhs = assembly.assemble_rhs_original(space, data)
    else:
        rhs = assembly.assemble_rhs_modified(space, data, cmap)
    x, rep = solve_spd(A, rhs, tol=1e-10 if prob.m == 1 else 1e-9)
    u = FeFunction(space, x)
    reference = prob.reference() if prob.reference_kind == "analytic" else None
    if args.scheme == "original":
        est = estimate_original(space, data, u, cmap, reference=reference,
                                h_convention=args.h_convention)
    else:
        est = estimate_modified(space, data, u, cmap, reference=reference,
                                lambda_j=args.lambda_j,
                                h_convention=args.h_convention)
    report = est.to_dict()
    report["problem"] = args.problem
    report["level"] = args.level
    report["seed"] = args.seed
    report["passed"] = True
    for key, val in report["bounds"].items():
        print(f"{key} = {val:.6e}")
    if report["measured_errors"]:
        for key, val in report["measured_errors"].items():
            print(f"measured {key} = {val:.6e}")
    _write_json(args, report, f"estimate_{args.problem}_{args.scheme}_{args.seed}.json")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = _parse_args(parser, argv)
    if args.threads is None:
        env = os.environ.get("NCFEM_THREADS")
        args.threads = int(env) if env else None
    if args.threads:
        _set_thread_env(args.threads)
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR
    handlers = {
        "verify": _cmd_verify,
        "solve": _cmd_solve,
        "rates": _cmd_rates,
        "lambda0": _cmd_lambda0,
        "counterexample": _cmd_counterexample,
        "compare": _cmd_compare,
        "estimate": _cmd_estimate,
    }
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"ncfem: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
