"""Command-line front end: configuration, experiment dispatch, report emission.

Exit codes: 0 on success with all asserted identities passing, 2 when an
assertion fails (the report is still written), 1 on usage or configuration
errors (argparse's own included) and when a computation fails with a
``RuntimeError`` such as a non-converged eigensolve; these print one
``ncfem: <message>`` line to stderr, not a traceback.  Each of them is a
``ValueError``, ``OSError`` or ``RuntimeError`` that the one handler in
:func:`main` reports, so ``main(argv)`` returns the exit code on every path
except ``--help``, which argparse ends with ``SystemExit(0)``.  JSON reports
are schema-versioned; CSV rate tables are byte-reproducible for a fixed seed
up to the timestamp header comment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

USAGE_ERROR, ASSERT_ERROR = 1, 2


def _set_thread_env(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main reports as USAGE_ERROR."""

    def error(self, message):
        raise ValueError(message)


def _bounded_int(text, low, what):
    """`text` read as an integer >= `low`; `what` names the bound in the error."""
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"must be a {what} integer, not {text!r}")
    return n


def _positive_int(text):
    return _bounded_int(text, 1, "positive")


def _non_negative_int(text):
    return _bounded_int(text, 0, "non-negative")


def _non_negative_float(text):
    """`text` read as a finite number >= 0: a bound nan, inf or < 0 certifies nothing."""
    try:
        x = float(text)
    except ValueError:
        x = -1.0
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return x


def _build_parser():
    p = _Parser(
        prog="ncfem",
        description="Nonconforming FEM laboratory (Crouzeix-Raviart / Morley)",
    )
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--threads", type=_positive_int, help="cap worker/BLAS threads")
    sub = p.add_subparsers(dest="command")

    def common(sp, mesh="required unless a --config file gives it", m=True,
               h_convention=False):
        if mesh:
            sp.add_argument("--mesh", help=f"square:N, lshape:N, or a mesh file path; {mesh}")
        if m:
            sp.add_argument("--m", type=int, choices=(1, 2))
        sp.add_argument("--seed", type=_non_negative_int, default=0)
        sp.add_argument("--json", help="write the JSON report here")
        sp.add_argument("--out", help="output directory for default file names")
        if h_convention:
            sp.add_argument("--h-convention", dest="h_convention",
                            choices=("diameter", "sqrt_area"), default="diameter")

    sp = sub.add_parser("verify", help="run the operator-invariant suite")
    common(sp)
    sp.add_argument("--samples", type=_positive_int, default=20)

    sp = sub.add_parser("solve", help="solve one problem and report norms")
    common(sp, mesh="defaults to the --problem's base mesh")
    sp.add_argument("--scheme", choices=("original", "modified", "both"),
                    default="both")
    sp.add_argument("--problem", help="builtin problem id")
    sp.add_argument("--data", help="JSON file with inline G/g/point-force data")
    sp.add_argument("--solution", help="write solution coefficients here")

    sp = sub.add_parser("rates", help="convergence-rate study")
    common(sp, mesh=False, m=False, h_convention=True)
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
    common(sp, mesh=False, m=False, h_convention=True)
    sp.add_argument("--problem", required=True)
    sp.add_argument("--level", type=_non_negative_int, default=0)
    sp.add_argument("--scheme", choices=("original", "modified"), default="modified")
    sp.add_argument("--lambda-j", dest="lambda_j", type=_non_negative_float,
                    help="certified companion constant; defaults to lambda0")
    p.subcommands = sub.choices
    return p


@functools.cache
def _shared_parser():
    """The parser of every call without --config, built once per process."""
    return _build_parser()


def _parse_args(argv):
    """Parse argv; with --config, file entries replace the built-in defaults.

    A ``command`` entry names the subcommand when argv names none, and must
    match the one argv names.  Each other entry must belong to the top level
    or to the subcommand that runs.  It is read as its flag's command-line
    text would be and becomes that flag's default, no longer required, on a
    freshly built parser; so a flag on the command line wins, yet the entry
    is still checked.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level options alone, read as the full parser reads them, so a
    # flag the config supplies is not required on the command line; they
    # precede the subcommand, whose own flags (rates --c for --csv) stay its own
    top = _Parser(add_help=False)
    top.add_argument("--config")
    top.add_argument("--threads")
    subcommands = _shared_parser().subcommands
    cut = next((i for i, a in enumerate(argv) if a in subcommands), len(argv))
    pre, tail = top.parse_known_args(argv[:cut])
    if not pre.config:
        return _shared_parser().parse_args(argv)
    try:
        with open(pre.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {pre.config}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, not {type(cfg).__name__}")
    command = argv[cut] if cut < len(argv) else None
    if command is None and "command" in cfg:
        # the config's subcommand goes between the top-level options and the rest
        command = str(cfg["command"])
        threads = [] if pre.threads is None else ["--threads", pre.threads]
        argv = ["--config", pre.config, *threads, command, *tail]
    elif "command" in cfg and str(cfg["command"]) != command:
        raise ValueError(f"config command {cfg['command']!r} is not the subcommand {command!r}")
    parser = _build_parser()  # the defaults set below must not reach the shared parser
    owners = [q for q in (parser, parser.subcommands.get(command)) if q is not None]
    actions = {a.dest: a for q in owners for a in q._actions
               if a.dest not in ("help", "config")}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for dest, value in cfg.items():
        if dest != "command":
            a = actions[dest]
            # a flag that takes no value (--estimates) keeps the JSON value
            a.default = value if a.nargs == 0 else _config_value(a, value)
            a.required = False
    return parser.parse_args(argv)


def _config_value(action, value):
    """`value` read as its flag's command-line text: str, type, then choices."""
    entry = f"config entry {action.dest}={value!r}"
    try:
        read = str(value) if action.type is None else action.type(str(value))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{entry}: {exc}")
    except ValueError:
        raise ValueError(f"{entry} is not a valid {action.type.__name__}")
    if action.choices is not None and read not in action.choices:
        raise ValueError(f"{entry} is not one of {list(action.choices)}")
    return read


def _slug(mesh_id):
    return str(mesh_id).replace(":", "-").replace("/", "_")


def _parse_mesh(spec):
    from .mesh import BUILTIN_MESHES, MeshError, load_mesh

    if spec is None:
        raise ValueError("--mesh is required")
    if ":" in spec and not os.path.isfile(spec):  # an existing file is a mesh file
        name, _, n = spec.partition(":")
        try:
            n = _positive_int(n)
        except argparse.ArgumentTypeError:
            raise ValueError(f"bad mesh size in {spec!r}")
        if name not in BUILTIN_MESHES:
            raise ValueError(f"unknown builtin mesh {name!r}")
        return BUILTIN_MESHES[name](n), spec
    try:
        return load_mesh(spec), spec
    except MeshError as exc:
        raise ValueError(f"mesh file {spec}: {exc}")


def _poly_field(entry, shape, path):
    """The field of a ``g`` or ``G`` entry of the data file `path`: per
    component, a list of [c, i, j] terms c * x**i * y**j with a finite c and
    integers i, j >= 0 of a degree the quadrature integrates exactly."""
    import numpy as np

    from .fields import MatrixField, ScalarField, VectorField
    from .quadrature import MAX_TRIANGLE_DEGREE

    def poly(terms):
        for t in terms:
            if not (isinstance(t, list) and len(t) == 3
                    and _is_number(t[0]) and math.isfinite(t[0])
                    and all(type(e) is int and e >= 0 for e in t[1:])
                    and t[1] + t[2] <= MAX_TRIANGLE_DEGREE):
                raise ValueError(
                    f"bad polynomial term in data file {path}: {json.dumps(t)} is not"
                    f" [c, i, j] with a finite number c and integers i, j >= 0,"
                    f" i + j <= {MAX_TRIANGLE_DEGREE}"
                )

        def fn(x, y):
            out = np.zeros(np.shape(x))
            for c, i, j in terms:
                out = out + c * x**i * y**j
            return out

        return fn, max((i + j for _, i, j in terms), default=0)

    if shape == ():
        fn, deg = poly(entry)
        return ScalarField(fn, degree=deg)
    # the components in row-major order; the symmetric matrix repeats poly12
    keys = ("poly1", "poly2") if shape == (2,) else ("poly11", "poly12", "poly12", "poly22")
    parts = [poly(entry[k]) for k in keys]

    def fn(x, y):
        return np.stack([f(x, y) for f, _ in parts], axis=-1).reshape(np.shape(x) + shape)

    field = VectorField if shape == (2,) else MatrixField
    return field(fn, degree=max(deg for _, deg in parts))


def _load_inline_data(path, m, mesh):
    from .assembly import RhsData

    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"cannot read data file {path}: {exc}")
    try:
        unknown = set(raw) - {"G", "g", "point_forces"}
        if unknown:
            raise ValueError(f"unknown data keys {sorted(unknown)}")
        g = _poly_field(raw["g"], (), path) if "g" in raw else None
        G = _poly_field(raw["G"], (2,) if m == 1 else (2, 2), path) if "G" in raw else None
        forces = [_point_force(pf, mesh, path) for pf in raw.get("point_forces", [])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed data file {path}: {type(exc).__name__} {exc}")
    return RhsData(G=G, g=g, point_forces=forces)


def _is_number(value):
    return type(value) in (int, float)  # what json reads as a number; bool is no number


def _point_force(pf, mesh, path):
    """The PointForce of one ``point_forces`` entry of the data file `path`:
    a finite ``beta`` at an integer ``vertex``, or at an ``edge_point`` on an
    edge with a split ``mu`` in [0, 1] (default 0.5)."""
    import numpy as np

    from .assembly import PointForce

    def bad(what):
        raise ValueError(f"bad point force in data file {path}: {what}")

    beta = pf["beta"]
    if not (_is_number(beta) and math.isfinite(beta)):
        bad(f"beta must be a finite number, not {beta!r}")
    if "vertex" in pf:
        v = pf["vertex"]
        if not (type(v) is int and 0 <= v < mesh.n_vertices):
            bad(f"vertex must be an integer from 0 to {mesh.n_vertices - 1}, not {v!r}")
        return PointForce(beta=beta, vertex=v)
    point, mu = pf["edge_point"], pf.get("mu", 0.5)
    if not (isinstance(point, list) and len(point) == 2 and all(map(_is_number, point))):
        bad(f"edge_point must be a pair of numbers, not {point!r}")
    if not (_is_number(mu) and 0.0 <= mu <= 1.0):
        bad(f"mu must be a number in [0, 1], not {mu!r}")
    point = np.array(point, dtype=float)
    edge = _find_edge(mesh, point)
    if edge is None:
        bad(f"point {point.tolist()} lies on no edge")
    return PointForce(beta=beta, edge=edge, point=tuple(point), mu=mu)


def _find_edge(mesh, point):
    """The edge through `point`, or None when no edge passes through it: the
    nearest edge, if `point` lies within 1e-10 of its length from it."""
    import numpy as np

    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    seg = b - a
    L2 = np.einsum("ed,ed->e", seg, seg)
    t = np.clip(np.einsum("ed,ed->e", point - a, seg) / L2, 0.0, 1.0)
    d = np.linalg.norm(a + t[:, None] * seg - point, axis=1)
    e = int(np.argmin(d))
    # "not <=" so that a NaN distance (a NaN coordinate) matches no edge
    if not d[e] <= 1e-10 * np.sqrt(L2[e]):
        return None
    return e


def _out_path(args, path, default_name):
    """`path` as given, else `default_name` in the --out directory, if any."""
    if path is None and args.out:
        os.makedirs(args.out, exist_ok=True)
        return os.path.join(args.out, default_name)
    return path


def _finish(args, report, default_name):
    """Record the settings in the report, write it, print its assertions and
    return the exit code; every command's report leaves through here, and a
    report without a ``passed`` flag is marked passed."""
    report.setdefault("passed", True)
    # the effective settings, defaults included, for reproducibility
    report["config"] = {k: v for k, v in sorted(vars(args).items())
                        if k != "config" and v is not None}
    path = _out_path(args, args.json, default_name)
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    for a in report.get("assertions", []):
        mark = "PASS" if a["pass"] else "FAIL"
        print(f"[{mark}] {a['name']}")
    if path:
        print(f"report written to {path}")
    return 0 if report["passed"] else ASSERT_ERROR


def _cmd_verify(args):
    import numpy as np

    from .experiments import _assert_le
    from .fespace import FeFunction, nc_kind
    from .linalg import EIG_RESIDUAL_TOL
    from .norms import error_norms
    from .operators import (
        Discretization,
        best_approx_orthogonality_check,
        companion,
        interpolate,
        kappa_constant,
    )

    mesh, mesh_id = _parse_mesh(args.mesh)
    disc = Discretization(mesh, nc_kind(args.m))
    space, cmap = disc.space, disc.cmap
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
        # the moments are area-weighted: scale by sqrt|Omega| to compare with 1e-10
        nrm = error_norms(v, orders=energy).energy_pw * np.sqrt(mesh.area.sum())
        worst_orth = max(
            worst_orth, best_approx_orthogonality_check(jv, ivjv) / max(nrm, 1e-30)
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
    res = disc.lam0
    report["values"] = {"lambda0": res.lambda0, "c_qo": res.c_qo,
                        "eigen_residual": res.residual}
    _assert_le(report, "eigen residual", res.residual, EIG_RESIDUAL_TOL)
    return report, f"verify_m{args.m}_{_slug(mesh_id)}_{args.seed}.json"


def _weighted_l2_defect(space, v, jv, h):
    from . import assembly
    from .fields import fe_derivative, field_sum

    diff = field_sum(fe_derivative(jv, 0), fe_derivative(v, 0), 1.0, -1.0)
    return assembly.weighted_field_l2(diff, space.mesh, weights=h ** (-space.m))


def _cmd_lambda0(args):
    from .fespace import nc_kind
    from .linalg import EIG_RESIDUAL_TOL
    from .operators import Discretization

    mesh, mesh_id = _parse_mesh(args.mesh)
    disc = Discretization(mesh, nc_kind(args.m))
    res = disc.lam0
    report = {
        "schema": "ncfem-report-v1",
        "experiment": "lambda0",
        "m": args.m,
        "mesh": {"id": mesh_id, "ndofs": disc.space.ndofs},
        "seed": args.seed,
        "lambda0": res.lambda0,
        "c_qo": res.c_qo,
        "lambda_max": res.lambda_max,
        "eigen_residual": res.residual,
        "matrices_dim": disc.A.shape[0],
        "passed": bool(res.residual <= EIG_RESIDUAL_TOL),
        "assertions": [],
    }
    print(f"lambda0 = {res.lambda0:.12g}  C_qo = {res.c_qo:.12g}  "
          f"residual = {res.residual:.3e}")
    return report, f"lambda0_m{args.m}_{_slug(mesh_id)}_{args.seed}.json"


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
    return report, f"counterexample_{args.kind}_{_slug(mesh_id)}_{args.seed}.json"


def _cmd_compare(args):
    from .experiments import run_compare

    mesh, mesh_id = _parse_mesh(args.mesh)
    report = run_compare(mesh, args.m, seed=args.seed, mesh_id=mesh_id)
    return report, f"compare_m{args.m}_{_slug(mesh_id)}_{args.seed}.json"


def _cmd_rates(args):
    from .experiments import RATE_LEVELS, rate_csv, run_rate_study

    if args.levels not in RATE_LEVELS:
        lo, hi = RATE_LEVELS[0], RATE_LEVELS[-1]
        raise ValueError(f"--levels must be from {lo} to {hi}, not {args.levels}")
    report = run_rate_study(
        args.problem,
        args.levels,
        scheme=args.scheme,
        seed=args.seed,
        include_estimates=bool(args.estimates),
        h_convention=args.h_convention,
    )
    csv_path = _out_path(
        args, args.csv, f"rates_{args.problem}_m{report['m']}_{args.scheme}_{args.seed}.csv"
    )
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(rate_csv(report))
        print(f"rate table written to {csv_path}")
    for row in report["rows"]:
        errs = " ".join(f"{k}={v:.4e}" for k, v in row["errors"].items())
        print(f"level {row['level']:2d} ndof {row['ndof']:7d} h {row['hmax']:.4e} {errs}")
    return report, f"rates_{args.problem}_{args.scheme}_{args.seed}.json"


def _cmd_solve(args):
    from .fespace import FeFunction, nc_kind, save_function
    from .linalg import solve_spd
    from .norms import error_norms
    from .operators import Discretization
    from .problems import get_problem

    if (args.problem is None) == (args.data is None):
        raise ValueError("exactly one of --problem / --data is required")
    if args.problem:
        if args.m is not None:
            raise ValueError("--m goes with --data only; --problem fixes m")
        prob = get_problem(args.problem)
        m = prob.m
        mesh, mesh_id = _parse_mesh(args.mesh or f"{prob.domain}:{prob.base_n}")
        data = prob.data(mesh)
        reference = prob.reference()
    else:
        if args.m not in (1, 2):
            raise ValueError("--m is required with --data")
        m = args.m
        mesh, mesh_id = _parse_mesh(args.mesh)
        data = _load_inline_data(args.data, m, mesh)
        reference = None
    disc = Discretization(mesh, nc_kind(m))
    space = disc.space
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
    solved = []
    for scheme in schemes:
        # reported, not raised: a solve that misses the rule reads converged false
        x, rep = solve_spd(disc.A, disc.rhs(scheme, data), lu=disc.lu)
        solved.append((scheme, rep, FeFunction(space, x)))
    # one pass per norm kind for all schemes: the reference is sampled once
    energies = error_norms([(u, (m,)) for _, _, u in solved])
    errors = ([None] * len(solved) if reference is None else
              error_norms([(u, (0, m)) for _, _, u in solved], reference=reference))
    for (scheme, rep, u), energy, err in zip(solved, energies, errors):
        entry = {
            "solver": {"method": rep.method, "residual": rep.residual,
                       "converged": rep.converged},
            "energy_norm": energy.energy_pw,
        }
        if err is not None:
            entry["errors"] = {"energy_pw": err.energy_pw, "l2": err.l2}
        report["schemes"][scheme] = entry
        if args.solution:
            stem, ext = os.path.splitext(args.solution)
            path = args.solution if len(schemes) == 1 else f"{stem}_{scheme}{ext}"
            save_function(u, path)
            entry["solution_file"] = path
        report["passed"] &= rep.converged
    return report, f"solve_m{m}_{args.seed}.json"


def _cmd_estimate(args):
    from .estimator import estimate_modified, estimate_original
    from .fespace import nc_kind
    from .mesh import red_refine
    from .operators import Discretization
    from .problems import get_problem

    prob = get_problem(args.problem)
    mesh = prob.base_mesh()
    for _ in range(args.level):
        mesh = red_refine(mesh)
    disc = Discretization(mesh, nc_kind(prob.m))
    data = prob.data(mesh)
    u = disc.solve(disc.rhs(args.scheme, data))
    reference = prob.reference()
    if args.scheme == "original":
        report = estimate_original(disc, data, u, reference=reference,
                                   h_convention=args.h_convention)
    else:
        report = estimate_modified(disc, data, u, reference=reference,
                                   lambda_j=args.lambda_j, h_convention=args.h_convention)
    report.update(problem=args.problem, level=args.level, seed=args.seed)
    for key, val in report["bounds"].items():
        print(f"{key} = {val:.6e}")
    if report["measured_errors"]:
        for key, val in report["measured_errors"].items():
            print(f"measured {key} = {val:.6e}")
    return report, f"estimate_{args.problem}_{args.scheme}_{args.seed}.json"


def main(argv=None):
    """Run one ``ncfem`` command; returns its exit code."""
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
        args = _parse_args(argv)
        if args.threads:
            _set_thread_env(args.threads)
        if args.command is None:
            _shared_parser().print_help()
            return USAGE_ERROR
        from .quadrature import thread_cap

        with thread_cap(args.threads):
            return _finish(args, *handlers[args.command](args))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"ncfem: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
