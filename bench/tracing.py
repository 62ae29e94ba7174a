"""In-memory span tracer that wraps ncfem's public functions from outside.

Each wrapped call records a span (name, start, end, parent, job id); nested
wrapped calls become child spans.  A layer's self time is a span's duration
minus the part of that interval its children cover.  Nothing under ``src/``
is edited: the tracer rebinds every module attribute through which ncfem
reaches a wrapped function and restores the originals on ``uninstall``.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

# Layer name -> modules whose public functions belong to it.  quadrature,
# _poly, fields and problems are helpers: their time counts toward the
# layer that calls them.
LAYER_MODULES = {
    "mesh": ["ncfem.mesh"],
    "fespace": ["ncfem.fespace", "ncfem._hct"],
    "operators": ["ncfem.operators"],
    "assembly": ["ncfem.assembly"],
    "linalg": ["ncfem.linalg"],
    "norms": ["ncfem.norms"],
    "estimator": ["ncfem.estimator"],
    "experiments": ["ncfem.experiments"],
    "cli": ["ncfem.cli"],
}

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: int | None
    start: float
    end: float
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - _covered(
            [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(sp.id, [])
             if min(e, sp.end) > max(s, sp.start)]
        )
        for sp in spans
    }


# ---- size attributes taken at layer boundaries (outside the measured span) --

def _attr_red_refine(args, kwargs, result):
    return {"triangles_out": int(result.n_triangles)}


def _attr_hct(args, kwargs, result):
    mesh = args[0] if args else kwargs["mesh"]
    return {"triangles": int(mesh.n_triangles)}


def _attr_solve(args, kwargs, result):
    x, rep = result
    return {"ndofs": len(x), "residual": float(rep.residual)}


def _attr_eig(args, kwargs, result):
    A = args[1] if len(args) > 1 else kwargs["A"]
    return {"ndofs": int(A.shape[0])}


def _attr_stiffness(args, kwargs, result):
    return {"nnz": int(result.nnz)}


def _attr_splu(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return {"fill_ratio": (result.L.nnz + result.U.nnz) / max(int(A.nnz), 1)}


# span name -> (attribute function, whether it reads the result); the ones
# that read only the arguments also run when the call raises
ATTRS = {
    "mesh.red_refine": (_attr_red_refine, True),
    "fespace.hct_coefficients": (_attr_hct, False),
    "linalg.solve_spd": (_attr_solve, True),
    "linalg.max_generalized_eig": (_attr_eig, False),
    "assembly.assemble_stiffness": (_attr_stiffness, True),
    "linalg.splu": (_attr_splu, True),
}


class Tracer:
    """Collects spans for the calls made through the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        ok, result = False, None
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = self.clock()
            self._stack.pop()
            span = Span(sid, parent, name, self.job, t0, t1, ok)
            self.spans[sid] = span
            attr_fn, needs_result = ATTRS.get(name, (None, False))
            if attr_fn is not None and (ok or not needs_result):
                # size extraction (e.g. nnz of the LU factors) is tracer work:
                # record it as its own span so no layer is charged for it
                b0 = self.clock()
                span.attrs = attr_fn(args, kwargs, result)
                self.spans.append(
                    Span(len(self.spans), parent, BOOKKEEPING, self.job, b0, self.clock())
                )

    def wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every public ncfem layer function, numpy.einsum and splu."""
        import numpy
        import scipy.sparse.linalg

        import ncfem.cli, ncfem.estimator, ncfem.experiments  # noqa: E401,F401

        originals = {}
        for layer, mod_names in LAYER_MODULES.items():
            for mod_name in mod_names:
                mod = sys.modules[mod_name]
                for attr, obj in vars(mod).items():
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != mod_name):
                        continue
                    if layer == "cli" and attr != "main":
                        continue
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        ncfem_mods = [m for n, m in sorted(sys.modules.items())
                      if (n == "ncfem" or n.startswith("ncfem.")) and m is not None]
        for mod in ncfem_mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._patch(numpy, "einsum", self.wrap("kernel.einsum", numpy.einsum))
        self._patch(scipy.sparse.linalg, "splu",
                    self.wrap("linalg.splu", scipy.sparse.linalg.splu))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, origin=0.0):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "name": sp.name, "job": sp.job,
                    "start": sp.start - origin, "end": sp.end - origin,
                    "ok": sp.ok, **({"attrs": sp.attrs} if sp.attrs else {}),
                }) + "\n")


# ---- per-job aggregation into the per-layer metrics ------------------------

# metric prefix -> span names whose self times and attributes it sums
GROUPS = {
    "norms.error_norms": ["norms.error_norms"],
    "fespace.hct_coefficients": ["fespace.hct_coefficients"],
    "fespace.build_space": ["fespace.build_space"],
    "linalg.max_generalized_eig": ["linalg.max_generalized_eig"],
    "linalg.solve_spd": ["linalg.solve_spd"],
    "linalg.splu": ["linalg.splu"],
    "assembly.assemble_stiffness": ["assembly.assemble_stiffness"],
    "assembly.assemble_rhs": ["assembly.assemble_rhs_original",
                              "assembly.assemble_rhs_modified",
                              "assembly.assemble_load"],
    "assembly.data_norms": ["assembly.distance_to_p0", "assembly.weighted_field_l2",
                            "assembly.l2_project", "assembly.oscillation"],
    "operators.build_companion": ["operators.build_companion"],
    "operators.companion": ["operators.companion"],
    "operators.interpolate": ["operators.interpolate"],
    "operators.compute_lambda0": ["operators.compute_lambda0"],
    "mesh.red_refine": ["mesh.red_refine"],
    "estimator.estimate": ["estimator.estimate_modified", "estimator.estimate_original"],
}

# layers whose whole self time is reported as <layer>.self_s
LAYER_TOTALS = ["mesh", "fespace", "operators", "assembly", "linalg", "norms",
                "experiments", "cli"]


def job_layer_metrics(spans):
    """Per-layer metrics of one job's spans, as {name: value}."""
    st = self_times(spans)

    def group(prefix):
        return [sp for sp in spans if sp.name in GROUPS[prefix]]

    def attrs(prefix, key):
        return [sp.attrs[key] for sp in group(prefix) if key in sp.attrs]

    m = {f"{prefix}.self_s": sum((st[sp.id] for sp in group(prefix)), 0.0)
         for prefix in GROUPS}
    for layer in LAYER_TOTALS:
        m[f"{layer}.self_s"] = sum((st[sp.id] for sp in spans
                                    if sp.name.startswith(layer + ".")), 0.0)
    einsum = [sp for sp in spans if sp.name == "kernel.einsum"]
    m["kernel.einsum.s"] = sum((st[sp.id] for sp in einsum), 0.0)
    m["kernel.einsum.calls"] = len(einsum)
    m["norms.error_norms.calls"] = len(group("norms.error_norms"))
    m["fespace.hct_coefficients.triangles"] = sum(attrs("fespace.hct_coefficients",
                                                        "triangles"))
    eig = group("linalg.max_generalized_eig")
    m["linalg.max_generalized_eig.calls"] = len(eig)
    m["linalg.max_generalized_eig.failed"] = sum(not sp.ok for sp in eig)
    m["linalg.max_generalized_eig.ndofs_max"] = max(
        attrs("linalg.max_generalized_eig", "ndofs"), default=0)
    m["linalg.solve_spd.ndofs"] = sum(attrs("linalg.solve_spd", "ndofs"))
    m["linalg.solve_spd.residual_max"] = max(attrs("linalg.solve_spd", "residual"),
                                             default=0.0)
    # highest fill among the job's factorizations: nnz(L + U) / nnz(A)
    m["linalg.splu.fill_ratio"] = max(attrs("linalg.splu", "fill_ratio"), default=0.0)
    m["assembly.assemble_stiffness.nnz"] = sum(attrs("assembly.assemble_stiffness", "nnz"))
    m["mesh.red_refine.triangles_out"] = sum(attrs("mesh.red_refine", "triangles_out"))
    return m


_COUNTS = {"calls", "failed", "triangles", "triangles_out", "ndofs", "ndofs_max", "nnz"}
_RATIOS = {"residual_max", "fill_ratio", "overhead_frac"}


def unit(metric):
    """Unit of a per-layer metric, from the last part of its name."""
    last = metric.rsplit(".", 1)[-1]
    return "count" if last in _COUNTS else "1" if last in _RATIOS else "s"


def median_metrics(per_job):
    """Median over jobs of each metric."""
    keys = per_job[0].keys() if per_job else []
    return {k: statistics.median(j[k] for j in per_job) for k in keys}
