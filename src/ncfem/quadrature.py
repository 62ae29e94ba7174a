"""Exact quadrature for piecewise polynomials on triangles and edges.

Triangle rules are conical (Duffy) products of Gauss-Legendre and
Gauss-Jacobi nodes, so every assembly integrand in this package is
integrated exactly up to roundoff; points are strictly interior.  Weights
are normalized to sum to one and are meant to be scaled by |T| or |E|.
The one-dimensional rules are tabulated, not computed: they are the
float64 nodes and weights of scipy's ``roots_legendre`` and
``roots_jacobi(n, 1, 0)``, so no command imports ``scipy.special``.

Every element integral in the package runs through :func:`cells`: it picks
the rule from the integrand's degree, walks the mesh in chunks of triangles
and yields, per chunk, one :class:`Cell` per subcell of the integration
partition (the plain triangles, or the three HCT subtriangles when any
participant lives on the split); :func:`pairing` integrates over a Cell.

:func:`ordered_map` runs independent pieces of work on worker threads and
returns their results in order; :func:`point_parts` cuts a large Cell's
points into the pieces that pointwise closed forms are evaluated on.
Neither changes a bit of any result: no piece reads another's output, and
nothing is summed across pieces.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._hct import CHUNK, SUB_TO_PARENT

__all__ = [
    "QuadRule",
    "Cell",
    "triangle_rule",
    "edge_rule",
    "cells",
    "pairing",
    "parent_points",
    "subcell_corners",
    "ordered_map",
    "point_parts",
    "thread_cap",
    "MAX_TRIANGLE_DEGREE",
]

MAX_TRIANGLE_DEGREE = 16

# point_parts splits a Cell of at least this many points, one part per worker.
# On 2 cores the closed forms of lshape-singular-m1 alone broke even at about
# 2e4 points, but splitting the 25k-41k-point Cells of the level-3 square
# problems did not measurably speed up their estimate commands; 2^16 splits
# the Cells of the L-shape from level 3 and of the square from level 4 on.
SPLIT_MIN_POINTS = 2**16

# glibc's mallopt parameter number of M_ARENA_MAX (malloc.h)
_M_ARENA_MAX = -8

_WORKER_NAME = "ncfem-worker"
_thread_cap = None  # thread_cap's n
_pool = None  # ordered_map's executor, started on first use
_pool_lock = threading.Lock()

# n-point Gauss-Legendre and Gauss-Jacobi (alpha=1, beta=0) rules on [-1, 1],
# n: (nodes, weights) for n = 1..9, the points MAX_TRIANGLE_DEGREE needs.  The
# literals are exactly what scipy 1.17.1's roots_legendre(n) and
# roots_jacobi(n, 1, 0) return (Golub and Welsch, Math. Comp. 23, 1969);
# tests/test_quadrature.py compares them with scipy byte for byte.
_LEGENDRE = {
    1: ((0.0,), (2.0,)),
    2: ((-0.5773502691896257, 0.5773502691896257), (1.0, 1.0)),
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555558, 0.8888888888888883, 0.5555555555555558)),
    4: ((-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526),
        (0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538)),
    5: ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
        (0.23692688505618897, 0.4786286704993665, 0.568888888888889, 0.4786286704993665,
         0.23692688505618897)),
    6: ((-0.932469514203152, -0.6612093864662645, -0.23861918608319693, 0.23861918608319693,
         0.6612093864662645, 0.932469514203152),
        (0.17132449237917016, 0.36076157304813855, 0.4679139345726912, 0.4679139345726912,
         0.36076157304813855, 0.17132449237917016)),
    7: ((-0.9491079123427584, -0.7415311855993945, -0.4058451513773972, 0.0,
         0.4058451513773972, 0.7415311855993945, 0.9491079123427584),
        (0.12948496616886992, 0.2797053914892766, 0.38183005050511876, 0.4179591836734691,
         0.38183005050511876, 0.2797053914892766, 0.12948496616886992)),
    8: ((-0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.18343464249564984,
         0.18343464249564984, 0.525532409916329, 0.7966664774136267, 0.9602898564975363),
        (0.10122853629037562, 0.22238103445337473, 0.3137066458778876, 0.36268378337836205,
         0.36268378337836205, 0.3137066458778876, 0.22238103445337473, 0.10122853629037562)),
    9: ((-0.9681602395076261, -0.8360311073266358, -0.6133714327005904, -0.3242534234038089,
         0.0, 0.3242534234038089, 0.6133714327005904, 0.8360311073266358, 0.9681602395076261),
        (0.08127438836157413, 0.1806481606948576, 0.2606106964029355, 0.31234707704000275,
         0.3302393550012596, 0.31234707704000275, 0.2606106964029355, 0.1806481606948576,
         0.08127438836157413)),
}

_JACOBI_1_0 = {
    1: ((-0.3333333333333333,), (2.0,)),
    2: ((-0.6898979485566357, 0.2898979485566358),
        (1.2721655269759087, 0.7278344730240913)),
    3: ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    4: ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234)),
    5: ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
         0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
         0.0629916580867692)),
    6: ((-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
         0.538467724060109, 0.8538913426394822),
        (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
         0.17582066220203585, 0.034953207254438116)),
    7: ((-0.955041227122575, -0.7706418936781917, -0.4684203544308209, -0.09430725266111074,
         0.2947505657736607, 0.6395186165262152, 0.8874748789261557),
        (0.22386945369396347, 0.4420370327634976, 0.5095635891983541, 0.42850026278349523,
         0.2655387858619663, 0.10963342688749395, 0.020857448811229563)),
    8: ((-0.9644401697052731, -0.817352784200412, -0.5713830412087385, -0.2561356708334554,
         0.09037336960685335, 0.4263504857111389, 0.7112674859157089, 0.9107320894200603),
        (0.17820321744622417, 0.3644760945454951, 0.4500231978835482, 0.42418943774372003,
         0.31679839796927683, 0.18175727801879568, 0.0713716106239449, 0.013180765768995064)),
    9: ((-0.9711751807022471, -0.8512252205816078, -0.6477666876740094, -0.3806648401447244,
         -0.07605919783797811, 0.23623446939058804, 0.5256460303700793, 0.7638420424200026,
         0.9274843742335811),
        (0.14511201409311436, 0.30429702043723433, 0.3941349686893839, 0.40123523677347395,
         0.33743328737968203, 0.23360478118066105, 0.1272192859642162, 0.04824001713914158,
         0.008723388343092527)),
}


@dataclass(frozen=True)
class QuadRule:
    """Quadrature nodes in barycentric coordinates, weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_points(self):
        return len(self.weights)


def _n_points(degree, shape):
    """Number of Gauss points for `degree`; n points are exact to 2n-1."""
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(
            f"{shape} rule degree must be in 0..{MAX_TRIANGLE_DEGREE}, got {degree}"
        )
    return max(1, (degree + 2) // 2)


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule integrating all polynomials up to `degree` exactly on a triangle.

    Usage: ``integral = area * (weights @ f(points))`` with `points` the
    (n, 3) barycentric nodes.
    """
    n = _n_points(degree, "triangle")
    x_leg, w_leg = map(np.array, _LEGENDRE[n])
    x_jac, w_jac = map(np.array, _JACOBI_1_0[n])
    xi = 0.5 * (x_leg + 1.0)
    wxi = 0.5 * w_leg
    eta = 0.5 * (x_jac + 1.0)
    weta = 0.25 * w_jac  # integrates (1-eta) f(eta) on [0,1]
    XI, ETA = np.meshgrid(xi, eta, indexing="ij")
    x = (XI * (1.0 - ETA)).ravel()
    y = ETA.ravel()
    w = 2.0 * np.outer(wxi, weta).ravel()  # normalize: plain sum is the area 1/2
    bary = np.column_stack([1.0 - x - y, x, y])
    return QuadRule(points=bary, weights=w)


@lru_cache(maxsize=None)
def edge_rule(degree):
    """Gauss-Legendre rule on a segment, barycentric (1-t, t) nodes."""
    x, w = map(np.array, _LEGENDRE[_n_points(degree, "edge")])
    t = 0.5 * (x + 1.0)
    bary = np.column_stack([1.0 - t, t])
    return QuadRule(points=bary, weights=0.5 * w)


class Cell(NamedTuple):
    """Quadrature points of one rule on subcell `s` of the triangles `ts`.

    `parent` holds the points in triangle coordinates (on the HCT split,
    the rule's subcell points mapped to the parent); `phys` holds the
    physical points (nts, k, 2), `area` the subcell areas |T|/nsub and
    `weights` the rule weights (summing to one).  A Cell built for edge or
    vertex samples leaves `area` and `weights` None, and `phys` too when
    no reference samples it.
    """

    ts: np.ndarray
    s: int
    nsub: int
    parent: np.ndarray
    phys: np.ndarray
    area: np.ndarray
    weights: np.ndarray


def subcell_corners(mesh, ts, s, nsub):
    """Corners (nts, 3, 2) of subcell s: the triangle itself when nsub is 1,
    else the HCT subtriangle (centroid, A_{s+1}, A_{s+2})."""
    tri = mesh.triangles[ts]
    if nsub == 1:
        return mesh.vertices[tri]
    corners = np.empty((len(ts), 3, 2))
    corners[:, 0] = mesh.centroid[ts]
    corners[:, 1] = mesh.vertices[tri[:, (s + 1) % 3]]
    corners[:, 2] = mesh.vertices[tri[:, (s + 2) % 3]]
    return corners


def parent_points(points, s, nsub):
    """Triangle coordinates of the barycentric `points` of subcell s: the
    points themselves when nsub is 1, else mapped from HCT subtriangle s."""
    return points if nsub == 1 else points @ SUB_TO_PARENT[s]


def cells(mesh, degree, *over):
    """Yield, per chunk of at most ``CHUNK`` triangles, the list of its Cells.

    The rule is ``triangle_rule`` at the integrand's polynomial `degree`,
    capped at ``MAX_TRIANGLE_DEGREE``.  The partition is the HCT split
    (three subcells per triangle) when any of `over` (spaces or fields; None
    is skipped) has ``n_subcells == 3``, else the plain triangles (one cell
    per chunk).
    """
    rule = triangle_rule(min(degree, MAX_TRIANGLE_DEGREE))
    nsub = max([1] + [o.n_subcells for o in over if o is not None])
    for start in range(0, mesh.n_triangles, CHUNK):
        ts = np.arange(start, min(start + CHUNK, mesh.n_triangles))
        area = mesh.area[ts] / nsub
        yield [
            Cell(
                ts,
                s,
                nsub,
                parent_points(rule.points, s, nsub),
                rule.points @ subcell_corners(mesh, ts, s, nsub),
                area,
                rule.weights,
            )
            for s in range(nsub)
        ]


def pairing(cell, a, b, area=None):
    """Sum over the cell's triangles and points of weight * area * (a:b) for
    samples a, b of shape (nts, k) + shape; `area` defaults to the cell's."""
    a = a.reshape(a.shape[:2] + (-1,))
    b = b.reshape(b.shape[:2] + (-1,))
    dens = np.einsum("fkc,fkc->fk", a, b)
    return float(np.einsum("k,f,fk->", cell.weights, cell.area if area is None else area, dens))


@contextmanager
def thread_cap(n):
    """Inside the block, :func:`ordered_map` uses at most `n` threads (None:
    no cap); ``n = 1`` keeps all work in the calling thread."""
    global _thread_cap
    before, _thread_cap = _thread_cap, n
    try:
        yield
    finally:
        _thread_cap = before


def _cpu_count():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _n_workers():
    """Threads :func:`ordered_map` uses: the CPUs, capped by thread_cap; one
    inside a worker, whose nested map would wait on its own pool."""
    if threading.current_thread().name.startswith(_WORKER_NAME):
        return 1
    cpus = _cpu_count()
    return cpus if _thread_cap is None else min(cpus, _thread_cap)


def _worker_pool():
    """The executor, started on first use with one thread fewer than the CPUs
    (the calling thread works too).  Before it starts, glibc is limited to one
    malloc arena by ``mallopt(M_ARENA_MAX, 1)`` through ctypes, the route
    ``linalg._release_free_heap`` takes to malloc_trim (a no-op without
    glibc): an arena per thread would keep each thread's freed heap resident
    and raise the peak RSS."""
    global _pool
    with _pool_lock:
        if _pool is None:
            import concurrent.futures
            import ctypes

            try:
                mallopt = ctypes.CDLL(None).mallopt
                mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
                mallopt(_M_ARENA_MAX, 1)
            except (OSError, AttributeError):
                pass
            _pool = concurrent.futures.ThreadPoolExecutor(
                max(_cpu_count() - 1, 1), thread_name_prefix=_WORKER_NAME)
        return _pool


def ordered_map(fn, items):
    """``[fn(x) for x in items]``, the items cut into one contiguous run per
    worker (:func:`_n_workers`): the calling thread takes the first run and the
    pool the others.  After its own run the calling thread steals every run
    that no worker has started yet (its future cancels) and waits only for the
    started ones, so a pool kept busy by other work delays no map.  `fn` must
    not depend on which thread runs it or on another item's result; the
    results are then those of the plain loop, bit for bit.  With one worker or
    one item no thread is started."""
    items = list(items)
    n = min(_n_workers(), len(items)) if len(items) > 1 else 1
    if n == 1:
        return [fn(x) for x in items]
    bounds = [len(items) * i // n for i in range(n + 1)]
    runs = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def run(part):
        return [fn(x) for x in part]

    pool = _worker_pool()
    futures = [pool.submit(run, part) for part in runs[1:]]
    try:
        out = run(runs[0])
        stolen = [run(part) if fut.cancel() else None for fut, part in zip(futures, runs[1:])]
        for fut, got in zip(futures, stolen):
            out += fut.result() if got is None else got
    finally:
        for fut in futures:  # no work outlives the call, even when a run raised
            if not fut.cancel():
                fut.exception()
    return out


def point_parts(phys):
    """The points (nts, k, 2) as contiguous runs of triangles, one per worker
    of :func:`ordered_map` when they number at least ``SPLIT_MIN_POINTS``;
    else ``[phys]``."""
    n = _n_workers() if phys.shape[0] * phys.shape[1] >= SPLIT_MIN_POINTS else 1
    return [phys] if n == 1 else np.array_split(phys, min(n, len(phys)))
