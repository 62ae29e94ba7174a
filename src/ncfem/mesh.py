"""Simplicial 2D meshes: canonical domains, edge topology, uniform red refinement.

A :class:`Triangulation` is immutable after construction.  Triangles are stored
counterclockwise; every edge carries a globally fixed unit normal (pointing
from the lower-index into the higher-index adjacent triangle on interior
edges, outward on boundary edges) so that jump and average conventions are
deterministic everywhere downstream.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "MeshTopologyError",
    "Triangulation",
    "unit_square_mesh",
    "l_shape_mesh",
    "BUILTIN_MESHES",
    "red_refine",
    "save_mesh",
    "load_mesh",
    "mesh_size",
]

# duplicate-vertex tolerance, relative to the bounding-box diagonal
DUPLICATE_TOL = 1e-12


class MeshError(ValueError):
    pass


class MeshFormatError(MeshError):
    """Raised on malformed mesh files; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeshTopologyError(MeshError):
    """Raised when a mesh violates a structural invariant; names the simplex."""


class Triangulation:
    """Conforming triangulation of a polygonal domain.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (F, 3) int array, counterclockwise vertex triples
    edges : (E, 2) int array, canonical (low, high) vertex pairs
    edge_normal : (E, 2) unit normals per the global orientation convention
    edge_midpoint : (E, 2) edge midpoints
    edge_triangles : (E, 2) adjacent triangle indices, second entry -1 on
        boundary edges; interior entries sorted ascending
    triangle_edges : (F, 3) edge index opposite each local vertex
    interior_edge_mask, boundary_edge_mask, boundary_vertex_mask : bool masks
    """

    def __init__(self, vertices, triangles, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshTopologyError("vertices must be an (V, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshTopologyError("triangles must be an (F, 3) array")
        if validate:
            self._validate_input()
        with np.errstate(over="ignore", invalid="ignore"):  # reported next, per triangle
            self._build_geometry()
        if validate:
            bad = np.flatnonzero(~(np.isfinite(self.area) & np.isfinite(self.diameter)))
            if bad.size:
                t = bad[0]
                raise MeshTopologyError(f"triangle {t} has a non-finite area {self.area[t]} "
                                        f"or diameter {self.diameter[t]}")
        self._build_edges()
        if validate:
            self._validate_topology()
        # immutable: every array attribute is read-only
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # -- construction -----------------------------------------------------

    def _validate_input(self):
        V = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= V):
            bad = np.argwhere((self.triangles < 0) | (self.triangles >= V))[0]
            raise MeshTopologyError(
                f"triangle {bad[0]} references vertex {self.triangles[bad[0], bad[1]]} "
                f"out of range 0..{V - 1}"
            )
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            v = int(np.argmin(finite))
            raise MeshTopologyError(
                f"vertex {v} has a non-finite coordinate {self.vertices[v].tolist()}"
            )
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        diag = float(np.hypot(*(hi - lo)))
        tol = DUPLICATE_TOL * max(diag, 1.0)
        order = np.lexsort(self.vertices.T)
        pts = self.vertices[order]
        close = np.all(np.abs(np.diff(pts, axis=0)) <= tol, axis=1)
        if np.any(close):
            i = int(np.argmax(close))
            raise MeshTopologyError(
                f"duplicate vertices {order[i]} and {order[i + 1]} within tolerance"
            )

    def _build_geometry(self):
        p = self.vertices[self.triangles]  # (F, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        self.signed_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        self.area = np.abs(self.signed_area)
        e0 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        e1 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
        e2 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        self.diameter = np.maximum(e0, np.maximum(e1, e2))
        self.centroid = p.mean(axis=1)

    def _build_edges(self):
        tri = self.triangles
        F = len(tri)
        # local edge k is opposite local vertex k
        raw = np.stack(
            [tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1
        ).reshape(-1, 2)
        canon = np.sort(raw, axis=1)
        # the key lo * V + hi orders the edges like their (lo, hi) rows
        V = len(self.vertices)
        keys, inverse, counts = np.unique(
            canon[:, 0] * V + canon[:, 1], return_inverse=True, return_counts=True
        )
        edges = np.stack([keys // V, keys % V], axis=1)
        if np.any(counts > 2):
            e = edges[np.argmax(counts > 2)]
            raise MeshTopologyError(
                f"edge ({e[0]}, {e[1]}) is shared by more than two triangles"
            )
        self.edges = edges
        self.triangle_edges = inverse.reshape(F, 3)

        E = len(edges)
        adj = np.full((E, 2), -1, dtype=np.int64)
        tri_of_entry = np.repeat(np.arange(F), 3)
        order = np.argsort(inverse, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        first = tri_of_entry[order[offsets[:-1]]]
        adj[:, 0] = first
        two = counts == 2
        second = tri_of_entry[order[offsets[:-1][two] + 1]]
        adj[two, 0] = np.minimum(first[two], second)
        adj[two, 1] = np.maximum(first[two], second)
        self.edge_triangles = adj
        self.boundary_edge_mask = adj[:, 1] < 0
        self.interior_edge_mask = ~self.boundary_edge_mask

        a = self.vertices[edges[:, 0]]
        b = self.vertices[edges[:, 1]]
        vec = b - a
        self.edge_midpoint = 0.5 * (a + b)
        length = np.linalg.norm(vec, axis=1)
        normal = np.stack([vec[:, 1], -vec[:, 0]], axis=1) / length[:, None]
        # flip so the normal points out of the first (lower-index) triangle
        first = adj[:, 0]
        out = np.einsum("ij,ij->i", normal, self.edge_midpoint - self.centroid[first])
        flip = out < 0
        normal[flip] *= -1.0
        self.edge_normal = normal

        bvm = np.zeros(len(self.vertices), dtype=bool)
        bvm[edges[self.boundary_edge_mask].ravel()] = True
        self.boundary_vertex_mask = bvm

    def _validate_topology(self):
        bad = np.nonzero(self.signed_area <= 0)[0]
        if bad.size:
            raise MeshTopologyError(
                f"triangle {bad[0]} has non-positive signed area "
                f"{self.signed_area[bad[0]]:.3e}"
            )
        # boundary edges must close up: every boundary vertex sees exactly two
        bedges = self.edges[self.boundary_edge_mask]
        if bedges.size:
            counts = np.bincount(bedges.ravel(), minlength=len(self.vertices))
            bad = np.nonzero((counts != 0) & (counts != 2))[0]
            if bad.size:
                raise MeshTopologyError(
                    f"boundary is not a union of closed loops at vertex {bad[0]}"
                )

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    def ancestor(self, t, generations):
        """Triangle index `generations` red-refinement levels up."""
        t = np.asarray(t)
        for _ in range(generations):
            t = t // 4
        return t


def mesh_size(mesh, convention="diameter"):
    """Per-triangle mesh size (F,): the (read-only) diameters or sqrt(area)."""
    if convention == "diameter":
        return mesh.diameter
    if convention == "sqrt_area":
        return np.sqrt(mesh.area)
    raise ValueError(f"unknown mesh-size convention {convention!r}")


def _grid_mesh(coords, keep):
    """Triangulate the cells (i, j) of the tensor grid coords x coords where
    keep[i, j]: two triangles per cell, cells in row-major order, vertex
    (i, j) numbered i * len(coords) + j before the unused ones are dropped."""
    n = len(coords)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    V = np.column_stack([X.ravel(), Y.ravel()])
    i, j = np.nonzero(keep)
    v00 = i * n + j
    v10, v01 = v00 + n, v00 + 1
    tris = np.stack([v00, v10, v10 + 1, v00, v10 + 1, v01], axis=1).reshape(-1, 3)
    used = np.unique(tris)
    remap = -np.ones(len(V), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return Triangulation(V[used], remap[tris])


def unit_square_mesh(n):
    """Uniform criss mesh of (0,1)^2 with 2*n^2 triangles."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _grid_mesh(np.linspace(0.0, 1.0, n + 1), np.ones((n, n), dtype=bool))


def l_shape_mesh(n):
    """L-shaped domain (-1,1)^2 minus the closed quadrant [0,1)x(-1,0].

    Union of three unit squares, each meshed as `unit_square_mesh(n)` and
    conformingly glued; the reentrant corner sits at the origin and is a
    mesh vertex for every n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    coords = np.linspace(-1.0, 1.0, 2 * n + 1)
    # drop cells inside [0,1] x [-1,0]
    cut = (coords[:-1] >= -1e-15)[:, None] & (coords[1:] <= 1e-15)[None, :]
    return _grid_mesh(coords, ~cut)


# builtin domains by name, each a function of the cells per unit side
BUILTIN_MESHES = {"square": unit_square_mesh, "lshape": l_shape_mesh}


def red_refine(mesh):
    """Split each triangle into four congruent children via edge midpoints.

    Children of parent t occupy indices 4t..4t+3 (three corner children in
    local vertex order, then the interior child), and new midpoint vertices
    are appended after the parent vertices in edge order.
    """
    V = mesh.n_vertices
    new_vertices = np.vstack([mesh.vertices, mesh.edge_midpoint])
    tri = mesh.triangles
    m = V + mesh.triangle_edges  # (F, 3) midpoint vertex opposite local vertex k
    children = np.empty((4 * mesh.n_triangles, 3), dtype=np.int64)
    children[0::4] = np.stack([tri[:, 0], m[:, 2], m[:, 1]], axis=1)
    children[1::4] = np.stack([tri[:, 1], m[:, 0], m[:, 2]], axis=1)
    children[2::4] = np.stack([tri[:, 2], m[:, 1], m[:, 0]], axis=1)
    children[3::4] = m
    return Triangulation(new_vertices, children)


# -- text format ----------------------------------------------------------
#
#   ncfem-mesh v1
#   V E_b F
#   <V lines: x y>
#   <F lines: i j k>        (0-based, counterclockwise)
#   <E_b lines: i j>        (boundary edges)
#
# Whitespace-separated; `#` starts a comment.

MESH_MAGIC = "ncfem-mesh v1"


def save_mesh(mesh, path):
    lines = [MESH_MAGIC]
    nb = int(mesh.boundary_edge_mask.sum())
    lines.append(f"{mesh.n_vertices} {nb} {mesh.n_triangles}")
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for i, j in mesh.edges[mesh.boundary_edge_mask]:
        lines.append(f"{i} {j}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    with open(path) as fh:
        raw = fh.readlines()
    tokens = []  # (line_number, token list)
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))

    def take(what, n_fields, conv):
        if not tokens:
            raise MeshFormatError(f"unexpected end of file, expected {what}", len(raw))
        lineno, fields = tokens.pop(0)
        if len(fields) != n_fields:
            raise MeshFormatError(
                f"expected {n_fields} fields for {what}, got {len(fields)}", lineno
            )
        try:
            return [conv(f) for f in fields]
        except ValueError as exc:
            raise MeshFormatError(f"cannot parse {what}: {exc}", lineno) from None

    if not tokens:
        raise MeshFormatError("empty mesh file", 1)
    lineno, fields = tokens.pop(0)
    if " ".join(fields) != MESH_MAGIC:
        raise MeshFormatError(f"bad header, expected {MESH_MAGIC!r}", lineno)
    counts_line = tokens[0][0] if tokens else None
    nv, nb, nf = take("counts header", 3, int)
    if min(nv, nb, nf) < 0:
        raise MeshFormatError(f"counts must be non-negative, got {nv} {nb} {nf}", counts_line)
    vertices = np.array([take("vertex", 2, float) for _ in range(nv)])
    triangles = np.array([take("triangle", 3, int) for _ in range(nf)], dtype=np.int64)
    declared = [take("boundary edge", 2, int) for _ in range(nb)]
    if tokens:
        raise MeshFormatError("unexpected data after the last boundary edge", tokens[0][0])
    mesh = Triangulation(vertices, triangles)
    stored = {tuple(sorted(e)) for e in mesh.edges[mesh.boundary_edge_mask]}
    for e in declared:
        if tuple(sorted(e)) not in stored:
            raise MeshTopologyError(
                f"declared boundary edge ({e[0]}, {e[1]}) is not a boundary edge "
                "of the triangulation"
            )
    if len(declared) != len(stored):
        raise MeshTopologyError(
            f"boundary edge count mismatch: file declares {len(declared)}, "
            f"mesh has {len(stored)}"
        )
    return mesh
