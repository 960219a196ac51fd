"""Hierarchical 2D quadrilateral meshes with deterministic uniform refinement.

Cells carry globally unique ids per refinement level.  A child id is a pure
function of the parent id (``4*parent + child_index``), so every simulated
rank derives the same numbering without communication.  Meshes are immutable
and shared read-only by the ranks; `Mesh.refined` builds each level once.

Topology is held in integer arrays only: the cells' vertex ids (the row
number is the cell id), the edges as sorted vertex pairs with their
incidence counts (one ``np.unique`` over pair codes) and each cell's edge
ids.  Validation and refinement work on these arrays.  A mesh is admissible
(two cells share an edge, one vertex or nothing) exactly when no cell's
diagonal is another cell's edge or diagonal; an error names the lowest cell
holding the lowest repeated vertex pair as a diagonal and the lowest other
cell holding both of its vertices.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_REFINE_LOCK = threading.Lock()


class MeshError(ValueError):
    pass


class Mesh:
    """Admissible quadrilateral triangulation.

    `cells` is an (n_cells, 4) integer array of vertex ids in counterclockwise
    order, one row per cell with the row number as cell id; in a refined mesh
    (level > 0), cell ``g`` is a child of cell ``g // 4``.

    Attributes:
        vertices: (n, 2) float array of vertex coordinates.
        cell_vertices: (n_cells, 4) int array, vertex ids of each cell.
        level: refinement level of this mesh.
        edges: (n_edges, 2) int array of vertex-id pairs a < b, ascending.
        edge_counts: number of incident cells per edge.
        cell_edges: (n_cells, 4) edge id of each local edge (v_k, v_k+1).
        circle: ascending int64 ids of the vertices on the unit circle.
    """

    def __init__(self, vertices, cells, level=0, circle=()):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        cells, nv = np.asarray(cells), len(self.vertices)
        if cells.ndim != 2 or cells.shape[1] != 4 or cells.dtype.kind not in "iu":
            raise MeshError("cells must be an (n, 4) integer array of vertex ids")
        (bad,) = np.nonzero(np.any((cells < 0) | (cells >= nv), axis=1))
        if bad.size:
            raise MeshError(f"cell {bad[0]} has a vertex id outside [0, {nv})")
        self.cell_vertices = cells.astype(np.int64)
        self.level = level
        c = self.circle = np.asarray(circle, dtype=np.int64)
        if np.any(c[1:] <= c[:-1]) or np.any(c[:1] < 0) or np.any(c[-1:] >= nv):
            raise MeshError(f"circle ids must ascend strictly within [0, {nv})")
        self._refined = None
        self._build_tables()
        self._validate()

    @property
    def n_cells(self):
        return len(self.cell_vertices)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def refined(self) -> "Mesh":
        """`refine_uniform(self)`, built by the first caller and then shared."""
        with _REFINE_LOCK:
            if self._refined is None:
                self._refined = refine_uniform(self)
            return self._refined

    def _build_tables(self):
        cv = self.cell_vertices
        codes, inverse, self.edge_counts = np.unique(
            _pair_codes(cv, np.roll(cv, -1, axis=1), self.n_vertices),
            return_inverse=True, return_counts=True,
        )
        self.edges = np.stack(np.divmod(codes, self.n_vertices), axis=1)
        self.cell_edges = inverse.reshape(cv.shape)

    def _validate(self):
        cv, nv = self.cell_vertices, self.n_vertices
        ordered = np.sort(cv, axis=1)
        repeated = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
        # positive cross product at every corner: convex and counterclockwise,
        # hence positive bilinear Jacobian on the whole reference cell
        corners = self.vertices[cv]
        e0 = np.roll(corners, -1, axis=1) - corners
        e1 = np.roll(e0, -1, axis=1)
        cross = e0[..., 0] * e1[..., 1] - e0[..., 1] * e1[..., 0]
        bad = np.flatnonzero(repeated | np.any(cross <= 0.0, axis=1))
        if bad.size:
            g = bad[0]
            if repeated[g]:
                raise MeshError(f"cell {g} has repeated vertices")
            raise MeshError(f"cell {g} is not convex counterclockwise")
        bad = np.flatnonzero(self.edge_counts > 2)
        if bad.size:
            key = tuple(self.edges[bad[0]].tolist())
            raise MeshError(f"edge {key} has {self.edge_counts[bad[0]]} incident cells")
        # admissibility (module docstring): two shared vertices that are no
        # common edge are a diagonal of one of the cells; three include one
        diagonals = _pair_codes(cv[:, :2], cv[:, 2:], nv)
        codes = np.sort(np.append(_pair_codes(*self.edges.T, nv), diagonals))
        twice = codes[1:][codes[1:] == codes[:-1]]
        if twice.size:
            ci = np.flatnonzero(np.any(diagonals == twice[0], axis=1))[0]
            holds = np.isin(cv, divmod(twice[0], nv)).sum(axis=1) == 2
            holds[ci] = False
            ci, cj = sorted((int(ci), int(np.flatnonzero(holds)[0])))
            k = len(np.intersect1d(cv[ci], cv[cj]))
            if k == 2:
                raise MeshError(f"cells {ci} and {cj} share 2 vertices but no edge")
            raise MeshError(f"cells {ci} and {cj} overlap in {k} vertices")


def _pair_codes(a, b, nv):
    return np.minimum(a, b) * nv + np.maximum(a, b)


def build_rect_mesh(x0, x1, y0, y1, nx, ny) -> Mesh:
    """Tensor-product mesh of nx*ny cells, ids row-major from the lower left."""
    if not (x0 < x1 and y0 < y1):
        raise MeshError("empty extents")
    if nx < 1 or ny < 1:
        raise MeshError("cell counts must be positive")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.array([[x, y] for y in ys for x in xs])
    sw = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return Mesh(verts, np.stack([sw, sw + 1, sw + nx + 2, sw + nx + 1], axis=1))


# Coarse layout of the rectangle-minus-disk benchmark domain: an O-grid ring of
# 8 quadrilaterals around the unit circle, embedded in a graded tensor grid.
_HEMKER_XS = (-3.0, -2.0, 0.0, 2.0, 4.0, 6.5, 9.0)
_HEMKER_YS = (-3.0, -2.0, 0.0, 2.0, 3.0)


def build_hemker_mesh() -> Mesh:
    """Coarse mesh of (-3,9)x(-3,3) minus the unit disk.

    The disk boundary is the polygon through 8 projected ring vertices; those
    vertices form ``circle`` so refinement can re-project midpoints.
    """
    coord_ids: dict[tuple[float, float], int] = {}
    verts: list[tuple[float, float]] = []

    def vid(x, y):
        key = (x, y)
        if key not in coord_ids:
            coord_ids[key] = len(verts)
            verts.append(key)
        return coord_ids[key]

    cells = []
    hole = {(1, 1), (2, 1), (1, 2), (2, 2)}  # grid cells covering [-2,2]^2
    for iy in range(len(_HEMKER_YS) - 1):
        for ix in range(len(_HEMKER_XS) - 1):
            if (ix, iy) in hole:
                continue
            xa, xb = _HEMKER_XS[ix], _HEMKER_XS[ix + 1]
            ya, yb = _HEMKER_YS[iy], _HEMKER_YS[iy + 1]
            cells.append((vid(xa, ya), vid(xb, ya), vid(xb, yb), vid(xa, yb)))

    # ring vertices: 8 points on the circle and 8 on the square |x|,|y| <= 2
    square = [(2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (-2.0, 2.0),
              (-2.0, 0.0), (-2.0, -2.0), (0.0, -2.0), (2.0, -2.0)]
    angles = [k * math.pi / 4.0 for k in range(8)]
    circ = [(math.cos(a), math.sin(a)) for a in angles]
    circle_ids = [vid(*c) for c in circ]
    for k in range(8):
        kn = (k + 1) % 8
        cells.append(
            (vid(*circ[k]), vid(*square[k]), vid(*square[kn]), vid(*circ[kn]))
        )

    return Mesh(np.array(verts), cells, level=0, circle=circle_ids)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell into 4 children through edge midpoints and barycenter.

    Child global_id is ``4*parent + k`` with k enumerating the quadrant at
    parent vertex k.  Midpoint vertices are numbered after the parent's
    vertices in edge order, barycenters after them in cell order.  Midpoints
    of edges between two ``circle`` vertices are re-projected onto the unit
    circle and join it.  The input mesh is not modified.
    """
    nv, ne = mesh.n_vertices, len(mesh.edges)
    a, b = mesh.edges.T
    mids = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    flagged = np.zeros(nv, dtype=bool)
    flagged[mesh.circle] = True
    (on_circle,) = np.nonzero(flagged[a] & flagged[b])
    for k in on_circle.tolist():
        # math.hypot, not np.hypot: they differ in the last bit on some inputs
        mids[k] = mids[k] / math.hypot(mids[k, 0], mids[k, 1])
    bary = mesh.vertices[mesh.cell_vertices].mean(axis=1)

    v0, v1, v2, v3 = mesh.cell_vertices.T
    m01, m12, m23, m30 = (nv + mesh.cell_edges).T
    ctr = nv + ne + np.arange(mesh.n_cells)
    quads = np.stack(
        [
            (v0, m01, ctr, m30),
            (m01, v1, m12, ctr),
            (ctr, m12, v2, m23),
            (m30, ctr, m23, v3),
        ]
    )  # (child, corner, parent)
    children = quads.transpose(2, 0, 1).reshape(-1, 4)

    circle = np.concatenate([mesh.circle, nv + on_circle])
    verts = np.vstack([mesh.vertices, mids, bary])
    return Mesh(verts, children, level=mesh.level + 1, circle=circle)


def write_vtk(mesh: Mesh, path, point_data=None, cell_ids=None):
    """Write the mesh (optionally a subset of cells) in legacy ASCII VTK.

    cell_ids ascend (all cells by default); point_data maps a field name to
    per-vertex values, emitted for the vertices of the written cells only.
    """
    if cell_ids is None:
        cell_ids = np.arange(mesh.n_cells)
    used, renum = np.unique(mesh.cell_vertices[cell_ids], return_inverse=True)
    lines = [
        "# vtk DataFile Version 3.0",
        "parfem mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(used)} double",
    ]
    for v in used:
        x, y = mesh.vertices[v]
        lines.append(f"{x:.16g} {y:.16g} 0")
    lines.append(f"CELLS {len(cell_ids)} {5 * len(cell_ids)}")
    for a, b, c, d in renum.reshape(-1, 4).tolist():
        lines.append(f"4 {a} {b} {c} {d}")
    lines.append(f"CELL_TYPES {len(cell_ids)}")
    lines.extend("9" for _ in cell_ids)
    if point_data:
        lines.append(f"POINT_DATA {len(used)}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{values[v]:.16g}" for v in used)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
