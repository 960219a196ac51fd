"""Hierarchical 2D quadrilateral meshes with deterministic uniform refinement.

Cells carry globally unique ids per refinement level.  A child id is a pure
function of the parent id (``4*parent + child_index``), so every simulated
rank derives the same numbering without communication.  Meshes are immutable
after construction and safe to share read-only between ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CIRCLE_FLAG = "circle"


class MeshError(ValueError):
    pass


@dataclass
class Cell:
    """Quadrilateral cell, vertex ids in counterclockwise order."""

    global_id: int
    vertex_ids: tuple[int, int, int, int]
    level: int = 0
    parent_id: int | None = None
    child_ids: tuple[int, int, int, int] | None = None

    def local_edges(self):
        v = self.vertex_ids
        return ((v[0], v[1]), (v[1], v[2]), (v[2], v[3]), (v[3], v[0]))


class Mesh:
    """Admissible quadrilateral triangulation.

    Attributes:
        vertices: (n, 2) float array of vertex coordinates.
        cells: list of Cell, indexed by global_id (ids are contiguous).
        level: refinement level of this mesh.
        edge_table: sorted vertex-id pair -> tuple of incident cell ids.
        vertex_flags: flag name -> set of vertex ids (e.g. circle boundary).
        vertex_cells: per vertex, tuple of incident cell ids.
        cell_vertices: (n_cells, 4) int array, vertex ids of each cell.
    """

    def __init__(self, vertices, cells, level=0, vertex_flags=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        self.cells = sorted(cells, key=lambda c: c.global_id)
        for pos, cell in enumerate(self.cells):
            if cell.global_id != pos:
                raise MeshError("cell ids must be contiguous from 0")
        self.level = level
        self.vertex_flags = {k: set(v) for k, v in (vertex_flags or {}).items()}
        self._build_tables()
        self._validate()

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def cell(self, global_id: int) -> Cell:
        try:
            return self.cells[global_id]
        except IndexError:
            raise KeyError(f"unknown cell id {global_id}") from None

    def _build_tables(self):
        edge_table: dict[tuple[int, int], list[int]] = {}
        vertex_cells: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for cell in self.cells:
            for a, b in cell.local_edges():
                key = (a, b) if a < b else (b, a)
                edge_table.setdefault(key, []).append(cell.global_id)
            for v in cell.vertex_ids:
                vertex_cells[v].append(cell.global_id)
        self.edge_table = {k: tuple(v) for k, v in sorted(edge_table.items())}
        self.vertex_cells = [tuple(v) for v in vertex_cells]
        self.cell_vertices = np.array([c.vertex_ids for c in self.cells]).reshape(-1, 4)

    def _validate(self):
        for cell in self.cells:
            v = self.vertices[list(cell.vertex_ids)]
            if len(set(cell.vertex_ids)) != 4:
                raise MeshError(f"cell {cell.global_id} has repeated vertices")
            # positive cross product at every corner: convex and counterclockwise,
            # hence positive bilinear Jacobian on the whole reference cell
            for k in range(4):
                e0 = v[(k + 1) % 4] - v[k]
                e1 = v[(k + 2) % 4] - v[(k + 1) % 4]
                if e0[0] * e1[1] - e0[1] * e1[0] <= 0.0:
                    raise MeshError(
                        f"cell {cell.global_id} is not convex counterclockwise"
                    )
        for key, inc in self.edge_table.items():
            if len(inc) > 2:
                raise MeshError(f"edge {key} has {len(inc)} incident cells")
        # admissibility: two cells sharing >=2 vertices must share a full edge
        seen: dict[tuple[int, int], int] = {}
        for vid, inc in enumerate(self.vertex_cells):
            for i, ci in enumerate(inc):
                for cj in inc[i + 1 :]:
                    pair = (ci, cj)
                    seen[pair] = seen.get(pair, 0) + 1
        edge_pairs = {
            tuple(sorted(inc)) for inc in self.edge_table.values() if len(inc) == 2
        }
        for (ci, cj), shared in seen.items():
            if shared >= 2 and (ci, cj) not in edge_pairs:
                raise MeshError(
                    f"cells {ci} and {cj} share {shared} vertices but no edge"
                )
            if shared > 2:
                raise MeshError(f"cells {ci} and {cj} overlap in {shared} vertices")

    def boundary_edges(self):
        return [k for k, inc in self.edge_table.items() if len(inc) == 1]

    def cell_coords(self, global_id: int) -> np.ndarray:
        return self.vertices[list(self.cell(global_id).vertex_ids)]


def build_rect_mesh(x0, x1, y0, y1, nx, ny) -> Mesh:
    """Tensor-product mesh of nx*ny cells, ids row-major from the lower left."""
    if not (x0 < x1 and y0 < y1):
        raise MeshError("empty extents")
    if nx < 1 or ny < 1:
        raise MeshError("cell counts must be positive")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.array([[x, y] for y in ys for x in xs])
    cells = []
    for iy in range(ny):
        for ix in range(nx):
            sw = iy * (nx + 1) + ix
            se = sw + 1
            nw = sw + (nx + 1)
            ne = nw + 1
            cells.append(Cell(iy * nx + ix, (sw, se, ne, nw)))
    return Mesh(verts, cells)


# Coarse layout of the rectangle-minus-disk benchmark domain: an O-grid ring of
# 8 quadrilaterals around the unit circle, embedded in a graded tensor grid.
_HEMKER_XS = (-3.0, -2.0, 0.0, 2.0, 4.0, 6.5, 9.0)
_HEMKER_YS = (-3.0, -2.0, 0.0, 2.0, 3.0)


def build_hemker_mesh() -> Mesh:
    """Coarse mesh of (-3,9)x(-3,3) minus the unit disk.

    The disk boundary is the polygon through 8 projected ring vertices; those
    vertices are flagged ``circle`` so refinement can re-project midpoints.
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
    gid = 0
    hole = {(1, 1), (2, 1), (1, 2), (2, 2)}  # grid cells covering [-2,2]^2
    for iy in range(len(_HEMKER_YS) - 1):
        for ix in range(len(_HEMKER_XS) - 1):
            if (ix, iy) in hole:
                continue
            xa, xb = _HEMKER_XS[ix], _HEMKER_XS[ix + 1]
            ya, yb = _HEMKER_YS[iy], _HEMKER_YS[iy + 1]
            cells.append(
                Cell(gid, (vid(xa, ya), vid(xb, ya), vid(xb, yb), vid(xa, yb)))
            )
            gid += 1

    # ring vertices: 8 points on the circle and 8 on the square |x|,|y| <= 2
    square = [(2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (-2.0, 2.0),
              (-2.0, 0.0), (-2.0, -2.0), (0.0, -2.0), (2.0, -2.0)]
    circle_ids = []
    circ = []
    for k in range(8):
        a = k * math.pi / 4.0
        c = (math.cos(a), math.sin(a))
        circ.append(c)
        circle_ids.append(vid(*c))
    for k in range(8):
        kn = (k + 1) % 8
        cells.append(
            Cell(
                gid,
                (
                    vid(*circ[k]),
                    vid(*square[k]),
                    vid(*square[kn]),
                    vid(*circ[kn]),
                ),
            )
        )
        gid += 1

    return Mesh(
        np.array(verts), cells, level=0, vertex_flags={CIRCLE_FLAG: set(circle_ids)}
    )


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell into 4 children through edge midpoints and barycenter.

    Child global_id is ``4*parent + k`` with k enumerating the quadrant at
    parent vertex k.  Midpoints of edges between two circle-flagged vertices
    are re-projected onto the unit circle.
    """
    circle = mesh.vertex_flags.get(CIRCLE_FLAG, set())
    verts = [mesh.vertices]
    new_circle = set(circle)
    nv = mesh.n_vertices

    edge_mid = {}
    mid_coords = []
    for a, b in mesh.edge_table:  # already sorted
        m = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if a in circle and b in circle:
            m = m / math.hypot(m[0], m[1])
            new_circle.add(nv + len(mid_coords))
        edge_mid[(a, b)] = nv + len(mid_coords)
        mid_coords.append(m)
    verts.append(np.array(mid_coords).reshape(-1, 2))

    bary_base = nv + len(mid_coords)
    bary_coords = np.array(
        [mesh.vertices[list(c.vertex_ids)].mean(axis=0) for c in mesh.cells]
    )
    verts.append(bary_coords.reshape(-1, 2))

    def mid(a, b):
        return edge_mid[(a, b) if a < b else (b, a)]

    children = []
    for cell in mesh.cells:
        v0, v1, v2, v3 = cell.vertex_ids
        m01, m12, m23, m30 = mid(v0, v1), mid(v1, v2), mid(v2, v3), mid(v3, v0)
        ctr = bary_base + cell.global_id
        g = cell.global_id
        quads = (
            (v0, m01, ctr, m30),
            (m01, v1, m12, ctr),
            (ctr, m12, v2, m23),
            (m30, ctr, m23, v3),
        )
        for k, q in enumerate(quads):
            children.append(
                Cell(4 * g + k, q, level=mesh.level + 1, parent_id=g)
            )
        cell.child_ids = tuple(4 * g + k for k in range(4))

    flags = dict(mesh.vertex_flags)
    flags[CIRCLE_FLAG] = new_circle
    if not circle:
        flags.pop(CIRCLE_FLAG, None)
    return Mesh(np.vstack(verts), children, level=mesh.level + 1, vertex_flags=flags)


def cell_neighbors_by_vertex(mesh: Mesh, cell_id: int) -> set[int]:
    """All cells sharing at least one vertex with the given cell."""
    cell = mesh.cell(cell_id)
    out: set[int] = set()
    for v in cell.vertex_ids:
        out.update(mesh.vertex_cells[v])
    out.discard(cell_id)
    return out


def write_vtk(mesh: Mesh, path, point_data=None, cell_ids=None):
    """Write the mesh (optionally a subset of cells) in legacy ASCII VTK.

    point_data maps a field name to per-vertex values (full vertex array
    indexing); only vertices referenced by the written cells are emitted.
    """
    if cell_ids is None:
        cell_ids = [c.global_id for c in mesh.cells]
    cell_ids = sorted(cell_ids)
    used = sorted({v for g in cell_ids for v in mesh.cell(g).vertex_ids})
    renum = {v: i for i, v in enumerate(used)}
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
    for g in cell_ids:
        a, b, c, d = (renum[v] for v in mesh.cell(g).vertex_ids)
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
