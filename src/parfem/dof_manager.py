"""Local-to-global d.o.f. numbering by topological entity.

Every local d.o.f. (cell, i) of the known cells sits on one entity of the
mesh: a vertex, a position along an edge (oriented by ascending vertex id,
so both cells of the edge agree), or the cell's interior.  Local d.o.f.s on
the same entity form one global d.o.f.; these are exactly the classes that
unifying the d.o.f.s on shared vertices and edges of adjacent cells yields.
The classes are numbered in ascending order of their smallest
(cell_id, local_index) member.

Identification is purely symbolic (vertex ids, edge orientation); coordinate
hashing appears only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mapped_fe import LocalElement, cell_geometry, get_element

# canonical key encoding: cell id in the high bits, local index in the low 6
KEY_SHIFT = 64


def encode_key(cell_id: int, local_index: int) -> int:
    return cell_id * KEY_SHIFT + local_index


def decode_key(key: int) -> tuple[int, int]:
    return divmod(int(key), KEY_SHIFT)


def sorted_unique(x) -> np.ndarray:
    """`np.unique(x)` by one sort and a mask of differing neighbours (numpy
    >= 2.3 hashes first).  NaNs are not merged: each NaN is kept."""
    s = np.sort(x, axis=None)
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


@dataclass
class DofMap:
    """Surjection from local (cell, index) pairs onto 0..n_dofs-1."""

    n_dofs: int
    elem: LocalElement
    cells: np.ndarray  # known cell ids, ascending
    table: np.ndarray  # (cells, elem.n_dofs) global d.o.f. of each local one
    keys: np.ndarray  # canonical (smallest) key per global dof, int64
    first: np.ndarray  # flat `table` position of each global dof's smallest key

    @cached_property
    def cell_dofs(self) -> dict[int, np.ndarray]:
        """Cell gid -> its row of `table` (a view)."""
        return dict(zip(self.cells.tolist(), self.table))

    def _find(self, cells):
        pos = np.minimum(np.searchsorted(self.cells, cells), len(self.cells) - 1)
        return pos, self.cells[pos] == cells

    def rows(self, cells) -> np.ndarray:
        """Global d.o.f.s of the given known cells, one row per cell."""
        pos, known = self._find(np.asarray(cells, dtype=np.int64))
        if not np.all(known):
            raise KeyError("not every cell is known to this d.o.f. map")
        return self.table[pos]

    def dofs_of_keys(self, keys) -> np.ndarray:
        """Global d.o.f. of each (cell, index) key; -1 where the cell is unknown."""
        cells, local = np.divmod(np.asarray(keys, dtype=np.int64), KEY_SHIFT)
        pos, known = self._find(cells)
        return np.where(known, self.table[pos, local], -1)


def _entity_codes(mesh, cells, elem: LocalElement) -> np.ndarray:
    """(cells, n_dofs) integer code of the entity each local d.o.f. sits on.

    Vertex d.o.f.s are coded by vertex id, edge d.o.f.s by (edge id, position
    oriented by ascending vertex id) and interior d.o.f.s by (cell row, local
    index), each kind in its own code range.
    """
    cv = mesh.cell_vertices[cells]
    on_edge = [(e, i, t) for e, dofs in elem.edge_dofs.items() for i, t in dofs]
    ts = [t for *_, t in on_edge]
    positions = sorted_unique(np.round(ts + [1.0 - t for t in ts], 9))
    edge_base = mesh.n_vertices
    interior_base = edge_base + len(mesh.edges) * len(positions)
    codes = interior_base + np.arange(len(cv) * elem.n_dofs).reshape(len(cv), -1)
    for k, i in elem.vertex_dof.items():
        codes[:, i] = cv[:, k]
    for e, i, t in on_edge:
        forward = cv[:, e] < cv[:, (e + 1) % 4]
        pos = np.searchsorted(positions, np.round(np.where(forward, t, 1.0 - t), 9))
        codes[:, i] = edge_base + mesh.cell_edges[cells, e] * len(positions) + pos
    return codes


def build_dof_map(mesh, cells, elem_kind: str) -> DofMap:
    """Number the d.o.f.s of the given set of known cells.

    `cells` is an array, or any iterable, of cell ids forming an admissible
    submesh (a rank's own+halo cells, or all cells for a sequential run).
    """
    elem = get_element(elem_kind)
    if not isinstance(cells, np.ndarray):  # a Python loop over the iterable
        cells = np.fromiter(cells, dtype=np.int64)
    cells = sorted_unique(cells.astype(np.int64, copy=False))
    codes = _entity_codes(mesh, cells, elem).ravel()
    # the flattened table runs in ascending key order, so the first
    # occurrence of an entity is its class's smallest key
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    smallest = first[order]
    return DofMap(
        n_dofs=len(order),
        elem=elem,
        cells=cells,
        table=number[inverse].reshape(len(cells), elem.n_dofs),
        keys=encode_key(cells[smallest // elem.n_dofs], smallest % elem.n_dofs),
        first=smallest,
    )


def dof_coordinates(dof_map: DofMap, mesh, tol=1e-12, geometry=None) -> np.ndarray:
    """Physical coordinates of every global d.o.f.

    The coordinate is taken from the smallest containing cell; every other
    containing cell must agree within `tol` or the numbering is miswired.
    `geometry`, the maps of `dof_map.cells`, is built from the mesh if not given.
    """
    geometry = geometry or cell_geometry(mesh, dof_map.cells)
    flat = dof_map.table.ravel()
    pts = geometry.map(dof_map.elem.nodes).transpose(0, 2, 1).reshape(2, -1)
    coords = pts[:, dof_map.first]
    scale = np.maximum(1.0, np.repeat(geometry.diameter, dof_map.elem.n_dofs))
    (bad,) = np.nonzero(np.hypot(*(coords[:, flat] - pts)) > tol * scale)
    if bad.size:
        k, g = bad[0], flat[bad[0]]
        raise RuntimeError(
            f"dof {g}: cells disagree on its position ({coords[:, g]} vs {pts[:, k]})"
        )
    return coords.T.copy()
