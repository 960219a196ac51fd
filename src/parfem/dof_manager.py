"""Local-to-global d.o.f. numbering via partition refinement.

All local d.o.f.s (cell, i) start as singleton classes; for every pair of
adjacent cells the d.o.f.s sitting on the shared vertex or edge are unified.
The surviving classes, numbered in ascending order of their smallest
(cell_id, local_index) member, are the global degrees of freedom.

Identification is purely symbolic (vertex ids, edge orientation); coordinate
hashing appears only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mapped_fe import LocalElement, cell_geometry, get_element

# canonical key encoding: cell id in the high bits, local index in the low 6
KEY_SHIFT = 64


def encode_key(cell_id: int, local_index: int) -> int:
    return cell_id * KEY_SHIFT + local_index


def decode_key(key: int) -> tuple[int, int]:
    return divmod(int(key), KEY_SHIFT)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller slot as representative so results are
            # independent of the union order
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass
class DofMap:
    """Surjection from local (cell, index) pairs onto 0..n_dofs-1."""

    n_dofs: int
    elem: LocalElement
    cell_dofs: dict[int, np.ndarray]  # cell gid -> global index per local dof
    keys: np.ndarray  # canonical (smallest) key per global dof, int64
    cells_of_dof: list[tuple[int, ...]]  # containing cell gids per global dof

    def table(self, cells) -> np.ndarray:
        """Global d.o.f.s of the given cells, one row per cell."""
        rows = [self.cell_dofs[g] for g in cells]
        return np.array(rows, dtype=np.int64).reshape(-1, self.elem.n_dofs)

    def local_of_key(self):
        """Lookup table key -> global dof over every known (cell, i) pair."""
        table = {}
        for gid, dofs in self.cell_dofs.items():
            for li, g in enumerate(dofs):
                table[encode_key(gid, li)] = int(g)
        return table


def _edge_index(cell, a, b):
    for e, (p, q) in enumerate(cell.local_edges()):
        if (p, q) == (a, b) or (q, p) == (a, b):
            return e
    raise ValueError(f"vertices {(a, b)} are not an edge of cell {cell.global_id}")


def build_dof_map(mesh, cells, elem_kind: str) -> DofMap:
    """Run the partition refinement over the given set of known cells.

    `cells` is any iterable of cell ids forming an admissible submesh (a
    rank's own+halo cells, or all cells for a sequential run).
    """
    elem = get_element(elem_kind) if isinstance(elem_kind, str) else elem_kind
    cell_ids = sorted(set(cells))
    nd = elem.n_dofs
    slot_of = {g: i for i, g in enumerate(cell_ids)}
    uf = UnionFind(len(cell_ids) * nd)

    def slot(gid, li):
        return slot_of[gid] * nd + li

    # adjacent pairs among the known cells, via shared vertices
    known = set(cell_ids)
    pairs = set()
    for gid in cell_ids:
        for v in mesh.cell(gid).vertex_ids:
            for other in mesh.vertex_cells[v]:
                if other in known and other > gid:
                    pairs.add((gid, other))

    for ka, kb in sorted(pairs):
        ca, cb = mesh.cell(ka), mesh.cell(kb)
        shared = set(ca.vertex_ids) & set(cb.vertex_ids)
        for v in shared:
            pa = ca.vertex_ids.index(v)
            pb = cb.vertex_ids.index(v)
            uf.union(slot(ka, elem.vertex_dof[pa]), slot(kb, elem.vertex_dof[pb]))
        if len(shared) == 2:
            a, b = sorted(shared)
            ea = _edge_index(ca, a, b)
            eb = _edge_index(cb, a, b)
            for li, ti in elem.edge_dofs[ea]:
                # orient along ascending vertex id so both sides agree
                va, vb_ = ca.local_edges()[ea]
                ta = ti if va < vb_ else 1.0 - ti
                for lj, tj in elem.edge_dofs[eb]:
                    va2, vb2 = cb.local_edges()[eb]
                    tb = tj if va2 < vb2 else 1.0 - tj
                    if abs(ta - tb) < 1e-9:
                        uf.union(slot(ka, li), slot(kb, lj))

    # number the classes by their smallest (cell, local) key
    class_key: dict[int, int] = {}
    for gid in cell_ids:
        for li in range(nd):
            root = uf.find(slot(gid, li))
            key = encode_key(gid, li)
            if root not in class_key or key < class_key[root]:
                class_key[root] = key
    ordered = sorted(class_key.items(), key=lambda kv: kv[1])
    number = {root: i for i, (root, _) in enumerate(ordered)}

    cell_dofs = {}
    cells_of: list[set[int]] = [set() for _ in ordered]
    for gid in cell_ids:
        arr = np.empty(nd, dtype=np.int64)
        for li in range(nd):
            g = number[uf.find(slot(gid, li))]
            arr[li] = g
            cells_of[g].add(gid)
        cell_dofs[gid] = arr

    keys = np.array([key for _, key in ordered], dtype=np.int64)
    return DofMap(
        n_dofs=len(ordered),
        elem=elem,
        cell_dofs=cell_dofs,
        keys=keys,
        cells_of_dof=[tuple(sorted(s)) for s in cells_of],
    )


def dof_coordinates(dof_map: DofMap, mesh, tol=1e-12) -> np.ndarray:
    """Physical coordinates of every global d.o.f.

    The coordinate is taken from the smallest containing cell; every other
    containing cell must agree within `tol` or the numbering is miswired.
    """
    cells = sorted(dof_map.cell_dofs)
    geometry = cell_geometry(mesh, cells)
    flat = dof_map.table(cells).ravel()
    pts = geometry.map(dof_map.elem.nodes).reshape(-1, 2)
    coords = np.full((dof_map.n_dofs, 2), np.nan)
    dofs, first = np.unique(flat, return_index=True)
    coords[dofs] = pts[first]
    scale = np.maximum(1.0, np.repeat(geometry.diameter, dof_map.elem.n_dofs))
    (bad,) = np.nonzero(np.linalg.norm(coords[flat] - pts, axis=1) > tol * scale)
    if bad.size:
        k, g = bad[0], flat[bad[0]]
        raise RuntimeError(
            f"dof {g}: cells disagree on its position ({coords[g]} vs {pts[k]})"
        )
    return coords
