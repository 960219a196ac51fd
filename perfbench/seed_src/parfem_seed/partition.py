"""Domain decomposition and d.o.f. classification.

Coarse cells are distributed by recursive coordinate bisection of their
barycenters.  Each rank keeps its own cells plus a one-layer halo of cells
that share an edge or vertex with an own cell; own cells touching the halo
are dependent, the rest independent.

Known d.o.f.s are split into masters and slaves: every d.o.f. of the whole
problem is master on exactly one rank.  Interface mastership goes to the
lowest owning rank, which every rank can evaluate locally from the
replicated ownership table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dof_manager import DofMap
from .mesh import Mesh, cell_neighbors_by_vertex


class DofClass(enum.IntEnum):
    INDEPENDENT = 0
    DEPENDENT_ALPHA = 1
    DEPENDENT_BETA = 2
    INTERFACE_MASTER = 3
    INTERFACE_SLAVE = 4
    HALO_ALPHA = 5
    HALO_BETA = 6


MASTER_CLASSES = (
    DofClass.INDEPENDENT,
    DofClass.DEPENDENT_ALPHA,
    DofClass.DEPENDENT_BETA,
    DofClass.INTERFACE_MASTER,
)
SLAVE_CLASSES = (
    DofClass.INTERFACE_SLAVE,
    DofClass.HALO_ALPHA,
    DofClass.HALO_BETA,
)


def decompose(mesh: Mesh, n_ranks: int) -> np.ndarray:
    """Recursive coordinate bisection on cell barycenters.

    Returns the owner rank per cell id.  Cell counts per rank always differ
    by at most one; the result is a pure function of the mesh.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_ranks > mesh.n_cells:
        raise ValueError(f"{n_ranks} ranks for {mesh.n_cells} cells")
    bary = np.array(
        [mesh.vertices[list(c.vertex_ids)].mean(axis=0) for c in mesh.cells]
    )
    m = mesh.n_cells
    base, rem = divmod(m, n_ranks)
    counts = [(r, base + (1 if r < rem else 0)) for r in range(n_ranks)]
    owner = np.full(m, -1, dtype=np.int64)

    def recurse(ids, group):
        if len(group) == 1:
            owner[ids] = group[0][0]
            return
        nl = len(group) // 2
        left_group, right_group = group[:nl], group[nl:]
        take = sum(c for _, c in left_group)
        pts = bary[ids]
        extent = pts.max(axis=0) - pts.min(axis=0)
        axis = 1 if extent[1] > extent[0] else 0
        order = np.lexsort((ids, pts[:, 1 - axis], pts[:, axis]))
        ids = np.asarray(ids)[order]
        recurse(ids[:take], left_group)
        recurse(ids[take:], right_group)

    recurse(np.arange(m), counts)
    return owner


def ownership_on_level(coarse_ownership: np.ndarray, level: int) -> np.ndarray:
    """Owners after `level` uniform refinements: children inherit the parent."""
    return np.repeat(coarse_ownership, 4**level)


@dataclass
class RankCells:
    """One rank's view of the mesh; all other cells are dropped."""

    rank: int
    own: set[int]
    halo: set[int]
    dependent: set[int]
    independent: set[int]

    @property
    def known(self) -> list[int]:
        return sorted(self.own | self.halo)


def build_rank_cells(mesh: Mesh, ownership: np.ndarray, rank: int) -> RankCells:
    own = {c.global_id for c in mesh.cells if ownership[c.global_id] == rank}
    halo = set()
    for g in own:
        halo.update(
            n for n in cell_neighbors_by_vertex(mesh, g) if n not in own
        )
    dependent = {
        g
        for g in own
        if any(n in halo for n in cell_neighbors_by_vertex(mesh, g))
    }
    return RankCells(
        rank=rank,
        own=own,
        halo=halo,
        dependent=dependent,
        independent=own - dependent,
    )


@dataclass
class DofClassification:
    """Per-rank classes of all known d.o.f.s plus coupling adjacency."""

    rank: int
    classes: np.ndarray  # DofClass value per local dof
    master_rank: np.ndarray  # responsible rank; filled for interface + own
    couplings: list[np.ndarray]  # coupled local dofs (includes self)
    is_master: np.ndarray = field(init=False)

    def __post_init__(self):
        self.is_master = np.isin(self.classes, [int(c) for c in MASTER_CLASSES])

    def of_class(self, *classes) -> np.ndarray:
        return np.flatnonzero(np.isin(self.classes, [int(c) for c in classes]))


def classify_dofs(
    rank_cells: RankCells, dof_map: DofMap, ownership: np.ndarray
) -> DofClassification:
    """Assign location classes, interface mastership and the alpha/beta split."""
    rank = rank_cells.rank
    n = dof_map.n_dofs
    classes = np.empty(n, dtype=np.int64)
    master_rank = np.full(n, -1, dtype=np.int64)

    coupled: list[set[int]] = [set() for _ in range(n)]
    for gid, dofs in dof_map.cell_dofs.items():
        for g in dofs:
            coupled[g].update(int(d) for d in dofs)

    loc_interface = []
    for g in range(n):
        cells = dof_map.cells_of_dof[g]
        if not cells:
            raise RuntimeError(f"dof {g} has no containing cell")
        in_own = any(c in rank_cells.own for c in cells)
        in_halo = any(c in rank_cells.halo for c in cells)
        if not in_halo:
            if any(c in rank_cells.dependent for c in cells):
                classes[g] = DofClass.DEPENDENT_BETA  # alpha/beta fixed below
            else:
                classes[g] = DofClass.INDEPENDENT
            master_rank[g] = rank
        elif in_own:
            # every cell containing an interface d.o.f. is known here, so the
            # lowest owning rank is computable without negotiation
            mr = min(int(ownership[c]) for c in cells)
            master_rank[g] = mr
            classes[g] = (
                DofClass.INTERFACE_MASTER if mr == rank else DofClass.INTERFACE_SLAVE
            )
            loc_interface.append(g)
        else:
            classes[g] = DofClass.HALO_BETA  # alpha/beta fixed below

    slave_set = set(
        int(g)
        for g in range(n)
        if classes[g] in (DofClass.INTERFACE_SLAVE, DofClass.HALO_ALPHA, DofClass.HALO_BETA)
    )
    master_set = set(int(g) for g in range(n)) - slave_set

    for g in range(n):
        if classes[g] == DofClass.HALO_BETA and master_rank[g] < 0:
            if any(d in master_set and d != g for d in coupled[g]):
                classes[g] = DofClass.HALO_ALPHA
        elif classes[g] == DofClass.DEPENDENT_BETA:
            if any(d in slave_set for d in coupled[g]):
                classes[g] = DofClass.DEPENDENT_ALPHA

    return DofClassification(
        rank=rank,
        classes=classes,
        master_rank=master_rank,
        couplings=[np.array(sorted(s), dtype=np.int64) for s in coupled],
    )


def global_master_census(rank_results, tol=1e-8):
    """Count, per geometric d.o.f., how many ranks claim mastership.

    `rank_results` is a list of (DofClassification, coords) pairs, one per
    rank; d.o.f.s are matched across ranks by a coordinate hash.  A correct
    classification yields a count of exactly one everywhere.
    """
    census: dict[tuple[int, int], int] = {}
    for cls, coords in rank_results:
        q = np.round(coords / tol).astype(np.int64)
        for g in range(len(coords)):
            key = (int(q[g, 0]), int(q[g, 1]))
            census.setdefault(key, 0)
            if cls.is_master[g]:
                census[key] += 1
    return census
