"""Domain decomposition and d.o.f. classification.

Coarse cells are distributed by recursive coordinate bisection of their
barycenters.  Each rank keeps its own cells plus a one-layer halo of cells
that share an edge or vertex with an own cell; own cells touching the halo
are dependent, the rest independent.

Known d.o.f.s are split into masters and slaves: every d.o.f. of the whole
problem is master on exactly one rank.  Interface mastership goes to the
lowest owning rank, which every rank can evaluate locally from the
replicated ownership table.

Both steps are array operations: halo and dependent cells come from vertex
masks, and the classes from per-d.o.f. flags scattered through the known
cells' d.o.f. table (in an own, halo or dependent cell; the lowest owning
rank; in a cell that also holds a master or a slave).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dof_manager import DofMap
from .mesh import Mesh


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


def decompose(mesh: Mesh, n_ranks: int) -> np.ndarray:
    """Recursive coordinate bisection on cell barycenters.

    Returns the owner rank per cell id.  Cell counts per rank always differ
    by at most one; the result is a pure function of the mesh.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_ranks > mesh.n_cells:
        raise ValueError(f"{n_ranks} ranks for {mesh.n_cells} cells")
    bary = mesh.vertices[mesh.cell_vertices].mean(axis=1)
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
    """One rank's cells as ascending id arrays; all other cells are dropped."""

    rank: int
    own: np.ndarray
    halo: np.ndarray
    dependent: np.ndarray  # own cells touching the halo
    known: np.ndarray  # own and halo


def build_rank_cells(mesh: Mesh, ownership: np.ndarray, rank: int) -> RankCells:
    cv = mesh.cell_vertices
    own = ownership == rank
    near = np.zeros(mesh.n_vertices, dtype=bool)
    near[cv[own]] = True
    halo = ~own & near[cv].any(axis=1)
    near[:] = False
    near[cv[halo]] = True
    dependent = own & near[cv].any(axis=1)
    return RankCells(
        rank=rank,
        own=np.flatnonzero(own),
        halo=np.flatnonzero(halo),
        dependent=np.flatnonzero(dependent),
        known=np.flatnonzero(own | halo),
    )


@dataclass
class DofClassification:
    """Per-rank classes of all known d.o.f.s."""

    rank: int
    classes: np.ndarray  # DofClass value per local dof
    master_rank: np.ndarray  # responsible rank; filled for interface + own
    is_master: np.ndarray = field(init=False)

    def __post_init__(self):
        self.is_master = np.isin(self.classes, [int(c) for c in MASTER_CLASSES])

    def of_class(self, *classes) -> np.ndarray:
        return np.flatnonzero(np.isin(self.classes, [int(c) for c in classes]))


def classify_dofs(
    rank_cells: RankCells, dof_map: DofMap, ownership: np.ndarray
) -> DofClassification:
    """Assign location classes, interface mastership and the alpha/beta split."""
    rank, n, table = rank_cells.rank, dof_map.n_dofs, dof_map.table

    def touches(cell_mask):
        """Per d.o.f.: does one of the masked known cells contain it?"""
        out = np.zeros(n, dtype=bool)
        out[table[cell_mask]] = True
        return out

    cell_owner = ownership[dof_map.cells]
    own = cell_owner == rank
    in_own, in_halo = touches(own), touches(~own)
    in_dependent = touches(np.isin(dof_map.cells, rank_cells.dependent))
    # every cell containing an interface d.o.f. is known here, so the lowest
    # owning rank is computable without negotiation
    lowest = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(lowest, table.ravel(), np.repeat(cell_owner, table.shape[1]))

    interface = in_halo & in_own
    master_rank = np.where(in_halo, -1, rank)
    master_rank[interface] = lowest[interface]
    classes = np.where(in_dependent, DofClass.DEPENDENT_BETA, DofClass.INDEPENDENT)
    classes[in_halo] = DofClass.HALO_BETA
    classes[interface] = np.where(
        lowest[interface] == rank, DofClass.INTERFACE_MASTER, DofClass.INTERFACE_SLAVE
    )
    # alpha/beta split: a halo d.o.f. coupled to a master is halo(alpha), a
    # dependent d.o.f. coupled to a slave is dependent(alpha)
    slave = (classes == DofClass.INTERFACE_SLAVE) | (classes == DofClass.HALO_BETA)
    near_master = touches((~slave)[table].any(axis=1))
    near_slave = touches(slave[table].any(axis=1))
    classes[(classes == DofClass.HALO_BETA) & near_master] = DofClass.HALO_ALPHA
    dependent_alpha = (classes == DofClass.DEPENDENT_BETA) & near_slave
    classes[dependent_alpha] = DofClass.DEPENDENT_ALPHA
    return DofClassification(rank=rank, classes=classes, master_rank=master_rank)


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
