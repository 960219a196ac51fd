"""Domain decomposition and d.o.f. classification.

Coarse cells are distributed by recursive coordinate bisection of their
barycenters.  Each rank keeps its own cells plus a one-layer halo of cells
that share an edge or vertex with an own cell.

Known d.o.f.s are split into masters and slaves: every d.o.f. of the whole
problem is master on exactly one rank.  Interface mastership goes to the
lowest owning rank, which every rank can evaluate locally from the
replicated ownership table.

Both steps are array operations: halo cells come from a vertex mask, and
the classes from per-d.o.f. flags scattered through the known cells' d.o.f.
table (in an own or halo cell; the lowest owning rank; in a cell that also
holds a master).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dof_manager import DofMap
from .mesh import Mesh


class DofClass(enum.IntEnum):
    INNER = 0  # only own cells contain it
    INTERFACE_MASTER = 1
    INTERFACE_SLAVE = 2
    HALO_ALPHA = 3
    HALO_BETA = 4


MASTER_CLASSES = (DofClass.INNER, DofClass.INTERFACE_MASTER)


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
    known: np.ndarray  # own and halo


def build_rank_cells(mesh: Mesh, ownership: np.ndarray, rank: int) -> RankCells:
    cv = mesh.cell_vertices
    own = ownership == rank
    near = np.zeros(mesh.n_vertices, dtype=bool)
    near[cv[own]] = True
    halo = ~own & near[cv].any(axis=1)
    return RankCells(
        rank=rank,
        own=np.flatnonzero(own),
        halo=np.flatnonzero(halo),
        known=np.flatnonzero(own | halo),
    )


@dataclass
class DofClassification:
    """Per-rank classes of all known d.o.f.s."""

    classes: np.ndarray  # DofClass value per local dof
    is_master: np.ndarray = field(init=False)
    in_block: np.ndarray = field(init=False)  # masters plus interface slaves

    def __post_init__(self):
        self.is_master = np.isin(self.classes, [int(c) for c in MASTER_CLASSES])
        self.in_block = self.is_master | (self.classes == DofClass.INTERFACE_SLAVE)


def classify_dofs(
    rank_cells: RankCells, dof_map: DofMap, ownership: np.ndarray
) -> DofClassification:
    """Assign location classes, interface mastership and the halo alpha/beta split.

    ParMooN's independent/dependent split of the inner d.o.f.s is not formed:
    it overlaps halo messages with computation, and this transport cannot.
    """
    rank, n, table = rank_cells.rank, dof_map.n_dofs, dof_map.table

    def touches(cell_mask):
        """Per d.o.f.: does one of the masked known cells contain it?"""
        out = np.zeros(n, dtype=bool)
        out[table[cell_mask]] = True
        return out

    cell_owner = ownership[dof_map.cells]
    own = cell_owner == rank
    in_own, in_halo = touches(own), touches(~own)
    # every cell containing an interface d.o.f. is known here, so the lowest
    # owning rank is computable without negotiation
    lowest = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(lowest, table.ravel(), np.repeat(cell_owner, table.shape[1]))

    interface = in_halo & in_own
    classes = np.where(in_halo, DofClass.HALO_BETA, DofClass.INNER)
    classes[interface] = np.where(
        lowest[interface] == rank, DofClass.INTERFACE_MASTER, DofClass.INTERFACE_SLAVE
    )
    # alpha/beta split: a halo d.o.f. coupled to a master is halo(alpha)
    master = (classes == DofClass.INNER) | (classes == DofClass.INTERFACE_MASTER)
    near_master = touches(master[table].any(axis=1))
    classes[(classes == DofClass.HALO_BETA) & near_master] = DofClass.HALO_ALPHA
    return DofClassification(classes=classes)


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
