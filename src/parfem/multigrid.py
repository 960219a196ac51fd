"""Parallel geometric multigrid preconditioner.

The level hierarchy starts from the decomposed coarse mesh and refines
uniformly, so child cells inherit their parent's owner and all parent-child
information is rank-local.  Each level mesh is refined once and shared by
the rank threads (`Mesh.refined`).  Grid transfers are sparse matrices built
once per level pair from the cellwise definition: the prolongation evaluates
the coarse function at the fine nodes of every known cell, each a child of a
known coarse cell, summed in ascending coarse key, so every rank forms a fine
value the same way and a level-3 coarse vector prolongates to level 3 with no
exchange.  The restriction is its transpose over the fine masters, so each
fine master counts once; a defect restricted to any level but the first
carries the interface values summed over the sharing ranks (level 1).
Smoothing, on every level but 0, is block-Jacobi over the rank blocks
(masters plus interface slaves) with SSOR inside the block (`BlockSsor`);
after each sweep one all-to-all averages the interface values over their
sharing ranks and refreshes every halo value, so the iterate stays
level-3-consistent: interface-slave rows, which couple to halo(beta)
d.o.f.s, read current values in the next sweep.
So the levels inside a V-cycle are fixed: b, the residual b − A·x and the
restricted defect are level 1 (partial sums on the first level), and the
smoother, the coarse solve and the prolongation leave level 3.  The cycle runs
on value arrays; `v_cycle` and `SsorPreconditioner` restore their input once.
The first level built is solved exactly, the same on every rank: each rank
receives all master rows once and factorises the global matrix by sparse LU;
a solve sends every rank its block values, unsummed, in one all-to-all, and
each rank adds them per key and keeps the solution at its known keys.
`mg_fgmres` builds from the finest level of at most N_C d.o.f.s
(`pick_coarse_level`), `coarse_direct` from the finest level alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.sparse.linalg._dsolve._superlu import gstrs

from .comm import ConsistencyLevel, RankContext, Schedule, build_rank_context
from .dlinalg import DistMatrix, DistVector, spmv
from .dof_manager import sorted_unique
from .mapped_fe import get_element
from .partition import decompose, ownership_on_level

L0, L1, L2, L3 = ConsistencyLevel


_QUADRANT_OFFSETS = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


def transfer_matrices(elem) -> np.ndarray:
    """T[c][i, j] = coarse basis j at the fine node i of child quadrant c."""
    out = np.empty((4, elem.n_dofs, elem.n_dofs))
    for c in range(4):
        pts = 0.5 * elem.nodes + _QUADRANT_OFFSETS[c]
        vals, _ = elem.eval(pts)
        out[c] = vals
    return out


def transfer_operators(coarse: RankContext, fine: RankContext, T: np.ndarray):
    """CSR prolongation P (fine x coarse) and restriction R (coarse x fine).

    Row f of P is T[g % 4][i] on the d.o.f.s of coarse cell g // 4, the parent
    of the first known fine cell g holding f (as its node i), in ascending
    coarse key, so every rank forms a fine value from the same weights in the
    same order.  R is the transpose of P's fine-master rows.
    """
    cell, node = np.divmod(fine.dof_map.first, T.shape[1])
    parent, child = np.divmod(fine.dof_map.cells[cell], 4)
    cols = coarse.dof_map.rows(parent)  # raises unless every parent is known
    order = np.argsort(coarse.true_keys[coarse.dof_map.table], axis=1)  # per cell
    order = order[np.searchsorted(coarse.dof_map.cells, parent)]
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(T[child, node], order, axis=1)
    shape = (fine.n_local, coarse.n_local)

    def rows(keep):
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=shape)

    nz = vals != 0.0
    return rows(nz), rows(nz & fine.master_mask[:, None]).tocsc().T


class BlockSsor:
    """SSOR sweeps on the rank-local block (masters + interface slaves).

    With A_bb = L + D + U, SSOR's M = (D/ω + L)·((2−ω)/ω·D)⁻¹·(D/ω + U)
    (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., §10.2),
    so a sweep x ← x + (U + D/ω)⁻¹·(2−ω)·(I + ωLD⁻¹)⁻¹·r is one product
    r = b − A_rows x (block rows, all columns: halo values frozen) and one
    gstrs call on the stores ω·L·D⁻¹ + D/(ω(2−ω)) and U/(2−ω), unfactorised:
    gstrs reads the diagonal of the unit lower factor's store as the upper
    factor's.  From zero (`smooth(None, ...)`) a sweep skips the product, as
    b − A·0 is b bit for bit.  gstrs, `spsolve_triangular`'s kernel, is the
    second private scipy entry point after `dlinalg.spmv`'s: worth the risk
    (ROADMAP item 8), as the public function takes one triangle per call and
    copies and rescales it each time.
    """

    def __init__(self, ctx: RankContext, matrix: DistMatrix, omega: float = 1.0):
        self.ctx = ctx
        self.block = np.flatnonzero(ctx.block_mask)
        self.A_rows = matrix.csr.tocsr()[self.block]
        A_bb = self.A_rows.tocsc()[:, self.block]  # rows ascending per column
        diag = A_bb.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry in smoother block")
        # column j holds U's rows, the diagonal, then L's rows: each store is a
        # mask of A_bb; the lower drops explicit zeros as its sum with D did
        n, row, start = A_bb.shape[0], A_bb.indices, A_bb.indptr
        col = np.repeat(np.arange(n), np.diff(start))
        (at,) = np.nonzero(row == col)
        up = row < col
        low = np.where(up, 0.0, A_bb.data * (omega / diag)[col])
        low[at] = diag / (omega * (2.0 - omega))
        lower = sp.csc_matrix((low, row.copy(), start.copy()), shape=(n, n))
        lower.eliminate_zeros()
        upper_ptr = np.concatenate([[0], np.cumsum(at - start[:-1])])
        upper = (A_bb.data[up] * (1.0 / (2.0 - omega)), row[up], upper_ptr)
        stores = []  # (n, nnz, data, indices, indptr) of each, CSC
        for data, *index in ((lower.data, lower.indices, lower.indptr), upper):
            stores += [n, len(data), data, *(a.astype(np.intc) for a in index)]
        self._gstrs = functools.partial(gstrs, "N", *stores)  # bound once

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """M⁻¹ r for block values `r` (a gather by `block` or a product by
        `A_rows`, so of the block's length); gstrs returns its `info`
        instead of raising, so that is checked."""
        z, info = self._gstrs(r)
        if info:
            raise RuntimeError(f"triangular solve failed (gstrs info {info})")
        return z

    def _sweep(self, x: np.ndarray, b_block: np.ndarray):
        x[self.block] += self._solve(b_block - spmv(self.A_rows, x))

    def smooth(self, x: np.ndarray | None, b: np.ndarray, sweeps: int) -> np.ndarray:
        """Sweeps on level-3 values `x` in place, or from zero when `x` is
        None, for level-1 values `b`, whose block is gathered once; each is
        followed by one exchange that averages the interface values and
        refreshes the halo values (level 3)."""
        b_block = b[self.block]
        zero = x is None
        x = np.zeros(self.ctx.n_local) if zero else x
        for k in range(sweeps):
            if zero and k == 0:
                x[self.block] += self._solve(b_block)
            else:
                self._sweep(x, b_block)
            self.ctx.exchange.settle(x)
        return x


class CoarseSolver:
    """Replicated sparse LU of the coarse system (collective).

    Every rank factorises the same global matrix, ordered by ascending master
    key, and solves it from the same right-hand side, each key's sum of every
    rank's block values by `Schedule.sum`, so the values of a key are bitwise
    identical on every rank that knows it.
    """

    def __init__(self, ctx: RankContext, matrix: DistMatrix):
        self.ctx = ctx
        t = ctx.transport
        keys = ctx.true_keys
        masters = np.flatnonzero(ctx.master_mask)
        block = np.flatnonzero(ctx.block_mask)
        entries = matrix.csr[masters].tocoo()
        # block keys and the master rows' entries by key
        row_keys = keys[masters[entries.row]]
        payload = (keys[block], row_keys, keys[entries.col], entries.data)
        gathered = t.all_to_all(ctx.rank, [payload] * t.n_ranks, label="coarse-build")
        rows, cols, vals = map(np.concatenate, zip(*(g[1:] for g in gathered)))
        all_keys = sorted_unique(rows)  # every master row holds its diagonal
        n = len(all_keys)

        def index(k):
            pos = np.minimum(np.searchsorted(all_keys, k), n - 1)
            missing = all_keys[pos] != k
            if np.any(missing):
                raise RuntimeError(
                    f"coarse key {k[missing][0]} has no master row on any rank"
                )
            return pos

        A = sp.csc_matrix((vals, (index(rows), index(cols))), shape=(n, n))
        self._lu = splu(A)
        pivot_floor = n * np.finfo(float).eps * max(1.0, abs(A).max())
        if not np.all(np.abs(self._lu.U.diagonal()) >= pivot_floor):
            raise RuntimeError("coarse matrix is singular")
        self._known = index(keys)
        # right-hand side: every rank's block values to every rank, per key
        self._rhs = Schedule([block] * t.n_ranks, [index(g[0]) for g in gathered])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The level-3 values of the solution; reads the block values of `b`."""
        rhs = self._rhs.sum(self.ctx.transport, self.ctx.rank, b, "coarse-rhs")
        return self._lu.solve(rhs)[self._known]


@dataclass
class MgLevel:
    index: int  # refinement level of the mesh, not the position in the hierarchy
    ctx: RankContext
    matrix: DistMatrix
    rhs: DistVector | None
    smoother: BlockSsor | None = None  # none on the coarsest, solved exactly
    prolongation: sp.csr_matrix | None = None  # from the level below
    restriction: sp.csr_matrix | None = None  # to the level below


@dataclass
class MgHierarchy:
    levels: list[MgLevel]  # coarse to fine; the V-cycle indexes positions
    coarse: CoarseSolver
    nu1: int = 2
    nu2: int = 2

    @property
    def finest(self) -> MgLevel:
        return self.levels[-1]


def build_level(coarse_mesh, ownership, level, elem_kind, discretize, transport, rank):
    """(ctx, matrix, rhs) on refinement `level` of the coarse mesh, whose cell
    owners are `ownership`, by `discretize(ctx) -> (matrix, rhs)`.  Collective."""
    mesh = coarse_mesh
    for _ in range(level):
        mesh = mesh.refined
    own = ownership_on_level(ownership, level)
    ctx = build_rank_context(mesh, own, elem_kind, transport, rank)
    return (ctx, *discretize(ctx))


# The most global d.o.f.s the coarse LU replicates.  Any value in [140, 288]
# picks level 1 for q1 (81 d.o.f.s; hemker2d 140) and 0 for q2 (81).  A level
# higher changed iterations (timedep2d L3: a direct solve, 50; hemker2d L4 at
# 4 ranks: 14 -> 15); q2 at 289 slowed poisson_mms q2 L5, 2 ranks, 0.113 -> 0.127 s.
N_C = 150


def pick_coarse_level(coarse_mesh, n_levels: int, elem_kind: str) -> int:
    """Finest level <= n_levels − 2 of at most N_C d.o.f.s, else 0; not collective."""
    pick, mesh = 0, coarse_mesh
    for l in range(n_levels - 1):
        q2 = len(mesh.edges) + mesh.n_cells if elem_kind == "q2" else 0
        if mesh.n_vertices + q2 > N_C:
            break
        pick, mesh = l, mesh.refined
    return pick


def build_hierarchy(
    coarse_mesh, n_levels: int, elem_kind: str, discretize, transport, rank: int,
    nu1: int = 2, nu2: int = 2, omega: float = 1.0, coarse_level: int = 0,
) -> MgHierarchy:
    """Levels `coarse_level` … n_levels − 1 by `build_level` (rediscretization,
    not Galerkin products) on the level-0 partition, a smoother and transfers
    on each but the first, then the coarse LU on the first.  Collective."""
    if not 0 <= coarse_level < n_levels:
        raise ValueError(f"coarse level {coarse_level} not in [0, {n_levels})")
    ownership = decompose(coarse_mesh, transport.n_ranks)
    T = transfer_matrices(get_element(elem_kind))
    levels = []
    for l in range(coarse_level, n_levels):
        ctx, matrix, rhs = build_level(
            coarse_mesh, ownership, l, elem_kind, discretize, transport, rank
        )
        level = MgLevel(l, ctx, matrix, rhs)
        if levels:
            level.smoother = BlockSsor(ctx, matrix, omega)
            level.prolongation, level.restriction = transfer_operators(
                levels[-1].ctx, ctx, T
            )
        levels.append(level)
    coarse = CoarseSolver(levels[0].ctx, levels[0].matrix)
    return MgHierarchy(levels=levels, coarse=coarse, nu1=nu1, nu2=nu2)


def prolongate(hier: MgHierarchy, level: int, v_coarse: np.ndarray) -> np.ndarray:
    """Evaluate the level-3 coarse function at the fine nodes of every known
    cell; each rank forms a value the same way, so the result is level 3."""
    if not 0 <= level < len(hier.levels) - 1:
        raise IndexError(f"no fine level above {level}")
    return spmv(hier.levels[level + 1].prolongation, v_coarse)


def restrict_defect(hier: MgHierarchy, level: int, d_fine: np.ndarray) -> np.ndarray:
    """Transpose of prolongation over the fine masters.

    Each fine master counts once globally, and R reads no fine slave, so
    `d_fine` may be level 0.  Partial sums go to level 0, whose coarse solve
    adds them; on any other level the sharing ranks sum them (level 1).
    """
    if not 0 <= level < len(hier.levels) - 1:
        raise IndexError(f"no fine level above {level}")
    d = spmv(hier.levels[level + 1].restriction, d_fine)
    if level:
        hier.levels[level].ctx.exchange.accumulate(d)
    return d


def _cycle(hier: MgHierarchy, level: int, b: np.ndarray, x: np.ndarray | None):
    if level == 0:
        if x is None:
            return hier.coarse.solve(b)
        x[:] = hier.coarse.solve(b)  # the exact solve replaces a given start
        return x
    lvl = hier.levels[level]
    x = lvl.smoother.smooth(x, b, hier.nu1)
    d = restrict_defect(hier, level - 1, b - spmv(lvl.matrix.csr, x))
    x += prolongate(hier, level - 1, _cycle(hier, level - 1, d, None))
    return lvl.smoother.smooth(x, b, hier.nu2)


def v_cycle(hier: MgHierarchy, b: DistVector, x0: DistVector | None = None):
    """One V(nu1, nu2) cycle from `x0` (updated in place) or zero, to level 3;
    restores `b` to level 1 and `x0` to level 3, as the smoothers read them.
    A coarse solve alone, which adds block values, takes `b`'s masters only."""
    top = len(hier.levels) - 1
    values = b.restore(L1).values if top else np.where(b.ctx.master_mask, b.values, 0.0)
    x = None if x0 is None else x0.restore(L3).values
    return DistVector(b.ctx, _cycle(hier, top, values, x), L3)


class MgPreconditioner:
    """One V-cycle per application, started from zero."""

    def __init__(self, hier: MgHierarchy):
        self.hier = hier

    def __call__(self, r: DistVector) -> DistVector:
        return v_cycle(self.hier, r)


class SsorPreconditioner:
    """One block-Jacobi SSOR sweep from zero (the non-multigrid baseline)."""

    def __init__(self, smoother: BlockSsor):
        self.smoother = smoother

    def __call__(self, r: DistVector) -> DistVector:
        z = self.smoother.smooth(None, r.restore(L1).values, 1)
        return DistVector(r.ctx, z, L3)
