"""Parallel geometric multigrid preconditioner.

The level hierarchy starts from the decomposed coarse mesh and refines
uniformly, so child cells inherit their parent's owner and all parent-child
information is rank-local.  Each level mesh is refined once and shared by
the rank threads (`Mesh.refined`).  Grid transfers are sparse matrices built
once per level pair from the cellwise definition on own cells: the
prolongation evaluates the coarse function at the fine nodes of the
children, and the restriction is its transpose over the fine masters, so
each fine master counts once.  A prolongated vector is restored to level 3
in one exchange; a restricted defect carries the summed interface values on
every sharing rank, so it is level-1-consistent without an update.
Smoothing, on every level but 0, is block-Jacobi over the rank blocks
(masters plus interface slaves) with SSOR inside the block; after each sweep
one all-to-all averages the interface values over their sharing ranks and
refreshes every halo value, so the iterate stays level-3-consistent: the
block rows of interface slaves, which couple to halo(beta) d.o.f.s, read
current values in the next sweep.
A sweep is x ← x + (U + D/ω)⁻¹·(2−ω)·(I + ωLD⁻¹)⁻¹·(b − A x) (Saad,
§10.2); one from zero (SSOR preconditioner; V-cycle pre-smoothing without
x0, on every level) skips the product: b − A·0 is b bit for bit.
The first level built is solved exactly, the same on every rank: each rank
receives all master rows once and factorises the global matrix by sparse LU;
a solve gives every rank all master values of the right-hand side in one
all-to-all, and each rank keeps the values of its known keys.  `mg_fgmres`
builds from the finest level of at most N_C d.o.f.s (`pick_coarse_level`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.sparse.linalg._dsolve._superlu import gstrs

from .comm import ConsistencyLevel, RankContext, Schedule, build_rank_context
from .dlinalg import DistMatrix, DistVector, axpy, matvec, new_vector, spmv
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

    Row g of P is T[c][i] on the coarse cell's d.o.f.s, taken at the first
    (own cell, child c, node i) holding fine d.o.f. g in ascending order; the
    coarse function is continuous, so any other source agrees up to rounding.
    R is the transpose of P's fine-master rows.
    """
    own = coarse.rank_cells.own
    children = (4 * own[:, None] + np.arange(4)).ravel()
    cdofs = coarse.dof_map.rows(own)
    fdofs = fine.dof_map.rows(children)
    fine_dofs, first = np.unique(fdofs, return_index=True)
    cell, child, node = np.unravel_index(first, (len(own), 4, T.shape[1]))
    vals = T[child, node]
    cols = cdofs[cell]
    rows = np.broadcast_to(fine_dofs[:, None], cols.shape)
    nz = vals != 0.0
    shape = (fine.n_local, coarse.n_local)
    P = sp.csr_matrix((vals[nz], (rows[nz], cols[nz])), shape=shape)
    nz &= fine.master_mask[rows]
    R = sp.csr_matrix((vals[nz], (cols[nz], rows[nz])), shape=shape[::-1])
    return P, R


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
        self._stores = []  # (n, nnz, data, indices, indptr) of each, CSC
        for data, *index in ((lower.data, lower.indices, lower.indptr), upper):
            self._stores += [n, len(data), data, *(a.astype(np.intc) for a in index)]

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """M⁻¹ r.  gstrs returns its `info` instead of raising, and a private
        kernel's own argument checks are no contract, so both are checked."""
        if r.shape != (len(self.block),):
            raise ValueError(f"dimension mismatch: {r.shape} for {len(self.block)}")
        z, info = gstrs("N", *self._stores, r)
        if info:
            raise RuntimeError(f"triangular solve failed (gstrs info {info})")
        return z

    def _sweep(self, x: np.ndarray, b: np.ndarray):
        x[self.block] += self._solve(b[self.block] - spmv(self.A_rows, x))

    def smooth(self, x: DistVector | None, b: DistVector, sweeps: int) -> DistVector:
        """Sweeps from `x`, or from zero when `x` is None, each followed by one
        exchange that averages the interface values and refreshes the halo
        values; the result is level-3-consistent."""
        b.restore(L1)  # interface-slave rows read the right-hand side
        zero = x is None
        x = new_vector(self.ctx) if zero else x.restore(L3)  # rows read halo(beta)
        for k in range(sweeps):
            if zero and k == 0:
                x.values[self.block] += self._solve(b.values[self.block])
            else:
                self._sweep(x.values, b.values)
            self.ctx.exchange.settle(x.values)
            x.level = L3
        return x


class CoarseSolver:
    """Replicated sparse LU of the coarse system (collective).

    Every rank factorises the same global matrix, ordered by ascending master
    key, and solves it from the same right-hand side, so the values of a key
    are bitwise identical on every rank that knows it.
    """

    def __init__(self, ctx: RankContext, matrix: DistMatrix):
        self.ctx = ctx
        t = ctx.transport
        keys = ctx.true_keys
        masters = np.flatnonzero(ctx.master_mask)
        entries = matrix.csr[masters].tocoo()
        # master keys in row order and the rows' entries by key
        mkeys = keys[masters]
        payload = (mkeys, mkeys[entries.row], keys[entries.col], entries.data)
        gathered = t.all_to_all(ctx.rank, [payload] * t.n_ranks, label="coarse-build")
        row_keys = np.concatenate([g[0] for g in gathered])  # in rank order
        all_keys = sorted_unique(row_keys)
        n = len(all_keys)

        def index(k):
            pos = np.minimum(np.searchsorted(all_keys, k), n - 1)
            missing = all_keys[pos] != k
            if np.any(missing):
                raise RuntimeError(
                    f"coarse key {k[missing][0]} has no master row on any rank"
                )
            return pos

        rows, cols, vals = map(np.concatenate, zip(*(g[1:] for g in gathered)))
        A = sp.csc_matrix((vals, (index(rows), index(cols))), shape=(n, n))
        self._lu = splu(A)
        pivot_floor = n * np.finfo(float).eps * max(1.0, abs(A).max())
        if not np.all(np.abs(self._lu.U.diagonal()) >= pivot_floor):
            raise RuntimeError("coarse matrix is singular")
        self._known = index(keys)
        # right-hand side: every rank's master values to every rank
        self._rhs = Schedule([masters] * t.n_ranks, [index(g[0]) for g in gathered])

    def solve(self, b: DistVector) -> DistVector:
        rhs = np.empty(self._lu.shape[0])  # each key has one master row
        rhs[self._rhs.rcvd_dof] = self._rhs.send(
            self.ctx.transport, self.ctx.rank, b.values, "coarse-rhs"
        )
        return DistVector(self.ctx, self._lu.solve(rhs)[self._known], L3)


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

    @property
    def n_levels(self) -> int:
        return len(self.levels)


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


def prolongate(hier: MgHierarchy, level: int, v_coarse: DistVector) -> DistVector:
    """Evaluate the coarse function at the fine nodes of own cells' children."""
    if not 0 <= level < hier.n_levels - 1:
        raise IndexError(f"no fine level above {level}")
    fine = hier.levels[level + 1]
    v_coarse.restore(L1)
    v = DistVector(fine.ctx, spmv(fine.prolongation, v_coarse.values), L0)
    return v.restore(L3)


def restrict_defect(hier: MgHierarchy, level: int, d_fine: DistVector) -> DistVector:
    """Transpose of prolongation over the fine masters.

    Each fine master is counted exactly once globally, and R reads no fine
    slave, so `d_fine` needs no restore.  The per-rank partial sums at the
    interface are accumulated on every sharing rank (level 1).
    """
    if not 0 <= level < hier.n_levels - 1:
        raise IndexError(f"no fine level above {level}")
    coarse, fine = hier.levels[level], hier.levels[level + 1]
    d = spmv(fine.restriction, d_fine.values)
    coarse.ctx.exchange.accumulate(d)
    return DistVector(coarse.ctx, d, L1)


def _residual(lvl: MgLevel, x: DistVector, b: DistVector) -> DistVector:
    """b − A x."""
    r = b.copy()
    axpy(-1.0, matvec(lvl.matrix, x), r)
    return r


def _cycle(hier: MgHierarchy, level: int, b: DistVector, x: DistVector | None):
    if level == 0:
        return hier.coarse.solve(b)
    lvl = hier.levels[level]
    x = lvl.smoother.smooth(x, b, hier.nu1)
    d = restrict_defect(hier, level - 1, _residual(lvl, x, b))
    e = _cycle(hier, level - 1, d, None)
    axpy(1.0, prolongate(hier, level - 1, e), x)
    lvl.smoother.smooth(x, b, hier.nu2)
    return x


def v_cycle(hier: MgHierarchy, b: DistVector, x0: DistVector | None = None):
    """One V(nu1, nu2) cycle from `x0` or zero; the result is level-3-consistent."""
    return _cycle(hier, hier.n_levels - 1, b, x0)


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
        return self.smoother.smooth(None, r, 1)
