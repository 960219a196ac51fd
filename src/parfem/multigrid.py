"""Parallel geometric multigrid preconditioner.

The level hierarchy starts from the decomposed coarse mesh and refines
uniformly, so child cells inherit their parent's owner and all parent-child
information is rank-local.  Each level mesh is refined once and shared by
the rank threads (`Mesh.refined`).  Grid transfers are sparse matrices built
once per level pair from the cellwise definition on own cells: the
prolongation evaluates the coarse function at the fine nodes of the
children, and the restriction is its transpose over the fine masters, so
each fine master counts once.  A prolongated vector is restored to level 2
in one exchange; a restricted defect carries the summed interface values on
every sharing rank, so it is level-1-consistent without an update.
Smoothing is block-Jacobi over the rank blocks (masters plus interface
slaves) with SSOR inside the block; after each sweep one all-to-all
averages the interface values over their sharing ranks and refreshes the
halo(alpha) values, so the iterate stays level-2-consistent.
The coarse solve is the same on every rank: each rank receives all master
rows of the coarsest system once and factorises the global matrix by sparse
LU; a solve gives every rank all master values of the right-hand side in one
all-to-all, and each rank solves and keeps the values of its known keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .comm import ConsistencyLevel, RankContext, build_rank_context, make_schedule
from .dlinalg import DistMatrix, DistVector, axpy, matvec, new_vector, norm2, spmv
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

    `A_rows` holds the block rows over all local columns, so a half-sweep
    reads the current block values and the frozen halo values in one sparse
    product; the triangular factors of its block columns are pre-factorized
    once per level.
    """

    def __init__(self, ctx: RankContext, matrix: DistMatrix, omega: float = 1.0):
        self.ctx = ctx
        self.omega = omega
        self.block = np.flatnonzero(ctx.block_mask)
        self.A_rows = matrix.csr.tocsr()[self.block]
        A_bb = self.A_rows[:, self.block].tocsr()
        diag = A_bb.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry in smoother block")
        dscale = sp.diags(diag / omega)
        lower = (sp.tril(A_bb, k=-1) + dscale).tocsc()
        upper = (sp.triu(A_bb, k=1) + dscale).tocsc()
        self._low = splu(lower, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self._up = splu(upper, permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def _sweep(self, x: np.ndarray, b: np.ndarray):
        rhs = b[self.block]
        x[self.block] += self._low.solve(rhs - spmv(self.A_rows, x))
        x[self.block] += self._up.solve(rhs - spmv(self.A_rows, x))

    def smooth(self, x: DistVector, b: DistVector, sweeps: int) -> DistVector:
        """Sweeps, each followed by one exchange that averages the interface
        values and refreshes the halo(alpha) values."""
        b.restore(L1)  # interface-slave rows read the right-hand side
        x.restore(L2)  # halo(alpha) columns act as frozen data
        for _ in range(sweeps):
            self._sweep(x.values, b.values)
            self.ctx.exchange.settle(x.values)
            x.level = L2
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
        all_keys = np.unique(row_keys)
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
        counts = [len(g[0]) for g in gathered]
        self._rhs = make_schedule([masters] * t.n_ranks, counts, index(row_keys))

    def solve(self, b: DistVector) -> DistVector:
        rhs = np.empty(self._lu.shape[0])  # each key has one master row
        rhs[self._rhs.rcvd_dof] = self._rhs.send(
            self.ctx.transport, self.ctx.rank, b.values, "coarse-rhs"
        )
        return DistVector(self.ctx, self._lu.solve(rhs)[self._known], L3)


@dataclass
class MgLevel:
    index: int
    ctx: RankContext
    matrix: DistMatrix
    rhs: DistVector | None
    smoother: BlockSsor
    prolongation: sp.csr_matrix | None = None  # from the level below
    restriction: sp.csr_matrix | None = None  # to the level below


@dataclass
class MgHierarchy:
    levels: list[MgLevel]  # coarse to fine
    coarse: CoarseSolver
    nu1: int = 2
    nu2: int = 2
    diagnostics: list | None = None

    @property
    def finest(self) -> MgLevel:
        return self.levels[-1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def build_hierarchy(
    coarse_mesh,
    n_levels: int,
    elem_kind: str,
    discretize,
    transport,
    rank: int,
    nu1: int = 2,
    nu2: int = 2,
    omega: float = 1.0,
) -> MgHierarchy:
    """Spaces and operators on each shared level mesh, then the coarse LU.

    `discretize(ctx) -> (DistMatrix, DistVector | None)` runs on every level
    (rediscretization rather than Galerkin products).  Collective.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    ownership = decompose(coarse_mesh, transport.n_ranks)
    T = transfer_matrices(get_element(elem_kind))
    levels = []
    mesh = coarse_mesh
    for l in range(n_levels):
        own_l = ownership_on_level(ownership, l)
        ctx = build_rank_context(mesh, own_l, elem_kind, transport, rank)
        matrix, rhs = discretize(ctx)
        level = MgLevel(l, ctx, matrix, rhs, BlockSsor(ctx, matrix, omega))
        if l > 0:
            level.prolongation, level.restriction = transfer_operators(
                levels[-1].ctx, ctx, T
            )
        levels.append(level)
        if l + 1 < n_levels:
            mesh = mesh.refined
    coarse = CoarseSolver(levels[0].ctx, levels[0].matrix)
    return MgHierarchy(levels=levels, coarse=coarse, nu1=nu1, nu2=nu2)


def prolongate(hier: MgHierarchy, level: int, v_coarse: DistVector) -> DistVector:
    """Evaluate the coarse function at the fine nodes of own cells' children."""
    if not 0 <= level < hier.n_levels - 1:
        raise IndexError(f"no fine level above {level}")
    fine = hier.levels[level + 1]
    v_coarse.restore(L1)
    v = DistVector(fine.ctx, spmv(fine.prolongation, v_coarse.values), L0)
    return v.restore(L2)


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


def _residual_norm(lvl: MgLevel, x: DistVector, b: DistVector) -> float:
    r = b.copy()
    axpy(-1.0, matvec(lvl.matrix, x), r)
    return norm2(r)


def _cycle(hier: MgHierarchy, level: int, b: DistVector, x: DistVector) -> DistVector:
    if level == 0:
        return hier.coarse.solve(b)
    lvl = hier.levels[level]
    if hier.diagnostics is not None:
        pre = _residual_norm(lvl, x, b)
    lvl.smoother.smooth(x, b, hier.nu1)
    r = b.copy()
    axpy(-1.0, matvec(lvl.matrix, x), r)
    d = restrict_defect(hier, level - 1, r)
    e = _cycle(hier, level - 1, d, new_vector(hier.levels[level - 1].ctx))
    axpy(1.0, prolongate(hier, level - 1, e), x)
    lvl.smoother.smooth(x, b, hier.nu2)
    if hier.diagnostics is not None:
        hier.diagnostics.append(
            (level, pre, _residual_norm(lvl, x, b))
        )
    return x


def v_cycle(hier: MgHierarchy, b: DistVector, x0: DistVector | None = None):
    """One V(nu1, nu2) cycle; the result is level-2-consistent."""
    x = x0 if x0 is not None else new_vector(hier.finest.ctx)
    return _cycle(hier, hier.n_levels - 1, b, x)


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
        return self.smoother.smooth(new_vector(self.smoother.ctx), r, 1)


def write_diagnostics(hier: MgHierarchy, path):
    """Per-cycle CSV with level and pre/post smoothing residual norms."""
    with open(path, "w") as fh:
        fh.write("entry,level,pre_residual,post_residual\n")
        for i, (level, pre, post) in enumerate(hier.diagnostics or []):
            fh.write(f"{i},{level},{pre:.16e},{post:.16e}\n")
