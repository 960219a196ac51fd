"""Consistency-tagged distributed vectors, CSR matrices, and restarted FGMRES.

Operation rules for the consistency tags:

  * matvec needs the input at level 2 (restored on the fly if below); the
    result is level 0, or level 1 when the input was level 3.
  * scaling keeps the level; adding vectors takes the lower level.
  * scalar products skip all slaves and are reduced in fixed rank order, so
    every rank receives the identical result; FGMRES reduces whole arrays of
    them (all projections of one Gram-Schmidt pass) in one collective.

Inputs below the level an operation needs are restored implicitly and the
restore is logged; this serves FGMRES and `matvec`.  Each preconditioner
restores its input once, at its boundary, and runs on value arrays inside.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .comm import ConsistencyLevel, RankContext

logger = logging.getLogger(__name__)

L0, L1, L2, L3 = (
    ConsistencyLevel.L0,
    ConsistencyLevel.L1,
    ConsistencyLevel.L2,
    ConsistencyLevel.L3,
)


class DistVector:
    """Rank-local values over the known d.o.f.s plus a consistency tag.

    Entries not covered by the tag hold stale-but-deterministic data (vectors
    start from zeros), never uninitialized memory.
    """

    def __init__(self, ctx: RankContext, values=None, level: ConsistencyLevel = L3):
        self.ctx = ctx
        if values is None:
            values = np.zeros(ctx.n_local)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (ctx.n_local,):
            raise ValueError("value array does not match the space")
        self.level = level

    def copy(self) -> "DistVector":
        return DistVector(self.ctx, self.values.copy(), self.level)

    def restore(self, target: ConsistencyLevel) -> "DistVector":
        """Lift the vector to `target`, sending only the missing relations."""
        target = ConsistencyLevel(target)
        if self.level < target:
            self.level = self.ctx.comm.restore(self.values, self.level, target)
        return self

    def _ensure(self, required: ConsistencyLevel, op: str):
        if self.level < required:
            logger.debug(
                "rank %d: implicit restore to %s for %s",
                self.ctx.rank,
                required.name,
                op,
            )
            self.restore(required)


def from_keys(ctx: RankContext, fn, level=L3) -> DistVector:
    """Vector with values given by a function of the global key (test helper)."""
    vals = np.array([fn(int(k)) for k in ctx.true_keys], dtype=float)
    return DistVector(ctx, vals, level)


def axpy(a: float, x: DistVector, y: DistVector) -> DistVector:
    """y <- a*x + y; the result tag is the lower of the two input tags."""
    if x.ctx is not y.ctx:
        raise ValueError("vectors live in different spaces")
    y.values += a * x.values
    y.level = min(x.level, y.level)
    return y


def dot(x: DistVector, y: DistVector) -> float:
    """Global scalar product over masters only, identical on every rank."""
    if x.ctx is not y.ctx:
        raise ValueError("vectors live in different spaces")
    mask = x.ctx.master_mask
    part = float(np.dot(x.values[mask], y.values[mask]))
    return x.ctx.transport.allreduce_sum(x.ctx.rank, part)


def norm2(x: DistVector) -> float:
    return float(np.sqrt(dot(x, x)))


class DistMatrix:
    """CSR matrix over the rank-local known d.o.f.s.

    Rows of masters and interface slaves are sequentially correct by
    construction (level-1-consistent); halo rows may be incomplete.  Every
    matrix of a space is data in its graph's layout (`matrix_graph`): columns
    in ascending global-key order, so that master rows accumulate in exactly
    the sequential order, and explicit zeros kept.
    """

    level = L1

    def __init__(self, ctx: RankContext, csr: sp.csr_matrix):
        self.ctx = ctx
        self.csr = csr

    @property
    def shape(self):
        return self.csr.shape

    def combine(self, alpha: float, beta: float, other: "DistMatrix") -> "DistMatrix":
        """alpha*self + beta*other, entry by entry on the layout both must share."""
        a, b = self.csr, other.csr
        if other.ctx is not self.ctx:
            raise ValueError("matrices live in different spaces")
        if not all(map(np.array_equal, (a.indptr, a.indices), (b.indptr, b.indices))):
            raise ValueError("matrices have different layouts")
        layout = a.indices.copy(), a.indptr.copy()
        csr = sp.csr_matrix((alpha * a.data + beta * b.data, *layout), shape=a.shape)
        return DistMatrix(self.ctx, csr)

    def set_dirichlet_rows(self, rows):
        """Replace rows by identity rows; sparsity is kept (entries zeroed)."""
        rows = np.asarray(rows, dtype=np.int64)
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.csr.indptr))
        (hit,) = np.nonzero(self.csr.indices == row_of)
        diag = np.full(self.shape[0], -1, dtype=np.int64)  # CSR position, -1 if absent
        diag[row_of[hit]] = hit
        if np.any(diag[rows] < 0):
            raise RuntimeError(f"no diagonal entry in row {rows[diag[rows] < 0][0]}")
        self.csr.data[np.bincount(rows, minlength=len(diag))[row_of] > 0] = 0.0
        self.csr.data[diag[rows]] = 1.0


def spmv(csr: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """`csr @ x` for a float matrix by scipy's `csr_matvec`, the kernel `@` also
    reaches (bitwise equal), minus about 16 Python calls of dispatch per
    product, which outweigh the kernel on the solve phase's small matrices.
    The kernel does not check bounds, so the length of `x` is checked here."""
    from scipy.sparse._sparsetools import csr_matvec

    n_rows, n_cols = csr.shape
    if x.shape != (n_cols,):
        raise ValueError(f"dimension mismatch: {x.shape} for {csr.shape}")
    y = np.zeros(n_rows)
    csr_matvec(n_rows, n_cols, csr.indptr, csr.indices, csr.data, x, y)
    return y


def matvec(A: DistMatrix, x: DistVector) -> DistVector:
    """y = A x, correct on masters (and interface slaves for level-3 input)."""
    if A.ctx is not x.ctx:
        raise ValueError("operands live in different spaces")
    x._ensure(L2, "matvec")
    y = spmv(A.csr, x.values)
    return DistVector(A.ctx, y, L1 if x.level == L3 else L0)


@dataclass
class SolveResult:
    x: DistVector
    iterations: int
    residuals: list[float]
    converged: bool


def _identity_precond(r: DistVector) -> DistVector:
    z = r.copy()
    z.restore(L2)
    return z


def fgmres(
    A: DistMatrix,
    b: DistVector,
    precond=None,
    x0: DistVector | None = None,
    restart: int = 50,
    tol: float = 1e-10,
    maxit: int = 1000,
) -> SolveResult:
    """Flexible restarted GMRES with one preconditioned direction per step.

    Classical Gram-Schmidt run twice (CGS2), one array reduction per pass;
    the second also reduces w.w, which gives the new norm by Pythagoras
    (Swirydowicz et al., Numer. Linear Algebra Appl. 28, 2021).  Givens
    rotations, absolute Euclidean residual test, true residual at every
    restart.  Returns instead of raising when maxit is exceeded or when a
    restart cycle does not lower the true residual.
    """
    ctx = A.ctx
    if precond is None:
        precond = _identity_precond
    x = x0.copy() if x0 is not None else DistVector(ctx)
    x.restore(L2)
    masters = ctx.master_mask
    V = np.empty((restart + 1, ctx.n_local))  # Krylov basis, one row per vector
    Vm = np.empty((restart + 1, np.count_nonzero(masters)))  # its master columns
    allreduce = functools.partial(ctx.transport.allreduce_sum, ctx.rank)

    r = b.copy()
    axpy(-1.0, matvec(A, x), r)
    beta = norm2(r)
    residuals = [beta]
    total = 0
    converged = beta < tol

    while not converged and total < maxit:
        np.multiply(r.values, 1.0 / beta, out=V[0])
        Vm[0] = V[0, masters]
        levels = [r.level]  # consistency level of each basis vector
        Z = []
        H = np.zeros((restart + 1, restart))
        cs, sn, g = [], [], [beta]  # rotations on Python floats
        j = -1
        while j + 1 < restart and total < maxit:
            j += 1
            Z.append(precond(DistVector(ctx, V[j], levels[j])))
            w = matvec(A, Z[j])
            h1 = allreduce(Vm[: j + 1] @ w.values[masters])
            w.values -= h1 @ V[: j + 1]
            wm = w.values[masters]
            h2ww = allreduce(np.append(Vm[: j + 1] @ wm, wm @ wm))
            h2 = h2ww[:-1]
            w.values -= h2 @ V[: j + 1]
            H[: j + 1, j] = h1 + h2
            H[j + 1, j] = np.sqrt(max(h2ww[-1] - h2 @ h2, 0.0))
            h = H[: j + 2, j].tolist()
            for i, (c, s) in enumerate(zip(cs, sn)):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            denom = float(np.hypot(h[j], h[j + 1]))
            cs.append(h[j] / denom)
            sn.append(h[j + 1] / denom)
            h[j] = denom
            H[: j + 2, j] = h
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            total += 1
            est = abs(g[j + 1])
            residuals.append(est)
            lucky = h[j + 1] < 1e-14 * max(beta, 1.0)
            if lucky or est < tol:
                break
            np.multiply(w.values, 1.0 / h[j + 1], out=V[j + 1])
            Vm[j + 1] = V[j + 1, masters]
            levels.append(min(w.level, levels[j]))
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
        for i in range(k):
            axpy(y[i], Z[i], x)
        r = b.copy()
        axpy(-1.0, matvec(A, x), r)
        previous, beta = beta, norm2(r)
        residuals[-1] = beta  # replace the estimate by the true residual
        converged = beta < tol
        if beta >= previous:  # the cycle stalled; another one would too
            break
    return SolveResult(x=x, iterations=total, residuals=residuals, converged=converged)
