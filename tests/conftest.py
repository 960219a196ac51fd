"""Shared fixtures and independent oracles for the test suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from parfem.comm import (
    RELATION_SLAVE_CLASS,
    ConsistencyLevel,
    Relation,
    Transport,
    build_rank_context,
)
from parfem.dlinalg import DistVector, axpy, dot, matvec, norm2
from parfem.dof_manager import encode_key
from parfem.mapped_fe import cell_geometry, gauss_rule, get_element
from parfem.mesh import Mesh
from parfem.multigrid import _QUADRANT_OFFSETS, transfer_matrices
from parfem.partition import MASTER_CLASSES, DofClass


def seq_context(mesh, elem="q1"):
    """Single-rank context: the sequential reference configuration."""
    transport = Transport(1)
    ownership = np.zeros(mesh.n_cells, dtype=np.int64)
    return build_rank_context(mesh, ownership, elem, transport, 0)


def of_class(classification, *classes):
    """Local d.o.f.s of the given classes, ascending."""
    return np.flatnonzero(np.isin(classification.classes, [int(c) for c in classes]))


def one_cell_map(geo, points):
    """Images (m, 2) of reference points under a one-cell `CellGeometry`."""
    return geo.map(points)[..., 0].T


def one_cell_jacobians(geo, points):
    """Jacobians (m, 2, 2) of a one-cell `CellGeometry`, J[q, i, j]."""
    return geo.jacobians(points)[..., 0].transpose(2, 0, 1)


def geometric_dof_classes(mesh, cells, elem_kind, tol=1e-10):
    """Brute-force oracle: local d.o.f.s identified iff coordinates coincide."""
    elem = get_element(elem_kind)
    groups = {}
    for gid in sorted(cells):
        pts = one_cell_map(cell_geometry(mesh, [gid]), elem.nodes)
        for li in range(elem.n_dofs):
            key = (round(pts[li, 0] / tol), round(pts[li, 1] / tol))
            groups.setdefault(key, set()).add((gid, li))
    return {frozenset(g) for g in groups.values()}


def dense_ssor_sweep(A, x, b, omega=1.0):
    """Textbook componentwise SSOR iteration (forward then backward)."""
    A = np.asarray(A)
    x = np.array(x, dtype=float)
    n = len(b)
    for i in range(n):
        x[i] += omega * (b[i] - A[i] @ x) / A[i, i]
    for i in range(n - 1, -1, -1):
        x[i] += omega * (b[i] - A[i] @ x) / A[i, i]
    return x


class SplitBlockSsor:
    """Block SSOR with the halo couplings split off (oracle of BlockSsor).

    Each sweep forms b_B - A_out x_out once and then runs both half-sweeps on
    the block-by-block matrix A_bb, one product each; after each sweep the
    interface and halo values are settled as in `BlockSsor.smooth`.
    """

    def __init__(self, ctx, csr, omega=1.0):
        self.ctx = ctx
        self.block = np.flatnonzero(ctx.block_mask)
        self.outside = np.flatnonzero(~ctx.block_mask)
        self.A_bb = csr[self.block][:, self.block].tocsr()
        self.A_out = csr[self.block][:, self.outside].tocsr()
        dscale = sp.diags(self.A_bb.diagonal() / omega)
        self._low = splu((sp.tril(self.A_bb, k=-1) + dscale).tocsc(),
                         permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self._up = splu((sp.triu(self.A_bb, k=1) + dscale).tocsc(),
                        permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def sweep(self, x, b):
        xb = x[self.block]
        rhs = b[self.block]
        if self.outside.size:
            rhs = rhs - self.A_out @ x[self.outside]
        xb = xb + self._low.solve(rhs - self.A_bb @ xb)
        xb = xb + self._up.solve(rhs - self.A_bb @ xb)
        x[self.block] = xb

    def smooth(self, x, b, sweeps):
        """x and b as DistVectors; x at level 3, b at level 1 or above."""
        for _ in range(sweeps):
            self.sweep(x.values, b.values)
            self.ctx.exchange.settle(x.values)


def dense_gmres(A, b, x0=None, tol=1e-12, maxit=200):
    """Plain dense GMRES (no restart) returning the residual history."""
    A = np.asarray(A)
    n = len(b)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, float)
    r = b - A @ x0
    beta = np.linalg.norm(r)
    hist = [beta]
    if beta < tol:
        return x0, hist
    V = [r / beta]
    H = np.zeros((maxit + 1, maxit))
    for j in range(maxit):
        w = A @ V[j]
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        y, res, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], beta * np.eye(j + 2)[:, 0],
                                     rcond=None)
        est = np.linalg.norm(H[: j + 2, : j + 1] @ y - beta * np.eye(j + 2)[:, 0])
        hist.append(est)
        if est < tol or H[j + 1, j] < 1e-14:
            break
        V.append(w / H[j + 1, j])
    x = x0 + np.column_stack(V[: len(y)]) @ y
    return x, hist


def loop_fgmres_mgs(A, b, precond, restart=50, tol=1e-10, maxit=1000):
    """Restarted FGMRES with modified Gram-Schmidt: one scalar reduction per
    projection and one for the norm.  Returns (x, iterations, residuals)."""
    x = DistVector(A.ctx)
    x.restore(ConsistencyLevel.L2)
    r = b.copy()
    axpy(-1.0, matvec(A, x), r)
    beta = norm2(r)
    residuals = [beta]
    total = 0
    while beta >= tol and total < maxit:
        V = [DistVector(r.ctx, r.values * (1.0 / beta), r.level)]
        Z = []
        H = np.zeros((restart + 1, restart))
        g = np.zeros(restart + 1)
        g[0] = beta
        for j in range(restart):
            Z.append(precond(V[j]))
            w = matvec(A, Z[j])
            for i in range(j + 1):
                H[i, j] = dot(V[i], w)
                axpy(-H[i, j], V[i], w)
            H[j + 1, j] = norm2(w)
            total += 1
            # least squares by a dense solve instead of Givens rotations
            y, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], g[: j + 2], rcond=None)
            residuals.append(np.linalg.norm(H[: j + 2, : j + 1] @ y - g[: j + 2]))
            lucky = H[j + 1, j] < 1e-14 * max(beta, 1.0)
            if lucky or residuals[-1] < tol or total == maxit:
                break
            V.append(DistVector(w.ctx, w.values * (1.0 / H[j + 1, j]), w.level))
        for i in range(len(y)):
            axpy(y[i], Z[i], x)
        r = b.copy()
        axpy(-1.0, matvec(A, x), r)
        beta = norm2(r)
        residuals[-1] = beta
    return x, total, residuals


def invert_reference_map(geo, x, tol=1e-13):
    """Newton iteration for the reference coordinates of a physical point
    under the map of a one-cell `CellGeometry`."""
    xi = np.zeros(2)
    for _ in range(50):
        f = one_cell_map(geo, [xi])[0] - np.asarray(x, float)
        if np.linalg.norm(f) < tol:
            break
        J = one_cell_jacobians(geo, [xi])[0]
        xi = xi - np.linalg.solve(J, f)
    return xi


def eval_fe_function(ctx, values, points, tol=1e-9):
    """Evaluate a finite element function at physical points (own cells)."""
    elem = get_element(ctx.elem_kind)
    out = np.full(len(points), np.nan)
    for gid in sorted(ctx.rank_cells.own):
        geo = cell_geometry(ctx.mesh, [gid])
        dofs = ctx.dof_map.cell_dofs[gid]
        for k, p in enumerate(points):
            if not np.isnan(out[k]):
                continue
            xi = invert_reference_map(geo, p)
            if np.all(np.abs(xi) <= 1.0 + tol):
                vals, _ = elem.eval([xi])
                out[k] = vals[0] @ values[dofs]
    return out


def loop_physical_gradients(geo, points, ref_grads):
    """Per-point oracle on a one-cell `CellGeometry`: J^{-T} grad with a
    general matrix inverse."""
    Jinv = np.linalg.inv(one_cell_jacobians(geo, points))
    return np.einsum("mji,mkj->mki", Jinv, ref_grads)


def loop_physical_hessians(geo, points, ref_grads, ref_hess):
    """Per-point oracle on a one-cell `CellGeometry`: second derivatives of
    xi(x) built from dJ/dxi."""
    v0, v1, v2, v3 = geo.verts[0]
    a3 = 0.25 * (v0 - v1 + v2 - v3)
    Txi = np.zeros((2, 2))
    Teta = np.zeros((2, 2))
    Txi[:, 1] = a3  # d J / d xi
    Teta[:, 0] = a3  # d J / d eta
    out = np.empty(ref_hess.shape)
    for q, J in enumerate(one_cell_jacobians(geo, points)):
        g = np.linalg.inv(J)
        xi_sec = np.zeros((2, 2, 2))  # d^2 xi_k / d x_i d x_j
        if not geo.affine[0]:
            for j in range(2):
                xi_sec[:, :, j] = -g @ (Txi * g[0, j] + Teta * g[1, j]) @ g
        out[q] = np.einsum("nkl,ki,lj->nij", ref_hess[q], g, g)
        out[q] += np.einsum("nk,kij->nij", ref_grads[q], xi_sec)
    return out


def _field(coeff, points, shape):
    value = coeff(points) if callable(coeff) else coeff
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def scalar_supg_tau(eps, h, b):
    """Per-cell oracle: the standard streamline-diffusion parameter."""
    bnorm = math.hypot(b[0], b[1])
    if bnorm < 1e-12:
        return 0.0
    pe = bnorm * h / (2.0 * eps)
    if pe < 1e-4:
        zeta = pe / 3.0
    elif pe > 50.0:
        zeta = 1.0 - 1.0 / pe
    else:
        zeta = 1.0 / math.tanh(pe) - 1.0 / pe
    return h / (2.0 * bnorm) * zeta


def loop_assemble_cdr(ctx, coeffs, supg=False):
    """Per-cell oracle: dense operator and right-hand side, one map per cell."""
    elem = get_element(ctx.elem_kind)
    rule = gauss_rule({"q1": 2, "q2": 3}[ctx.elem_kind])
    vals, grads = elem.eval(rule.points)
    hess = elem.eval_hessians(rule.points)
    n_q = len(rule.weights)
    A = np.zeros((ctx.n_local, ctx.n_local))
    rhs = np.zeros(ctx.n_local)
    for gid in ctx.rank_cells.known:
        dofs = ctx.dof_map.cell_dofs[gid]
        geo = cell_geometry(ctx.mesh, [gid])
        w = rule.weights * np.linalg.det(one_cell_jacobians(geo, rule.points))
        pg = loop_physical_gradients(geo, rule.points, grads)
        xq = one_cell_map(geo, rule.points)
        bq = _field(coeffs.b, xq, (n_q, 2))
        cq = _field(coeffs.c, xq, (n_q,))
        fq = _field(coeffs.f, xq, (n_q,))
        bgrad = np.einsum("qd,qjd->qj", bq, pg)
        Ae = coeffs.eps * np.einsum("q,qid,qjd->ij", w, pg, pg)
        Ae += np.einsum("q,qj,qi->ij", w, bgrad, vals)
        Ae += np.einsum("q,q,qj,qi->ij", w, cq, vals, vals)
        be = np.einsum("q,q,qi->i", w, fq, vals)
        h = geo.diameter[0]
        tau = scalar_supg_tau(coeffs.eps, h, bq.mean(axis=0)) if supg else 0.0
        if tau > 0.0:
            ph = loop_physical_hessians(geo, rule.points, grads, hess)
            lap = ph[:, :, 0, 0] + ph[:, :, 1, 1]
            resid = -coeffs.eps * lap + bgrad + cq[:, None] * vals
            Ae += tau * np.einsum("q,qj,qi->ij", w, resid, bgrad)
            be += tau * np.einsum("q,q,qi->i", w, fq, bgrad)
        A[np.ix_(dofs, dofs)] += Ae
        rhs[dofs] += be
    return A, rhs


def loop_assemble_mass(ctx):
    """Per-cell oracle: dense mass matrix, one map per cell."""
    elem = get_element(ctx.elem_kind)
    rule = gauss_rule({"q1": 2, "q2": 3}[ctx.elem_kind])
    vals, _ = elem.eval(rule.points)
    M = np.zeros((ctx.n_local, ctx.n_local))
    for gid in ctx.rank_cells.known:
        dofs = ctx.dof_map.cell_dofs[gid]
        geo = cell_geometry(ctx.mesh, [gid])
        w = rule.weights * np.linalg.det(one_cell_jacobians(geo, rule.points))
        M[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", w, vals, vals)
    return M


# Bitwise oracles: the batched setup kernels as they were formulated before
# einsum, the zero-coefficient skips and the mask-built SSOR stores.  Each
# must agree with the library byte for byte, not within a tolerance.


def loop_qsum(w, test, trial):
    """sum_q w[c,q] test[c,q,i] trial[c,q,j] as a Python loop over q (oracle
    of `assembly._qsum`)."""
    return sum(
        (w[:, q, None] * test[:, q])[:, :, None] * trial[:, q, None, :]
        for q in range(w.shape[1])
    )


def loop_qload(w, test):
    """sum_q w[c,q] test[c,q,i] as a Python loop over q."""
    return sum(w[:, q, None] * test[:, q] for q in range(w.shape[1]))


class CellsFirstGeometry:
    """The bilinear maps of `CellGeometry` evaluated with the cell axis first
    and the x/y axes last: map (cells, m, 2), jacobians and their inverses
    (cells, m, 2, 2), physical_hessians (cells, m, n_dofs, 2, 2).  Bitwise
    oracle of the batch-last layout, built from the same vertices."""

    def __init__(self, verts):
        v0, v1, v2, v3 = (verts[:, k] for k in range(4))
        self.a0 = 0.25 * (v0 + v1 + v2 + v3)
        self.a1 = 0.25 * (-v0 + v1 + v2 - v3)
        self.a2 = 0.25 * (-v0 - v1 + v2 + v3)
        self.a3 = 0.25 * (v0 - v1 + v2 - v3)
        diagonals = verts[:, 2:] - verts[:, :2]
        self.diameter = np.hypot(diagonals[..., 0], diagonals[..., 1]).max(axis=1)
        self.affine = np.hypot(self.a3[:, 0], self.a3[:, 1]) <= 1e-14 * self.diameter

    def map(self, points):
        pts = np.asarray(points, dtype=float)[None]
        xi, eta = pts[..., 0:1], pts[..., 1:2]
        a0, a1, a2, a3 = (a[:, None] for a in (self.a0, self.a1, self.a2, self.a3))
        return a0 + xi * a1 + eta * a2 + (xi * eta) * a3

    def jacobians(self, points):
        pts = np.asarray(points, dtype=float)[None]
        a1, a2, a3 = (a[:, None] for a in (self.a1, self.a2, self.a3))
        return np.stack([a1 + pts[..., 1:2] * a3, a2 + pts[..., 0:1] * a3], axis=-1)

    def inverse_jacobians(self, points):
        J = self.jacobians(points)
        G = np.empty_like(J)
        G[..., 0, 0], G[..., 0, 1] = J[..., 1, 1], -J[..., 0, 1]
        G[..., 1, 0], G[..., 1, 1] = -J[..., 1, 0], J[..., 0, 0]
        return G / _det2_last(J)[..., None, None]

    def physical_hessians(self, points, ref_grads, ref_hess):
        G = self.inverse_jacobians(points)[:, :, None]
        out = sum(
            ref_hess[..., k, l, None, None] * (G[..., k, :, None] * G[..., l, None, :])
            for k, l in np.ndindex(2, 2)
        )
        a3 = np.where(self.affine[:, None], 0.0, self.a3)[:, None, None]
        pg = broadcast_physical_gradients(self, points, ref_grads)
        pg_a3 = pg[..., 0] * a3[..., 0] + pg[..., 1] * a3[..., 1]
        S = G[..., 0, :, None] * G[..., 1, None, :]
        return out - pg_a3[..., None, None] * (S + np.swapaxes(S, -1, -2))


def _det2_last(J):
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def broadcast_physical_gradients(geo, points, ref_grads):
    """J^{-T} grad on a `CellsFirstGeometry`, broadcast over the length-2
    component axis: (cells, m, n_dofs, 2) (oracle of
    `CellGeometry.physical_gradients`)."""
    G = geo.inverse_jacobians(points)[:, :, None]
    g0, g1 = ref_grads[..., 0, None], ref_grads[..., 1, None]
    return G[..., 0, :] * g0 + G[..., 1, :] * g1


def _batch_weights(geo, rule):
    return rule.weights * _det2_last(geo.jacobians(rule.points))


def three_term_assemble_cdr(ctx, coeffs, supg=False):
    """Batched operator with the diffusion, convection and reaction terms
    always formed, by `loop_qsum` and the broadcast gradients (bitwise oracle
    of `assemble_cdr`).  Returns the CSR matrix and the right-hand side."""
    from parfem.assembly import DEFAULT_QUAD, SupgParams, _matrix

    elem = get_element(ctx.elem_kind)
    rule = gauss_rule(DEFAULT_QUAD[ctx.elem_kind])
    vals, grads = elem.eval(rule.points)
    verts = ctx.mesh.vertices[ctx.mesh.cell_vertices[ctx.rank_cells.known]]
    geo = CellsFirstGeometry(verts)
    n_cells, n_q = len(verts), len(rule.weights)
    w = _batch_weights(geo, rule)
    pg = broadcast_physical_gradients(geo, rule.points, grads)
    xq = geo.map(rule.points).reshape(-1, 2)
    bq = _field(coeffs.b, xq, (len(xq), 2)).reshape(n_cells, n_q, 2)
    cq = _field(coeffs.c, xq, (len(xq),)).reshape(n_cells, n_q)
    fq = _field(coeffs.f, xq, (len(xq),)).reshape(n_cells, n_q)
    phi = np.broadcast_to(vals, (n_cells,) + vals.shape)
    bgrad = bq[..., None, 0] * pg[..., 0] + bq[..., None, 1] * pg[..., 1]
    pg_by_dir = pg.transpose(0, 1, 3, 2).reshape(n_cells, 2 * n_q, -1)
    Ae = coeffs.eps * loop_qsum(np.repeat(w, 2, axis=1), pg_by_dir, pg_by_dir)
    Ae += loop_qsum(w, phi, bgrad)
    Ae += loop_qsum(w * cq, phi, phi)
    be = loop_qload(w * fq, phi)
    if supg:
        b_mean = sum(bq[:, q] for q in range(n_q)) / n_q
        tau = SupgParams(coeffs.eps).tau(geo, b_mean.T)
        (on,) = np.nonzero(tau > 0.0)
        if on.size:
            hess = elem.eval_hessians(rule.points)
            on_geo = CellsFirstGeometry(verts[on])
            ph = on_geo.physical_hessians(rule.points, grads, hess)
            lap = ph[..., 0, 0] + ph[..., 1, 1]
            resid = -coeffs.eps * lap + bgrad[on] + cq[on, :, None] * vals
            Ae[on] += tau[on, None, None] * loop_qsum(w[on], bgrad[on], resid)
            be[on] += tau[on, None] * loop_qload(w[on] * fq[on], bgrad[on])
    rhs = np.zeros(ctx.n_local)
    np.add.at(rhs, ctx.dof_map.table.ravel(), be.ravel())
    return _matrix(ctx, Ae.transpose(1, 2, 0)).csr, rhs  # batch-last input


def loop_qsum_mass(ctx):
    """Batched mass matrix by `loop_qsum` (bitwise oracle of `assemble_mass`)."""
    from parfem.assembly import DEFAULT_QUAD, _matrix

    rule = gauss_rule(DEFAULT_QUAD[ctx.elem_kind])
    vals, _ = get_element(ctx.elem_kind).eval(rule.points)
    verts = ctx.mesh.vertices[ctx.mesh.cell_vertices[ctx.rank_cells.known]]
    w = _batch_weights(CellsFirstGeometry(verts), rule)
    phi = np.broadcast_to(vals, (len(w),) + vals.shape)
    return _matrix(ctx, loop_qsum(w, phi, phi).transpose(1, 2, 0)).csr


def tril_triu_ssor_stores(ctx, csr, omega=1.0):
    """`BlockSsor`'s (n, nnz, data, indices, indptr) CSC stores built with
    `sp.tril`/`sp.triu` and a sum with the diagonal (bitwise oracle)."""
    block = np.flatnonzero(ctx.block_mask)
    A_bb = csr[block][:, block].tocsr()
    diag = A_bb.diagonal()
    lower = sp.tril(A_bb, k=-1, format="csr")
    lower.data *= omega / diag[lower.indices]
    lower = lower + sp.diags(diag / (omega * (2.0 - omega)))
    upper = sp.triu(A_bb, k=1, format="csr") / (2.0 - omega)
    stores = []
    for m in (lower.tocsc(), upper.tocsc()):
        m.sort_indices()
        index = m.indices.astype(np.intc), m.indptr.astype(np.intc)
        stores += [m.shape[0], m.nnz, m.data, *index]
    return stores


def isin_dirichlet_rows(csr, rows):
    """A copy of `csr` with the given rows made identity rows, the rows
    found by `np.isin` (bitwise oracle of `DistMatrix.set_dirichlet_rows`)."""
    out = csr.copy()
    row_of = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))
    (hit,) = np.nonzero(out.indices == row_of)
    diag = np.full(out.shape[0], -1, dtype=np.int64)
    diag[row_of[hit]] = hit
    out.data[np.isin(row_of, rows)] = 0.0
    out.data[diag[rows]] = 1.0
    return out


def loop_dof_coordinates(dof_map, mesh):
    """Per-cell oracle: each d.o.f. placed by its smallest containing cell."""
    coords = np.full((dof_map.n_dofs, 2), np.nan)
    for gid in sorted(dof_map.cell_dofs):
        pts = one_cell_map(cell_geometry(mesh, [gid]), dof_map.elem.nodes)
        for li, g in enumerate(dof_map.cell_dofs[gid]):
            if np.isnan(coords[g, 0]):
                coords[g] = pts[li]
    return coords


def loop_dirichlet_dofs(ctx, parts, t=0.0):
    """Per-edge oracle: scan every mesh edge, later parts win.

    A part takes an edge whose midpoint its `where` holds at.
    """
    mesh = ctx.mesh
    elem = get_element(ctx.elem_kind)
    known = set(ctx.rank_cells.known)
    chosen = {}
    for part in parts:
        def on_part(a, b):
            x, y = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            return bool(part.where(x, y))

        part_dofs = set()
        for (a, b), inc in loop_edge_cells(mesh).items():
            if len(inc) != 1 or inc[0] not in known or not on_part(a, b):
                continue
            dofs = ctx.dof_map.cell_dofs[inc[0]]
            e = _edge_index(mesh.cell_vertices[inc[0]].tolist(), a, b)
            part_dofs.add(int(dofs[elem.vertex_dof[e]]))
            part_dofs.add(int(dofs[elem.vertex_dof[(e + 1) % 4]]))
            part_dofs.update(int(dofs[li]) for li, _ in elem.edge_dofs[e])
        rows = sorted(part_dofs)
        if rows:
            chosen.update(zip(rows, part.values_at(ctx.dof_coords[rows], t)))
    rows = sorted(chosen)
    return np.array(rows, dtype=np.int64), np.array([chosen[r] for r in rows])


class CountingTransport(Transport):
    """Counts each rank's reductions and all-to-alls."""

    def __init__(self, n_ranks):
        super().__init__(n_ranks)
        self.reductions = [0] * n_ranks
        self.all_to_alls = [0] * n_ranks

    def allreduce_sum(self, rank, value):
        self.reductions[rank] += 1
        return super().allreduce_sum(rank, value)

    def all_to_all(self, rank, chunks, label="a2a"):
        self.all_to_alls[rank] += 1
        return super().all_to_all(rank, chunks, label)


def loop_average_restore(ctx, values):
    """Per-d.o.f. oracle of the two-exchange smoother update (collective).

    Interface values become the mean over the sharing ranks, summed from zero
    in ascending rank order; then the halo d.o.f.s take their master's
    value (restore from level 1 to level 3).
    """
    if_classes = (DofClass.INTERFACE_MASTER, DofClass.INTERFACE_SLAVE)
    interface = [
        g for g in range(ctx.n_local) if ctx.classification.classes[g] in if_classes
    ]
    mine = {int(ctx.true_keys[g]): float(values[g]) for g in interface}
    n = ctx.transport.n_ranks
    received = ctx.transport.all_to_all(ctx.rank, [mine] * n, label="oracle")
    for g in interface:
        key = int(ctx.true_keys[g])
        total, count = 0.0, 0
        for q in range(n):
            if key in received[q]:
                total += received[q][key]
                count += 1
        values[g] = total / count
    DistVector(ctx, values, ConsistencyLevel.L1).restore(ConsistencyLevel.L3)


def _level_pair(hier, level):
    if not 0 <= level < len(hier.levels) - 1:
        raise IndexError(f"no fine level above {level}")
    coarse, fine = hier.levels[level], hier.levels[level + 1]
    return coarse.ctx, fine.ctx, transfer_matrices(get_element(coarse.ctx.elem_kind))


def loop_prolongate(hier, level, v_coarse):
    """Per-cell oracle: coarse function at the fine nodes, later cells win."""
    cc, fc, T = _level_pair(hier, level)
    v_coarse.restore(ConsistencyLevel.L1)
    out = np.zeros(fc.n_local)
    for gid in sorted(cc.rank_cells.own):
        vc = v_coarse.values[cc.dof_map.cell_dofs[gid]]
        for c in range(4):
            out[fc.dof_map.cell_dofs[4 * gid + c]] = T[c] @ vc
    v = DistVector(fc, out, ConsistencyLevel.L0)
    v.restore(ConsistencyLevel.L3)
    return v


def loop_restrict_defect(hier, level, d_fine):
    """Per-cell oracle: transpose of prolongation, a visited mask per master;
    the interface totals go to every sharing rank."""
    cc, fc, T = _level_pair(hier, level)
    out = np.zeros(cc.n_local)
    visited = np.zeros(fc.n_local, dtype=bool)
    for gid in sorted(cc.rank_cells.own):
        cdofs = cc.dof_map.cell_dofs[gid]
        for c in range(4):
            fdofs = fc.dof_map.cell_dofs[4 * gid + c]
            take = fc.master_mask[fdofs] & ~visited[fdofs]
            if np.any(take):
                visited[fdofs[take]] = True
                out[cdofs] += T[c][take].T @ d_fine.values[fdofs[take]]
    cc.exchange.accumulate(out)
    return DistVector(cc, out, ConsistencyLevel.L1)


def argsort_per_fine_dof_transfers(coarse, fine, T):
    """Oracle of `transfer_operators` as it stood before sorting each coarse
    cell's row once: one argsort per fine d.o.f., and R formed by the product
    diag(fine masters) @ P, transposed."""
    cell, node = np.divmod(fine.dof_map.first, T.shape[1])
    parent, child = np.divmod(fine.dof_map.cells[cell], 4)
    cols = coarse.dof_map.rows(parent)
    order = np.argsort(coarse.true_keys[cols], axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(T[child, node], order, axis=1)
    nz = vals != 0.0
    indptr = np.concatenate([[0], np.cumsum(nz.sum(axis=1))])
    shape = (fine.n_local, coarse.n_local)
    P = sp.csr_matrix((vals[nz], cols[nz], indptr), shape=shape)
    R = (sp.diags(fine.master_mask * 1.0) @ P).T.tocsr()
    return P, R


def accumulated_master_solve(solver, ctx, partial):
    """Per-d.o.f. oracle of the coarse solve from partial sums (collective):
    each interface value becomes the sum over the sharing ranks from 0.0, in
    ascending rank (`accumulate`); then every rank receives every master
    value, and `solver`'s LU solves them in ascending key."""
    n = ctx.transport.n_ranks
    interface = ctx.block_mask & (ctx.classification.classes != DofClass.INNER)
    mine = dict(zip(ctx.true_keys[interface].tolist(), partial[interface]))
    received = ctx.transport.all_to_all(ctx.rank, [mine] * n, label="oracle")
    values = partial.copy()
    for g in np.flatnonzero(interface):
        key, total = int(ctx.true_keys[g]), 0.0
        for q in range(n):
            if key in received[q]:
                total += received[q][key]
        values[g] = total
    mine = (ctx.true_keys[ctx.master_mask], values[ctx.master_mask])
    received = ctx.transport.all_to_all(ctx.rank, [mine] * n, label="oracle")
    keys, rhs = map(np.concatenate, zip(*received))
    return solver._lu.solve(rhs[np.argsort(keys)])[solver._known]


def injection_table(elem):
    """(child, fine node) holding each coarse node; coarse nodes are fine nodes."""
    table = []
    for node in elem.nodes:
        found = None
        for c in range(4):
            pts = 0.5 * elem.nodes + _QUADRANT_OFFSETS[c]
            hits = np.flatnonzero(np.all(np.abs(pts - node) < 1e-12, axis=1))
            if hits.size:
                found = (c, int(hits[0]))
                break
        if found is None:
            raise RuntimeError("coarse node is not a fine node")
        table.append(found)
    return table


def restrict_function(hier, level, v_fine):
    """Nodal injection at coincident nodes."""
    cc, fc, _ = _level_pair(hier, level)
    injection = injection_table(get_element(cc.elem_kind))
    v_fine.restore(ConsistencyLevel.L1)
    out = np.zeros(cc.n_local)
    for gid in sorted(cc.rank_cells.own):
        cdofs = cc.dof_map.cell_dofs[gid]
        for j, (c, i) in enumerate(injection):
            out[cdofs[j]] = v_fine.values[fc.dof_map.cell_dofs[4 * gid + c][i]]
    return DistVector(cc, out, ConsistencyLevel.L1)


def loop_refine_uniform(mesh):
    """Per-cell oracle: midpoints in sorted edge order, then barycenters."""
    circle = set(mesh.circle.tolist())
    edges = list(loop_edge_cells(mesh))
    new_circle = set(circle)
    nv = mesh.n_vertices
    edge_mid = {}
    mid_coords = []
    for a, b in edges:
        m = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if a in circle and b in circle:
            m = m / math.hypot(m[0], m[1])
            new_circle.add(nv + len(mid_coords))
        edge_mid[(a, b)] = nv + len(mid_coords)
        mid_coords.append(m)
    bary_base = nv + len(mid_coords)
    bary = [mesh.vertices[verts].mean(axis=0) for verts in mesh.cell_vertices]

    def mid(a, b):
        return edge_mid[(a, b) if a < b else (b, a)]

    children = []
    for g, (v0, v1, v2, v3) in enumerate(mesh.cell_vertices.tolist()):
        m01, m12, m23, m30 = mid(v0, v1), mid(v1, v2), mid(v2, v3), mid(v3, v0)
        ctr = bary_base + g
        children += [
            (v0, m01, ctr, m30),
            (m01, v1, m12, ctr),
            (ctr, m12, v2, m23),
            (m30, ctr, m23, v3),
        ]
    verts = np.vstack([mesh.vertices, np.array(mid_coords), np.array(bary)])
    return Mesh(
        verts, np.array(children), level=mesh.level + 1, circle=sorted(new_circle)
    )


def loop_edge_cells(mesh):
    """Per-cell oracle: sorted vertex-id pair -> ascending ids of its cells,
    in ascending pair order."""
    out = {}
    for g, verts in enumerate(mesh.cell_vertices.tolist()):
        for k in range(4):
            a, b = verts[k], verts[(k + 1) % 4]
            out.setdefault((min(a, b), max(a, b)), []).append(g)
    return dict(sorted(out.items()))


def census_admissibility(cells):
    """Cell-pair census of admissibility, as `Mesh._validate` formulated it
    before the diagonal rule (oracle).

    `cells` is an (n, 4) array of distinct vertex ids per row, no edge with
    more than two cells.  Returns ({(ci, cj): shared vertices} for every
    offending pair: two cells sharing 2 vertices but no edge, or more than 2
    vertices; the census's message, naming the first offending pair in
    ascending (vertex, ci, cj) order, or None if the cells are admissible).
    """
    cv = np.asarray(cells, dtype=np.int64)
    n = len(cv)
    ends = np.sort(np.stack([cv, np.roll(cv, -1, axis=1)], axis=-1), axis=-1)
    _, cell_edges, edge_counts = np.unique(
        ends[..., 0] * (cv.max() + 1) + ends[..., 1],
        return_inverse=True, return_counts=True,
    )
    # (vertex, ci, cj) for every two cells ci < cj on a common vertex
    order = np.argsort(cv.ravel(), kind="stable")
    vert, cell = cv.ravel()[order], order // 4
    triples = []
    for d in range(1, len(vert)):
        same = vert[d:] == vert[:-d]
        if not same.any():
            break
        triples.append(np.stack([vert[d:], cell[:-d], cell[d:]])[:, same])
    if not triples:
        return {}, None
    v, ci, cj = np.concatenate(triples, axis=1)
    codes = ci * n + cj
    pair, shared = np.unique(codes, return_counts=True)
    two = (np.cumsum(edge_counts) - 2)[edge_counts == 2]
    # incident cell ids grouped by edge, ascending within each edge
    by_edge = np.argsort(cell_edges.ravel(), kind="stable") // 4
    edge_pairs = np.sort(by_edge[two] * n + by_edge[two + 1])
    no_edge = (shared >= 2) & ~np.isin(pair, edge_pairs)
    offending = no_edge | (shared > 2)
    offenders = {
        divmod(int(p), n): int(s) for p, s in zip(pair[offending], shared[offending])
    }
    if not offenders:
        return {}, None
    hit = np.isin(codes, pair[offending])
    k = np.searchsorted(pair, codes[hit][np.lexsort((codes[hit], v[hit]))[0]])
    ci, cj = divmod(int(pair[k]), n)
    if no_edge[k]:
        return offenders, f"cells {ci} and {cj} share {shared[k]} vertices but no edge"
    return offenders, f"cells {ci} and {cj} overlap in {shared[k]} vertices"


def _loop_vertex_cells(mesh):
    out = [[] for _ in range(mesh.n_vertices)]
    for g, verts in enumerate(mesh.cell_vertices.tolist()):
        for v in verts:
            out[v].append(g)
    return out


def loop_build_rank_cells(mesh, ownership, rank):
    """Per-cell oracle: (own, halo) ascending id arrays."""
    vertex_cells = _loop_vertex_cells(mesh)

    def neighbors(g):
        out = {c for v in mesh.cell_vertices[g].tolist() for c in vertex_cells[v]}
        return out - {g}

    own = {g for g in range(mesh.n_cells) if ownership[g] == rank}
    halo = set()
    for g in own:
        halo.update(n for n in neighbors(g) if n not in own)
    return tuple(np.array(sorted(c), dtype=np.int64) for c in (own, halo))


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


def _edge_index(verts, a, b):
    """Local edge (verts[e], verts[e+1]) joining vertices a and b."""
    for e in range(4):
        if {verts[e], verts[(e + 1) % 4]} == {a, b}:
            return e
    raise ValueError(f"vertices {(a, b)} are not an edge of the cell {verts}")


def loop_build_dof_map(mesh, cells, elem_kind):
    """Union-find oracle: unify the d.o.f.s on shared vertices and edges of
    adjacent known cells, number the classes by their smallest key."""
    elem = get_element(elem_kind)
    cell_ids = sorted(set(cells))
    nd = elem.n_dofs
    slot_of = {g: i for i, g in enumerate(cell_ids)}
    uf = UnionFind(len(cell_ids) * nd)

    def slot(gid, li):
        return slot_of[gid] * nd + li

    vertex_cells = _loop_vertex_cells(mesh)
    known = set(cell_ids)
    pairs = set()
    for gid in cell_ids:
        for v in mesh.cell_vertices[gid].tolist():
            for other in vertex_cells[v]:
                if other in known and other > gid:
                    pairs.add((gid, other))

    for ka, kb in sorted(pairs):
        ca, cb = mesh.cell_vertices[ka].tolist(), mesh.cell_vertices[kb].tolist()
        shared = set(ca) & set(cb)
        for v in shared:
            pa = ca.index(v)
            pb = cb.index(v)
            uf.union(slot(ka, elem.vertex_dof[pa]), slot(kb, elem.vertex_dof[pb]))
        if len(shared) == 2:
            a, b = sorted(shared)
            ea = _edge_index(ca, a, b)
            eb = _edge_index(cb, a, b)
            for li, ti in elem.edge_dofs[ea]:
                ta = ti if ca[ea] < ca[(ea + 1) % 4] else 1.0 - ti
                for lj, tj in elem.edge_dofs[eb]:
                    tb = tj if cb[eb] < cb[(eb + 1) % 4] else 1.0 - tj
                    if abs(ta - tb) < 1e-9:
                        uf.union(slot(ka, li), slot(kb, lj))

    class_key = {}
    for gid in cell_ids:
        for li in range(nd):
            root = uf.find(slot(gid, li))
            key = encode_key(gid, li)
            if root not in class_key or key < class_key[root]:
                class_key[root] = key
    ordered = sorted(class_key.items(), key=lambda kv: kv[1])
    number = {root: i for i, (root, _) in enumerate(ordered)}

    cell_dofs = {}
    cells_of = [set() for _ in ordered]
    for gid in cell_ids:
        arr = np.empty(nd, dtype=np.int64)
        for li in range(nd):
            g = number[uf.find(slot(gid, li))]
            arr[li] = g
            cells_of[g].add(gid)
        cell_dofs[gid] = arr
    return SimpleNamespace(
        n_dofs=len(ordered),
        elem=elem,
        cell_dofs=cell_dofs,
        keys=np.array([key for _, key in ordered], dtype=np.int64),
        cells_of_dof=[tuple(sorted(s)) for s in cells_of],
    )


def cells_of_dof(dof_map):
    """Ascending known cells containing each d.o.f."""
    out = [[] for _ in range(dof_map.n_dofs)]
    for gid, dofs in sorted(dof_map.cell_dofs.items()):
        for g in dofs:
            out[g].append(gid)
    return [tuple(c) for c in out]


def couplings(dof_map):
    """Per d.o.f., the ascending d.o.f.s sharing a known cell with it."""
    coupled = [set() for _ in range(dof_map.n_dofs)]
    for dofs in dof_map.cell_dofs.values():
        for g in dofs:
            coupled[g].update(int(d) for d in dofs)
    return [np.array(sorted(c), dtype=np.int64) for c in coupled]


def loop_classify_dofs(rank, own, halo, dof_map, ownership):
    """Per-d.o.f. oracle of the location classes and interface mastership.

    `dof_map` is a `loop_build_dof_map` result; returns classes and the
    master mask.
    """
    own, halo = (set(c.tolist()) for c in (own, halo))
    n = dof_map.n_dofs
    classes = np.empty(n, dtype=np.int64)
    coupled = couplings(dof_map)
    for g in range(n):
        cells = dof_map.cells_of_dof[g]
        in_own = any(c in own for c in cells)
        in_halo = any(c in halo for c in cells)
        if not in_halo:
            classes[g] = DofClass.INNER
        elif in_own:
            mr = min(int(ownership[c]) for c in cells)
            classes[g] = (
                DofClass.INTERFACE_MASTER if mr == rank else DofClass.INTERFACE_SLAVE
            )
        else:
            classes[g] = DofClass.HALO_BETA
    slaves = {
        g
        for g in range(n)
        if classes[g] in (DofClass.INTERFACE_SLAVE, DofClass.HALO_BETA)
    }
    for g in range(n):
        if classes[g] == DofClass.HALO_BETA:
            if any(d not in slaves for d in coupled[g] if d != g):
                classes[g] = DofClass.HALO_ALPHA
    is_master = np.isin(classes, [int(c) for c in MASTER_CLASSES])
    return SimpleNamespace(classes=classes, is_master=is_master)


def loop_fe_schedules(transport, rank, cls, dof_map):
    """Per-key oracle of the mapper negotiation (collective over all ranks).

    Returns, per relation, (d.o.f.s sent to each rank, d.o.f.s received
    from each rank) and the globally minimal key of every local d.o.f.
    """
    n_ranks = transport.n_ranks
    keys = dof_map.keys
    requests = {}
    for rel, slave_class in RELATION_SLAVE_CLASS.items():
        idx = [g for g in range(dof_map.n_dofs) if cls.classes[g] == slave_class]
        idx.sort(key=lambda g: keys[g])
        requests[rel] = idx
    payload = {rel.value: [int(keys[g]) for g in requests[rel]] for rel in Relation}
    incoming = transport.all_to_all(rank, [payload] * n_ranks, label="mapper-request")
    local_of_key = {
        encode_key(gid, li): int(g)
        for gid, dofs in dof_map.cell_dofs.items()
        for li, g in enumerate(dofs)
    }
    replies = [{rel.value: [] for rel in Relation} for _ in range(n_ranks)]
    sent = {rel: [[] for _ in range(n_ranks)] for rel in Relation}
    for src in range(n_ranks):
        if src == rank:
            continue
        for rel in Relation:
            for key in incoming[src][rel.value]:
                d = local_of_key.get(key)
                if d is not None and cls.is_master[d]:
                    replies[src][rel.value].append((key, int(keys[d])))
                    sent[rel][src].append(d)
    answered = transport.all_to_all(rank, replies, label="mapper-reply")
    true_keys = keys.copy()
    out = {}
    for rel in Relation:
        slave_of_key = {int(keys[g]): g for g in requests[rel]}
        rcvd = [[] for _ in range(n_ranks)]
        for src in range(n_ranks):
            for key, tkey in answered[src][rel.value]:
                rcvd[src].append(slave_of_key[key])
                true_keys[slave_of_key[key]] = tkey
        out[rel] = (sent[rel], rcvd)
    return out, true_keys


def loop_interface_lists(cls, dof_map, ownership, n_ranks):
    """Per-d.o.f. oracle: key-sorted interface d.o.f.s, their sharing-rank
    counts and, per rank, the interface d.o.f.s shared with it."""
    if_classes = (DofClass.INTERFACE_MASTER, DofClass.INTERFACE_SLAVE)
    if_dofs = [g for g in range(dof_map.n_dofs) if cls.classes[g] in if_classes]
    if_dofs.sort(key=lambda g: dof_map.keys[g])
    counts = []
    shared_with = [[] for _ in range(n_ranks)]
    for g in if_dofs:
        sharing = sorted({int(ownership[c]) for c in dof_map.cells_of_dof[g]})
        counts.append(len(sharing))
        for q in sharing:
            shared_with[q].append(g)
    return if_dofs, counts, shared_with


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
