"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from parfem.assembly import SupgParams
from parfem.comm import ConsistencyLevel, Transport, build_rank_context
from parfem.dlinalg import DistVector
from parfem.mapped_fe import gauss_rule, get_element, make_reference_map
from parfem.multigrid import _QUADRANT_OFFSETS, transfer_matrices


def seq_context(mesh, elem="q1"):
    """Single-rank context: the sequential reference configuration."""
    transport = Transport(1)
    ownership = np.zeros(mesh.n_cells, dtype=np.int64)
    return build_rank_context(mesh, ownership, elem, transport, 0)


def geometric_dof_classes(mesh, cells, elem_kind, tol=1e-10):
    """Brute-force oracle: local d.o.f.s identified iff coordinates coincide."""
    elem = get_element(elem_kind)
    groups = {}
    for gid in sorted(cells):
        rmap = make_reference_map(mesh.cell(gid), mesh)
        pts = rmap.map(elem.nodes)
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


def invert_reference_map(rmap, x, tol=1e-13):
    """Newton iteration for the reference coordinates of a physical point."""
    xi = np.zeros(2)
    for _ in range(50):
        f = rmap.map([xi])[0] - np.asarray(x, float)
        if np.linalg.norm(f) < tol:
            break
        J = rmap.jacobians([xi])[0]
        xi = xi - np.linalg.solve(J, f)
    return xi


def eval_fe_function(ctx, values, points, tol=1e-9):
    """Evaluate a finite element function at physical points (own cells)."""
    elem = get_element(ctx.elem_kind)
    out = np.full(len(points), np.nan)
    for gid in sorted(ctx.rank_cells.own):
        rmap = make_reference_map(ctx.mesh.cell(gid), ctx.mesh)
        dofs = ctx.dof_map.cell_dofs[gid]
        for k, p in enumerate(points):
            if not np.isnan(out[k]):
                continue
            xi = invert_reference_map(rmap, p)
            if np.all(np.abs(xi) <= 1.0 + tol):
                vals, _ = elem.eval([xi])
                out[k] = vals[0] @ values[dofs]
    return out


def loop_physical_gradients(rmap, points, ref_grads):
    """Per-point oracle: J^{-T} grad with a general matrix inverse."""
    Jinv = np.linalg.inv(rmap.jacobians(points))
    return np.einsum("mji,mkj->mki", Jinv, ref_grads)


def loop_physical_hessians(rmap, points, ref_grads, ref_hess):
    """Per-point oracle: second derivatives of xi(x) built from dJ/dxi."""
    v0, v1, v2, v3 = rmap.verts
    a3 = 0.25 * (v0 - v1 + v2 - v3)
    Txi = np.zeros((2, 2))
    Teta = np.zeros((2, 2))
    Txi[:, 1] = a3  # d J / d xi
    Teta[:, 0] = a3  # d J / d eta
    out = np.empty(ref_hess.shape)
    for q, J in enumerate(rmap.jacobians(points)):
        g = np.linalg.inv(J)
        xi_sec = np.zeros((2, 2, 2))  # d^2 xi_k / d x_i d x_j
        if rmap.kind != "affine":
            for j in range(2):
                xi_sec[:, :, j] = -g @ (Txi * g[0, j] + Teta * g[1, j]) @ g
        out[q] = np.einsum("nkl,ki,lj->nij", ref_hess[q], g, g)
        out[q] += np.einsum("nk,kij->nij", ref_grads[q], xi_sec)
    return out


def _field(coeff, points, shape):
    value = coeff(points) if callable(coeff) else coeff
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def loop_assemble_cdr(ctx, coeffs, supg=False, quad_order=None):
    """Per-cell oracle: dense operator and right-hand side, one map per cell."""
    elem = get_element(ctx.elem_kind)
    rule = gauss_rule(quad_order or {"q1": 2, "q2": 3}[ctx.elem_kind])
    vals, grads = elem.eval(rule.points)
    hess = elem.eval_hessians(rule.points)
    params = SupgParams(coeffs.eps)
    n_q = len(rule.weights)
    A = np.zeros((ctx.n_local, ctx.n_local))
    rhs = np.zeros(ctx.n_local)
    for gid in ctx.rank_cells.known:
        dofs = ctx.dof_map.cell_dofs[gid]
        rmap = make_reference_map(ctx.mesh.cell(gid), ctx.mesh)
        w = rule.weights * np.linalg.det(rmap.jacobians(rule.points))
        pg = loop_physical_gradients(rmap, rule.points, grads)
        xq = rmap.map(rule.points)
        bq = _field(coeffs.b, xq, (n_q, 2))
        cq = _field(coeffs.c, xq, (n_q,))
        fq = _field(coeffs.f, xq, (n_q,))
        bgrad = np.einsum("qd,qjd->qj", bq, pg)
        Ae = coeffs.eps * np.einsum("q,qid,qjd->ij", w, pg, pg)
        Ae += np.einsum("q,qj,qi->ij", w, bgrad, vals)
        Ae += np.einsum("q,q,qj,qi->ij", w, cq, vals, vals)
        be = np.einsum("q,q,qi->i", w, fq, vals)
        tau = params.tau(rmap, bq.mean(axis=0)) if supg else 0.0
        if tau > 0.0:
            ph = loop_physical_hessians(rmap, rule.points, grads, hess)
            lap = ph[:, :, 0, 0] + ph[:, :, 1, 1]
            resid = -coeffs.eps * lap + bgrad + cq[:, None] * vals
            Ae += tau * np.einsum("q,qj,qi->ij", w, resid, bgrad)
            be += tau * np.einsum("q,q,qi->i", w, fq, bgrad)
        A[np.ix_(dofs, dofs)] += Ae
        rhs[dofs] += be
    return A, rhs


def loop_assemble_mass(ctx, quad_order=None):
    """Per-cell oracle: dense mass matrix, one map per cell."""
    elem = get_element(ctx.elem_kind)
    rule = gauss_rule(quad_order or {"q1": 2, "q2": 3}[ctx.elem_kind])
    vals, _ = elem.eval(rule.points)
    M = np.zeros((ctx.n_local, ctx.n_local))
    for gid in ctx.rank_cells.known:
        dofs = ctx.dof_map.cell_dofs[gid]
        rmap = make_reference_map(ctx.mesh.cell(gid), ctx.mesh)
        w = rule.weights * np.linalg.det(rmap.jacobians(rule.points))
        M[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", w, vals, vals)
    return M


def loop_dof_coordinates(dof_map, mesh):
    """Per-cell oracle: each d.o.f. placed by its smallest containing cell."""
    coords = np.full((dof_map.n_dofs, 2), np.nan)
    for gid in sorted(dof_map.cell_dofs):
        pts = make_reference_map(mesh.cell(gid), mesh).map(dof_map.elem.nodes)
        for li, g in enumerate(dof_map.cell_dofs[gid]):
            if np.isnan(coords[g, 0]):
                coords[g] = pts[li]
    return coords


def loop_dirichlet_dofs(ctx, parts, t=0.0):
    """Per-edge oracle: scan every mesh edge, later parts win."""
    mesh = ctx.mesh
    elem = get_element(ctx.elem_kind)
    known = set(ctx.rank_cells.known)
    chosen = {}
    for part in parts:
        if part.flag is not None:
            flagged = mesh.vertex_flags.get(part.flag, set())
            sel = [v in flagged for v in range(mesh.n_vertices)]
        else:
            sel = [bool(part.where(x, y)) for x, y in mesh.vertices]
        part_dofs = set()
        for (a, b), inc in mesh.edge_table.items():
            if len(inc) != 1 or inc[0] not in known or not (sel[a] and sel[b]):
                continue
            cell = mesh.cell(inc[0])
            dofs = ctx.dof_map.cell_dofs[inc[0]]
            e = [tuple(sorted(edge)) for edge in cell.local_edges()].index((a, b))
            part_dofs.add(int(dofs[elem.vertex_dof[e]]))
            part_dofs.add(int(dofs[elem.vertex_dof[(e + 1) % 4]]))
            part_dofs.update(int(dofs[li]) for li, _ in elem.edge_dofs[e])
        rows = sorted(part_dofs)
        if rows:
            chosen.update(zip(rows, part.values_at(ctx.dof_coords[rows], t)))
    rows = sorted(chosen)
    return np.array(rows, dtype=np.int64), np.array([chosen[r] for r in rows])


def _level_pair(hier, level):
    if not 0 <= level < hier.n_levels - 1:
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
    v.restore(ConsistencyLevel.L1)
    return v


def loop_restrict_defect(hier, level, d_fine):
    """Per-cell oracle: transpose of prolongation, a visited mask per master."""
    cc, fc, T = _level_pair(hier, level)
    d_fine.restore(ConsistencyLevel.L1)
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
    d = DistVector(cc, out, ConsistencyLevel.L0)
    cc.exchange.add_to_masters(d.values)
    return d


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
