"""Finite element assembly of scalar convection-diffusion-reaction operators.

Each rank assembles over all its known (own + halo) cells, which makes the
rows of masters and interface slaves sequentially correct: the matrix is
level-1-consistent by construction.  Contributions are accumulated in
ascending cell order and the column entries are stored in ascending
global-key order, so master rows match a sequential assembly bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .comm import ConsistencyLevel, RankContext
from .dlinalg import DistMatrix, DistVector, matvec, axpy
from .mapped_fe import (
    gauss_rule,
    get_element,
    make_reference_map,
    physical_gradients,
    physical_hessians,
)

DEFAULT_QUAD = {"q1": 2, "q2": 3}


@dataclass
class DirichletPart:
    """One piece of Dirichlet boundary.

    A boundary edge belongs to the part when both its endpoint vertices
    satisfy `where` (or carry `flag`); all d.o.f.s on such edges receive the
    boundary value.  Parts are applied in list order, later parts win at
    junction vertices.
    """

    value: object  # constant or callable(points, t) -> values
    where: object = None  # callable(x, y) -> bool
    flag: str = None
    name: str = ""

    def values_at(self, points, t=0.0):
        if callable(self.value):
            out = self.value(np.atleast_2d(points), t)
            return np.broadcast_to(np.asarray(out, dtype=float), (len(points),))
        return np.full(len(points), float(self.value))


@dataclass
class CdrCoefficients:
    """-eps*Lap(u) + b.grad(u) + c*u = f with Dirichlet data on parts."""

    eps: float
    b: object = (0.0, 0.0)  # constant pair or callable(points) -> (n, 2)
    c: object = 0.0  # constant or callable(points) -> (n,)
    f: object = 0.0
    dirichlet: list = field(default_factory=list)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("diffusion coefficient must be positive")


@dataclass
class SupgParams:
    """Streamline-diffusion stabilization with the standard parameter.

    tau_K = h_K/(2|b|) * (coth(Pe_K) - 1/Pe_K), Pe_K = |b| h_K / (2 eps),
    with h_K the cell diameter standing in for the streamwise width;
    tau_K = 0 in cells without convection.  Subclass and override
    `cell_size` or `tau` to substitute a different parameter choice.
    """

    eps: float

    def cell_size(self, rmap) -> float:
        return rmap.diameter

    def tau(self, rmap, b_cell) -> float:
        bnorm = math.hypot(b_cell[0], b_cell[1])
        if bnorm < 1e-12:
            return 0.0
        h = self.cell_size(rmap)
        pe = bnorm * h / (2.0 * self.eps)
        if pe < 1e-4:
            zeta = pe / 3.0
        elif pe > 50.0:
            zeta = 1.0 - 1.0 / pe
        else:
            zeta = 1.0 / math.tanh(pe) - 1.0 / pe
        return h / (2.0 * bnorm) * zeta


def _as_scalar(coeff, points):
    if callable(coeff):
        return np.broadcast_to(
            np.asarray(coeff(points), dtype=float), (len(points),)
        )
    return np.full(len(points), float(coeff))


def _as_vector(coeff, points):
    if callable(coeff):
        return np.broadcast_to(
            np.asarray(coeff(points), dtype=float), (len(points), 2)
        )
    return np.broadcast_to(np.asarray(coeff, dtype=float), (len(points), 2))


def matrix_graph(ctx: RankContext):
    """CSR sparsity from the couplings, columns in ascending global-key order.

    Cached per context; also caches, per cell, the flat positions of its
    element-matrix entries for bitwise-reproducible accumulation.
    """
    if "graph" in ctx._cache:
        return ctx._cache["graph"]
    n = ctx.n_local
    keys = ctx.true_keys
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols_per_row = []
    for row in range(n):
        coupled = ctx.classification.couplings[row]
        order = np.argsort(keys[coupled], kind="stable")
        cols = coupled[order]
        cols_per_row.append(cols)
        indptr[row + 1] = indptr[row] + len(cols)
    indices = np.concatenate(cols_per_row) if n else np.empty(0, dtype=np.int64)
    pos_of = [
        {int(c): int(indptr[row] + k) for k, c in enumerate(cols_per_row[row])}
        for row in range(n)
    ]
    cell_pos = {}
    for gid, dofs in ctx.dof_map.cell_dofs.items():
        nd = len(dofs)
        flat = np.empty(nd * nd, dtype=np.int64)
        for i, di in enumerate(dofs):
            for j, dj in enumerate(dofs):
                flat[i * nd + j] = pos_of[int(di)][int(dj)]
        cell_pos[gid] = flat
    graph = (indptr, indices, cell_pos)
    ctx._cache["graph"] = graph
    return graph


def _new_matrix(ctx) -> tuple[sp.csr_matrix, dict]:
    indptr, indices, cell_pos = matrix_graph(ctx)
    data = np.zeros(len(indices))
    csr = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(ctx.n_local,) * 2)
    return csr, cell_pos


def _wind_field(wind, dofs, vals):
    wx, wy = wind
    ux = vals @ wx.values[dofs]
    uy = vals @ wy.values[dofs]
    return np.stack([ux, uy], axis=1)


def assemble_cdr(
    ctx: RankContext,
    coeffs: CdrCoefficients,
    supg: bool = False,
    wind=None,
    quad_order: int | None = None,
    supg_params: SupgParams | None = None,
):
    """Assemble the (optionally SUPG-stabilized) operator and right-hand side.

    `wind`, if given, is a pair of finite element functions replacing the
    analytic convection field; it is restored to full consistency first since
    assembly reads it on halo cells too.
    """
    elem = get_element(ctx.elem_kind)
    order = quad_order or DEFAULT_QUAD[ctx.elem_kind]
    rule = gauss_rule(order)
    vals, grads = elem.eval(rule.points)
    hess = elem.eval_hessians(rule.points) if supg else None
    if wind is not None:
        for comp in wind:
            comp.restore(ConsistencyLevel.L3)

    csr, cell_pos = _new_matrix(ctx)
    data = csr.data
    rhs = np.zeros(ctx.n_local)
    if supg and supg_params is None:
        supg_params = SupgParams(coeffs.eps)

    for gid in ctx.rank_cells.known:
        dofs = ctx.dof_map.cell_dofs[gid]
        rmap = make_reference_map(ctx.mesh.cell(gid), ctx.mesh)
        J = rmap.jacobians(rule.points)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        pg = physical_gradients(rmap, rule.points, grads)
        xq = rmap.map(rule.points)
        bq = _wind_field(wind, dofs, vals) if wind is not None else _as_vector(
            coeffs.b, xq
        )
        cq = _as_scalar(coeffs.c, xq)
        fq = _as_scalar(coeffs.f, xq)
        w = rule.weights * det

        bgrad = np.einsum("qd,qjd->qj", bq, pg)  # b . grad(phi_j)
        Ae = coeffs.eps * np.einsum("q,qid,qjd->ij", w, pg, pg)
        Ae += np.einsum("q,qj,qi->ij", w, bgrad, vals)
        Ae += np.einsum("q,q,qj,qi->ij", w, cq, vals, vals)
        be = np.einsum("q,q,qi->i", w, fq, vals)

        if supg:
            tau = supg_params.tau(rmap, bq.mean(axis=0))
            if tau > 0.0:
                ph = physical_hessians(rmap, rule.points, grads, hess)
                lap = ph[:, :, 0, 0] + ph[:, :, 1, 1]
                resid = -coeffs.eps * lap + bgrad + cq[:, None] * vals
                Ae += tau * np.einsum("q,qj,qi->ij", w, resid, bgrad)
                be += tau * np.einsum("q,q,qi->i", w, fq, bgrad)

        np.add.at(data, cell_pos[gid], Ae.ravel())
        np.add.at(rhs, dofs, be)

    A = DistMatrix(ctx, csr, ConsistencyLevel.L1)
    b = DistVector(ctx, rhs, ConsistencyLevel.L1)
    return A, b


def assemble_mass(ctx: RankContext, quad_order: int | None = None) -> DistMatrix:
    elem = get_element(ctx.elem_kind)
    order = quad_order or DEFAULT_QUAD[ctx.elem_kind]
    rule = gauss_rule(order)
    vals, _ = elem.eval(rule.points)
    csr, cell_pos = _new_matrix(ctx)
    data = csr.data
    for gid in ctx.rank_cells.known:
        rmap = make_reference_map(ctx.mesh.cell(gid), ctx.mesh)
        J = rmap.jacobians(rule.points)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        w = rule.weights * det
        Me = np.einsum("q,qi,qj->ij", w, vals, vals)
        np.add.at(data, cell_pos[gid], Me.ravel())
    return DistMatrix(ctx, csr, ConsistencyLevel.L1)


def dirichlet_dofs(ctx: RankContext, parts, t: float = 0.0):
    """Local Dirichlet rows and their boundary values, parts applied in order."""
    mesh = ctx.mesh
    elem = get_element(ctx.elem_kind)
    known = set(ctx.rank_cells.known)
    chosen: dict[int, float] = {}
    for part in parts:
        if part.flag is not None:
            flagged = mesh.vertex_flags.get(part.flag, set())
            sel = np.zeros(mesh.n_vertices, dtype=bool)
            sel[list(flagged)] = True
        else:
            sel = np.array([part.where(x, y) for x, y in mesh.vertices])
        part_dofs = set()
        for (a, b), inc in mesh.edge_table.items():
            if len(inc) != 1 or inc[0] not in known:
                continue
            if not (sel[a] and sel[b]):
                continue
            cell = mesh.cell(inc[0])
            dofs = ctx.dof_map.cell_dofs[inc[0]]
            for pos, v in enumerate(cell.vertex_ids):
                if v in (a, b):
                    part_dofs.add(int(dofs[elem.vertex_dof[pos]]))
            e = cell.local_edges().index(
                (a, b) if (a, b) in cell.local_edges() else (b, a)
            )
            for li, _t in elem.edge_dofs[e]:
                part_dofs.add(int(dofs[li]))
        if part_dofs:
            rows = sorted(part_dofs)
            vals = part.values_at(ctx.dof_coords[rows], t)
            for r, v in zip(rows, vals):
                chosen[r] = float(v)
    rows = sorted(chosen)
    return np.array(rows, dtype=np.int64), np.array([chosen[r] for r in rows])


def apply_dirichlet(
    A: DistMatrix, rhs: DistVector, ctx: RankContext, parts, t: float = 0.0
):
    """Replace Dirichlet rows by identity rows with the boundary value.

    Applied on every rank knowing the d.o.f., so interface slave rows stay
    consistent with their masters.
    """
    rows, values = dirichlet_dofs(ctx, parts, t)
    A.set_dirichlet_rows(rows, values, rhs)
    return rows, values


def enforce_dirichlet_values(u: DistVector, ctx: RankContext, parts, t: float = 0.0):
    """Overwrite the solution's boundary rows with their exact data.

    Every rank that can see a boundary edge writes the same value, so masters
    and interface slaves stay consistent; halo copies may be stale, hence the
    tag drops to level 1.
    """
    rows, values = dirichlet_dofs(ctx, parts, t)
    u.values[rows] = values
    u.level = min(u.level, ConsistencyLevel.L1)
    return u


def crank_nicolson_step(
    M: DistMatrix,
    A: DistMatrix,
    f_n: DistVector,
    f_np1: DistVector,
    u_n: DistVector,
    dt: float,
    dirichlet=None,
    t_next: float = 0.0,
):
    """One Crank-Nicolson step: (M + dt/2 A) u+ = (M - dt/2 A) u + dt/2 (f + f+).

    Returns the assembled system, right-hand side, and the previous solution
    as the iterative solver's initial guess.
    """
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    S = M.combine(1.0, 0.5 * dt, A)
    B = M.combine(1.0, -0.5 * dt, A)
    u_n.restore(ConsistencyLevel.L3)
    b = matvec(B, u_n)
    axpy(0.5 * dt, f_n, b)
    axpy(0.5 * dt, f_np1, b)
    if dirichlet:
        apply_dirichlet(S, b, M.ctx, dirichlet, t=t_next)
    return S, b, u_n.copy()


def l2_error(ctx: RankContext, u: DistVector, exact, quad_order: int = 4) -> float:
    """Global L2 distance between a finite element function and `exact`."""
    u.restore(ConsistencyLevel.L1)
    elem = get_element(ctx.elem_kind)
    rule = gauss_rule(quad_order)
    vals, _ = elem.eval(rule.points)
    part = 0.0
    for gid in sorted(ctx.rank_cells.own):
        dofs = ctx.dof_map.cell_dofs[gid]
        rmap = make_reference_map(ctx.mesh.cell(gid), ctx.mesh)
        J = rmap.jacobians(rule.points)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        xq = rmap.map(rule.points)
        uh = vals @ u.values[dofs]
        diff = uh - np.asarray(exact(xq), dtype=float)
        part += float(np.sum(rule.weights * det * diff**2))
    total = ctx.transport.allreduce_sum(ctx.rank, part)
    return math.sqrt(total)


def vertex_values(ctx: RankContext, u: DistVector) -> np.ndarray:
    """Solution samples at mesh vertices of the rank's own cells."""
    elem = get_element(ctx.elem_kind)
    out = np.zeros(ctx.mesh.n_vertices)
    for gid in sorted(ctx.rank_cells.own):
        cell = ctx.mesh.cell(gid)
        dofs = ctx.dof_map.cell_dofs[gid]
        for pos, v in enumerate(cell.vertex_ids):
            out[v] = u.values[dofs[elem.vertex_dof[pos]]]
    return out


def write_solution_vtk(ctx: RankContext, u: DistVector, path):
    """Legacy ASCII VTK dump of the rank's own cells with point data."""
    from .mesh import write_vtk

    u.restore(ConsistencyLevel.L1)
    write_vtk(
        ctx.mesh,
        path,
        point_data={"u": vertex_values(ctx, u)},
        cell_ids=sorted(ctx.rank_cells.own),
    )


def merge_master_values(per_rank) -> dict[int, float]:
    """Combine (true_keys, values, master_mask) triples into key -> value."""
    merged: dict[int, float] = {}
    for keys, values, mask in per_rank:
        for k, v, m in zip(keys, values, mask):
            if m:
                merged[int(k)] = float(v)
    return merged


def write_merged_solution(path, merged: dict[int, float]):
    """Plain-text global-key/value dump for cross-run comparisons."""
    from .dof_manager import decode_key

    with open(path, "w") as fh:
        for key in sorted(merged):
            cell, li = decode_key(key)
            fh.write(f"{cell}:{li} {merged[key]:.17g}\n")
