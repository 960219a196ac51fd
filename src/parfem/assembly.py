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
from .dlinalg import DistMatrix, DistVector, matvec
from .dof_manager import sorted_unique
from .mapped_fe import CellGeometry, cell_geometry, gauss_rule, get_element

DEFAULT_QUAD = {"q1": 2, "q2": 3}


@dataclass
class DirichletPart:
    """One piece of Dirichlet boundary.

    A boundary edge belongs to the part when `where` holds at its midpoint.
    `where(x, y)` is called once per part and space, on the arrays of the
    boundary-edge midpoints, and returns a boolean array; a scalar result
    holds for every edge.  All d.o.f.s on the part's edges receive the
    boundary value.  Parts are applied in list order, later parts win at
    junction vertices.
    """

    value: object  # constant or callable(points, t) -> values
    where: object  # callable(x, y) -> bool array or bool

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
    tau_K = 0 in cells without convection.  Both methods see a batch of
    cells: `cell_size(geo)` returns a (cells,) array for a `CellGeometry`,
    and `tau(geo, b_mean)` takes the (2, cells) mean convection and returns
    (cells,).  Subclass and override `cell_size` to substitute a different
    width.
    """

    eps: float

    def cell_size(self, geo: CellGeometry) -> np.ndarray:
        return geo.diameter

    def tau(self, geo: CellGeometry, b_mean) -> np.ndarray:
        bnorm = np.hypot(b_mean[0], b_mean[1])
        on = bnorm >= 1e-12
        bnorm = np.where(on, bnorm, 1.0)  # keeps Pe positive where tau is 0
        h = self.cell_size(geo)
        pe = bnorm * h / (2.0 * self.eps)
        coth = 1.0 / np.tanh(pe) - 1.0 / pe
        zeta = np.where(pe < 1e-4, pe / 3.0, np.where(pe > 50.0, 1.0 - 1.0 / pe, coth))
        return np.where(on, h / (2.0 * bnorm) * zeta, 0.0)


def _at_points(coeff, points, shape=()):
    """A constant or callable(points) coefficient as (len(points),) + shape."""
    value = coeff(points) if callable(coeff) else coeff
    return np.broadcast_to(np.asarray(value, dtype=float), (len(points),) + shape)


def matrix_graph(ctx: RankContext):
    """CSR sparsity of the cell-to-d.o.f. incidence, columns by global key.

    Two d.o.f.s couple when a known cell contains both.  Cached per context
    as (indptr, indices, cell_pos): cell_pos holds, per known cell, the flat
    positions of its element-matrix entries for bitwise-reproducible
    accumulation.
    """
    if "graph" in ctx._cache:
        return ctx._cache["graph"]
    n = ctx.n_local
    dofs = ctx.dof_map.table
    by_key = np.argsort(ctx.true_keys, kind="stable")
    key_rank = np.empty(n, dtype=np.int64)
    key_rank[by_key] = np.arange(n)
    # entry (i, j) of an element matrix is coded as row * n + key rank of the
    # column, so the sorted distinct codes are the CSR order
    codes = (dofs[:, :, None] * n + key_rank[dofs][:, None, :]).reshape(len(dofs), -1)
    # one sort places every code: the running count of distinct ones is its
    # position in the pattern
    order = np.argsort(codes, axis=None, kind="stable")
    placed = codes.ravel()[order]
    first = np.concatenate([[True], placed[1:] != placed[:-1]])
    pattern = placed[first]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pattern // n, minlength=n))])
    cell_pos = np.empty(codes.shape, dtype=np.intp)
    np.put(cell_pos, order, np.cumsum(first) - 1)  # at the flat positions
    graph = ctx._cache["graph"] = (indptr, by_key[pattern % n], cell_pos)
    return graph


def _matrix(ctx, element_matrices) -> DistMatrix:
    """Sum element matrices (n_dofs, n_dofs, cells), in ascending cell order,
    on the space's sparsity."""
    indptr, indices, cell_pos = matrix_graph(ctx)
    data = np.zeros(len(indices))
    np.add.at(data, cell_pos.ravel(), element_matrices.transpose(2, 0, 1).ravel())
    csr = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(ctx.n_local,) * 2)
    return DistMatrix(ctx, csr)


# Quadrature sums add over q in ascending order per entry, never over the cell
# axis, so a cell's numbers do not depend on the rest of its batch.
def _qsum(w, test, trial):
    """sum_q w[q,c] test[i,q,c] trial[j,q,c] -> (i, j, cells): einsum without
    `optimize` adds the products (w·test)·trial from zero over ascending q."""
    return np.einsum("qc,iqc,jqc->ijc", w, test, trial)


def _qload(w, test):
    """sum_q w[q,c] test[i,q,c] -> (i, cells)."""
    return sum(w[q] * test[:, q] for q in range(len(w)))


def assemble_cdr(
    ctx: RankContext,
    coeffs: CdrCoefficients,
    supg: bool = False,
    supg_params: SupgParams | None = None,
):
    """Assemble the (optionally SUPG-stabilized) operator and right-hand side.

    All known cells form one batch; the SUPG parameter is evaluated once for
    the whole batch.
    """
    elem = get_element(ctx.elem_kind)
    rule = gauss_rule(DEFAULT_QUAD[ctx.elem_kind])
    vals, grads = elem.eval(rule.points)

    geo = ctx.geometry
    n_q, n_cells = len(rule.weights), len(geo.verts)
    w = geo.quadrature_weights(rule)
    pg = geo.physical_gradients(rule.points, grads)  # (2, dofs, q, cells)
    xq = geo.map(rule.points).reshape(2, -1).T  # (n, 2), row q * cells + c
    bq = _at_points(coeffs.b, xq, (2,)).T.reshape(2, n_q, n_cells)
    cq = _at_points(coeffs.c, xq).reshape(n_q, n_cells)
    fq = _at_points(coeffs.f, xq).reshape(n_q, n_cells)
    vals_t = vals.T[:, :, None]  # (dofs, q, 1)
    phi = np.broadcast_to(vals_t, vals_t.shape[:2] + (n_cells,))

    pg_by_dir = pg.transpose(1, 2, 0, 3).reshape(-1, 2 * n_q, n_cells)
    Ae = coeffs.eps * _qsum(np.repeat(w, 2, axis=0), pg_by_dir, pg_by_dir)
    if supg or callable(coeffs.b) or np.any(coeffs.b):  # else the term adds +0.0
        bgrad = bq[0] * pg[0] + bq[1] * pg[1]
        Ae += _qsum(w, phi, bgrad)
    if callable(coeffs.c) or np.any(coeffs.c):  # else the term adds +0.0
        Ae += _qsum(w * cq, phi, phi)
    be = _qload(w * fq, phi)

    if supg:
        params = supg_params or SupgParams(coeffs.eps)
        tau = params.tau(geo, sum(bq[:, q] for q in range(n_q)) / n_q)
        (on,) = np.nonzero(tau > 0.0)
        if on.size:
            hess = elem.eval_hessians(rule.points)
            lap = geo.physical_laplacians(rule.points, hess, pg)[..., on]
            resid = -coeffs.eps * lap + bgrad[..., on] + cq[:, on] * vals_t
            Ae[..., on] += tau[on] * _qsum(w[:, on], bgrad[..., on], resid)
            be[:, on] += tau[on] * _qload(w[:, on] * fq[:, on], bgrad[..., on])

    rhs = np.zeros(ctx.n_local)
    np.add.at(rhs, ctx.dof_map.table.ravel(), be.T.ravel())
    return _matrix(ctx, Ae), DistVector(ctx, rhs, ConsistencyLevel.L1)


def assemble_mass(ctx: RankContext) -> DistMatrix:
    rule = gauss_rule(DEFAULT_QUAD[ctx.elem_kind])
    vals, _ = get_element(ctx.elem_kind).eval(rule.points)
    w = ctx.geometry.quadrature_weights(rule)
    phi = np.broadcast_to(vals.T[:, :, None], vals.T.shape + w.shape[1:])
    return _matrix(ctx, _qsum(w, phi, phi))


def _dirichlet_rows(ctx: RankContext, parts):
    """Rows of each part and of their union, derived once per space and parts.

    Only the known cells' boundary edges are visited, and each part's `where`
    is called once, on the arrays of their midpoints.  The cache holds the
    parts object itself, which it recognises by identity.
    """
    cached = ctx._cache.get("dirichlet")
    if cached is not None and cached[0] is parts:
        return cached[1:]
    mesh, elem = ctx.mesh, get_element(ctx.elem_kind)
    edges = mesh.cell_edges[ctx.rank_cells.known]
    cell, edge = np.nonzero(mesh.edge_counts[edges] == 1)
    ends = mesh.edges[edges[cell, edge]]
    local = [
        [elem.vertex_dof[e], elem.vertex_dof[(e + 1) % 4]]
        + [i for i, _ in elem.edge_dofs[e]]
        for e in range(4)
    ]
    dofs = ctx.dof_map.table[cell[:, None], np.array(local)[edge]]
    x, y = mesh.vertices[ends].mean(axis=1).T
    part_rows = []
    for part in parts:
        on = np.broadcast_to(np.asarray(part.where(x, y), dtype=bool), x.shape)
        part_rows.append(sorted_unique(dofs[on]))
    rows = sorted_unique(np.concatenate([np.empty(0, np.int64), *part_rows]))
    plan = [(part, r, np.searchsorted(rows, r)) for part, r in zip(parts, part_rows)]
    ctx._cache["dirichlet"] = (parts, rows, plan)
    return rows, plan


def dirichlet_dofs(ctx: RankContext, parts, t: float = 0.0):
    """Local Dirichlet rows and their boundary values, parts applied in order;
    the values of the latest (parts, t) are kept, read-only, beside the rows
    (a time step enforces them on its right-hand side and on its solution)."""
    rows, plan = _dirichlet_rows(ctx, parts)
    kept = ctx._cache.get("dirichlet_values", (None, None, None))
    if kept[0] is parts and kept[1] == t:
        return rows, kept[2]
    values = np.empty(len(rows))
    for part, part_rows, pos in plan:
        if part_rows.size:
            values[pos] = part.values_at(ctx.dof_coords[part_rows], t)
    values.flags.writeable = False
    ctx._cache["dirichlet_values"] = (parts, t, values)
    return rows, values


def apply_dirichlet(
    A: DistMatrix, rhs: DistVector | None, ctx: RankContext, parts, t: float = 0.0
):
    """Replace Dirichlet rows by identity rows and, when `rhs` is given, write
    its boundary values by `enforce_dirichlet_values`.

    Applied on every rank knowing the d.o.f., so interface slave rows stay
    consistent with their masters.
    """
    A.set_dirichlet_rows(_dirichlet_rows(ctx, parts)[0])
    if rhs is not None:
        enforce_dirichlet_values(rhs, ctx, parts, t)


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


def crank_nicolson_system(
    M: DistMatrix, A: DistMatrix, dt: float, dirichlet=None
) -> tuple[DistMatrix, DistMatrix]:
    """S = M + dt/2 A with identity Dirichlet rows, and B = M - dt/2 A.

    Neither depends on the time, so a run forms them once per space.
    """
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    S = M.combine(1.0, 0.5 * dt, A)
    if dirichlet:
        apply_dirichlet(S, None, M.ctx, dirichlet)
    return S, M.combine(1.0, -0.5 * dt, A)


def crank_nicolson_step(B: DistMatrix, u_n: DistVector, dirichlet=None, t_next=0.0):
    """Right-hand side of one unforced Crank-Nicolson step S u+ = B u.

    `S` and `B` come from `crank_nicolson_system`.  Returns the right-hand
    side, with the boundary values at `t_next` in the Dirichlet rows, and
    the previous solution as the iterative solver's initial guess.
    """
    u_n.restore(ConsistencyLevel.L3)
    b = matvec(B, u_n)
    if dirichlet:
        enforce_dirichlet_values(b, B.ctx, dirichlet, t_next)
    return b, u_n.copy()


def l2_error(ctx: RankContext, u: DistVector, exact, quad_order: int = 4) -> float:
    """Global L2 distance between a finite element function and `exact`."""
    u.restore(ConsistencyLevel.L1)
    rule = gauss_rule(quad_order)
    vals, _ = get_element(ctx.elem_kind).eval(rule.points)
    own = ctx.rank_cells.own
    geo = cell_geometry(ctx.mesh, own)
    uh = _qload(u.values[ctx.dof_map.rows(own)].T, vals[:, :, None])  # (m, cells)
    xq = geo.map(rule.points).reshape(2, -1).T
    diff = uh - _at_points(exact, xq).reshape(uh.shape)
    # summed in cell-major order, as a (cells, m) array is
    part = float(np.sum((geo.quadrature_weights(rule) * diff**2).T.ravel()))
    return math.sqrt(ctx.transport.allreduce_sum(ctx.rank, part))


def vertex_values(ctx: RankContext, u: DistVector) -> np.ndarray:
    """Solution samples at mesh vertices of the rank's own cells."""
    elem = get_element(ctx.elem_kind)
    own = ctx.rank_cells.own
    corners = [elem.vertex_dof[k] for k in range(4)]
    out = np.zeros(ctx.mesh.n_vertices)
    out[ctx.mesh.cell_vertices[own]] = u.values[ctx.dof_map.rows(own)[:, corners]]
    return out


def write_solution_vtk(ctx: RankContext, u: DistVector, path):
    """Legacy ASCII VTK dump of the rank's own cells with point data."""
    from .mesh import write_vtk

    u.restore(ConsistencyLevel.L1)
    write_vtk(
        ctx.mesh,
        path,
        point_data={"u": vertex_values(ctx, u)},
        cell_ids=ctx.rank_cells.own,
    )


def merge_master_values(per_rank) -> dict[int, float]:
    """Combine (true_keys, values, master_mask) triples into key -> value."""
    merged: dict[int, float] = {}
    for keys, values, mask in per_rank:
        merged.update(zip(keys[mask].tolist(), values[mask].tolist()))
    return merged


def write_merged_solution(path, merged: dict[int, float]):
    """Plain-text global-key/value dump for cross-run comparisons."""
    from .dof_manager import decode_key

    with open(path, "w") as fh:
        for key in sorted(merged):
            cell, li = decode_key(key)
            fh.write(f"{cell}:{li} {merged[key]:.17g}\n")
