"""Reference cells, reference maps, tensor-product Lagrange elements, quadrature.

Everything is defined on the reference square [-1,1]^2 and transported to
physical cells by an affine or bilinear map, so that basis evaluation and
quadrature live on the reference cell only.  The maps exist only in batches:
one `CellGeometry` holds every cell a rank knows on a level, and a single
cell is a batch of one (`cell_geometry(mesh, [gid])`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

# reference vertices of the unit quad in counterclockwise order
REF_VERTICES = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2) reference coordinates
    weights: np.ndarray  # (n,)


@functools.cache
def gauss_rule(order: int) -> QuadratureRule:
    """Tensor Gauss-Legendre rule with `order` points per direction, built
    once per order and shared, with read-only arrays."""
    if not 1 <= order <= 5:
        raise ValueError(f"unsupported quadrature order {order}")
    x, w = leggauss(order)
    pts = np.array([[xi, yj] for yj in x for xi in x])
    wts = np.array([wi * wj for wj in w for wi in w])
    pts.flags.writeable = wts.flags.writeable = False
    return QuadratureRule(pts, wts)


def _lagrange_1d(nodes, x):
    """Values, first and second derivatives of the 1D Lagrange basis at x."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    vals = np.ones((len(x), n))
    der = np.zeros((len(x), n))
    der2 = np.zeros((len(x), n))
    for i in range(n):
        others = [nodes[j] for j in range(n) if j != i]
        denom = np.prod([nodes[i] - o for o in others])
        if n == 2:
            (o0,) = others
            vals[:, i] = (x - o0) / denom
            der[:, i] = 1.0 / denom
        else:  # n == 3
            o0, o1 = others
            vals[:, i] = (x - o0) * (x - o1) / denom
            der[:, i] = (2.0 * x - o0 - o1) / denom
            der2[:, i] = 2.0 / denom
    return vals, der, der2


class LocalElement:
    """Tensor-product Lagrange element on [-1,1]^2 with point functionals.

    Node ordering is row-major in (y, x), i.e. bottom row left to right first.
    Two maps tie the nodes to the cell topology for the d.o.f. manager:
    `vertex_dof[k]` is the node on vertex k of the cell's counterclockwise
    vertex list, and `edge_dofs[e]` lists (node, t) for the nodes inside local
    edge e, from vertex e to vertex e+1, with t the position along it.  The
    remaining nodes are interior.
    """

    def __init__(self, kind: str):
        if kind == "q1":
            nodes_1d = np.array([-1.0, 1.0])
        elif kind == "q2":
            nodes_1d = np.array([-1.0, 0.0, 1.0])
        else:
            raise ValueError(f"unknown element kind {kind!r}")
        self.nodes_1d = nodes_1d
        n = len(nodes_1d)
        self.nodes = np.array([[x, y] for y in nodes_1d for x in nodes_1d])
        self.n_dofs = n * n
        m = n - 1
        corner = [0, m, n * n - 1, n * m]  # node on each counterclockwise vertex
        self.vertex_dof = dict(enumerate(corner))
        self.edge_dofs = {
            e: [(corner[e] + j * (corner[(e + 1) % 4] - corner[e]) // m, j / m)
                for j in range(1, m)]
            for e in range(4)
        }

    def eval(self, points):
        """Basis values and reference gradients at reference points.

        Returns (values (m, n_dofs), gradients (m, n_dofs, 2)).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vx, dx, _ = _lagrange_1d(self.nodes_1d, pts[:, 0])
        vy, dy, _ = _lagrange_1d(self.nodes_1d, pts[:, 1])
        return _tensor(vx, vy), np.stack([_tensor(dx, vy), _tensor(vx, dy)], axis=-1)

    def eval_hessians(self, points):
        """Reference-space second derivatives, shape (m, n_dofs, 2, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vx, dx, hx = _lagrange_1d(self.nodes_1d, pts[:, 0])
        vy, dy, hy = _lagrange_1d(self.nodes_1d, pts[:, 1])
        mixed = _tensor(dx, dy)
        return np.stack(
            [
                np.stack([_tensor(hx, vy), mixed], axis=-1),
                np.stack([mixed, _tensor(vx, hy)], axis=-1),
            ],
            axis=-2,
        )


def _tensor(fx, fy):
    """Tensor-product basis from 1D factors, node k = iy * n + ix."""
    return (fy[:, :, None] * fx[:, None, :]).reshape(len(fx), -1)


@functools.cache
def get_element(kind: str) -> LocalElement:
    """The shared `LocalElement` of each kind."""
    return LocalElement(kind)


class CellGeometry:
    """Reference maps of a batch of physical quadrilaterals.

    Cell c is the image of x_c(xi) = a0 + a1*xi + a2*eta + a3*xi*eta; a3
    vanishes for parallelograms, whose map is affine with a constant
    Jacobian.  Evaluations carry a leading cell axis and use elementwise
    operations only, so a cell's numbers do not depend on the rest of the
    batch.
    """

    def __init__(self, verts):
        verts = np.asarray(verts, dtype=float)  # (cells, 4, 2), ccw
        v0, v1, v2, v3 = (verts[:, k] for k in range(4))
        self.verts = verts
        self._last = (None,)  # (points' bytes, Jacobians) of the last evaluation
        self.a0 = 0.25 * (v0 + v1 + v2 + v3)
        self.a1 = 0.25 * (-v0 + v1 + v2 - v3)
        self.a2 = 0.25 * (-v0 - v1 + v2 + v3)
        self.a3 = 0.25 * (v0 - v1 + v2 - v3)
        diagonals = verts[:, 2:] - verts[:, :2]
        self.diameter = np.hypot(diagonals[..., 0], diagonals[..., 1]).max(axis=1)
        self.affine = np.hypot(self.a3[:, 0], self.a3[:, 1]) <= 1e-14 * self.diameter
        check = np.vstack([REF_VERTICES, [[0.0, 0.0]]])
        (bad,) = np.nonzero(np.any(_det2(self.jacobians(check)) <= 0.0, axis=1))
        if bad.size:
            raise ValueError(f"degenerate or inverted cell at batch position {bad[0]}")

    def map(self, points):
        """Physical images of reference points, shape (cells, m, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))[None]
        xi, eta = pts[..., 0:1], pts[..., 1:2]
        a0, a1, a2, a3 = (a[:, None] for a in (self.a0, self.a1, self.a2, self.a3))
        return a0 + xi * a1 + eta * a2 + (xi * eta) * a3

    def jacobians(self, points):
        """J[c, m, i, j] = d x_i / d xi_j at each reference point, read-only.
        Kept for the last points, so a rule's weights and inverses share it."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))[None]
        if self._last[0] != pts.tobytes():
            a1, a2, a3 = (a[:, None] for a in (self.a1, self.a2, self.a3))
            J = np.stack([a1 + pts[..., 1:2] * a3, a2 + pts[..., 0:1] * a3], axis=-1)
            J.flags.writeable = False
            self._last = (pts.tobytes(), J)
        return self._last[1]

    def quadrature_weights(self, rule):
        """Physical quadrature weights per cell, shape (cells, n)."""
        return rule.weights * _det2(self.jacobians(rule.points))

    def _inverse_jacobians(self, points):
        """G[c, m, k, i] = d xi_k / d x_i; raises if a Jacobian is singular."""
        J = self.jacobians(points)
        det = _det2(J)
        if np.any(det <= 0.0):
            raise ValueError("singular Jacobian")
        G = np.empty_like(J)
        G[..., 0, 0], G[..., 0, 1] = J[..., 1, 1], -J[..., 0, 1]
        G[..., 1, 0], G[..., 1, 1] = -J[..., 1, 0], J[..., 0, 0]
        return G / det[..., None, None]

    def physical_gradients(self, points, ref_grads):
        """J^{-T} grad: reference (m, n_dofs, 2) -> physical (cells, m, n_dofs, 2),
        component i formed as G_0i·g_0 + G_1i·g_1 with the d.o.f. axis innermost."""
        G = self._inverse_jacobians(points)[:, :, None]
        g0, g1 = ref_grads[..., 0], ref_grads[..., 1]
        pg = np.stack([G[..., 0, i] * g0 + G[..., 1, i] * g1 for i in (0, 1)], axis=2)
        return pg.transpose(0, 1, 3, 2)

    def physical_hessians(self, points, ref_grads, ref_hess):
        """Exact physical second derivatives, shape (cells, m, n_dofs, 2, 2).

        Includes the curvature term of the bilinear map: with G = J^{-1},
        d^2 xi_k / dx_i dx_j = -(G a3)_k (G_0i G_1j + G_1i G_0j), which
        vanishes on affine cells.
        """
        G = self._inverse_jacobians(points)[:, :, None]
        out = sum(
            ref_hess[..., k, l, None, None] * (G[..., k, :, None] * G[..., l, None, :])
            for k, l in np.ndindex(2, 2)
        )
        # grad(phi) . a3 equals ref_grad . (G a3)
        a3 = np.where(self.affine[:, None], 0.0, self.a3)[:, None, None]
        pg = self.physical_gradients(points, ref_grads)
        pg_a3 = pg[..., 0] * a3[..., 0] + pg[..., 1] * a3[..., 1]
        S = G[..., 0, :, None] * G[..., 1, None, :]
        return out - pg_a3[..., None, None] * (S + np.swapaxes(S, -1, -2))


def cell_geometry(mesh, cell_ids) -> CellGeometry:
    """Batched reference maps of the given cells, in the given order."""
    return CellGeometry(mesh.vertices[mesh.cell_vertices[np.asarray(cell_ids)]])


def make_reference_map(gid, mesh) -> CellGeometry:
    """`cell_geometry(mesh, [gid])`.

    No parfem code calls it.  It stays because perfbench/tracing.py traces
    this name, and a traced run exits with code 3 when a traced name is
    missing; it goes once the tracer is retargeted (ROADMAP step 4a).
    """
    return cell_geometry(mesh, [gid])


def _det2(J):
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]

