"""Reference cells, reference maps, tensor-product Lagrange elements, quadrature.

Everything is defined on the reference square [-1,1]^2 and transported to
physical cells by an affine or bilinear map, so that basis evaluation and
quadrature live on the reference cell only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

# reference cell kinds; the simplex tag is declared for forward compatibility
# but carries no elements
UNIT_QUAD = "unit_quad"
UNIT_SIMPLEX = "unit_simplex"

# reference vertices of the unit quad in counterclockwise order
REF_VERTICES = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2) reference coordinates
    weights: np.ndarray  # (n,)
    degree: int  # exact for tensor polynomials up to this degree per direction


def gauss_rule(order: int) -> QuadratureRule:
    """Tensor Gauss-Legendre rule with `order` points per direction."""
    if not 1 <= order <= 5:
        raise ValueError(f"unsupported quadrature order {order}")
    x, w = leggauss(order)
    pts = np.array([[xi, yj] for yj in x for xi in x])
    wts = np.array([wi * wj for wj in w for wi in w])
    return QuadratureRule(pts, wts, 2 * order - 1)


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
    `locations` ties each node to the cell topology for the d.o.f. manager:
    ("vertex", k) with k an index into the cell's counterclockwise vertex
    list, ("edge", e, t) with e a local edge and t the position along it, or
    ("interior", j).
    """

    def __init__(self, kind: str):
        if kind == "q1":
            nodes_1d = np.array([-1.0, 1.0])
        elif kind == "q2":
            nodes_1d = np.array([-1.0, 0.0, 1.0])
        else:
            raise ValueError(f"unknown element kind {kind!r}")
        self.kind = kind
        self.nodes_1d = nodes_1d
        n = len(nodes_1d)
        self.nodes = np.array([[x, y] for y in nodes_1d for x in nodes_1d])
        self.n_dofs = n * n
        self.degree = n - 1
        self.locations = self._make_locations(n)
        self.vertex_dof = {
            loc[1]: i for i, loc in enumerate(self.locations) if loc[0] == "vertex"
        }
        self.edge_dofs = {e: [] for e in range(4)}
        for i, loc in enumerate(self.locations):
            if loc[0] == "edge":
                self.edge_dofs[loc[1]].append((i, loc[2]))

    def _make_locations(self, n):
        # corner (ix, iy) pairs -> counterclockwise vertex index
        corner = {(0, 0): 0, (n - 1, 0): 1, (n - 1, n - 1): 2, (0, n - 1): 3}
        # local edges in ccw order: bottom, right, top, left
        locations = []
        interior = 0
        for iy in range(n):
            for ix in range(n):
                if (ix, iy) in corner:
                    locations.append(("vertex", corner[(ix, iy)]))
                elif iy == 0:
                    locations.append(("edge", 0, ix / (n - 1)))
                elif ix == n - 1:
                    locations.append(("edge", 1, iy / (n - 1)))
                elif iy == n - 1:
                    locations.append(("edge", 2, 1.0 - ix / (n - 1)))
                elif ix == 0:
                    locations.append(("edge", 3, 1.0 - iy / (n - 1)))
                else:
                    locations.append(("interior", interior))
                    interior += 1
        return locations

    def eval(self, points):
        """Basis values and reference gradients at reference points.

        Returns (values (m, n_dofs), gradients (m, n_dofs, 2)).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vx, dx, _ = _lagrange_1d(self.nodes_1d, pts[:, 0])
        vy, dy, _ = _lagrange_1d(self.nodes_1d, pts[:, 1])
        n = len(self.nodes_1d)
        m = len(pts)
        vals = np.empty((m, self.n_dofs))
        grads = np.empty((m, self.n_dofs, 2))
        for iy in range(n):
            for ix in range(n):
                k = iy * n + ix
                vals[:, k] = vx[:, ix] * vy[:, iy]
                grads[:, k, 0] = dx[:, ix] * vy[:, iy]
                grads[:, k, 1] = vx[:, ix] * dy[:, iy]
        return vals, grads

    def eval_hessians(self, points):
        """Reference-space second derivatives, shape (m, n_dofs, 2, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vx, dx, hx = _lagrange_1d(self.nodes_1d, pts[:, 0])
        vy, dy, hy = _lagrange_1d(self.nodes_1d, pts[:, 1])
        n = len(self.nodes_1d)
        out = np.empty((len(pts), self.n_dofs, 2, 2))
        for iy in range(n):
            for ix in range(n):
                k = iy * n + ix
                out[:, k, 0, 0] = hx[:, ix] * vy[:, iy]
                out[:, k, 1, 1] = vx[:, ix] * hy[:, iy]
                mixed = dx[:, ix] * dy[:, iy]
                out[:, k, 0, 1] = mixed
                out[:, k, 1, 0] = mixed
        return out


_ELEMENTS: dict[str, LocalElement] = {}


def get_element(kind: str) -> LocalElement:
    if kind not in _ELEMENTS:
        _ELEMENTS[kind] = LocalElement(kind)
    return _ELEMENTS[kind]


def eval_basis(elem: LocalElement, points):
    return elem.eval(points)


class ReferenceMap:
    """Map from the reference square onto one physical quadrilateral.

    x(xi) = a0 + a1*xi + a2*eta + a3*xi*eta; a3 vanishes for parallelograms,
    in which case the map is affine with a constant Jacobian.
    """

    def __init__(self, verts):
        verts = np.asarray(verts, dtype=float)
        v0, v1, v2, v3 = verts
        self.verts = verts
        self.a0 = 0.25 * (v0 + v1 + v2 + v3)
        self.a1 = 0.25 * (-v0 + v1 + v2 - v3)
        self.a2 = 0.25 * (-v0 - v1 + v2 + v3)
        self.a3 = 0.25 * (v0 - v1 + v2 - v3)
        diam = max(
            np.linalg.norm(v2 - v0), np.linalg.norm(v3 - v1)
        )
        self.diameter = diam
        self.kind = (
            "affine" if np.linalg.norm(self.a3) <= 1e-14 * diam else "bilinear"
        )
        check = np.vstack([REF_VERTICES, [[0.0, 0.0]]])
        if np.any(np.linalg.det(self.jacobians(check)) <= 0.0):
            raise ValueError("degenerate or inverted cell")

    def map(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = pts[:, 0:1]
        eta = pts[:, 1:2]
        return self.a0 + xi * self.a1 + eta * self.a2 + (xi * eta) * self.a3

    def jacobians(self, points):
        """J[m, i, j] = d x_i / d xi_j at each reference point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = len(pts)
        J = np.empty((m, 2, 2))
        J[:, :, 0] = self.a1[None, :] + pts[:, 1:2] * self.a3[None, :]
        J[:, :, 1] = self.a2[None, :] + pts[:, 0:1] * self.a3[None, :]
        return J


def make_reference_map(cell, mesh) -> ReferenceMap:
    """Reference map reproducing the cell's four vertices in ccw order."""
    return ReferenceMap(mesh.vertices[list(cell.vertex_ids)])


def _inv2(J):
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 1, 1] = J[..., 0, 0]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    return inv / det[..., None, None], det


def physical_gradients(rmap: ReferenceMap, points, ref_grads):
    """Transform reference gradients to physical ones: J^{-T} grad."""
    J = rmap.jacobians(points)
    Jinv, det = _inv2(J)
    if np.any(det <= 0.0):
        raise ValueError("singular Jacobian")
    # phys[m, k, i] = sum_j Jinv[m, j, i] * ref[m, k, j]
    return np.einsum("mji,mkj->mki", Jinv, ref_grads)


def physical_hessians(rmap: ReferenceMap, points, ref_grads, ref_hess):
    """Exact physical second derivatives of mapped basis functions.

    Includes the curvature correction of the bilinear map (a3 term); for
    affine cells the correction vanishes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    J = rmap.jacobians(pts)
    G, det = _inv2(J)  # G[m, k, i] = d xi_k / d x_i
    if np.any(det <= 0.0):
        raise ValueError("singular Jacobian")
    m, nd = ref_grads.shape[:2]
    out = np.empty((m, nd, 2, 2))
    d = rmap.a3
    Txi = np.zeros((2, 2))
    Teta = np.zeros((2, 2))
    Txi[:, 1] = d  # d J / d xi  (columns are derivatives of J's columns)
    Teta[:, 0] = d  # d J / d eta
    for q in range(m):
        g = G[q]
        # xi_sec[k, i, j] = d^2 xi_k / d x_i d x_j
        xi_sec = np.zeros((2, 2, 2))
        if rmap.kind != "affine":
            for j in range(2):
                dJ = Txi * g[0, j] + Teta * g[1, j]
                dG = -g @ dJ @ g
                xi_sec[:, :, j] = dG
        first = np.einsum("nkl,ki,lj->nij", ref_hess[q], g, g)
        second = np.einsum("nk,kij->nij", ref_grads[q], xi_sec)
        out[q] = first + second
    return out
