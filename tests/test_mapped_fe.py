import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parfem.mapped_fe import (
    CellGeometry,
    ReferenceMap,
    cell_geometry,
    gauss_rule,
    get_element,
    make_reference_map,
)
from parfem.mesh import Cell, Mesh

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRAPEZOID = np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [0.0, 1.0]])


def one_cell_mesh(verts):
    return Mesh(np.asarray(verts, float), [Cell(0, (0, 1, 2, 3))])


def test_map_vertices_in_order():
    rmap = ReferenceMap(UNIT_SQUARE)
    ref = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    assert np.allclose(rmap.map(ref), UNIT_SQUARE)
    assert np.allclose(rmap.map([[-1, -1]])[0], [0, 0])


def test_affine_scaling():
    rmap = ReferenceMap(UNIT_SQUARE)
    assert rmap.kind == "affine"
    assert np.allclose(rmap.map([[0, 0]])[0], [0.5, 0.5])
    J = rmap.jacobians([[0.0, 0.0]])[0]
    assert np.isclose(np.linalg.det(J), 0.25)


def test_bilinear_center_is_vertex_average():
    rmap = ReferenceMap(TRAPEZOID)
    assert rmap.kind == "bilinear"
    assert np.allclose(rmap.map([[0, 0]])[0], TRAPEZOID.mean(axis=0))
    assert np.allclose(rmap.map([[0, 0]])[0], [0.875, 0.5])


def test_parallelogram_detected_affine():
    verts = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
    assert ReferenceMap(verts).kind == "affine"


def test_degenerate_cell_rejected():
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        ReferenceMap(degenerate)


def test_make_reference_map_from_mesh():
    mesh = one_cell_mesh(TRAPEZOID)
    rmap = make_reference_map(mesh.cell(0), mesh)
    assert np.allclose(rmap.verts, TRAPEZOID)


def test_q1_nodal_values():
    q1 = get_element("q1")
    vals, _ = q1.eval([[-1, -1]])
    assert np.allclose(vals[0], [1, 0, 0, 0])
    vals, _ = q1.eval([[0, 0]])
    assert np.allclose(vals[0], [0.25] * 4)


def test_q2_center_node():
    q2 = get_element("q2")
    vals, _ = q2.eval([[0, 0]])
    expected = np.zeros(9)
    expected[4] = 1.0
    assert np.allclose(vals[0], expected)


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_nodal_basis_property(kind):
    elem = get_element(kind)
    vals, _ = elem.eval(elem.nodes)
    assert np.max(np.abs(vals - np.eye(elem.n_dofs))) < 1e-12


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_partition_of_unity_many_points(kind, rng):
    elem = get_element(kind)
    pts = rng.uniform(-1, 1, size=(1000, 2))
    vals, grads = elem.eval(pts)
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(grads.sum(axis=1))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-1, 1, allow_nan=False),
    y=st.floats(-1, 1, allow_nan=False),
    kind=st.sampled_from(["q1", "q2"]),
)
def test_partition_of_unity_property(x, y, kind):
    vals, _ = get_element(kind).eval([[x, y]])
    assert abs(vals.sum() - 1.0) < 1e-12


def test_physical_gradients_affine_halving():
    # [-1,1]^2 -> [0,1]^2 halves lengths, so gradients double
    elem = get_element("q1")
    pts = np.array([[0.3, -0.2]])
    _, ref = elem.eval(pts)
    phys = CellGeometry(UNIT_SQUARE[None]).physical_gradients(pts, ref)[0]
    assert np.allclose(phys, 2.0 * ref)


def test_physical_gradients_identity_map():
    elem = get_element("q2")
    geo = CellGeometry(np.array([[[-1, -1], [1, -1], [1, 1], [-1, 1]]], float))
    pts = np.array([[0.1, 0.7]])
    _, ref = elem.eval(pts)
    assert np.allclose(geo.physical_gradients(pts, ref)[0], ref)


def _composed_basis(rmap, elem, k, x):
    from conftest import invert_reference_map

    xi = invert_reference_map(rmap, x)
    vals, _ = elem.eval([xi])
    return vals[0, k]


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_physical_gradients_fd_oracle(kind):
    elem = get_element(kind)
    rmap = ReferenceMap(TRAPEZOID)
    pts = np.array([[0.0, 0.0]])
    _, ref = elem.eval(pts)
    phys = rmap.batch.physical_gradients(pts, ref)[0, 0]
    x0 = rmap.map(pts)[0]
    h = 1e-6
    for k in range(elem.n_dofs):
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (
                _composed_basis(rmap, elem, k, x0 + e)
                - _composed_basis(rmap, elem, k, x0 - e)
            ) / (2 * h)
            assert abs(phys[k, d] - fd) < 1e-6


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_physical_hessians_fd_oracle(kind):
    elem = get_element(kind)
    rmap = ReferenceMap(TRAPEZOID)
    pts = np.array([[0.1, -0.3]])
    _, ref = elem.eval(pts)
    hess_ref = elem.eval_hessians(pts)
    hess = rmap.batch.physical_hessians(pts, ref, hess_ref)[0, 0]
    x0 = rmap.map(pts)[0]
    h = 1e-5

    def grad_fd(k, x):
        g = np.empty(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            g[d] = (
                _composed_basis(rmap, elem, k, x + e)
                - _composed_basis(rmap, elem, k, x - e)
            ) / (2 * h)
        return g

    for k in range(elem.n_dofs):
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (grad_fd(k, x0 + e) - grad_fd(k, x0 - e)) / (2 * h)
            assert np.max(np.abs(hess[k, :, d] - fd)) < 1e-4


def test_gauss_rule_order1():
    rule = gauss_rule(1)
    assert np.allclose(rule.points, [[0, 0]])
    assert np.allclose(rule.weights, [4.0])


def test_gauss_rule_order2():
    rule = gauss_rule(2)
    g = 1 / np.sqrt(3)
    assert sorted(map(tuple, np.round(rule.points, 12))) == sorted(
        map(tuple, np.round([[-g, -g], [g, -g], [-g, g], [g, g]], 12))
    )
    assert np.allclose(rule.weights, 1.0)


def test_gauss_rule_x2y2():
    rule = gauss_rule(2)
    val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert abs(val - 4.0 / 9.0) < 1e-14


@pytest.mark.parametrize("order", range(1, 6))
def test_gauss_weights_sum_to_cell_measure(order):
    assert abs(gauss_rule(order).weights.sum() - 4.0) < 1e-13


@pytest.mark.parametrize("order", [0, 6])
def test_gauss_rule_rejects_order(order):
    with pytest.raises(ValueError):
        gauss_rule(order)


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_quadrature_parallelogram_area():
    verts = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
    rmap = ReferenceMap(verts)
    area = 0.5 * abs(_cross2(verts[1] - verts[0], verts[2] - verts[0])) + 0.5 * abs(
        _cross2(verts[2] - verts[0], verts[3] - verts[0])
    )
    for order in (1, 2, 3):
        rule = gauss_rule(order)
        J = rmap.jacobians(rule.points)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        assert abs(np.sum(rule.weights * det) - area) < 1e-13


def test_affine_cell_reproduces_linears(rng):
    # on a parallelogram the mapped Q1 interpolant is exact for linears
    verts = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
    rmap = ReferenceMap(verts)
    assert rmap.kind == "affine"
    elem = get_element("q1")
    f = lambda p: 1.5 - 2.0 * p[..., 0] + 0.75 * p[..., 1]
    nodal = f(rmap.map(elem.nodes))
    pts = rng.uniform(-1, 1, size=(50, 2))
    vals, _ = elem.eval(pts)
    interp = vals @ nodal
    assert np.max(np.abs(interp - f(rmap.map(pts)))) < 1e-13


def hemker_ring_mesh():
    from parfem.mesh import build_hemker_mesh, refine_uniform

    return refine_uniform(build_hemker_mesh())


def test_batched_geometry_has_bilinear_cells():
    mesh = hemker_ring_mesh()
    geo = cell_geometry(mesh, range(mesh.n_cells))
    assert len(geo.verts) == mesh.n_cells
    assert 0 < np.count_nonzero(~geo.affine) < mesh.n_cells


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_batched_geometry_independent_of_batch(kind, rng):
    mesh = hemker_ring_mesh()
    elem = get_element(kind)
    pts = np.vstack([elem.nodes, rng.uniform(-1, 1, size=(5, 2))])
    _, grads = elem.eval(pts)
    hess = elem.eval_hessians(pts)

    def evaluate(geo):
        return (
            geo.map(pts),
            geo.jacobians(pts),
            geo.physical_gradients(pts, grads),
            geo.physical_hessians(pts, grads, hess),
            geo.diameter,
            geo.affine,
        )

    cells = rng.permutation(mesh.n_cells)
    batched = evaluate(cell_geometry(mesh, cells))
    for c, gid in enumerate(cells):
        single = evaluate(cell_geometry(mesh, [gid]))
        for got, want in zip(batched, single):
            assert np.array_equal(got[c], want[0])


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_batched_derivatives_match_per_point_oracle(kind, rng):
    from conftest import loop_physical_gradients, loop_physical_hessians

    mesh = hemker_ring_mesh()
    elem = get_element(kind)
    pts = rng.uniform(-1, 1, size=(6, 2))
    _, grads = elem.eval(pts)
    hess = elem.eval_hessians(pts)
    geo = cell_geometry(mesh, range(mesh.n_cells))
    pg = geo.physical_gradients(pts, grads)
    ph = geo.physical_hessians(pts, grads, hess)
    for gid in range(mesh.n_cells):
        rmap = make_reference_map(mesh.cell(gid), mesh)
        want_g = loop_physical_gradients(rmap, pts, grads)
        want_h = loop_physical_hessians(rmap, pts, grads, hess)
        assert np.max(np.abs(pg[gid] - want_g)) <= 1e-12 * np.max(np.abs(want_g))
        assert np.max(np.abs(ph[gid] - want_h)) <= 1e-12 * np.max(np.abs(want_h))


def test_batched_geometry_rejects_a_degenerate_cell():
    good = TRAPEZOID
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="batch position 1"):
        CellGeometry(np.stack([good, degenerate, good]))


def test_batched_gradients_reject_singular_jacobian():
    # the bilinear map of this cell folds over outside the reference square
    geo = CellGeometry(TRAPEZOID[None])
    far = np.array([[0.0, 9.0]])
    assert np.linalg.det(geo.jacobians(far))[0, 0] <= 0.0
    _, grads = get_element("q1").eval(far)
    with pytest.raises(ValueError, match="singular"):
        geo.physical_gradients(far, grads)
