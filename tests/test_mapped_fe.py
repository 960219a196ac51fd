import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CellsFirstGeometry,
    broadcast_physical_gradients,
    one_cell_jacobians,
    one_cell_map,
)
from parfem.mapped_fe import (
    REF_VERTICES,
    CellGeometry,
    cell_geometry,
    gauss_rule,
    get_element,
    make_reference_map,
)
from parfem.mesh import Mesh, build_hemker_mesh, refine_uniform

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRAPEZOID = np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0], [0.0, 1.0]])


def one_cell_mesh(verts):
    return Mesh(np.asarray(verts, float), np.array([[0, 1, 2, 3]]))


def test_map_vertices_in_order():
    geo = CellGeometry(UNIT_SQUARE[None])
    ref = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    assert geo.map(ref).shape == (2, 4, 1)
    assert np.allclose(one_cell_map(geo, ref), UNIT_SQUARE)
    assert np.allclose(one_cell_map(geo, [[-1, -1]])[0], [0, 0])


def test_affine_scaling():
    geo = CellGeometry(UNIT_SQUARE[None])
    assert geo.affine[0]
    assert np.allclose(one_cell_map(geo, [[0, 0]])[0], [0.5, 0.5])
    J = one_cell_jacobians(geo, [[0.0, 0.0]])[0]
    assert np.isclose(np.linalg.det(J), 0.25)


def test_bilinear_center_is_vertex_average():
    geo = CellGeometry(TRAPEZOID[None])
    assert not geo.affine[0]
    assert np.allclose(one_cell_map(geo, [[0, 0]])[0], TRAPEZOID.mean(axis=0))
    assert np.allclose(one_cell_map(geo, [[0, 0]])[0], [0.875, 0.5])


def test_parallelogram_detected_affine():
    verts = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
    assert CellGeometry(verts[None]).affine[0]


def test_degenerate_cell_rejected():
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        CellGeometry(degenerate[None])


def test_make_reference_map_from_mesh():
    mesh = one_cell_mesh(TRAPEZOID)
    geo = make_reference_map(0, mesh)
    assert np.array_equal(geo.verts, TRAPEZOID[None])
    assert np.array_equal(geo.a3, cell_geometry(mesh, [0]).a3)
    assert geo.a3.shape == (2, 1)


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
def test_node_maps_match_node_coordinates(kind):
    # the d.o.f. manager and its loop oracle both read vertex_dof and
    # edge_dofs, so they are checked here against the nodes themselves
    elem = get_element(kind)
    for k in range(4):
        assert np.array_equal(elem.nodes[elem.vertex_dof[k]], REF_VERTICES[k])
    on_edge = []
    for e in range(4):
        start, end = REF_VERTICES[e], REF_VERTICES[(e + 1) % 4]
        for i, t in elem.edge_dofs[e]:
            assert np.array_equal(elem.nodes[i], (1.0 - t) * start + t * end)
            on_edge.append(i)
    boundary = np.flatnonzero(np.abs(elem.nodes).max(axis=1) == 1.0)
    corners = set(elem.vertex_dof.values())
    assert sorted(on_edge) == [i for i in boundary if i not in corners]


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
    phys = CellGeometry(UNIT_SQUARE[None]).physical_gradients(pts, ref)[..., 0]
    assert np.allclose(phys.T, 2.0 * ref)


def test_physical_gradients_identity_map():
    elem = get_element("q2")
    geo = CellGeometry(np.array([[[-1, -1], [1, -1], [1, 1], [-1, 1]]], float))
    pts = np.array([[0.1, 0.7]])
    _, ref = elem.eval(pts)
    assert np.allclose(geo.physical_gradients(pts, ref)[..., 0].T, ref)


def _composed_basis(geo, elem, k, x):
    from conftest import invert_reference_map

    xi = invert_reference_map(geo, x)
    vals, _ = elem.eval([xi])
    return vals[0, k]


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_physical_gradients_fd_oracle(kind):
    elem = get_element(kind)
    geo = CellGeometry(TRAPEZOID[None])
    pts = np.array([[0.0, 0.0]])
    _, ref = elem.eval(pts)
    phys = geo.physical_gradients(pts, ref)[:, :, 0, 0].T  # (n_dofs, 2)
    x0 = one_cell_map(geo, pts)[0]
    h = 1e-6
    for k in range(elem.n_dofs):
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (
                _composed_basis(geo, elem, k, x0 + e)
                - _composed_basis(geo, elem, k, x0 - e)
            ) / (2 * h)
            assert abs(phys[k, d] - fd) < 1e-6


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_physical_laplacians_fd_oracle(kind):
    elem = get_element(kind)
    geo = CellGeometry(TRAPEZOID[None])
    pts = np.array([[0.1, -0.3]])
    _, ref = elem.eval(pts)
    pg = geo.physical_gradients(pts, ref)
    lap = geo.physical_laplacians(pts, elem.eval_hessians(pts), pg)[:, 0, 0]
    x0 = one_cell_map(geo, pts)[0]
    h = 1e-5

    def grad_fd(k, x):
        g = np.empty(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            g[d] = (
                _composed_basis(geo, elem, k, x + e)
                - _composed_basis(geo, elem, k, x - e)
            ) / (2 * h)
        return g

    assert not geo.affine[0]  # the curvature term is part of the Laplacian
    for k in range(elem.n_dofs):
        fd = 0.0
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd += (grad_fd(k, x0 + e)[d] - grad_fd(k, x0 - e)[d]) / (2 * h)
        assert abs(lap[k] - fd) < 1e-4


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


def test_gauss_rule_and_element_are_shared_read_only():
    rule = gauss_rule(3)
    assert gauss_rule(3) is rule and get_element("q2") is get_element("q2")
    for table in (rule.points, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


@pytest.mark.parametrize("order", [0, 6])
def test_gauss_rule_rejects_order(order):
    with pytest.raises(ValueError):
        gauss_rule(order)


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_quadrature_parallelogram_area():
    verts = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
    geo = CellGeometry(verts[None])
    area = 0.5 * abs(_cross2(verts[1] - verts[0], verts[2] - verts[0])) + 0.5 * abs(
        _cross2(verts[2] - verts[0], verts[3] - verts[0])
    )
    for order in (1, 2, 3):
        rule = gauss_rule(order)
        J = one_cell_jacobians(geo, rule.points)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        assert abs(np.sum(rule.weights * det) - area) < 1e-13


def test_affine_cell_reproduces_linears(rng):
    # on a parallelogram the mapped Q1 interpolant is exact for linears
    verts = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
    geo = CellGeometry(verts[None])
    assert geo.affine[0]
    elem = get_element("q1")
    f = lambda p: 1.5 - 2.0 * p[..., 0] + 0.75 * p[..., 1]
    nodal = f(one_cell_map(geo, elem.nodes))
    pts = rng.uniform(-1, 1, size=(50, 2))
    vals, _ = elem.eval(pts)
    interp = vals @ nodal
    assert np.max(np.abs(interp - f(one_cell_map(geo, pts)))) < 1e-13


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
        pg = geo.physical_gradients(pts, grads)
        return (
            geo.map(pts),
            geo.jacobians(pts),
            pg,
            geo.physical_laplacians(pts, hess, pg),
            geo.diameter,
            geo.affine,
        )

    cells = rng.permutation(mesh.n_cells)
    batched = evaluate(cell_geometry(mesh, cells))
    for c, gid in enumerate(cells):
        single = evaluate(cell_geometry(mesh, [gid]))
        for got, want in zip(batched, single):
            assert np.array_equal(got[..., c], want[..., 0])


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
    lap = geo.physical_laplacians(pts, hess, pg)
    for gid in range(mesh.n_cells):
        one = cell_geometry(mesh, [gid])
        want_g = loop_physical_gradients(one, pts, grads)
        want_h = loop_physical_hessians(one, pts, grads, hess)
        want_l = want_h[..., 0, 0] + want_h[..., 1, 1]  # (m, n_dofs)
        got_g = pg[..., gid].T  # (m, n_dofs, 2)
        got_l = lap[..., gid].T  # (m, n_dofs)
        assert np.max(np.abs(got_g - want_g)) <= 1e-12 * np.max(np.abs(want_g))
        assert np.max(np.abs(got_l - want_l)) <= 1e-12 * np.max(np.abs(want_h))


def test_batched_geometry_rejects_a_degenerate_cell():
    good = TRAPEZOID
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="batch position 1"):
        CellGeometry(np.stack([good, degenerate, good]))


def test_batched_gradients_reject_singular_jacobian():
    # the bilinear map of this cell folds over outside the reference square
    geo = CellGeometry(TRAPEZOID[None])
    far = np.array([[0.0, 9.0]])
    assert np.linalg.det(one_cell_jacobians(geo, far))[0] <= 0.0
    _, grads = get_element("q1").eval(far)
    with pytest.raises(ValueError, match="singular"):
        geo.physical_gradients(far, grads)


@pytest.mark.parametrize("kind", ["q1", "q2"])
@pytest.mark.parametrize("order", [2, 3])
def test_physical_gradients_bitwise_equal_broadcast_oracle(kind, order):
    mesh = refine_uniform(build_hemker_mesh())  # bilinear cells of the O-grid
    geo = cell_geometry(mesh, range(mesh.n_cells))
    rule = gauss_rule(order)
    _, grads = get_element(kind).eval(rule.points)
    got = geo.physical_gradients(rule.points, grads).transpose(3, 2, 1, 0)
    oracle = CellsFirstGeometry(geo.verts)
    want = broadcast_physical_gradients(oracle, rule.points, grads)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_batch_last_geometry_bitwise_equals_cells_first_oracle(kind):
    # the same formulas in the cells-first layout give the same bits
    mesh = refine_uniform(build_hemker_mesh())
    geo = cell_geometry(mesh, range(mesh.n_cells))
    oracle = CellsFirstGeometry(geo.verts)
    rule = gauss_rule(3)
    _, grads = get_element(kind).eval(rule.points)
    hess = get_element(kind).eval_hessians(rule.points)
    pg = geo.physical_gradients(rule.points, grads)
    want_h = oracle.physical_hessians(rule.points, grads, hess)
    pairs = [
        (geo.map(rule.points).transpose(2, 1, 0), oracle.map(rule.points)),
        (
            geo.jacobians(rule.points).transpose(3, 2, 0, 1),
            oracle.jacobians(rule.points),
        ),
        (  # the trace of the oracle's full Hessians
            geo.physical_laplacians(rule.points, hess, pg).transpose(2, 1, 0),
            want_h[..., 0, 0] + want_h[..., 1, 1],
        ),
        (geo.diameter, oracle.diameter),
        (geo.affine, oracle.affine),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_jacobians_of_the_last_points_are_shared_and_read_only():
    mesh = refine_uniform(build_hemker_mesh())
    geo = cell_geometry(mesh, range(mesh.n_cells))
    rule = gauss_rule(3)
    J = geo.jacobians(rule.points)
    assert geo.jacobians(rule.points.copy()) is J  # same points, one evaluation
    assert not J.flags.writeable
    other = geo.jacobians(gauss_rule(2).points)
    assert other is not J and other.shape == (2, 2, 4, mesh.n_cells)
    fresh = cell_geometry(mesh, range(mesh.n_cells)).jacobians(rule.points)
    assert geo.jacobians(rule.points).tobytes() == fresh.tobytes()
