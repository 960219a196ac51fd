import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UnionFind, geometric_dof_classes, invert_reference_map
from parfem.dof_manager import (
    build_dof_map,
    decode_key,
    dof_coordinates,
    encode_key,
)
from parfem.mapped_fe import get_element, make_reference_map
from parfem.mesh import build_rect_mesh, refine_uniform


def classes_of(dof_map):
    groups = {}
    for gid, dofs in dof_map.cell_dofs.items():
        for li, g in enumerate(dofs):
            groups.setdefault(int(g), set()).add((gid, li))
    return {frozenset(v) for v in groups.values()}


def test_2x2_q1_nine_dofs_with_reference_identifications():
    # four cells A=0, B=1, C=2, D=3; the center vertex is one class of four
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    dm = build_dof_map(m, range(4), "q1")
    assert dm.n_dofs == 9
    A, B, C, D = (dm.cell_dofs[g] for g in range(4))
    assert A[3] == B[2] == C[1] == D[0]  # center vertex
    assert A[1] == B[0] and A[2] == C[0]
    assert B[3] == D[1] and C[3] == D[2]
    # ascending smallest-member numbering gives the reference layout exactly
    assert list(A) == [0, 1, 2, 3]
    assert list(B) == [1, 4, 3, 5]
    assert list(C) == [2, 3, 6, 7]
    assert list(D) == [3, 5, 7, 8]


def test_single_cell_identity():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    dm = build_dof_map(m, [0], "q1")
    assert dm.n_dofs == 4
    assert list(dm.cell_dofs[0]) == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_q2_count_matches_hash_oracle(n):
    m = build_rect_mesh(0, 1, 0, 1, n, n)
    dm = build_dof_map(m, range(n * n), "q2")
    assert dm.n_dofs == (2 * n + 1) ** 2
    assert classes_of(dm) == geometric_dof_classes(m, range(n * n), "q2")


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    kind=st.sampled_from(["q1", "q2"]),
)
def test_classes_match_geometric_oracle(nx, ny, kind):
    m = build_rect_mesh(0, 1.5, -1, 1, nx, ny)
    dm = build_dof_map(m, range(nx * ny), kind)
    assert classes_of(dm) == geometric_dof_classes(m, range(nx * ny), kind)


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_continuity_across_shared_edges(kind, rng):
    # a function with continuous functionals must be single-valued on edges
    m = refine_uniform(build_rect_mesh(0, 1, 0, 1, 2, 1))
    dm = build_dof_map(m, range(m.n_cells), kind)
    elem = get_element(kind)
    w = rng.normal(size=dm.n_dofs)
    for (a, b), inc in m.edge_table.items():
        if len(inc) != 2:
            continue
        pa, pb = m.vertices[a], m.vertices[b]
        for s in rng.uniform(0.05, 0.95, size=5):
            x = pa + s * (pb - pa)
            vals = []
            for gid in inc:
                rmap = make_reference_map(m.cell(gid), m)
                xi = invert_reference_map(rmap, x)
                bas, _ = elem.eval([xi])
                vals.append(bas[0] @ w[dm.cell_dofs[gid]])
            assert abs(vals[0] - vals[1]) < 1e-12


def test_numbering_is_pure_function_of_cells():
    m = build_rect_mesh(0, 1, 0, 1, 3, 2)
    a = build_dof_map(m, range(6), "q2")
    b = build_dof_map(m, list(reversed(range(6))), "q2")
    assert a.n_dofs == b.n_dofs
    for gid in a.cell_dofs:
        assert np.array_equal(a.cell_dofs[gid], b.cell_dofs[gid])
    assert np.array_equal(a.keys, b.keys)


def test_union_order_does_not_change_classes(rng):
    pairs = [(0, 1), (2, 3), (1, 2), (5, 6), (4, 5)]
    reference = None
    for _ in range(10):
        uf = UnionFind(8)
        order = rng.permutation(len(pairs))
        for k in order:
            uf.union(*pairs[k])
        classes = {}
        for i in range(8):
            classes.setdefault(uf.find(i), set()).add(i)
        result = {frozenset(s) for s in classes.values()}
        reference = reference or result
        assert result == reference


def test_dof_coordinates_center_and_barycenter():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    dm = build_dof_map(m, range(4), "q1")
    coords = dof_coordinates(dm, m)
    assert np.allclose(coords[dm.cell_dofs[0][3]], [0.5, 0.5])

    m1 = build_rect_mesh(0, 2, 0, 1, 1, 1)
    dm1 = build_dof_map(m1, [0], "q2")
    coords1 = dof_coordinates(dm1, m1)
    assert np.allclose(coords1[dm1.cell_dofs[0][4]], [1.0, 0.5])


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_dof_coordinates_no_duplicates(kind):
    m = build_rect_mesh(0, 1, 0, 1, 3, 3)
    dm = build_dof_map(m, range(9), kind)
    coords = dof_coordinates(dm, m)
    quantized = {(round(x / 1e-10), round(y / 1e-10)) for x, y in coords}
    assert len(quantized) == dm.n_dofs


def test_dof_coordinate_disagreement_detected():
    m = build_rect_mesh(0, 1, 0, 1, 2, 1)
    dm = build_dof_map(m, range(2), "q1")
    # corrupt the map: claim two different physical nodes are the same dof
    dm.cell_dofs[1][1], dm.cell_dofs[1][0] = dm.cell_dofs[1][0], dm.cell_dofs[1][1]
    with pytest.raises(RuntimeError):
        dof_coordinates(dm, m)


def test_key_encoding_roundtrip():
    for cell, li in [(0, 0), (3, 8), (1234, 5)]:
        assert decode_key(encode_key(cell, li)) == (cell, li)
