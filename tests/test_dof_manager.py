import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    UnionFind,
    geometric_dof_classes,
    invert_reference_map,
    loop_edge_cells,
)
from parfem.dof_manager import (
    build_dof_map,
    decode_key,
    dof_coordinates,
    encode_key,
    sorted_unique,
)
from parfem.mapped_fe import cell_geometry, get_element
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
    for (a, b), inc in loop_edge_cells(m).items():
        if len(inc) != 2:
            continue
        pa, pb = m.vertices[a], m.vertices[b]
        for s in rng.uniform(0.05, 0.95, size=5):
            x = pa + s * (pb - pa)
            vals = []
            for gid in inc:
                xi = invert_reference_map(cell_geometry(m, [gid]), x)
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


@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_dof_map_same_from_array_list_and_generator(kind):
    # an array is taken as it is (int32 and unsorted here), any other
    # iterable through fromiter; all three number the d.o.f.s alike
    m = build_rect_mesh(0, 1, 0, 1, 4, 3)
    cells = np.array([7, 2, 11, 3, 6, 10, 2], dtype=np.int32)
    maps = [
        build_dof_map(m, cells, kind),
        build_dof_map(m, cells.tolist(), kind),
        build_dof_map(m, (int(c) for c in cells), kind),
    ]
    for dm in maps[1:]:
        for got, want in zip(
            (dm.n_dofs, dm.cells, dm.table, dm.keys, dm.first),
            (maps[0].n_dofs, maps[0].cells, maps[0].table, maps[0].keys, maps[0].first),
        ):
            assert np.array_equal(got, want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
    assert maps[0].cells.dtype == np.int64
    assert maps[0].cells.tolist() == [2, 3, 6, 7, 10, 11]


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


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# few distinct values, so that duplicates are common; no NaN, which
# `sorted_unique` does not merge
_UNIQUE_INPUTS = st.one_of(
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
               elements=st.integers(-5, 5)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
               elements=st.integers(-(2**63), 2**63 - 1)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
               elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 1e300])),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
               elements=st.floats(allow_nan=False)),
)


@settings(max_examples=300, deadline=None)
@given(x=_UNIQUE_INPUTS)
def test_sorted_unique_equals_np_unique_bitwise(x):
    assert_bitwise_equal(sorted_unique(x), np.unique(x))


@pytest.mark.parametrize(
    "x",
    [
        np.empty(0, dtype=np.int64),
        np.empty((0, 3), dtype=np.float64),
        np.full(7, 42, dtype=np.int64),
        np.full((3, 4), -2.5),
        np.arange(12, dtype=np.int64).reshape(3, 4)[:, ::-1],
    ],
    ids=["empty-int", "empty-2d-float", "all-duplicate-int", "all-duplicate-2d-float",
         "2d-distinct-int"],
)
def test_sorted_unique_edge_cases_equal_np_unique(x):
    assert_bitwise_equal(sorted_unique(x), np.unique(x))


def test_sorted_unique_keeps_each_nan():
    x = np.array([np.nan, 1.0, np.nan])
    assert np.array_equal(sorted_unique(x), [1.0, np.nan, np.nan], equal_nan=True)
