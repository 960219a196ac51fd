import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import couplings
from parfem.dof_manager import build_dof_map, dof_coordinates
from parfem.mesh import build_rect_mesh, refine_uniform
from parfem.partition import (
    DofClass,
    build_rank_cells,
    classify_dofs,
    decompose,
    global_master_census,
    ownership_on_level,
)


def classify_all_ranks(mesh, ownership, elem="q1"):
    out = []
    for rank in sorted(set(int(r) for r in ownership)):
        rc = build_rank_cells(mesh, ownership, rank)
        dm = build_dof_map(mesh, rc.known, elem)
        cls = classify_dofs(rc, dm, ownership)
        out.append((rc, dm, cls))
    return out


def test_decompose_4x4_into_quadrant_blocks():
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)
    owner = decompose(m, 4)
    # independent bisection oracle on the 16 barycenters: split by x, then y
    bary = np.array([m.vertices[m.cell_vertices[g]].mean(axis=0) for g in range(16)])
    left = set(np.argsort((bary[:, 0], bary[:, 1], np.arange(16))[0], kind="stable")[:8])
    left = {g for g in range(16) if bary[g, 0] < 0.5}
    for group in range(4):
        cells = {g for g in range(16) if owner[g] == group}
        assert len(cells) == 4
        xs = {round(bary[g][0], 6) for g in cells}
        ys = {round(bary[g][1], 6) for g in cells}
        assert len(xs) == 2 and len(ys) == 2  # a 2x2 block
    assert {g for g in range(16) if owner[g] in (0, 1)} == left


def test_decompose_single_rank():
    m = build_rect_mesh(0, 1, 0, 1, 3, 2)
    assert np.array_equal(decompose(m, 1), np.zeros(6, dtype=np.int64))
    rc = build_rank_cells(m, decompose(m, 1), 0)
    assert rc.halo.size == 0 and rc.dependent.size == 0


def test_decompose_2x1_balanced():
    m = build_rect_mesh(0, 2, 0, 1, 2, 1)
    owner = decompose(m, 2)
    assert sorted(owner) == [0, 1]


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(2, 6), ny=st.integers(1, 5), n_ranks=st.integers(1, 7))
def test_decompose_balance_and_determinism(nx, ny, n_ranks):
    m = build_rect_mesh(0, 1, 0, 1, nx, ny)
    if n_ranks > m.n_cells:
        with pytest.raises(ValueError):
            decompose(m, n_ranks)
        return
    owner = decompose(m, n_ranks)
    counts = np.bincount(owner, minlength=n_ranks)
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(owner, decompose(m, n_ranks))


def test_ownership_inherited_by_children():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    owner = decompose(m, 2)
    fine = refine_uniform(m)
    fine_owner = ownership_on_level(owner, 1)
    assert len(fine_owner) == fine.n_cells
    for g in range(fine.n_cells):  # cell g is a child of cell g // 4
        assert fine_owner[g] == owner[g // 4]


def test_rank_cells_2x2_split():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ownership = np.array([0, 0, 1, 1])  # bottom row / top row
    rc = build_rank_cells(m, ownership, 0)
    assert rc.own.tolist() == [0, 1]
    assert rc.halo.tolist() == [2, 3]
    assert rc.dependent.tolist() == [0, 1]
    assert np.setdiff1d(rc.own, rc.dependent).size == 0  # no independent cell


def test_rank_cells_corner_rank_halo():
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)
    owner = decompose(m, 4)
    corner = int(owner[0])
    rc = build_rank_cells(m, owner, corner)
    assert len(rc.own) == 4
    assert len(rc.halo) == 5  # the five cells touching the 2x2 block


def test_classify_2x2_interface_masters_on_lowest_rank():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ownership = np.array([0, 0, 1, 1])
    for rank in (0, 1):
        rc = build_rank_cells(m, ownership, rank)
        dm = build_dof_map(m, rc.known, "q1")
        cls = classify_dofs(rc, dm, ownership)
        coords = dof_coordinates(dm, m)
        on_line = np.flatnonzero(np.abs(coords[:, 1] - 0.5) < 1e-12)
        assert len(on_line) == 3
        expected = (
            DofClass.INTERFACE_MASTER if rank == 0 else DofClass.INTERFACE_SLAVE
        )
        assert all(cls.classes[g] == expected for g in on_line)
        assert all(cls.master_rank[g] == 0 for g in on_line)


def test_classify_single_rank_all_independent():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ownership = np.zeros(4, dtype=np.int64)
    rc = build_rank_cells(m, ownership, 0)
    dm = build_dof_map(m, rc.known, "q1")
    cls = classify_dofs(rc, dm, ownership)
    assert all(c == DofClass.INDEPENDENT for c in cls.classes)


def test_classify_q2_two_rank_strip():
    # master side sees halo(alpha) everywhere, the slave side halo(beta);
    # dependent d.o.f.s mirror this: beta on the master side, alpha opposite
    m = build_rect_mesh(0, 4, 0, 1, 4, 1)
    ownership = np.array([0, 0, 1, 1])
    rc0 = build_rank_cells(m, ownership, 0)
    dm0 = build_dof_map(m, rc0.known, "q2")
    cls0 = classify_dofs(rc0, dm0, ownership)
    halo0 = cls0.of_class(DofClass.HALO_ALPHA, DofClass.HALO_BETA)
    assert len(halo0) > 0
    assert all(cls0.classes[g] == DofClass.HALO_ALPHA for g in halo0)
    dep0 = cls0.of_class(DofClass.DEPENDENT_ALPHA, DofClass.DEPENDENT_BETA)
    assert all(cls0.classes[g] == DofClass.DEPENDENT_BETA for g in dep0)

    rc1 = build_rank_cells(m, ownership, 1)
    dm1 = build_dof_map(m, rc1.known, "q2")
    cls1 = classify_dofs(rc1, dm1, ownership)
    halo1 = cls1.of_class(DofClass.HALO_ALPHA, DofClass.HALO_BETA)
    assert all(cls1.classes[g] == DofClass.HALO_BETA for g in halo1)
    dep1 = cls1.of_class(DofClass.DEPENDENT_ALPHA, DofClass.DEPENDENT_BETA)
    assert all(cls1.classes[g] == DofClass.DEPENDENT_ALPHA for g in dep1)


def test_classify_q2_three_rank_strip_mixed_layers():
    # the middle rank masters its right interface but not its left one, so
    # the right-hand halo layer is alpha and the left-hand one beta
    m = build_rect_mesh(0, 6, 0, 1, 6, 1)
    ownership = np.array([0, 0, 1, 1, 2, 2])
    rc = build_rank_cells(m, ownership, 1)
    dm = build_dof_map(m, rc.known, "q2")
    cls = classify_dofs(rc, dm, ownership)
    coords = dof_coordinates(dm, m)
    for g in cls.of_class(DofClass.HALO_ALPHA):
        assert coords[g, 0] > 4.0  # beyond the mastered right interface
    for g in cls.of_class(DofClass.HALO_BETA):
        assert coords[g, 0] < 2.0
    for g in cls.of_class(DofClass.DEPENDENT_ALPHA):
        assert coords[g, 0] <= 3.0  # in the cell at the slave-side interface
    for g in cls.of_class(DofClass.DEPENDENT_BETA):
        assert coords[g, 0] > 3.0
    m_ims = cls.of_class(DofClass.INTERFACE_MASTER)
    assert all(abs(coords[g, 0] - 4.0) < 1e-12 for g in m_ims)


@pytest.mark.parametrize("n_ranks", [2, 3, 4, 7])
@pytest.mark.parametrize("kind", ["q1", "q2"])
def test_master_census_is_one_everywhere(n_ranks, kind):
    m = build_rect_mesh(0, 2, 0, 1, 4, 3)
    ownership = decompose(m, n_ranks)
    results = []
    for rank in range(n_ranks):
        rc = build_rank_cells(m, ownership, rank)
        dm = build_dof_map(m, rc.known, kind)
        cls = classify_dofs(rc, dm, ownership)
        results.append((cls, dof_coordinates(dm, m)))
    census = global_master_census(results)
    assert set(census.values()) == {1}
    seq = build_dof_map(m, range(m.n_cells), kind)
    assert len(census) == seq.n_dofs


def _cross_rank_views(mesh, ownership, elem):
    views = {}
    for rank in sorted(set(int(r) for r in ownership)):
        rc = build_rank_cells(mesh, ownership, rank)
        dm = build_dof_map(mesh, rc.known, elem)
        cls = classify_dofs(rc, dm, ownership)
        coords = dof_coordinates(dm, mesh)
        for g in range(dm.n_dofs):
            key = (round(coords[g, 0] / 1e-8), round(coords[g, 1] / 1e-8))
            views.setdefault(key, {})[rank] = DofClass(int(cls.classes[g]))
    return views


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_cross_rank_class_symmetry(n_ranks):
    m = build_rect_mesh(0, 2, 0, 2, 4, 4)
    ownership = decompose(m, n_ranks)
    for key, view in _cross_rank_views(m, ownership, "q1").items():
        masters = [r for r, c in view.items() if c == DofClass.INTERFACE_MASTER]
        if masters:
            others = {c for r, c in view.items() if r != masters[0]}
            assert len(masters) == 1
            assert others <= {DofClass.INTERFACE_SLAVE, DofClass.HALO_ALPHA,
                              DofClass.HALO_BETA}
        for r, c in view.items():
            if c == DofClass.DEPENDENT_BETA:
                # known elsewhere only as halo(beta)
                assert all(
                    other == DofClass.HALO_BETA
                    for rr, other in view.items()
                    if rr != r
                )
            if c == DofClass.DEPENDENT_ALPHA and len(view) > 1:
                assert any(
                    other == DofClass.HALO_ALPHA
                    for rr, other in view.items()
                    if rr != r
                )


def test_halo_never_master_and_independent_couplings():
    m = build_rect_mesh(0, 2, 0, 2, 4, 4)
    ownership = decompose(m, 4)
    for rank in range(4):
        rc = build_rank_cells(m, ownership, rank)
        dm = build_dof_map(m, rc.known, "q1")
        cls = classify_dofs(rc, dm, ownership)
        coupled = couplings(dm)
        for g in cls.of_class(DofClass.HALO_ALPHA, DofClass.HALO_BETA):
            assert not cls.is_master[g]
        for g in cls.of_class(DofClass.INDEPENDENT):
            assert all(cls.is_master[d] for d in coupled[g])
