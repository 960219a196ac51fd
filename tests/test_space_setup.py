"""The array-based space setup against the per-cell and per-d.o.f. loops.

Refinement, rank cells, the d.o.f. map, the classification, the mapper
schedules and the interface lists must equal their loop oracles bit for bit
on the curved Hemker O-grid and on a rectangle, for Q1/Q2 and several rank
counts, on levels 0-2.
"""

import numpy as np
import pytest

from conftest import (
    loop_build_dof_map,
    loop_build_rank_cells,
    loop_classify_dofs,
    loop_fe_schedules,
    loop_interface_lists,
    loop_refine_uniform,
)
from parfem.comm import Relation, build_rank_context, spmd_run
from parfem.dof_manager import build_dof_map
from parfem.mesh import build_hemker_mesh, build_rect_mesh, refine_uniform
from parfem.partition import (
    build_rank_cells,
    classify_dofs,
    decompose,
    ownership_on_level,
)

MESHES = {
    "hemker": build_hemker_mesh,
    "rect": lambda: build_rect_mesh(-1.0, 2.0, 0.0, 1.5, 4, 3),
}
RANKS = [1, 2, 3, 4, 7]


def _levels(name, n_levels=3):
    meshes = [MESHES[name]()]
    while len(meshes) < n_levels:
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


@pytest.mark.parametrize("name", sorted(MESHES))
def test_refine_matches_loop_oracle(name):
    mesh = MESHES[name]()
    for _ in range(2):
        fine, oracle = refine_uniform(mesh), loop_refine_uniform(mesh)
        assert np.array_equal(fine.vertices, oracle.vertices)  # bitwise
        assert np.array_equal(fine.cell_vertices, oracle.cell_vertices)
        assert np.array_equal(fine.circle, oracle.circle)
        assert fine.circle.dtype == np.int64
        assert fine.level == oracle.level
        for table in ("edges", "edge_counts", "cell_edges"):
            assert np.array_equal(getattr(fine, table), getattr(oracle, table))
        mesh = fine


@pytest.mark.parametrize("n_ranks", RANKS)
@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_space_matches_loop_oracles(name, elem, n_ranks):
    meshes = _levels(name)
    coarse_owner = decompose(meshes[0], n_ranks)
    for level, mesh in enumerate(meshes):
        ownership = ownership_on_level(coarse_owner, level)
        for rank in range(n_ranks):
            rc = build_rank_cells(mesh, ownership, rank)
            own, halo = loop_build_rank_cells(mesh, ownership, rank)
            got = (rc.own, rc.halo, rc.known)
            want = (own, halo, np.union1d(own, halo))
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and np.array_equal(g, w)

            dm = build_dof_map(mesh, rc.known, elem)
            odm = loop_build_dof_map(mesh, rc.known, elem)
            assert dm.n_dofs == odm.n_dofs
            assert np.array_equal(dm.table, [odm.cell_dofs[g] for g in rc.known])
            assert np.array_equal(dm.keys, odm.keys)

            cls = classify_dofs(rc, dm, ownership)
            ocls = loop_classify_dofs(rank, own, halo, odm, ownership)
            assert np.array_equal(cls.classes, ocls.classes)
            assert np.array_equal(cls.is_master, ocls.is_master)


@pytest.mark.parametrize("n_ranks", RANKS)
@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_mapper_and_interface_match_loop_oracles(name, elem, n_ranks):
    meshes = _levels(name)
    coarse_owner = decompose(meshes[0], n_ranks)

    def body(rank, transport):
        for level, mesh in enumerate(meshes):
            ownership = ownership_on_level(coarse_owner, level)
            ctx = build_rank_context(mesh, ownership, elem, transport, rank)
            own, halo = loop_build_rank_cells(mesh, ownership, rank)
            odm = loop_build_dof_map(mesh, ctx.rank_cells.known, elem)
            ocls = loop_classify_dofs(rank, own, halo, odm, ownership)
            schedules, true_keys = loop_fe_schedules(transport, rank, ocls, odm)
            assert np.array_equal(ctx.true_keys, true_keys)
            for rel in Relation:
                s = ctx.mapper.schedules[rel]
                sends, recvs = schedules[rel]
                assert [d.tolist() for d in s.sends] == sends
                assert [d.tolist() for d in s.recvs] == recvs
                assert all(d.dtype == np.int64 for d in s.sends + s.recvs)
            if_dofs, counts, shared_with = loop_interface_lists(
                ocls, odm, ownership, n_ranks
            )
            ex = ctx.exchange
            assert ex.if_dofs.tolist() == if_dofs
            assert ex.shared.arrivals.tolist() == counts
            assert [s.tolist() for s in ex.shared.sends] == shared_with
            for q in range(n_ranks):
                assert np.array_equal(ex.if_dofs[ex.shared.recvs[q]], ex.shared.sends[q])
        return True

    assert all(spmd_run(n_ranks, body))
