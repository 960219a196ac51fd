import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import census_admissibility
from parfem.mesh import (
    Mesh,
    MeshError,
    build_hemker_mesh,
    build_rect_mesh,
    refine_uniform,
    write_vtk,
)
from parfem.partition import build_rank_cells

HEMKER_COARSE_CELLS = 28  # golden count of the implemented coarse layout


def test_rect_2x2_counts():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    assert m.n_cells == 4
    assert m.n_vertices == 9
    assert len(m.edges) == 12


def test_rect_single_cell():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    assert m.n_cells == 1
    assert m.n_vertices == 4
    assert np.count_nonzero(m.edge_counts == 1) == 4


def test_rect_tensor_layout():
    m = build_rect_mesh(-3, 9, -3, 3, 4, 2)
    assert m.n_cells == 8
    # brute-force vertex enumeration of the tensor grid
    expected = sorted(
        (x, y) for y in np.linspace(-3, 3, 3) for x in np.linspace(-3, 9, 5)
    )
    got = sorted(map(tuple, m.vertices))
    assert np.allclose(got, expected)
    c0 = m.vertices[m.cell_vertices[0]]
    assert c0[:, 0].min() == -3 and c0[:, 0].max() == 0
    assert c0[:, 1].min() == -3 and c0[:, 1].max() == 0


@pytest.mark.parametrize(
    "args", [(1, 0, 0, 1, 2, 2), (0, 1, 1, 1, 2, 2), (0, 1, 0, 1, 0, 2)]
)
def test_rect_rejects_bad_input(args):
    with pytest.raises(MeshError):
        build_rect_mesh(*args)


def test_refine_single_cell():
    m = build_rect_mesh(0, 1, 0, 1, 1, 1)
    r = refine_uniform(m)
    assert r.n_cells == 4
    center = [tuple(v) for v in r.vertices].count((0.5, 0.5))
    assert center == 1
    shared = set.intersection(*(set(c) for c in r.cell_vertices.tolist()))
    assert len(shared) == 1
    assert tuple(r.vertices[shared.pop()]) == (0.5, 0.5)


def test_refine_growth_and_ids():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    mid = refine_uniform(m)
    r = refine_uniform(mid)
    assert r.n_cells == 64
    assert r.n_vertices == 81
    # child 4*g + k keeps corner k of its parent g and lies inside it
    for coarse, fine in ((m, mid), (mid, r)):
        for g, corners in enumerate(coarse.cell_vertices):
            box = coarse.vertices[corners]
            for k in range(4):
                child = fine.cell_vertices[4 * g + k]
                assert child[k] == corners[k]
                inside = fine.vertices[child]
                assert np.all(inside >= box.min(0)) and np.all(inside <= box.max(0))


def test_refine_leaves_input_mesh_unchanged():
    m = refine_uniform(build_hemker_mesh())
    tables = ("vertices", "cell_vertices", "edges", "edge_counts", "cell_edges")
    tables += ("circle",)
    before = [getattr(m, name).copy() for name in tables]
    refine_uniform(m)
    for name, table in zip(tables, before):
        assert np.array_equal(getattr(m, name), table), name


UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


@pytest.mark.parametrize(
    "verts, cells, message",
    [
        (UNIT_SQUARE, [(0, 1, 1, 2)], "cell 0 has repeated vertices"),
        (UNIT_SQUARE, [(0, 3, 2, 1)], "cell 0 is not convex counterclockwise"),
        # a dart: the corner at (0.5, 0.3) turns clockwise
        ([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3), (0.5, 1.0)], [(0, 1, 2, 3)],
         "cell 0 is not convex counterclockwise"),
        # the second cell is fine, the third is clockwise: the lowest bad id
        (UNIT_SQUARE + [(2.0, 0.0), (2.0, 1.0), (3.0, 0.0), (3.0, 1.0)],
         [(0, 1, 2, 3), (1, 4, 5, 2), (4, 5, 7, 6)],
         "cell 2 is not convex counterclockwise"),
        # three cells on the edge (0, 1): two above it, one below
        (UNIT_SQUARE + [(0.0, -1.0), (1.0, -1.0), (1.0, 2.0), (0.0, 2.0)],
         [(0, 1, 2, 3), (1, 0, 4, 5), (0, 1, 6, 7)],
         r"edge \(0, 1\) has 3 incident cells"),
        # a diamond whose diagonal is the square's edge (0, 1)
        (UNIT_SQUARE + [(0.5, -0.5), (0.5, 0.5)],
         [(0, 1, 2, 3), (0, 4, 1, 5)],
         "cells 0 and 1 share 2 vertices but no edge"),
        (UNIT_SQUARE, [(0, 1, 2, 3), (0, 1, 2, 3)],
         "cells 0 and 1 overlap in 4 vertices"),
        # cells must be an (n, 4) integer array of vertex ids
        (UNIT_SQUARE, [(0.0, 1.0, 2.0, 3.0)], r"\(n, 4\) integer array"),
        (UNIT_SQUARE, (0, 1, 2, 3), r"\(n, 4\) integer array"),
        (UNIT_SQUARE, [(0, 1, 2)], r"\(n, 4\) integer array"),
        # -1 would index the last vertex and build the cell from a wrong corner
        (UNIT_SQUARE, [(0, 1, 2, -1)], r"cell 0 has a vertex id outside \[0, 4\)"),
        (UNIT_SQUARE, [(0, 1, 2, 3), (1, 4, 2, 3)],
         r"cell 1 has a vertex id outside \[0, 4\)"),
    ],
)
def test_mesh_validation_rejects(verts, cells, message):
    with pytest.raises(MeshError, match=message):
        Mesh(np.array(verts), np.array(cells))


@pytest.mark.parametrize(
    "circle", [[0, 4], [-1, 2], [2, 1], [1, 1]], ids=["above", "below", "down", "twice"]
)
def test_mesh_rejects_bad_circle(circle):
    message = r"circle ids must ascend strictly within \[0, 4\)"
    with pytest.raises(MeshError, match=message):
        Mesh(np.array(UNIT_SQUARE), np.array([(0, 1, 2, 3)]), circle=circle)


@st.composite
def cells_on_a_circle(draw):
    """(nv, cells): cells of four distinct ids of nv vertices equally spaced
    on a circle, ids in ascending angle and rotated.  Every cell is convex and
    counterclockwise, so only the edge-count and admissibility checks can
    reject."""
    nv = draw(st.integers(4, 12))
    cells = draw(st.lists(
        st.tuples(st.sets(st.integers(0, nv - 1), min_size=4, max_size=4),
                  st.integers(0, 3)),
        min_size=1, max_size=4,
    ))
    return nv, np.array([np.roll(sorted(ids), -r) for ids, r in cells])


@settings(max_examples=300, deadline=None)
@given(cells_on_a_circle())
# 1-4 is the lowest repeated pair: an edge of cells 0 and 1, which share
# nothing else, and a diagonal of cell 2, which overlaps both
@example((6, np.array([(1, 2, 3, 4), (0, 1, 4, 5), (1, 2, 4, 5)])))
def test_diagonal_rule_matches_census(mesh_arrays):
    nv, cells = mesh_arrays
    angles = 2.0 * math.pi * np.arange(nv) / nv
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ends = np.sort(np.stack([cells, np.roll(cells, -1, axis=1)], axis=-1), axis=-1)
    _, counts = np.unique(ends[..., 0] * nv + ends[..., 1], return_counts=True)
    try:
        Mesh(verts, cells)
        message = None
    except MeshError as exc:
        message = str(exc)
    if counts.max() > 2:
        assert message is not None and message.startswith("edge ")
        return
    offenders, census = census_admissibility(cells)
    assert (message is None) == (census is None)
    if message is None:
        return
    if len(offenders) == 1:
        assert message == census
    found = re.fullmatch(r"cells (\d+) and (\d+) (?:share (2) vertices but no edge"
                         r"|overlap in (\d+) vertices)", message)
    ci, cj, two, more = found.groups()
    assert offenders[int(ci), int(cj)] == int(two or more)
    assert more is None or int(more) > 2


def test_refined_built_once_under_concurrent_access(monkeypatch):
    # more reader threads than cores, switching often: without the lock two
    # readers would both see no memo and refine twice
    import parfem.mesh

    refine, calls = parfem.mesh.refine_uniform, []

    def counting_refine(mesh):
        calls.append(mesh)
        return refine(mesh)

    monkeypatch.setattr(parfem.mesh, "refine_uniform", counting_refine)
    meshes = [build_rect_mesh(0, 1, 0, 1, 16, 16) for _ in range(5)]
    n = 8
    start, got = threading.Barrier(n), [[None] * n for _ in meshes]

    def reader(i):
        for mesh, out in zip(meshes, got):
            start.wait(timeout=10)
            out[i] = mesh.refined

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [id(m) for m in calls] == [id(m) for m in meshes]
    for mesh, out in zip(meshes, got):
        assert out[0] is mesh.refined and all(g is out[0] for g in out)
    assert np.array_equal(out[0].cell_vertices, refine(mesh).cell_vertices)


def test_refine_deterministic_bitwise():
    a = refine_uniform(build_rect_mesh(0, 1, 0, 1, 3, 2))
    b = refine_uniform(build_rect_mesh(0, 1, 0, 1, 3, 2))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cell_vertices, b.cell_vertices)
    assert np.array_equal(a.edges, b.edges)

    ha = refine_uniform(build_hemker_mesh())
    hb = refine_uniform(build_hemker_mesh())
    assert np.array_equal(ha.vertices, hb.vertices)


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), refine=st.integers(0, 1))
def test_euler_formula(nx, ny, refine):
    m = build_rect_mesh(0, 2, 0, 1, nx, ny)
    if refine:
        m = refine_uniform(m)
    assert m.n_vertices - len(m.edges) + m.n_cells == 1


def test_interior_edges_opposite_orientation():
    m = build_rect_mesh(0, 1, 0, 1, 3, 3)
    cv = m.cell_vertices
    directed = np.stack([cv, np.roll(cv, -1, axis=1)], axis=-1)  # (v_k, v_k+1)
    interior = np.flatnonzero(m.edge_counts == 2)
    assert interior.size == 12
    for e in interior:
        (p, q), (r, s) = directed[m.cell_edges == e].tolist()
        assert sorted((p, q)) == m.edges[e].tolist()
        assert (p, q) == (s, r)


def test_neighbors():
    # with one owned cell, the halo is every cell sharing a vertex with it
    def halo(mesh, cell):
        ownership = np.ones(mesh.n_cells, dtype=np.int64)
        ownership[cell] = 0
        return set(build_rank_cells(mesh, ownership, 0).halo.tolist())

    assert halo(build_rect_mesh(0, 1, 0, 1, 2, 2), 0) == {1, 2, 3}
    m3 = build_rect_mesh(0, 1, 0, 1, 3, 3)
    assert halo(m3, 4) == {0, 1, 2, 3, 5, 6, 7, 8}
    assert halo(m3, 0) == {1, 3, 4}
    assert halo(build_rect_mesh(0, 1, 0, 1, 1, 1), 0) == set()


def test_hemker_circle_vertices():
    m = build_hemker_mesh()
    circ = m.circle
    assert len(circ) == 8
    radii = np.linalg.norm(m.vertices[circ], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_hemker_no_vertex_inside_disk():
    m = build_hemker_mesh()
    assert np.linalg.norm(m.vertices, axis=1).min() >= 1.0 - 1e-12


def test_hemker_golden_cell_count():
    assert build_hemker_mesh().n_cells == HEMKER_COARSE_CELLS


def test_hemker_refinement_reprojects():
    m = refine_uniform(build_hemker_mesh())
    circ = m.circle
    assert len(circ) == 16
    radii = np.linalg.norm(m.vertices[circ], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    assert np.linalg.norm(m.vertices, axis=1).min() >= 1.0 - 1e-12


def test_vtk_writer(tmp_path):
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    path = tmp_path / "mesh.vtk"
    write_vtk(m, path, point_data={"u": np.arange(9.0)})
    text = path.read_text().splitlines()
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert "POINTS 9 double" in text
    assert "CELLS 4 20" in text
    assert text.count("9") >= 4  # quad cell type
    assert "SCALARS u double 1" in text
