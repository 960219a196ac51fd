import numpy as np
import pytest

from conftest import (
    isin_dirichlet_rows,
    loop_assemble_cdr,
    loop_assemble_mass,
    loop_dirichlet_dofs,
    loop_dof_coordinates,
    loop_qsum,
    loop_qsum_mass,
    scalar_supg_tau,
    seq_context,
    three_term_assemble_cdr,
)
from parfem import assembly, mapped_fe
from parfem.assembly import (
    CdrCoefficients,
    DirichletPart,
    SupgParams,
    apply_dirichlet,
    assemble_cdr,
    assemble_mass,
    crank_nicolson_step,
    crank_nicolson_system,
    dirichlet_dofs,
    enforce_dirichlet_values,
    l2_error,
    matrix_graph,
    merge_master_values,
    write_merged_solution,
    write_solution_vtk,
)
from parfem.bench_cli import (
    _inflow_schedule,
    hemker_problem,
    poisson_mms_problem,
    timedep_problem,
)
from parfem.comm import ConsistencyLevel, build_rank_context, spmd_run
from parfem.dlinalg import DistMatrix, DistVector, fgmres, from_keys, matvec
from parfem.dof_manager import dof_coordinates, sorted_unique
from parfem.mapped_fe import cell_geometry, get_element
from parfem.mesh import build_hemker_mesh, build_rect_mesh, refine_uniform
from parfem.multigrid import ownership_on_level
from parfem.partition import decompose

L0, L1, L2, L3 = ConsistencyLevel

# classic Q1 stiffness and mass element matrices on the unit square,
# tensor node order (SW, SE, NW, NE)
LAPLACE_Q1 = (
    np.array(
        [
            [4.0, -1.0, -1.0, -2.0],
            [-1.0, 4.0, -2.0, -1.0],
            [-1.0, -2.0, 4.0, -1.0],
            [-2.0, -1.0, -1.0, 4.0],
        ]
    )
    / 6.0
)
MASS_Q1 = (
    np.array(
        [
            [4.0, 2.0, 2.0, 1.0],
            [2.0, 4.0, 1.0, 2.0],
            [2.0, 1.0, 4.0, 2.0],
            [1.0, 2.0, 2.0, 4.0],
        ]
    )
    / 36.0
)


def run_ranks(mesh, n_ranks, body, elem="q1"):
    ownership = decompose(mesh, n_ranks)

    def wrapped(rank, transport):
        return body(build_rank_context(mesh, ownership, elem, transport, rank))

    return spmd_run(n_ranks, wrapped)


def test_q1_laplace_element_matrix():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 1, 1))
    A, b = assemble_cdr(ctx, CdrCoefficients(eps=1.0, f=1.0))
    assert np.max(np.abs(A.csr.toarray() - LAPLACE_Q1)) < 1e-14
    assert np.allclose(A.csr.diagonal(), 2.0 / 3.0)
    assert np.allclose(b.values, 0.25)  # (f, phi_i) with f = 1


def test_q1_mass_element_matrix():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 1, 1))
    M = assemble_mass(ctx)
    assert np.max(np.abs(M.csr.toarray() - MASS_Q1)) < 1e-15


def test_reaction_rows_sum_to_mass_rows():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 3, 3))
    A, _ = assemble_cdr(ctx, CdrCoefficients(eps=1e-30, c=1.0))
    M = assemble_mass(ctx)
    rows_a = np.asarray(A.csr.sum(axis=1)).ravel()
    rows_m = np.asarray(M.csr.sum(axis=1)).ravel()
    assert np.max(np.abs(rows_a - rows_m)) < 1e-14


def test_coefficients_require_positive_diffusion():
    with pytest.raises(ValueError):
        CdrCoefficients(eps=0.0)


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_parallel_assembly_master_rows_bitwise(n_ranks):
    coarse, coeffs, _ = hemker_problem()
    seq = seq_context(coarse)
    A_seq, b_seq = assemble_cdr(seq, coeffs, supg=True)
    apply_dirichlet(A_seq, b_seq, seq, coeffs.dirichlet)
    seq_rows = {}
    for g in range(seq.n_local):
        lo, hi = A_seq.csr.indptr[g], A_seq.csr.indptr[g + 1]
        cols = tuple(int(seq.true_keys[c]) for c in A_seq.csr.indices[lo:hi])
        seq_rows[int(seq.true_keys[g])] = (
            cols,
            A_seq.csr.data[lo:hi].copy(),
            b_seq.values[g],
        )

    def body(ctx):
        A, b = assemble_cdr(ctx, coeffs, supg=True)
        apply_dirichlet(A, b, ctx, coeffs.dirichlet)
        ok = True
        for g in np.flatnonzero(ctx.block_mask):
            cols, data, rhs = seq_rows[int(ctx.true_keys[g])]
            lo, hi = A.csr.indptr[g], A.csr.indptr[g + 1]
            here = tuple(int(ctx.true_keys[c]) for c in A.csr.indices[lo:hi])
            ok = ok and here == cols
            ok = ok and np.array_equal(A.csr.data[lo:hi], data)
            ok = ok and b.values[g] == rhs
        return ok

    assert all(run_ranks(coarse, n_ranks, body))


def test_all_dirichlet_unit_problem():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 2, 2))
    coeffs = CdrCoefficients(
        eps=1.0, dirichlet=[DirichletPart(value=5.0, where=lambda x, y: True)]
    )
    A, b = assemble_cdr(ctx, coeffs)
    apply_dirichlet(A, b, ctx, coeffs.dirichlet)
    res = fgmres(A, b, tol=1e-12)
    assert res.converged
    assert np.allclose(res.x.values, 5.0, atol=1e-10)


def test_hemker_boundary_values():
    coarse, coeffs, _ = hemker_problem()
    ctx = seq_context(coarse)
    rows, values = dirichlet_dofs(ctx, coeffs.dirichlet)
    coords = ctx.dof_coords[rows]
    assert len(rows) > 0
    for (x, y), v in zip(coords, values):
        if abs(x + 3.0) < 1e-9:
            assert v == 0.0
        else:
            assert abs(x * x + y * y - 1.0) < 1e-9 and v == 1.0


def test_inflow_schedule_values():
    assert _inflow_schedule(0.5) == pytest.approx(np.sin(np.pi / 4))
    assert _inflow_schedule(1.5) == 1.0
    assert _inflow_schedule(2.5) == pytest.approx(np.sin(np.pi * 1.5 / 2))
    coarse, coeffs, _ = timedep_problem()
    from parfem.mesh import refine_uniform

    mesh = refine_uniform(refine_uniform(refine_uniform(coarse)))  # 32x32
    ctx = seq_context(mesh)
    rows, values = dirichlet_dofs(ctx, coeffs.dirichlet, t=0.5)
    coords = ctx.dof_coords[rows]
    inflow = [
        v
        for (x, y), v in zip(coords, values)
        if abs(x) < 1e-9 and 5 / 8 + 1e-9 < y < 6 / 8 - 1e-9
    ]
    assert len(inflow) == 3
    assert np.allclose(inflow, np.sin(np.pi / 4), atol=0, rtol=0)


def test_crank_nicolson_zero_stiffness_keeps_state():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 2, 2))
    M = assemble_mass(ctx)
    Z = M.combine(0.0, 0.0, M)  # zero matrix on the mass sparsity
    assert Z.csr.nnz == M.csr.nnz and not np.any(Z.csr.data)
    u0 = from_keys(ctx, lambda k: 1.0 + 0.25 * (k % 5))
    S, B = crank_nicolson_system(M, Z, 0.01)
    b, x0 = crank_nicolson_step(B, u0)
    u1 = np.linalg.solve(S.csr.toarray(), b.values)
    assert np.allclose(u1, u0.values, atol=1e-13)
    assert np.array_equal(x0.values, u0.values)


def test_crank_nicolson_scalar_decay():
    # A = M makes every mode obey u' = -u: one step maps 1 to the CN ratio
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 1, 1))
    M = assemble_mass(ctx)
    dt = 0.1
    u0 = DistVector(ctx, np.ones(ctx.n_local), L3)
    S, B = crank_nicolson_system(M, M, dt)
    b, _ = crank_nicolson_step(B, u0)
    u1 = np.linalg.solve(S.csr.toarray(), b.values)
    assert np.allclose(u1, (1 - dt / 2) / (1 + dt / 2), atol=1e-14)


def test_crank_nicolson_system_keeps_the_graph_layout():
    # on the two-rank timedep2d L3 space, rank 1's local order is not key
    # order; S and B must keep the columns of `matrix_graph` on every rank
    coarse, coeffs, supg = timedep_problem()
    mesh = coarse.refined.refined
    ownership = ownership_on_level(decompose(coarse, 2), 2)

    def body(rank, transport):
        ctx = build_rank_context(mesh, ownership, "q1", transport, rank)
        A, _ = assemble_cdr(ctx, coeffs, supg=supg)
        S, B = crank_nicolson_system(assemble_mass(ctx), A, 0.01, coeffs.dirichlet)
        graph = matrix_graph(ctx)[:2]  # int64; scipy stores them as int32
        return [
            all(map(np.array_equal, (m.csr.indptr, m.csr.indices), graph))
            for m in (S, B)
        ]

    assert spmd_run(2, body) == [[True, True], [True, True]]


def test_combine_rejects_a_different_layout():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 2, 2))
    M = assemble_mass(ctx)
    fewer = M.csr.copy()
    fewer.data[1] = 0.0
    fewer.eliminate_zeros()  # one entry less
    swapped = M.csr.copy()  # the same matrix, row 0's first two columns swapped
    swapped.indices[:2], swapped.data[:2] = swapped.indices[1::-1], swapped.data[1::-1]
    assert np.array_equal(swapped.toarray(), M.csr.toarray())
    for csr in (fewer, swapped):
        with pytest.raises(ValueError, match="layouts"):
            M.combine(1.0, 1.0, DistMatrix(ctx, csr))


def test_apply_dirichlet_keeps_the_rhs_level():
    # every rank knowing a boundary row writes the same bits, so a level-3
    # right-hand side stays level 3: restoring it from its masters changes
    # no copy
    coarse, coeffs, _ = poisson_mms_problem()

    def body(ctx):
        A, _ = assemble_cdr(ctx, coeffs)
        b = from_keys(ctx, lambda k: 1.0 + k % 7, level=L3)
        apply_dirichlet(A, b, ctx, coeffs.dirichlet)
        rows, values = dirichlet_dofs(ctx, coeffs.dirichlet)
        restored = DistVector(ctx, b.values.copy(), L0).restore(L3)
        return b.level, np.array_equal(b.values[rows], values), (
            restored.values.tobytes() == b.values.tobytes()
        )

    assert run_ranks(refine_uniform(coarse), 2, body) == [(L3, True, True)] * 2


def test_crank_nicolson_rejects_bad_dt():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 1, 1))
    M = assemble_mass(ctx)
    with pytest.raises(ValueError):
        crank_nicolson_system(M, M, 0.0)


def test_crank_nicolson_system_built_once_matches_per_step_formula():
    # the per-step formula: S and B summed and S's Dirichlet rows set anew
    # in every step; the system built once must give the same steps bitwise
    coarse, coeffs, supg = timedep_problem()
    ctx = seq_context(refine_uniform(coarse))
    A, _ = assemble_cdr(ctx, coeffs, supg=supg)
    M = assemble_mass(ctx)
    dt = 0.05
    S, B = crank_nicolson_system(M, A, dt, coeffs.dirichlet)
    u_old = u_new = from_keys(ctx, lambda k: np.sin(0.1 * (k % 97)))
    for n in range(4):
        t1 = (n + 1) * dt
        S_old = M.combine(1.0, 0.5 * dt, A)
        u_old.restore(L3)
        b_old = matvec(M.combine(1.0, -0.5 * dt, A), u_old)
        apply_dirichlet(S_old, b_old, ctx, coeffs.dirichlet, t=t1)
        b, x0 = crank_nicolson_step(B, u_new, coeffs.dirichlet, t1)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S.csr, part), getattr(S_old.csr, part))
        assert np.array_equal(b.values, b_old.values)
        assert np.array_equal(x0.values, u_new.values)
        u_old = DistVector(ctx, np.linalg.solve(S_old.csr.toarray(), b_old.values), L3)
        u_new = DistVector(ctx, np.linalg.solve(S.csr.toarray(), b.values), L3)
    assert np.any(u_new.values != 0.0)


class StreamwiseWidth(SupgParams):
    def cell_size(self, geo):
        x = geo.verts[..., 0]
        return x.max(axis=1) - x.min(axis=1)


def test_supg_nodal_exactness_1d_oracle():
    # with the streamwise cell width, the stabilized scheme reproduces the
    # exact nodal values of -eps u'' + u' = 0 on a tensor grid
    eps = 0.02
    mesh = build_rect_mesh(0, 1, 0, 1, 10, 3)
    coeffs = CdrCoefficients(
        eps=eps,
        b=(1.0, 0.0),
        dirichlet=[
            DirichletPart(value=0.0, where=lambda x, y: abs(x) < 1e-12),
            DirichletPart(value=1.0, where=lambda x, y: abs(x - 1) < 1e-12),
        ],
    )
    ctx = seq_context(mesh)
    A, b = assemble_cdr(ctx, coeffs, supg=True, supg_params=StreamwiseWidth(eps))
    apply_dirichlet(A, b, ctx, coeffs.dirichlet)
    res = fgmres(A, b, tol=1e-13, maxit=200)
    assert res.converged
    exact = lambda x: np.expm1(x / eps) / np.expm1(1.0 / eps)
    for (x, y), v in zip(ctx.dof_coords, res.x.values):
        assert abs(v - exact(x)) < 1e-10


def test_supg_tau_vanishes_without_convection():
    geo = cell_geometry(build_rect_mesh(0, 1, 0, 1, 2, 1), [0, 1])
    tau = SupgParams(eps=1e-6).tau(geo, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert tau[0] == 0.0 and tau[1] > 0.0


@pytest.mark.parametrize(
    "pe_range", [None, (1e-7, 9e-5), (1.0, 50.0), (50.5, 1e6)],
    ids=["b0", "pe-below-1e-4", "pe-1-to-50", "pe-above-50"],
)
def test_batched_tau_matches_scalar_formula(pe_range):
    # mean convection chosen per cell to put the Peclet number in one regime
    mesh = refine_uniform(build_hemker_mesh())
    geo = cell_geometry(mesh, np.arange(mesh.n_cells))
    eps = 1e-3
    b_mean = np.zeros((len(geo.verts), 2))
    if pe_range is not None:
        pe = np.geomspace(*pe_range, len(b_mean))
        speed = 2.0 * eps * pe / geo.diameter
        b_mean[:] = speed[:, None] * np.array([0.6, -0.8])
    tau = SupgParams(eps).tau(geo, b_mean.T)
    want = np.array([scalar_supg_tau(eps, h, b) for h, b in zip(geo.diameter, b_mean)])
    ulp = np.spacing(np.abs(want))
    if pe_range == (1.0, 50.0):
        # numpy's vectorised tanh and the C library's differ in the last bit,
        # and coth(Pe) - 1/Pe cancels up to 3/4 of the leading digits (at
        # Pe = 1), so the bound is in ulps of the unsubtracted h/(2|b|) coth(Pe)
        ulp = 4.0 * np.spacing(geo.diameter / (2.0 * speed) / np.tanh(pe))
    assert np.all(np.abs(tau - want) <= ulp)
    assert np.all(tau == 0.0) == (pe_range is None)


def test_l2_error_exact_function():
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(ctx):
        u = DistVector(ctx, ctx.dof_coords[:, 0] + 2 * ctx.dof_coords[:, 1], L3)
        exact = lambda p: p[:, 0] + 2 * p[:, 1]
        return l2_error(ctx, u, exact)

    for err in run_ranks(mesh, 2, body):
        assert err < 1e-13


def test_solution_writers(tmp_path):
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(mesh)
    u = from_keys(ctx, lambda k: float(k % 11))
    write_solution_vtk(ctx, u, tmp_path / "sol.vtk")
    assert "POINT_DATA" in (tmp_path / "sol.vtk").read_text()

    merged = merge_master_values([(ctx.true_keys, u.values, ctx.master_mask)])
    write_merged_solution(tmp_path / "merged.txt", merged)
    lines = (tmp_path / "merged.txt").read_text().strip().splitlines()
    assert len(lines) == ctx.n_local
    assert all(":" in line for line in lines)


def _variable_wind(p):
    # no convection left of x = -2, so SUPG is off in some cells
    b = np.stack([1.0 + 0.5 * p[:, 1], -0.25 + 0.1 * p[:, 0]], axis=1)
    return np.where(p[:, 0:1] < -2.0, 0.0, b)


VARIABLE_CDR = CdrCoefficients(
    eps=1e-3,
    b=_variable_wind,
    c=lambda p: 1.0 + p[:, 0] ** 2,
    f=lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]),
)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [1, 2])
def test_batched_assembly_matches_per_cell_oracle(elem, n_ranks):
    mesh = refine_uniform(build_hemker_mesh())  # O-grid ring of bilinear cells

    def body(ctx):
        A, b = assemble_cdr(ctx, VARIABLE_CDR, supg=True)
        A_ref, b_ref = loop_assemble_cdr(ctx, VARIABLE_CDR, supg=True)
        M_ref = loop_assemble_mass(ctx)
        coords_ref = loop_dof_coordinates(ctx.dof_map, ctx.mesh)
        return (
            _rel_err(A.csr.toarray(), A_ref),
            _rel_err(b.values, b_ref),
            _rel_err(assemble_mass(ctx).csr.toarray(), M_ref),
            np.max(np.abs(ctx.dof_coords - coords_ref)),
        )

    for errs in run_ranks(mesh, n_ranks, body, elem):
        assert max(errs[:3]) < 1e-12
        assert errs[3] <= 1e-12


def two_step_matrix_graph(ctx):
    """(indptr, indices, cell_pos) by a sorted unique of the entry codes and a
    binary search of every code in it (oracle of `matrix_graph`)."""
    n = ctx.n_local
    dofs = ctx.dof_map.table
    by_key = np.argsort(ctx.true_keys, kind="stable")
    key_rank = np.empty(n, dtype=np.int64)
    key_rank[by_key] = np.arange(n)
    nd = dofs.shape[1]
    codes = np.repeat(dofs, nd, axis=1) * n + key_rank[np.tile(dofs, nd)]
    pattern = sorted_unique(codes)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pattern // n, minlength=n))])
    return indptr, by_key[pattern % n], np.searchsorted(pattern, codes)


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [1, 3])
def test_matrix_graph_bitwise_equals_two_step_construction(elem, n_ranks):
    mesh = refine_uniform(build_hemker_mesh())

    def body(ctx):
        got, want = matrix_graph(ctx), two_step_matrix_graph(ctx)
        return all(
            g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
            for g, w in zip(got, want)
        )

    assert all(run_ranks(mesh, n_ranks, body, elem))


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [1, 3])
def test_dirichlet_rows_match_per_edge_oracle(elem, n_ranks):
    coarse, hemker, _ = hemker_problem()
    _, timedep, _ = timedep_problem()
    square = refine_uniform(build_rect_mesh(0, 1, 0, 1, 4, 4))
    cases = [
        (refine_uniform(coarse), hemker.dirichlet, 0.0),
        # h = 1/8: the inlet and outlet strips are one edge each
        (square, timedep.dirichlet, 0.5),
        (refine_uniform(square), timedep.dirichlet, 0.5),
    ]
    for mesh, parts, t in cases:

        def body(ctx):
            ok = True
            # values follow t while rows are cached; another list of parts
            # (here reversed, so a different part wins at junctions) is new
            for ps, when in ((parts, t), (parts, 2 * t), (parts[::-1], t), (parts, t)):
                rows, values = dirichlet_dofs(ctx, ps, when)
                rows_ref, values_ref = loop_dirichlet_dofs(ctx, ps, when)
                ok = ok and np.array_equal(rows, rows_ref)
                ok = ok and np.array_equal(values, values_ref)
            return ok

        assert all(run_ranks(mesh, n_ranks, body, elem))


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize(
    "problem",
    [hemker_problem, timedep_problem, poisson_mms_problem],
    ids=["hemker2d", "timedep2d", "poisson_mms"],
)
def test_dirichlet_rows_and_values_equal_the_one_rank_ones(problem, elem):
    # every rank marks exactly the known d.o.f.s that are Dirichlet at one
    # rank, and writes the one-rank value bit for bit
    coarse, coeffs, _ = problem()
    for level in (1, 2):
        mesh = coarse.refined if level == 1 else coarse.refined.refined
        seq = seq_context(mesh, elem)
        rows, values = dirichlet_dofs(seq, coeffs.dirichlet, 0.5)
        want = dict(zip(seq.true_keys[rows].tolist(), values.tolist()))
        for n_ranks in (2, 3, 4):
            ownership = ownership_on_level(decompose(coarse, n_ranks), level)

            def body(rank, transport):
                ctx = build_rank_context(mesh, ownership, elem, transport, rank)
                rows, values = dirichlet_dofs(ctx, coeffs.dirichlet, 0.5)
                keys = ctx.true_keys
                expected = np.flatnonzero(np.isin(keys, list(want)))
                expected_values = np.array([want[k] for k in keys[rows].tolist()])
                return np.array_equal(rows, expected) and (
                    values.tobytes() == expected_values.tobytes()
                )

            assert all(spmd_run(n_ranks, body)), (level, n_ranks)


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [2, 3, 4])
@pytest.mark.parametrize(
    "problem", [poisson_mms_problem, hemker_problem], ids=["poisson_mms", "hemker2d"]
)
def test_space_dependent_boundary_values_keep_level_3(problem, elem, n_ranks):
    # x + 2y differs from point to point, so every copy of a boundary d.o.f.
    # equals its master only if every rank evaluates the same point; on the
    # hemker2d mesh, unlike the dyadic unit square, a node's coordinates
    # taken in two of its cells can differ in the last bits
    parts = [DirichletPart(value=lambda p, t: p[:, 0] + 2.0 * p[:, 1],
                           where=lambda x, y: True)]
    coarse = problem()[0]
    mesh = coarse.refined.refined
    ownership = ownership_on_level(decompose(coarse, n_ranks), 2)

    def body(rank, transport):
        ctx = build_rank_context(mesh, ownership, elem, transport, rank)
        u = from_keys(ctx, lambda k: 1.0 + k % 7, level=L3)
        enforce_dirichlet_values(u, ctx, parts)
        rows, values = dirichlet_dofs(ctx, parts)
        exact = ctx.dof_coords[rows] @ np.array([1.0, 2.0])
        restored = DistVector(ctx, u.values.copy(), L0).restore(L3)
        return (
            u.level == L3
            and restored.values.tobytes() == u.values.tobytes()
            and np.allclose(values, exact, rtol=1e-14, atol=1e-14)
            and len(np.unique(values)) > 1
        )

    assert all(spmd_run(n_ranks, body))


def test_dirichlet_values_evaluated_once_per_parts_and_time(monkeypatch):
    # a time step enforces its boundary values twice at the same t (on the
    # right-hand side and on the solution): the second call reuses them
    calls = []
    values_at = DirichletPart.values_at

    def counting(self, points, t=0.0):
        calls.append(t)
        return values_at(self, points, t)

    monkeypatch.setattr(DirichletPart, "values_at", counting)
    _, timedep, _ = timedep_problem()
    parts = timedep.dirichlet
    ctx = seq_context(refine_uniform(refine_uniform(build_rect_mesh(0, 1, 0, 1, 4, 4))))
    rows, first = dirichlet_dofs(ctx, parts, 0.5)
    assert calls == [0.5, 0.5]  # once per part
    again_rows, again = dirichlet_dofs(ctx, parts, 0.5)
    assert len(calls) == 2
    assert np.array_equal(again_rows, rows) and again.tobytes() == first.tobytes()
    with pytest.raises(ValueError):
        again[0] = 2.0  # the kept values are read-only
    u = DistVector(ctx, np.zeros(ctx.n_local))
    enforce_dirichlet_values(u, ctx, parts, 0.5)
    assert len(calls) == 2 and u.values[rows].tobytes() == first.tobytes()
    for ps, t, n_calls in ((parts, 0.7, 4), (parts[::-1], 0.7, 6), (parts, 0.7, 8)):
        rows, values = dirichlet_dofs(ctx, ps, t)
        assert len(calls) == n_calls and calls[-1] == t
        rows_ref, values_ref = loop_dirichlet_dofs(ctx, ps, t)  # calls values_at
        assert np.array_equal(rows, rows_ref) and np.array_equal(values, values_ref)
        calls[n_calls:] = []
    assert np.any(values != first)  # the inflow moved between t = 0.5 and 0.7


def test_supg_cell_size_called_once_per_assembly():
    class CountingWidth(SupgParams):
        calls = 0

        def cell_size(self, geo):
            self.calls += 1
            return super().cell_size(geo)

    params = CountingWidth(VARIABLE_CDR.eps)
    ctx = seq_context(refine_uniform(build_hemker_mesh()))
    for n in (1, 2):
        assemble_cdr(ctx, VARIABLE_CDR, supg=True, supg_params=params)
        assert params.calls == n


def test_where_called_once_per_part_and_space():
    calls = []

    def counting(name, predicate):
        def where(x, y):
            calls.append((name, len(x)))
            return predicate(x, y)

        return where

    parts = [
        DirichletPart(value=0.0, where=counting("left", lambda x, y: abs(x) < 1e-12)),
        DirichletPart(value=1.0, where=counting("all", lambda x, y: True)),
    ]
    square = build_rect_mesh(0, 1, 0, 1, 4, 4)
    for mesh in (square, refine_uniform(square)):
        ctx = seq_context(mesh)
        for t in (0.0, 0.5):
            A, b = assemble_cdr(ctx, CdrCoefficients(eps=1.0))
            apply_dirichlet(A, b, ctx, parts, t)
            dirichlet_dofs(ctx, parts, t)
    # 16 boundary edges on the 4 x 4 square, 32 after one refinement
    assert calls == [("left", 16), ("all", 16), ("left", 32), ("all", 32)]


@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_hemker_cylinder_predicate_matches_circle_flags(elem):
    # the retired rule: a boundary edge is on the cylinder when both of its
    # end vertices carry the circle flag
    cylinder = hemker_problem()[1].dirichlet[1]
    element = get_element(elem)
    local = np.array([
        [element.vertex_dof[e], element.vertex_dof[(e + 1) % 4]]
        + [i for i, _ in element.edge_dofs[e]]
        for e in range(4)
    ])
    mesh = build_hemker_mesh()
    for level in range(4):
        ctx = seq_context(mesh, elem)
        cell, edge = np.nonzero(mesh.edge_counts[mesh.cell_edges] == 1)
        ends = mesh.edges[mesh.cell_edges[cell, edge]]
        flagged = np.isin(ends, mesh.circle).all(axis=1)
        x, y = mesh.vertices[ends].mean(axis=1).T
        assert np.array_equal(cylinder.where(x, y), flagged), level
        want = np.unique(ctx.dof_map.table[cell[:, None], local[edge]][flagged])
        rows, values = dirichlet_dofs(ctx, [cylinder])
        assert np.array_equal(rows, want) and np.all(values == 1.0), level
        mesh = mesh.refined


def _same_bytes(got, want):
    return all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want, strict=True)
    )


def _csr_arrays(csr):
    return csr.data, csr.indices, csr.indptr


def test_qsum_bitwise_equals_loop_over_q():
    # batch-last operands (i, q, cells) against the cells-first loop oracle
    rng = np.random.default_rng(7)
    n = 29
    for n_q, n_i, n_j in ((4, 4, 4), (9, 9, 9), (18, 9, 9), (9, 4, 9)):
        w = rng.random((n_q, n))
        test = rng.standard_normal((n_i, n_q, n))
        trial = rng.standard_normal((n_j, n_q, n))
        # stride 0 on the cell axis, as the basis values are in assembly
        shared = np.broadcast_to(rng.standard_normal((n_j, n_q, 1)), (n_j, n_q, n))
        for a, b in ((test, trial), (test, shared), (shared[:n_i], shared)):
            full = assembly._qsum(w, a, b)
            want = loop_qsum(w.T, a.transpose(2, 1, 0), b.transpose(2, 1, 0))
            assert _same_bytes([full], [want.transpose(1, 2, 0)])
            # a cell's entries do not depend on the rest of its batch
            part = assembly._qsum(w[:, :7], a[..., :7], b[..., :7])
            assert _same_bytes([part], [full[..., :7]])


BITWISE_PROBLEMS = {
    "poisson_mms": poisson_mms_problem,  # constant zero b and c, no SUPG
    "timedep2d": timedep_problem,  # callable c, SUPG
    "hemker2d": hemker_problem,  # SUPG
    # callable b, c and f; SUPG off for x < -2, so `on` is a strict subset
    "variable_cdr": lambda: (build_hemker_mesh(), VARIABLE_CDR, True),
}


@pytest.mark.parametrize("problem", sorted(BITWISE_PROBLEMS))
@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [1, 3])
def test_assembly_bitwise_equals_three_term_loop_oracle(problem, elem, n_ranks):
    coarse, coeffs, supg = BITWISE_PROBLEMS[problem]()

    def body(ctx):
        A, b = assemble_cdr(ctx, coeffs, supg=supg)
        A_ref, b_ref = three_term_assemble_cdr(ctx, coeffs, supg=supg)
        M, M_ref = assemble_mass(ctx), loop_qsum_mass(ctx)
        got = (*_csr_arrays(A.csr), b.values, *_csr_arrays(M.csr))
        return _same_bytes(got, (*_csr_arrays(A_ref), b_ref, *_csr_arrays(M_ref)))

    assert all(run_ranks(refine_uniform(coarse), n_ranks, body, elem))


@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_zero_coefficient_terms_are_not_contracted(monkeypatch, elem):
    calls = []
    qsum = assembly._qsum
    monkeypatch.setattr(
        assembly, "_qsum", lambda *args: calls.append(len(args[0])) or qsum(*args)
    )
    coarse, poisson, supg = poisson_mms_problem()
    ctx = seq_context(refine_uniform(coarse), elem)
    assemble_cdr(ctx, poisson, supg=supg)
    assert len(calls) == 1  # diffusion only
    calls.clear()
    # timedep2d: constant wind, callable reaction and SUPG on every cell
    coarse, timedep, supg = timedep_problem()
    assemble_cdr(seq_context(refine_uniform(coarse), elem), timedep, supg=supg)
    assert len(calls) == 4


def test_one_geometry_per_space(monkeypatch):
    built = []
    init = mapped_fe.CellGeometry.__init__

    def counting(self, verts):
        built.append(len(verts))
        init(self, verts)

    coarse, coeffs, supg = poisson_mms_problem()
    ctx = seq_context(refine_uniform(coarse), "q2")
    monkeypatch.setattr(mapped_fe.CellGeometry, "__init__", counting)
    A, b = assemble_cdr(ctx, coeffs, supg=supg)
    apply_dirichlet(A, b, ctx, coeffs.dirichlet)
    # one of the known cells; the boundary values take one more, of the
    # cells of the Dirichlet rows' true keys, on the global mesh
    rows, _ = dirichlet_dofs(ctx, coeffs.dirichlet)
    assert built == [ctx.mesh.n_cells, len(rows)]
    # the shared geometry places every d.o.f. where a fresh one does
    want = dof_coordinates(ctx.dof_map, ctx.mesh)
    assert _same_bytes([ctx.dof_coords], [want])
    # SUPG takes its Laplacians from the same geometry
    coarse, coeffs, supg = hemker_problem()
    ctx = seq_context(refine_uniform(coarse), "q2")
    built.clear()
    assemble_cdr(ctx, coeffs, supg=supg)
    assert supg and built == [ctx.mesh.n_cells]


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [1, 3])
def test_set_dirichlet_rows_bitwise_equals_isin_oracle(elem, n_ranks):
    coarse, coeffs, supg = hemker_problem()

    def body(ctx):
        A, _ = assemble_cdr(ctx, coeffs, supg=supg)
        rows, values = dirichlet_dofs(ctx, coeffs.dirichlet)
        want = isin_dirichlet_rows(A.csr, rows)
        A.set_dirichlet_rows(rows)
        return rows.size, _same_bytes(_csr_arrays(A.csr), _csr_arrays(want))

    sizes, same = zip(*run_ranks(refine_uniform(coarse), n_ranks, body, elem))
    assert all(same) and sum(sizes) > 0
