import numpy as np
import pytest

from conftest import (
    loop_assemble_cdr,
    loop_assemble_mass,
    loop_dirichlet_dofs,
    loop_dof_coordinates,
    seq_context,
)
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
    l2_error,
    merge_master_values,
    write_merged_solution,
    write_solution_vtk,
)
from parfem.bench_cli import hemker_problem, timedep_problem, _inflow_schedule
from parfem.comm import ConsistencyLevel, build_rank_context, spmd_run
from parfem.dlinalg import DistVector, fgmres, from_keys, matvec, new_vector
from parfem.mesh import build_hemker_mesh, build_rect_mesh, refine_uniform
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
    assert np.allclose(A.diagonal(), 2.0 / 3.0)
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
    u0 = from_keys(ctx, lambda k: 1.0 + 0.25 * (k % 5))
    zero = new_vector(ctx)
    S, B = crank_nicolson_system(M, Z, 0.01)
    b, x0 = crank_nicolson_step(B, zero, zero, u0, 0.01)
    u1 = np.linalg.solve(S.csr.toarray(), b.values)
    assert np.allclose(u1, u0.values, atol=1e-13)
    assert np.array_equal(x0.values, u0.values)


def test_crank_nicolson_scalar_decay():
    # A = M makes every mode obey u' = -u: one step maps 1 to the CN ratio
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 1, 1))
    M = assemble_mass(ctx)
    dt = 0.1
    u0 = DistVector(ctx, np.ones(ctx.n_local), L3)
    zero = new_vector(ctx)
    S, B = crank_nicolson_system(M, M, dt)
    b, _ = crank_nicolson_step(B, zero, zero, u0, dt)
    u1 = np.linalg.solve(S.csr.toarray(), b.values)
    assert np.allclose(u1, (1 - dt / 2) / (1 + dt / 2), atol=1e-14)


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
    u_old = u_new = new_vector(ctx)
    for n in range(4):
        t1 = (n + 1) * dt
        f0 = from_keys(ctx, lambda k: np.sin(0.1 * (k % 97) + n))
        f1 = from_keys(ctx, lambda k: np.cos(0.1 * (k % 89) + n))
        S_old = M.combine(1.0, 0.5 * dt, A)
        u_old.restore(L3)
        b_old = matvec(M.combine(1.0, -0.5 * dt, A), u_old)
        b_old.values += 0.5 * dt * f0.values
        b_old.values += 0.5 * dt * f1.values
        apply_dirichlet(S_old, b_old, ctx, coeffs.dirichlet, t=t1)
        b, x0 = crank_nicolson_step(B, f0, f1, u_new, dt, coeffs.dirichlet, t1)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S.csr, part), getattr(S_old.csr, part))
        assert np.array_equal(b.values, b_old.values)
        assert np.array_equal(x0.values, u_new.values)
        u_old = DistVector(ctx, np.linalg.solve(S_old.csr.toarray(), b_old.values), L3)
        u_new = DistVector(ctx, np.linalg.solve(S.csr.toarray(), b.values), L3)
    assert np.any(u_new.values != 0.0)


class StreamwiseWidth(SupgParams):
    def cell_size(self, cell):
        return cell.verts[:, 0].max() - cell.verts[:, 0].min()


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
    params = SupgParams(eps=1e-6)

    class FakeMap:
        diameter = 0.5

        @property
        def verts(self):
            raise AssertionError("unused")

    assert params.tau(FakeMap(), np.zeros(2)) == 0.0


def test_wind_argument_replaces_analytic_field():
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    b_const = (1.0, -0.25)
    coeffs_analytic = CdrCoefficients(eps=0.1, b=b_const)
    coeffs_wind = CdrCoefficients(eps=0.1)

    def body(ctx):
        A_ref, _ = assemble_cdr(ctx, coeffs_analytic)
        wx = DistVector(ctx, np.full(ctx.n_local, b_const[0]), L0)
        wy = DistVector(ctx, np.full(ctx.n_local, b_const[1]), L0)
        wx.values[~ctx.master_mask] = 777.0  # garbage the restore must fix
        wy.values[~ctx.master_mask] = -777.0
        A, _ = assemble_cdr(ctx, coeffs_wind, wind=(wx, wy))
        ok = wx.level == L3 and wy.level == L3
        diff = np.max(np.abs((A.csr - A_ref.csr).toarray()))
        return ok and diff < 1e-13

    assert all(run_ranks(mesh, 2, body))


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
