import threading
from collections import Counter

import numpy as np
import pytest

from conftest import (
    CountingTransport,
    SplitBlockSsor,
    accumulated_master_solve,
    argsort_per_fine_dof_transfers,
    cells_of_dof,
    dense_ssor_sweep,
    invert_reference_map,
    loop_average_restore,
    loop_prolongate,
    loop_restrict_defect,
    of_class,
    restrict_function,
    seq_context,
    tril_triu_ssor_stores,
)
from parfem import multigrid
from parfem.assembly import (
    CdrCoefficients,
    DirichletPart,
    apply_dirichlet,
    assemble_cdr,
)
from parfem.assembly import assemble_mass, crank_nicolson_system
from parfem.bench_cli import hemker_problem, timedep_problem
from parfem.comm import Communicator, ConsistencyLevel, build_rank_context, spmd_run
from parfem.dlinalg import DistVector, fgmres
from parfem.mapped_fe import cell_geometry, get_element
from parfem.mesh import build_hemker_mesh, build_rect_mesh, refine_uniform
from parfem.multigrid import (
    BlockSsor,
    CoarseSolver,
    MgPreconditioner,
    SsorPreconditioner,
    build_hierarchy,
    prolongate,
    restrict_defect,
    transfer_matrices,
    transfer_operators,
    v_cycle,
)
from parfem.partition import DofClass, decompose

L0, L1, L2, L3 = ConsistencyLevel

POISSON = CdrCoefficients(
    eps=1.0, f=1.0, dirichlet=[DirichletPart(value=0.0, where=lambda x, y: True)]
)


def discretize_poisson(ctx):
    A, b = assemble_cdr(ctx, POISSON)
    apply_dirichlet(A, b, ctx, POISSON.dirichlet)
    return A, b


def build_on_ranks(coarse, n_levels, n_ranks, body, elem="q1", transport=None, **kw):
    def wrapped(rank, transport):
        hier = build_hierarchy(
            coarse, n_levels, elem, discretize_poisson, transport, rank, **kw
        )
        return body(hier)

    return spmd_run(n_ranks, wrapped, transport=transport)


def test_hierarchy_shares_level_meshes(monkeypatch):
    # one refinement per level for all rank threads, not one per rank
    import parfem.mesh

    refine, calls = parfem.mesh.refine_uniform, []

    def counting_refine(mesh):
        calls.append(mesh.level)
        return refine(mesh)

    monkeypatch.setattr(parfem.mesh, "refine_uniform", counting_refine)
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)
    meshes = build_on_ranks(
        coarse, 3, 3, lambda hier: [lvl.ctx.mesh for lvl in hier.levels]
    )
    assert meshes[0][0] is coarse
    for level in range(3):
        assert all(m[level] is meshes[0][level] for m in meshes)
    assert sorted(calls) == [0, 1]


def test_single_level_is_exact_preconditioner():
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(hier):
        res = fgmres(
            hier.finest.matrix,
            hier.finest.rhs,
            precond=MgPreconditioner(hier),
            tol=1e-10,
        )
        return res.iterations, res.converged

    for its, conv in build_on_ranks(coarse, 1, 2, body):
        assert conv and its <= 2


def test_hierarchy_meshes_and_ownership():
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(hier):
        sizes = [lvl.ctx.mesh.n_cells for lvl in hier.levels]
        ok = True
        for pos, lvl in enumerate(hier.levels[1:], start=1):
            parent_owner = hier.levels[pos - 1].ctx.ownership
            for g in range(lvl.ctx.mesh.n_cells):  # cell g is a child of g // 4
                ok = ok and lvl.ctx.ownership[g] == parent_owner[g // 4]
        return sizes, ok

    for sizes, ok in build_on_ranks(coarse, 3, 2, body):
        assert sizes == [16, 64, 256]
        assert ok


def test_smoother_on_every_level_but_the_coarsest():
    # the V-cycle solves level 0 by the coarse LU and never smooths it
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(hier):
        return [lvl.smoother for lvl in hier.levels]

    for smoothers in build_on_ranks(coarse, 3, 2, body):
        assert smoothers[0] is None
        assert all(isinstance(s, BlockSsor) for s in smoothers[1:])


def test_prolongate_constant():
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(hier):
        w = prolongate(hier, 0, np.ones(hier.levels[0].ctx.n_local))
        mask = hier.levels[1].ctx.block_mask
        return np.allclose(w[mask], 1.0, atol=1e-14)

    assert all(build_on_ranks(coarse, 2, 2, body))


def test_prolongate_center_hat_pattern():
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(hier):
        cc = hier.levels[0].ctx
        fc = hier.levels[1].ctx
        v = np.zeros(cc.n_local)
        center = np.flatnonzero(
            np.all(np.abs(cc.dof_coords - 0.5) < 1e-12, axis=1)
        )[0]
        v[center] = 1.0
        w = prolongate(hier, 0, v)
        expected = {
            (0.5, 0.5): 1.0,
            (0.25, 0.5): 0.5,
            (0.75, 0.5): 0.5,
            (0.5, 0.25): 0.5,
            (0.5, 0.75): 0.5,
            (0.25, 0.25): 0.25,
            (0.75, 0.25): 0.25,
            (0.25, 0.75): 0.25,
            (0.75, 0.75): 0.25,
        }
        for g, (x, y) in enumerate(fc.dof_coords):
            want = expected.get((round(x, 12), round(y, 12)), 0.0)
            if abs(w[g] - want) > 1e-14:
                return False
        return True

    assert all(build_on_ranks(coarse, 2, 1, body))


def test_prolongate_reproduces_linears():
    coarse = build_rect_mesh(0, 2, 0, 1, 2, 1)

    def body(hier):
        cc, fc = hier.levels[0].ctx, hier.levels[1].ctx
        w = prolongate(hier, 0, cc.dof_coords @ np.array([1.0, 2.0]) + 3.0)
        expected = fc.dof_coords @ np.array([1.0, 2.0]) + 3.0
        mask = fc.block_mask
        return np.max(np.abs(w[mask] - expected[mask])) < 1e-13

    assert all(build_on_ranks(coarse, 2, 2, body))


def _geometric_prolongation(hier):
    """Independent oracle: coarse basis evaluated at fine node coordinates."""
    cc, fc = hier.levels[0].ctx, hier.levels[1].ctx
    elem = get_element(cc.elem_kind)
    P = np.zeros((fc.n_local, cc.n_local))
    containing = cells_of_dof(fc.dof_map)
    for g in range(fc.n_local):
        x = fc.dof_coords[g]
        fine_cell = containing[g][0]
        parent = fine_cell // 4
        xi = invert_reference_map(cell_geometry(cc.mesh, [parent]), x)
        vals, _ = elem.eval([xi])
        P[g, cc.dof_map.cell_dofs[parent]] = vals[0]
    return P


@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_transfer_matches_geometric_oracle(elem, rng):
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(hier):
        cc, fc = hier.levels[0].ctx, hier.levels[1].ctx
        P = _geometric_prolongation(hier)
        v = rng.normal(size=cc.n_local)
        w = prolongate(hier, 0, v.copy())
        up_ok = np.max(np.abs(w - P @ v)) < 1e-12
        d = rng.normal(size=fc.n_local)
        r = restrict_defect(hier, 0, d.copy())
        down_ok = np.max(np.abs(r - P.T @ d)) < 1e-13
        return up_ok and down_ok

    assert all(build_on_ranks(coarse, 2, 1, body, elem=elem))


def _key_values(ctx, shift):
    """Consistent values: the same function of the global key on every rank."""
    return np.cos(0.37 * (ctx.true_keys % 1009) + shift)


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_transfer_operators_bitwise_equal_argsort_per_fine_dof(elem, n_ranks):
    # one row sort per coarse cell and R from P's master rows by `tocsc` give
    # P and R array for array (data, indices, indptr and their dtypes), on
    # curved O-grid level pairs 0-1 and 1-2
    T = transfer_matrices(get_element(elem))

    def body(hier):
        ok = True
        for level in (0, 1):
            cc, fc = hier.levels[level].ctx, hier.levels[level + 1].ctx
            got = transfer_operators(cc, fc, T)
            want = argsort_per_fine_dof_transfers(cc, fc, T)
            for g, w in zip(got, want, strict=True):
                ok = ok and type(g) is type(w) and g.shape == w.shape
                for name in ("data", "indices", "indptr"):
                    a, b = getattr(g, name), getattr(w, name)
                    ok = ok and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return ok

    assert all(build_on_ranks(build_hemker_mesh(), 3, n_ranks, body, elem=elem))


@pytest.mark.parametrize("n_ranks", [1, 2, 3])
@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_csr_transfers_match_cellwise_oracles(elem, n_ranks):
    # curved bilinear O-grid cells; level pairs 0-1 and 1-2; the prolongation
    # makes no all-to-all and gives a key the same bits on every rank, and the
    # restriction gives a key the same bits on every rank holding it in its
    # block (level 1), once the partial sums it leaves on level 0 are summed
    coarse = build_hemker_mesh()
    transport = CountingTransport(n_ranks)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def body(hier):
        ok, bits = True, []
        for level in (0, 1):
            cc, fc = hier.levels[level].ctx, hier.levels[level + 1].ctx
            v = DistVector(cc, _key_values(cc, level), L3)
            before = transport.all_to_alls[cc.rank]
            w = prolongate(hier, level, v.values.copy())
            ok = ok and transport.all_to_alls[cc.rank] == before
            w_loop = loop_prolongate(hier, level, v.copy())
            d = DistVector(fc, _key_values(fc, 0.5 + level), L3)
            r = restrict_defect(hier, level, d.values.copy())
            if level == 0:  # the coarse solve adds the partial sums
                cc.exchange.accumulate(r)
            r_loop = loop_restrict_defect(hier, level, d.copy())
            ok = ok and close(w, w_loop.values) and close(r, r_loop.values)
            rkeys = cc.true_keys[cc.block_mask]  # the restriction is level 1
            rbits = r[cc.block_mask].view(np.int64)  # compare the bits
            bits.append((
                dict(zip(fc.true_keys.tolist(), w.view(np.int64).tolist())),
                dict(zip(rkeys.tolist(), rbits.tolist())),
            ))
        return ok, bits

    results = build_on_ranks(coarse, 3, n_ranks, body, elem=elem, transport=transport)
    assert all(ok for ok, _ in results)
    for level in (0, 1):
        for transfer in (0, 1):  # prolongation, restriction
            first = {}
            for _, bits in results:
                for key, b in bits[level][transfer].items():
                    assert first.setdefault(key, b) == b, (level, transfer, key)


def test_restrict_prolongate_diagonal_positive():
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(hier):
        cc = hier.levels[0].ctx
        ok = True
        for j in range(cc.n_local):
            e = np.zeros(cc.n_local)
            e[j] = 1.0
            r = restrict_defect(hier, 0, prolongate(hier, 0, e))
            ok = ok and r[j] > 0.0
        return ok

    assert all(build_on_ranks(coarse, 2, 1, body))


def test_restrict_defect_parallel_matches_sequential(rng):
    coarse = build_rect_mesh(0, 2, 0, 1, 4, 2)
    fine_keyvals = {}

    def fine_fn(key):
        if key not in fine_keyvals:
            fine_keyvals[key] = rng.normal()
        return fine_keyvals[key]

    def body(hier):
        fc, cc = hier.levels[1].ctx, hier.levels[0].ctx
        vals = np.array([fine_fn(int(k)) for k in fc.true_keys])
        r = restrict_defect(hier, 0, vals)
        cc.exchange.accumulate(r)  # level 0 holds the ranks' partial sums
        return {
            int(cc.true_keys[g]): r[g]
            for g in np.flatnonzero(cc.master_mask)
        }

    seq = build_on_ranks(coarse, 2, 1, body)[0]
    for out in build_on_ranks(coarse, 2, 2, body):
        for key, val in out.items():
            assert abs(val - seq[key]) < 1e-12


def test_restrict_function_injection():
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(hier):
        cc, fc = hier.levels[0].ctx, hier.levels[1].ctx
        v = DistVector(cc, np.arange(float(cc.n_local)), L3)
        back = restrict_function(
            hier, 0, DistVector(fc, prolongate(hier, 0, v.values), L3)
        )
        ok = np.max(np.abs(back.values - v.values)) < 1e-14
        const = restrict_function(
            hier, 0, DistVector(fc, np.ones(fc.n_local), L3)
        )
        ok = ok and np.allclose(const.values, 1.0, atol=1e-15)
        # injected entries equal the fine values at coincident nodes exactly
        w = DistVector(fc, np.cos(np.arange(float(fc.n_local))), L3)
        inj = restrict_function(hier, 0, w)
        for g in range(cc.n_local):
            (x, y) = cc.dof_coords[g]
            match = np.flatnonzero(
                np.all(np.abs(fc.dof_coords - (x, y)) < 1e-12, axis=1)
            )
            ok = ok and inj.values[g] == w.values[match[0]]
        return ok

    assert all(build_on_ranks(coarse, 2, 1, body, elem="q2"))


def test_smoother_matches_dense_ssor():
    # a nonsymmetric matrix without Dirichlet rows, so every triangle entry
    # counts; the ω range covers the (2−ω) scaling of the two stores
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 2)
    for elem in ("q1", "q2"):
        ctx = seq_context(mesh, elem)
        A, b = assemble_cdr(ctx, CdrCoefficients(eps=1.0, b=(3.0, -1.5), c=1.0, f=1.0))
        x0 = np.cos(np.arange(float(ctx.n_local)))
        for omega in (0.7, 1.0, 1.3, 1.9):
            x = BlockSsor(ctx, A, omega=omega).smooth(x0.copy(), b.values, 1)
            oracle = dense_ssor_sweep(A.csr.toarray(), x0, b.values, omega)
            assert np.max(np.abs(x - oracle)) < 1e-13


def test_smoother_fixed_point_at_solution():
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)
    seq = seq_context(coarse)
    A_seq, b_seq = discretize_poisson(seq)
    exact = np.linalg.solve(A_seq.csr.toarray(), b_seq.values)
    exact_of_key = {int(k): exact[i] for i, k in enumerate(seq.true_keys)}

    def body(rank, transport):
        ownership = decompose(coarse, transport.n_ranks)
        ctx = build_rank_context(coarse, ownership, "q1", transport, rank)
        A, b = discretize_poisson(ctx)
        x = np.array([exact_of_key[int(k)] for k in ctx.true_keys])
        BlockSsor(ctx, A).smooth(x, b.values, sweeps=2)  # b is level 1
        want = np.array([exact_of_key[int(k)] for k in ctx.true_keys])
        return np.max(np.abs((x - want)[ctx.master_mask]))

    for drift in spmd_run(2, body):
        assert drift < 1e-11


def test_smoother_diagonal_matrix_one_sweep():
    import scipy.sparse as sp

    from parfem.dlinalg import DistMatrix

    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(mesh)
    D = DistMatrix(ctx, sp.diags(np.arange(1.0, 10.0)).tocsr())
    x = np.zeros(9)
    BlockSsor(ctx, D, omega=1.0).smooth(x, np.ones(9), sweeps=1)
    assert np.allclose(x, 1.0 / np.arange(1.0, 10.0), atol=1e-15)


def test_smoother_rejects_zero_diagonal():
    import scipy.sparse as sp

    from parfem.dlinalg import DistMatrix

    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(mesh)
    vals = np.arange(9.0)  # first diagonal entry is zero
    with pytest.raises(ValueError):
        BlockSsor(ctx, DistMatrix(ctx, sp.diags(vals).tocsr()))


@pytest.mark.parametrize("n_ranks", [1, 3])
@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_smoother_matches_split_block_ssor(elem, n_ranks):
    # one residual product of the block rows over all columns and one pair of
    # triangular solves per sweep against the split oracle (b_B - A_out x_out,
    # then two half-sweeps on A_bb): the same iteration, rounded differently;
    # at one rank, where the block is every d.o.f., both also match the
    # textbook componentwise sweeps
    coarse, coeffs, supg = hemker_problem()
    mesh = refine_uniform(coarse)

    def body(rank, transport):
        ownership = decompose(mesh, transport.n_ranks)
        ctx = build_rank_context(mesh, ownership, elem, transport, rank)
        A, b = assemble_cdr(ctx, coeffs, supg=supg)
        apply_dirichlet(A, b, ctx, coeffs.dirichlet)
        b.restore(L1)
        x0 = np.cos(0.37 * (ctx.true_keys % 1009))  # the same on every rank
        x = BlockSsor(ctx, A).smooth(x0.copy(), b.values, 2)
        want = DistVector(ctx, x0.copy(), L3)
        SplitBlockSsor(ctx, A.csr).smooth(want, b, 2)
        scale = np.max(np.abs(want.values))
        textbook_dev = None
        if transport.n_ranks == 1:
            textbook = x0
            for _ in range(2):
                textbook = dense_ssor_sweep(A.csr.toarray(), textbook, b.values)
            textbook_dev = np.max(np.abs(x - textbook)) / scale
        return np.max(np.abs(x - want.values)) / scale, textbook_dev

    out = spmd_run(n_ranks, body)
    assert all(dev <= 1e-14 for dev, _ in out)
    if n_ranks == 1:
        assert out[0][1] <= 1e-14


@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_fused_sweep_matches_average_then_restore(elem):
    # a 3-cell strip owned [0, 1, 2]: rank 0's halo cell 1 has its right edge
    # on the interface of ranks 1 and 2, so halo(alpha) d.o.f.s of rank 0
    # there have two block holders
    mesh = build_rect_mesh(0, 3, 0, 1, 3, 1)
    ownership = np.array([0, 1, 2])

    def body(rank, transport):
        ctx = build_rank_context(mesh, ownership, elem, transport, rank)
        # no Dirichlet rows: on the strip every Q1 d.o.f. lies on the boundary
        A, b = assemble_cdr(ctx, CdrCoefficients(eps=1.0, b=(1.0, 0.5), c=1.0, f=1.0))
        smoother = BlockSsor(ctx, A)
        ex = ctx.exchange
        alpha = of_class(ctx.classification, DofClass.HALO_ALPHA)
        two_holders = np.intersect1d(alpha, ex.settle_dofs[ex.settling.arrivals == 2])
        x0 = np.cos(0.37 * (ctx.true_keys % 1009) + rank)  # rank-dependent
        x = DistVector(ctx, x0.copy(), L2).restore(L3).values
        want = x.copy()
        smoother.smooth(x, b.values, sweeps=1)  # b is level 1
        smoother._sweep(want, b.values[smoother.block])
        loop_average_restore(ctx, want)
        return two_holders.size, x.tobytes() == want.tobytes()

    out = spmd_run(3, body)
    assert out[0][0] > 0
    assert all(same for _, same in out)


@pytest.mark.parametrize("elem", ["q1", "q2"])
def test_smoother_output_is_level_3_consistent(elem):
    # on the 3-cell strip every halo d.o.f. of the smoother's output already
    # holds its master's value bit for bit: restoring a copy tagged L0 to L3
    # changes nothing, from zero and from a rank-dependent start alike
    mesh = build_rect_mesh(0, 3, 0, 1, 3, 1)
    ownership = np.array([0, 1, 2])

    def body(rank, transport):
        ctx = build_rank_context(mesh, ownership, elem, transport, rank)
        A, b = assemble_cdr(ctx, CdrCoefficients(eps=1.0, b=(1.0, 0.5), c=1.0, f=1.0))
        smoother = BlockSsor(ctx, A)
        x0 = np.cos(0.37 * (ctx.true_keys % 1009) + rank)
        same = []
        x0 = DistVector(ctx, x0, L2).restore(L3).values
        for start, sweeps in ((None, 2), (x0, 1)):
            x = smoother.smooth(start, b.values, sweeps)  # b is level 1
            copy = DistVector(ctx, x.copy(), L0).restore(L3)
            same.append(copy.values.tobytes() == x.tobytes())
        halo = of_class(ctx.classification, DofClass.HALO_ALPHA, DofClass.HALO_BETA)
        return halo.size, all(same)

    out = spmd_run(3, body)
    assert all(n_halo > 0 for n_halo, _ in out)
    assert all(same for _, same in out)


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_smoother_one_all_to_all_per_sweep(sweeps):
    mesh = build_rect_mesh(0, 1, 0, 1, 6, 6)
    ownership = decompose(mesh, 3)
    transport = CountingTransport(3)

    def body(rank, transport):
        ctx = build_rank_context(mesh, ownership, "q2", transport, rank)
        A, b = discretize_poisson(ctx)
        smoother = BlockSsor(ctx, A)
        b.restore(L1)
        before = transport.all_to_alls[rank]
        smoother.smooth(np.zeros(ctx.n_local), b.values, sweeps)
        return transport.all_to_alls[rank] - before

    assert spmd_run(3, body, transport=transport) == [sweeps] * 3


@pytest.mark.parametrize("sweeps", [1, 3])
def test_smoothing_from_none_skips_one_product(monkeypatch, sweeps):
    # b - A·0 is b bit for bit, so a start from None equals a start from an
    # explicit zero vector bit for bit, with the first sweep's product skipped
    mesh = build_rect_mesh(0, 1, 0, 1, 6, 6)
    ownership = decompose(mesh, 3)
    products = Counter()  # per rank thread
    spmv = multigrid.spmv

    def counting_spmv(csr, x):
        products[threading.current_thread().name] += 1
        return spmv(csr, x)

    monkeypatch.setattr(multigrid, "spmv", counting_spmv)

    def body(rank, transport):
        ctx = build_rank_context(mesh, ownership, "q2", transport, rank)
        A, b = assemble_cdr(ctx, CdrCoefficients(eps=1.0, b=(1.0, 0.5), c=1.0, f=1.0))
        smoother = BlockSsor(ctx, A)
        name = threading.current_thread().name
        start = products[name]
        want = smoother.smooth(np.zeros(ctx.n_local), b.values, sweeps)
        mid = products[name]
        got = smoother.smooth(None, b.values, sweeps)  # b is level 1
        return mid - start, products[name] - mid, got.tobytes() == want.tobytes()

    assert spmd_run(3, body) == [(sweeps, sweeps - 1, True)] * 3


def test_v_cycle_from_the_solution_stays_there():
    # a V-cycle given x0 smooths from x0: at the exact solution every
    # residual, and so every correction, is zero up to rounding
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)
    seq = seq_context(coarse.refined.refined)
    A_seq, b_seq = discretize_poisson(seq)
    exact = np.linalg.solve(A_seq.csr.toarray(), b_seq.values)
    exact_of_key = {int(k): exact[i] for i, k in enumerate(seq.true_keys)}

    def body(hier):
        ctx = hier.finest.ctx
        want = np.array([exact_of_key[int(k)] for k in ctx.true_keys])
        x = v_cycle(hier, hier.finest.rhs, DistVector(ctx, want.copy(), L3))
        return np.max(np.abs((x.values - want)[ctx.master_mask]))

    for drift in build_on_ranks(coarse, 3, 2, body):
        assert drift < 1e-11


def test_v_cycle_collective_count():
    # 3 levels, V(2,2) with a level-0 right-hand side: one IMS restore of b;
    # per smoothed level 2 + 2 sweeps; one defect accumulation on level 1;
    # one coarse right-hand side, which sums the partial sums the restriction
    # leaves on level 0; the prolongation makes none
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)
    transport = CountingTransport(2)

    def body(hier):
        b = DistVector(hier.finest.ctx, hier.finest.rhs.values.copy(), L0)
        before = transport.all_to_alls[hier.finest.ctx.rank]
        v_cycle(hier, b)
        return transport.all_to_alls[hier.finest.ctx.rank] - before

    assert build_on_ranks(coarse, 3, 2, body, transport=transport) == [11, 11]


def test_v_cycle_collective_count_from_level_1():
    # the same V(2,2) on levels 1 and 2 alone: the IMS restore of b, 2 + 2
    # sweeps on level 2, and the coarse right-hand side on level 1, which
    # sums the restriction's partial sums; the prolongation makes none
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)
    transport = CountingTransport(2)

    def body(hier):
        assert [lvl.index for lvl in hier.levels] == [1, 2]
        b = DistVector(hier.finest.ctx, hier.finest.rhs.values.copy(), L0)
        before = transport.all_to_alls[hier.finest.ctx.rank]
        v_cycle(hier, b)
        return transport.all_to_alls[hier.finest.ctx.rank] - before

    counts = build_on_ranks(coarse, 3, 2, body, transport=transport, coarse_level=1)
    assert counts == [6, 6]


def test_v_cycle_builds_one_vector_and_restores_nothing(monkeypatch):
    # the cycle runs on value arrays: from a level-1 right-hand side and zero,
    # a V-cycle constructs one DistVector, its result, and restores nothing
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)
    built, restores = Counter(), Counter()  # per rank thread
    init, restore = DistVector.__init__, Communicator.restore

    def counting_init(self, *args, **kwargs):
        built[threading.current_thread().name] += 1
        init(self, *args, **kwargs)

    def counting_restore(self, *args):
        restores[threading.current_thread().name] += 1
        return restore(self, *args)

    monkeypatch.setattr(DistVector, "__init__", counting_init)
    monkeypatch.setattr(Communicator, "restore", counting_restore)

    def body(hier):
        b = hier.finest.rhs
        assert b.level == L1  # assembled on the halo cells too
        name = threading.current_thread().name
        before = built[name], restores[name]
        x = v_cycle(hier, b)
        return built[name] - before[0], restores[name] - before[1], x.level

    assert build_on_ranks(coarse, 3, 2, body) == [(1, 0, L3)] * 2


@pytest.mark.parametrize("n_levels", [1, 2])
def test_v_cycle_updates_x0_in_place(n_levels):
    # the result shares x0's array on every hierarchy, and x0 holds it
    def body(hier):
        x0 = DistVector(hier.finest.ctx, np.ones(hier.finest.ctx.n_local), L3)
        x = v_cycle(hier, hier.finest.rhs, x0)
        return x.values is x0.values and x.level == L3 and np.all(x.values != 1.0)

    assert all(build_on_ranks(build_rect_mesh(0, 1, 0, 1, 4, 4), n_levels, 2, body))


# global d.o.f.s on levels 0, 1, 2, and the level pick_coarse_level returns
# for levels 1..5
DOFS = {("rect", "q1"): (25, 81, 289), ("rect", "q2"): (81, 289),
        ("hemker", "q1"): (42, 140, 504)}
PICKED = {("rect", "q1"): [0, 0, 1, 1, 1], ("rect", "q2"): [0, 0, 0, 0, 0],
          ("hemker", "q1"): [0, 0, 1, 1, 1]}


@pytest.mark.parametrize("mesh, elem", list(PICKED))
def test_pick_coarse_level(mesh, elem):
    # the picked level's count is the global master count the ranks build
    # (summed over 2 ranks) and at most N_C; the next level, when it is below
    # the finest, has more
    if mesh == "hemker":
        coarse = build_hemker_mesh()
    else:
        coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def global_masters(level):
        def body(rank, transport):
            own = decompose(coarse, transport.n_ranks)
            ctx, *_ = multigrid.build_level(
                coarse, own, level, elem, lambda ctx: (), transport, rank
            )
            return int(ctx.master_mask.sum())

        return sum(spmd_run(2, body))

    dofs = DOFS[mesh, elem]
    assert [global_masters(l) for l in range(len(dofs))] == list(dofs)
    for levels, want in enumerate(PICKED[mesh, elem], start=1):
        picked = multigrid.pick_coarse_level(coarse, levels, elem)
        assert picked == want
        assert picked == 0 or picked < levels - 1  # never the finest
        if levels <= 2:
            assert picked == 0
        assert dofs[picked] <= multigrid.N_C
        if picked + 1 < levels - 1:
            assert dofs[picked + 1] > multigrid.N_C


def test_build_hierarchy_rejects_coarse_level_outside_the_levels():
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="coarse level"):
            build_hierarchy(coarse, 2, "q1", None, None, 0, coarse_level=bad)


def test_two_grid_contraction(rng):
    coarse = build_rect_mesh(0, 1, 0, 1, 8, 8)

    def body(hier):
        ctx = hier.finest.ctx
        A, b = hier.finest.matrix, hier.finest.rhs
        exact = np.linalg.solve(A.csr.toarray(), b.values)
        x = DistVector(ctx, exact + rng.normal(size=ctx.n_local), L3)
        e0 = np.max(np.abs(x.values - exact))
        v_cycle(hier, b, x)
        e1 = np.max(np.abs(x.values - exact))
        return e1 / e0

    factor = build_on_ranks(coarse, 2, 1, body, nu1=50, nu2=50)[0]
    assert factor < 0.1


def test_prolongation_reproduces_coarse_space(rng):
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)
    pts = rng.uniform(0.01, 0.99, size=(100, 2))

    def basis_matrix(ctx):
        elem = get_element(ctx.elem_kind)
        B = np.zeros((len(pts), ctx.n_local))
        for gid in sorted(ctx.rank_cells.own):
            geo = cell_geometry(ctx.mesh, [gid])
            dofs = ctx.dof_map.cell_dofs[gid]
            for k, p in enumerate(pts):
                xi = invert_reference_map(geo, p)
                if np.all(np.abs(xi) <= 1 + 1e-12):
                    vals, _ = elem.eval([xi])
                    B[k, dofs] = vals[0]
        return B

    def body(hier):
        cc, fc = hier.levels[0].ctx, hier.levels[1].ctx
        Bc, Bf = basis_matrix(cc), basis_matrix(fc)
        worst = 0.0
        for j in range(cc.n_local):
            e = np.zeros(cc.n_local)
            e[j] = 1.0
            w = prolongate(hier, 0, e)
            worst = max(worst, np.max(np.abs(Bf @ w - Bc[:, j])))
        return worst

    assert build_on_ranks(coarse, 2, 1, body, elem="q2")[0] < 1e-12


def test_v_cycle_deterministic_per_rank_count():
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(hier):
        b = hier.finest.rhs
        x = v_cycle(hier, b)
        return x.values.copy()

    a = build_on_ranks(coarse, 3, 2, body)
    b = build_on_ranks(coarse, 3, 2, body)
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


def test_ssor_preconditioner_reduces_iterations():
    coarse = build_rect_mesh(0, 1, 0, 1, 6, 6)

    def body(hier):
        fin = hier.finest
        plain = fgmres(fin.matrix, fin.rhs, tol=1e-10, maxit=500)
        ssor = fgmres(
            fin.matrix,
            fin.rhs,
            precond=SsorPreconditioner(fin.smoother),
            tol=1e-10,
            maxit=500,
        )
        return plain.iterations, ssor.iterations, ssor.converged

    # 24x24 finest: large enough that preconditioning beats spectral luck
    plain_its, ssor_its, conv = build_on_ranks(coarse, 3, 1, body)[0]
    assert conv and ssor_its < plain_its


def test_transfer_level_bounds():
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(hier):
        v = np.zeros(hier.levels[0].ctx.n_local)
        with pytest.raises(IndexError):
            prolongate(hier, 1, v)
        with pytest.raises(IndexError):
            restrict_defect(hier, -1, v)
        return True

    assert all(build_on_ranks(coarse, 2, 1, body))


def test_singular_coarse_matrix_detected():
    # pure Neumann diffusion has a constant nullspace: the gathered sparse LU
    # must refuse to factorize it
    coarse = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def discretize(ctx):
        return assemble_cdr(ctx, CdrCoefficients(eps=1.0))

    def body(rank, transport):
        build_hierarchy(coarse, 1, "q1", discretize, transport, rank)

    with pytest.raises(RuntimeError, match="singular"):
        spmd_run(1, body)


@pytest.mark.parametrize("n_ranks", [1, 2, 3])
def test_coarse_solver_matches_dense_sequential_solve(n_ranks):
    coarse, coeffs, supg = hemker_problem()

    def discretize(ctx):
        A, b = assemble_cdr(ctx, coeffs, supg=supg)
        apply_dirichlet(A, b, ctx, coeffs.dirichlet)
        return A

    def rhs(ctx):  # a smooth function of the global key, the same on every rank
        return DistVector(ctx, np.cos(0.01 * ctx.true_keys), L3)

    seq = seq_context(coarse, "q2")
    x_seq = np.linalg.solve(discretize(seq).csr.toarray(), rhs(seq).values)
    expected = dict(zip(seq.true_keys.tolist(), x_seq))

    def body(rank, transport):
        ownership = decompose(coarse, transport.n_ranks)
        ctx = build_rank_context(coarse, ownership, "q2", transport, rank)
        b = np.where(ctx.master_mask, rhs(ctx).values, 0.0)  # summed per key
        x = CoarseSolver(ctx, discretize(ctx)).solve(b)
        want = np.array([expected[k] for k in ctx.true_keys.tolist()])
        return np.max(np.abs(x - want)) <= 1e-12

    assert all(spmd_run(n_ranks, body))


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("mesh", ["rect", "hemker"])
def test_coarse_solve_of_partial_sums_bitwise_equals_accumulated_masters(
    mesh, elem, n_ranks
):
    # the coarse solve adds every rank's block values per key in ascending
    # rank, from -0.0 where one rank holds the key, else from 0.0; the oracle
    # sums the interface values from 0.0 first and then gathers the master
    # values.  From -0.0 everywhere, a key of one holder keeps its -0.0 and a
    # shared one sums to 0.0, and the solution shows the signs of its zeros
    coarse = build_rect_mesh(0, 1, 0, 1, 4, 4) if mesh == "rect" else build_hemker_mesh()

    def body(hier):
        cc, fc = hier.levels[0].ctx, hier.levels[1].ctx
        d = np.cos(0.37 * (fc.true_keys % 1009) + cc.rank)  # rank-dependent
        same = []
        for partial in (restrict_defect(hier, 0, d), np.full(cc.n_local, -0.0)):
            want = accumulated_master_solve(hier.coarse, cc, partial)
            got = hier.coarse.solve(partial)
            same.append(got.tobytes() == want.tobytes())
        return same

    out = build_on_ranks(coarse, 2, n_ranks, body, elem=elem)
    assert all(all(same) for same in out)


def test_coarse_solve_is_one_all_to_all_and_the_same_on_every_rank():
    # every rank factorises and solves the same global system, so a key that
    # several ranks know gets bitwise the same value on each of them (level 3
    # without an exchange)
    coarse, coeffs, supg = hemker_problem()
    transport = CountingTransport(3)

    def body(rank, transport):
        ownership = decompose(coarse, transport.n_ranks)
        ctx = build_rank_context(coarse, ownership, "q2", transport, rank)
        A, b = assemble_cdr(ctx, coeffs, supg=supg)
        apply_dirichlet(A, b, ctx, coeffs.dirichlet)
        solver = CoarseSolver(ctx, A)
        b = np.where(ctx.master_mask, np.cos(0.01 * ctx.true_keys), 0.0)
        before = transport.all_to_alls[rank]
        x = solver.solve(b)
        calls = transport.all_to_alls[rank] - before
        bits = x.view(np.int64)  # compare bit patterns, not values
        return calls, dict(zip(ctx.true_keys.tolist(), bits.tolist()))

    out = spmd_run(3, body, transport=transport)
    assert [calls for calls, _ in out] == [1, 1, 1]
    seen = {}
    shared = 0
    for _, bits in out:
        for key, b in bits.items():
            shared += key in seen
            assert seen.setdefault(key, b) == b
    assert shared > 0


def test_coarse_solver_rejects_key_without_master_row():
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 2, 2))
    A, _ = discretize_poisson(ctx)
    ctx.classification.is_master[0] = False  # no rank holds this row now
    with pytest.raises(RuntimeError, match="no master row"):
        CoarseSolver(ctx, A)


@pytest.mark.parametrize("elem", ["q1", "q2"])
@pytest.mark.parametrize("n_ranks", [1, 3])
def test_ssor_stores_bitwise_equal_tril_triu_construction(elem, n_ranks):
    """Both CSC stores match the `sp.tril`/`sp.triu` construction byte for
    byte: data, indices, indptr and nnz, with the lower store free of
    explicit zeros and the upper one keeping those of the Dirichlet rows."""
    coarse, hemker, _ = hemker_problem()
    tcoarse, timedep, _ = timedep_problem()

    def systems(ctx, tctx):
        A, b = discretize_poisson(ctx)
        yield A
        H, _ = assemble_cdr(ctx, hemker, supg=True)  # nonsymmetric
        apply_dirichlet(H, None, ctx, hemker.dirichlet)
        yield H
        T, _ = assemble_cdr(tctx, timedep, supg=True)
        yield crank_nicolson_system(assemble_mass(tctx), T, 0.01, timedep.dirichlet)[0]

    def body(rank, transport):
        ctxs = [
            build_rank_context(m, decompose(m, n_ranks), elem, transport, rank)
            for m in (refine_uniform(coarse), refine_uniform(refine_uniform(tcoarse)))
        ]
        ok, upper_zeros = True, 0
        for A in systems(*ctxs):
            for omega in (1.0, 1.3):
                got = BlockSsor(A.ctx, A, omega)._gstrs.args[1:]
                want = tril_triu_ssor_stores(A.ctx, A.csr, omega)
                ok = ok and all(
                    g == w if isinstance(w, int) else
                    g.dtype == w.dtype and g.tobytes() == w.tobytes()
                    for g, w in zip(got, want, strict=True)
                )
                ok = ok and np.all(got[2] != 0.0)
                upper_zeros += int(np.sum(got[7] == 0.0))
        return ok, upper_zeros

    ok, upper_zeros = zip(*spmd_run(n_ranks, body))
    assert all(ok) and sum(upper_zeros) > 0
