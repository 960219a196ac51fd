import numpy as np
import pytest
import scipy.sparse as sp

from conftest import CountingTransport, dense_gmres, loop_fgmres_mgs, seq_context
from parfem.assembly import CdrCoefficients, DirichletPart, apply_dirichlet, assemble_cdr
from parfem.comm import (
    ConsistencyLevel,
    Relation,
    build_rank_context,
    spmd_run,
)
from parfem.dlinalg import (
    DistMatrix,
    DistVector,
    axpy,
    dot,
    fgmres,
    from_keys,
    matvec,
    new_vector,
    norm2,
    spmv,
)
from parfem.mesh import build_rect_mesh
from parfem.partition import decompose

L0, L1, L2, L3 = ConsistencyLevel

POISSON = CdrCoefficients(
    eps=1.0,
    f=1.0,
    dirichlet=[DirichletPart(value=0.0, where=lambda x, y: True)],
)

CONVECTION = CdrCoefficients(
    eps=0.02,
    b=(1.0, 0.5),
    f=1.0,
    dirichlet=[DirichletPart(value=0.0, where=lambda x, y: True)],
)


def poisson_system(ctx, coeffs=POISSON):
    A, b = assemble_cdr(ctx, coeffs)
    apply_dirichlet(A, b, ctx, coeffs.dirichlet)
    return A, b


def run_ranks(mesh, n_ranks, body, elem="q1", transport=None):
    ownership = decompose(mesh, n_ranks)

    def wrapped(rank, transport):
        return body(build_rank_context(mesh, ownership, elem, transport, rank))

    return spmd_run(n_ranks, wrapped, transport=transport)


def jacobi_preconditioner(A):
    d = A.csr.diagonal()

    def apply(r):
        z = DistVector(A.ctx, r.values / d, r.level)
        z.restore(L2)
        return z

    return apply


def test_matvec_identity_diagonal():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(ctx):
        eye = sp.identity(ctx.n_local, format="csr")
        A = DistMatrix(ctx, eye)
        x = from_keys(ctx, float, level=L3)
        y = matvec(A, x)
        return np.array_equal(
            y.values[ctx.master_mask], x.values[ctx.master_mask]
        )

    assert all(run_ranks(m, 2, body))


def test_matvec_single_rank_equals_csr():
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)
    ctx = seq_context(m)
    A, b = poisson_system(ctx)
    x = from_keys(ctx, lambda k: np.sin(k) + 0.5)
    y = matvec(A, x)
    assert np.array_equal(y.values, A.csr @ x.values)


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_matvec_masters_match_sequential_bitwise(n_ranks):
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)
    value = lambda k: np.cos(0.1 * k) * (1 + (k % 7))
    seq_ctx = seq_context(m)
    A_seq, _ = poisson_system(seq_ctx)
    y_seq = matvec(A_seq, from_keys(seq_ctx, value))
    seq_of_key = {int(k): i for i, k in enumerate(seq_ctx.true_keys)}

    def body(ctx):
        A, _ = poisson_system(ctx)
        x = from_keys(ctx, value, level=L3)
        y = matvec(A, x)
        assert y.level == L1
        ok = True
        for g in np.flatnonzero(ctx.block_mask):  # masters + interface slaves
            ok = ok and y.values[g] == y_seq.values[seq_of_key[int(ctx.true_keys[g])]]
        return ok

    assert all(run_ranks(m, n_ranks, body))


def test_matvec_restores_input_below_l2():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(ctx):
        A = DistMatrix(ctx, sp.identity(ctx.n_local, format="csr"))
        x = from_keys(ctx, float, level=L0)
        y = matvec(A, x)
        return x.level == L2 and y.level == L0

    assert all(run_ranks(m, 2, body))


def test_matvec_dimension_mismatch():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(m)
    A = DistMatrix(ctx, sp.identity(ctx.n_local, format="csr"))
    other = seq_context(build_rect_mesh(0, 1, 0, 1, 3, 3))
    with pytest.raises(ValueError):
        matvec(A, new_vector(other))


def _csr(dense, index_dtype):
    A = sp.csr_matrix(dense)
    A.indptr = A.indptr.astype(index_dtype)
    A.indices = A.indices.astype(index_dtype)
    return A


def _random_csr(rng, n_rows, n_cols, index_dtype):
    dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.3)
    if n_rows > 3:
        dense[[1, n_rows - 1]] = 0.0  # empty rows, one of them the last
    return _csr(dense, index_dtype)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (0, 6), (6, 0), (1, 1)])
def test_spmv_equals_csr_product_bitwise(index_dtype, shape, rng):
    # spmv calls scipy's private CSR kernel; a scipy release that moves or
    # changes it fails here instead of at run time
    A = _random_csr(rng, *shape, index_dtype)
    assert A.indices.dtype == index_dtype
    x = rng.normal(size=shape[1]) * 10.0 ** rng.integers(-8, 9, size=shape[1])
    y = spmv(A, x)
    assert y.dtype == np.float64 and y.shape == (shape[0],)
    assert y.tobytes() == (A @ x).tobytes()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_spmv_strided_input_bitwise(index_dtype, rng):
    A = _random_csr(rng, 9, 6, index_dtype)
    V = rng.normal(size=(4, 6))  # rows like an FGMRES basis
    W = rng.normal(size=(12, 3))
    for x in (V[2], V[3, ::-1], W[::2, 1]):
        assert x.shape == (6,)
        assert spmv(A, x).tobytes() == (A @ x).tobytes()
    assert not W[::2, 1].flags.c_contiguous


def test_spmv_rejects_a_vector_of_the_wrong_length():
    A = _csr(np.ones((3, 4)), np.int32)
    for x in (np.ones(3), np.ones(5), np.ones((4, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(A, x)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
def test_dot_ones_gives_global_count(n_ranks):
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)

    def body(ctx):
        x = DistVector(ctx, np.ones(ctx.n_local), L3)
        return dot(x, x)

    assert all(v == 9.0 for v in run_ranks(m, n_ranks, body))


def test_dot_orthogonal():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(m)
    x = DistVector(ctx, np.eye(9)[0], L3)
    y = DistVector(ctx, np.eye(9)[4], L3)
    assert dot(x, y) == 0.0


def test_dot_matches_sequential_within_roundoff():
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)
    f = lambda k: np.sin(k * 0.01)
    g = lambda k: np.cos(k * 0.02)
    ctx = seq_context(m)
    ref = dot(from_keys(ctx, f), from_keys(ctx, g))

    def body(ctx):
        return dot(from_keys(ctx, f), from_keys(ctx, g))

    for v in run_ranks(m, 4, body):
        assert abs(v - ref) < 1e-13 * abs(ref)


def test_dot_ignores_slaves(rng):
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(ctx):
        x = from_keys(ctx, lambda k: 0.1 * k)
        y = from_keys(ctx, lambda k: 1.0 / (1 + k))
        before = dot(x, y)
        slaves = ~ctx.master_mask
        x.values[slaves] = rng.normal(size=slaves.sum()) * 1e6
        y.values[slaves] = rng.normal(size=slaves.sum()) * 1e6
        return before == dot(x, y)

    assert all(run_ranks(m, 3, body))


def test_axpy_tag_and_values():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(m)
    x = DistVector(ctx, np.arange(9.0), L3)
    y = DistVector(ctx, np.ones(9), L1)
    out = axpy(0.0, x, y)
    assert out is y
    assert np.array_equal(y.values, np.ones(9))
    assert y.level == L1  # min(L3, L1)

    y2 = DistVector(ctx, np.ones(9), L3)
    axpy(2.0, x, y2)
    assert np.array_equal(y2.values, 1.0 + 2.0 * np.arange(9.0))
    assert y2.level == L3

    y3 = DistVector(ctx, np.ones(9), L3)
    x3 = DistVector(ctx, np.arange(9.0), L1)
    axpy(1.0, x3, y3)
    assert y3.level == L1


def test_fgmres_identity_converges_immediately():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(m)
    A = DistMatrix(ctx, sp.identity(9, format="csr"))
    b = DistVector(ctx, np.arange(1.0, 10.0), L3)
    res = fgmres(A, b, tol=1e-10)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.x.values, b.values)


def test_fgmres_poisson_vs_dense_solve():
    m = build_rect_mesh(0, 1, 0, 1, 16, 16)
    ctx = seq_context(m)
    A, b = poisson_system(ctx)
    res = fgmres(A, b, precond=jacobi_preconditioner(A), tol=1e-10, maxit=600)
    assert res.converged
    exact = np.linalg.solve(A.csr.toarray(), b.values)
    assert np.max(np.abs(res.x.values - exact)) < 1e-8


def test_fgmres_residuals_decrease_across_restarts():
    m = build_rect_mesh(0, 1, 0, 1, 8, 8)
    ctx = seq_context(m)
    A, b = poisson_system(ctx)
    res = fgmres(A, b, restart=5, tol=1e-10, maxit=300)
    assert res.converged
    hist = res.residuals
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-10) for i in range(len(hist) - 1))
    for k in range(5, len(hist) - 1, 5):  # restart boundaries
        assert hist[k] < hist[k - 1]


def test_fgmres_rank_count_invariance():
    m = build_rect_mesh(0, 1, 0, 1, 16, 16)

    def body(ctx):
        A, b = poisson_system(ctx)
        res = fgmres(A, b, precond=jacobi_preconditioner(A), tol=1e-10, maxit=600)
        return res.iterations, res.residuals[-1], res.converged

    seq = run_ranks(m, 1, body)[0]
    par = run_ranks(m, 4, body)
    assert all(p[2] for p in par)
    assert all(p[0] == seq[0] for p in par)
    assert all(abs(p[1] - seq[1]) < 1e-9 for p in par)


def test_fgmres_identity_precond_matches_plain_gmres():
    m = build_rect_mesh(0, 1, 0, 1, 6, 6)
    ctx = seq_context(m)
    A, b = poisson_system(ctx)
    res = fgmres(A, b, restart=100, tol=1e-10, maxit=100)
    _, hist = dense_gmres(A.csr.toarray(), b.values, tol=1e-10)
    n = min(len(res.residuals), len(hist)) - 1  # final entry is the true residual
    for i in range(n):
        assert abs(res.residuals[i] - hist[i]) < 1e-12 * max(1.0, hist[0])


def test_fgmres_maxit_returns_result():
    m = build_rect_mesh(0, 1, 0, 1, 8, 8)
    ctx = seq_context(m)
    A, b = poisson_system(ctx)
    res = fgmres(A, b, tol=1e-14, maxit=3)
    assert not res.converged
    assert res.iterations == 3


def test_fgmres_csv_log(tmp_path):
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)
    ctx = seq_context(m)
    A, b = poisson_system(ctx)
    path = tmp_path / "log.csv"
    res = fgmres(A, b, tol=1e-10, csv_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual,wall_time_s"
    assert len(lines) >= res.iterations + 1


def test_fgmres_csv_log_closed_when_preconditioner_raises(tmp_path, monkeypatch):
    import builtins

    from parfem import dlinalg

    handles = []

    def recording_open(*args, **kwargs):
        handles.append(builtins.open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(dlinalg, "open", recording_open, raising=False)
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 4, 4))
    A, b = poisson_system(ctx)

    def failing(r):
        raise ArithmeticError("preconditioner failed")

    path = tmp_path / "log.csv"
    with pytest.raises(ArithmeticError):
        fgmres(A, b, precond=failing, csv_path=path)
    assert len(handles) == 1 and handles[0].closed
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,residual,wall_time_s"
    assert lines[1].startswith("0,")


def test_matrix_combine_levels_and_values():
    m = build_rect_mesh(0, 1, 0, 1, 2, 2)
    ctx = seq_context(m)
    A, _ = poisson_system(ctx)
    S = A.combine(2.0, -1.0, A)
    assert np.allclose(S.csr.toarray(), A.csr.toarray())
    assert S.level == L1


@pytest.mark.parametrize("lx", [L0, L1, L2, L3])
@pytest.mark.parametrize("ly", [L0, L1, L2, L3])
def test_axpy_tag_table(lx, ly):
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 2, 2))
    x = DistVector(ctx, np.ones(9), lx)
    y = DistVector(ctx, np.ones(9), ly)
    assert axpy(1.0, x, y).level == min(lx, ly)


@pytest.mark.parametrize("n_ranks", [1, 2, 3])
def test_fgmres_two_reductions_per_iteration(n_ranks):
    m = build_rect_mesh(0, 1, 0, 1, 12, 12)
    restart = 4
    transport = CountingTransport(n_ranks)

    def body(ctx):
        A, b = poisson_system(ctx)
        before = transport.reductions[ctx.rank]
        res = fgmres(A, b, precond=jacobi_preconditioner(A), restart=restart,
                     tol=1e-10, maxit=400)
        return res.iterations, res.converged, transport.reductions[ctx.rank] - before

    out = run_ranks(m, n_ranks, body, transport=transport)
    its, converged, reductions = out[0]
    assert converged and its > 3 * restart  # several restarts
    cycles = -(-its // restart)
    assert reductions <= 2 * its + 2 * cycles
    assert all(o == out[0] for o in out)


@pytest.mark.parametrize("coeffs", [POISSON, CONVECTION], ids=["poisson", "cdr"])
@pytest.mark.parametrize("n_ranks", [1, 3])
@pytest.mark.parametrize("restart", [7, 50])
def test_fgmres_matches_modified_gram_schmidt(coeffs, n_ranks, restart):
    m = build_rect_mesh(0, 1, 0, 1, 12, 12)

    def body(ctx):
        A, b = poisson_system(ctx, coeffs)
        P = jacobi_preconditioner(A)
        res = fgmres(A, b, precond=P, restart=restart, tol=1e-12, maxit=500)
        x_ref, its_ref, _ = loop_fgmres_mgs(A, b, P, restart=restart, tol=1e-12,
                                            maxit=500)
        masters = ctx.master_mask
        dev = np.max(np.abs(res.x.values[masters] - x_ref.values[masters]))
        return res.converged, res.iterations, its_ref, dev

    for converged, its, its_ref, dev in run_ranks(m, n_ranks, body):
        assert converged
        assert abs(its - its_ref) <= 1
        assert dev < 1e-10


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_fgmres_lucky_breakdown_stops_without_nan(n_ranks):
    m = build_rect_mesh(0, 1, 0, 1, 4, 4)

    def body(ctx):
        A = DistMatrix(ctx, sp.identity(ctx.n_local, format="csr"))
        # a unit vector: the first projection leaves exactly zero, and the
        # clamped norm sqrt(max(ww - h2.h2, 0)) is 0
        b = from_keys(ctx, lambda k: float(k == 0))
        res = fgmres(A, b, tol=1e-30, maxit=20)
        return res, b

    for res, b in run_ranks(m, n_ranks, body):
        assert res.iterations == 1
        assert np.all(np.isfinite(res.x.values)) and np.all(np.isfinite(res.residuals))
        masters = res.x.ctx.master_mask
        assert np.array_equal(res.x.values[masters], b.values[masters])
        assert res.converged


def test_fgmres_breakdown_after_invariant_subspace():
    # three distinct eigenvalues: the Krylov space is exhausted after three
    # steps, where the clamped norm drops to rounding level; with an
    # unreachable tolerance the later cycles break down the same way until
    # one no longer lowers the true residual (3+3+3+1+1 steps), which ends
    # the solve
    ctx = seq_context(build_rect_mesh(0, 1, 0, 1, 4, 4))
    n = ctx.n_local
    diag = np.array([1.0, 2.0, 5.0])[np.arange(n) % 3]
    A = DistMatrix(ctx, sp.diags(diag, format="csr"))
    b = DistVector(ctx, np.linspace(1.0, 2.0, n), L3)
    res = fgmres(A, b, tol=1e-30, maxit=20)
    assert not res.converged and res.iterations == 11
    assert np.all(np.isfinite(res.x.values)) and np.all(np.isfinite(res.residuals))
    assert res.residuals[3] < 1e-13  # after three steps
    assert np.max(np.abs(res.x.values - b.values / diag)) < 1e-13
