import csv
import dataclasses
import importlib.util
import os
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from parfem import bench_cli
from parfem.assembly import (
    apply_dirichlet,
    assemble_cdr,
    enforce_dirichlet_values,
    merge_master_values,
)
from parfem.bench_cli import (
    RunConfig,
    _inflow_schedule,
    aggregate_time,
    main,
    poisson_mms_problem,
    run,
    scaling_value,
)
from parfem.comm import ConsistencyLevel, Transport, spmd_run
from parfem.dlinalg import DistVector, fgmres
from parfem.multigrid import (
    BlockSsor,
    CoarseSolver,
    MgHierarchy,
    MgPreconditioner,
    SsorPreconditioner,
    build_hierarchy,
)


def test_aggregate_time_trims_five_repeats():
    assert aggregate_time([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert aggregate_time([100.0, 1.0, 3.0, 2.0, 4.0]) == 3.0


def test_aggregate_time_plain_mean_otherwise():
    assert aggregate_time([2.0, 4.0]) == 3.0
    assert aggregate_time([7.0]) == 7.0


def test_scaling_formula():
    assert scaling_value(2, 100.0, 8, 30.0) == pytest.approx(2 * 100 / (8 * 30))
    assert scaling_value(2, 100.0, 8, 30.0) == pytest.approx(0.8333333333)
    # equal times give r_min / r
    assert scaling_value(1, 5.0, 4, 5.0) == pytest.approx(0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(problem="nonsense")
    with pytest.raises(ValueError):
        RunConfig(solver="magic")
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(repeats=0)


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(ranks=0), "ranks"),
        (dict(restart=0), "restart"),
        (dict(maxit=0), "maxit"),
        (dict(nu1=-1), "nu1"),
        (dict(nu2=-1), "nu2"),
        (dict(omega=0.0), "omega"),
        (dict(omega=2.0), "omega"),
        (dict(problem="timedep2d", dt=0.0), "dt"),
        (dict(problem="timedep2d", t_end=0.001), "t_end"),
        (dict(problem="timedep2d", t_end=-1.0), "t_end"),
        (dict(levels=0), "levels"),
        (dict(element="q3"), "element"),
    ],
)
def test_config_rejects_out_of_range_values(fields, name):
    # each would otherwise fail inside the rank threads, divide by zero or
    # run zero iterations or steps without an error
    with pytest.raises(ValueError, match=f"^{name} = "):
        RunConfig(**fields)


@pytest.mark.parametrize(
    "problem, labels",
    [("poisson_mms", ["0"]), ("timedep2d", ["1", "2", "3", "4", "5"])],
    ids=["poisson_mms", "timedep2d"],
)
def test_run_writes_artifacts(problem, labels, tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(problem=problem, levels=3, ranks=2, t_end=0.05, out_dir=str(out))
    rep = run(cfg)
    assert rep.converged and rep.exit_code == 0
    for name in (
        "report.csv",
        "residuals.csv",
        "solution_merged.txt",
        "solution_rank0.vtk",
        "solution_rank1.vtk",
    ):
        assert (out / name).stat().st_size > 0, name
    text = (out / "report.csv").read_text()
    assert "aggregate" in text
    with open(out / "residuals.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({row["step"] for row in rows}, key=int) == labels
    # the last step's history: one row per residual, in iteration order
    last = [row for row in rows if row["step"] == labels[-1]]
    assert [int(row["iteration"]) for row in last] == list(range(len(last)))
    assert [float(row["residual"]) for row in last] == rep.residuals[-1][1]


def test_run_reproducible_bitwise():
    cfg = RunConfig(problem="poisson_mms", levels=2, ranks=2)
    a = run(cfg)
    b = run(cfg)
    assert a.iterations == b.iterations
    assert a.merged.keys() == b.merged.keys()
    for k in a.merged:
        assert a.merged[k] == b.merged[k]


def test_run_solution_equivalent_across_rank_counts():
    reps = {
        r: run(RunConfig(problem="poisson_mms", levels=2, ranks=r)) for r in (1, 2)
    }
    keys = reps[1].merged.keys()
    assert keys == reps[2].merged.keys()
    diff = max(abs(reps[1].merged[k] - reps[2].merged[k]) for k in keys)
    assert diff <= 100 * reps[1].config.tol


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(problem="timedep2d", levels=3, ranks=2, t_end=0.05),
        RunConfig(problem="hemker2d", levels=3, ranks=4, solver="ssor_fgmres"),
    ],
    ids=["timedep2d-q1-L3-r2", "hemker2d-q1-L3-r4-ssor"],
)
def test_run_bitwise_equal_on_one_core_and_unpinned(cfg, monkeypatch):
    """Pinning the rank threads changes where they run, not what they compute."""
    cpu = {min(os.sched_getaffinity(0))}
    set_affinity = os.sched_setaffinity
    masks = []

    def record(pid, mask):
        set_affinity(pid, mask)
        masks.append(mask)

    monkeypatch.setattr(os, "sched_setaffinity", record)
    pinned = run(cfg)
    assert masks == [cpu] * cfg.ranks  # every rank thread ran on one core

    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    unpinned = run(cfg)
    assert unpinned.iterations == pinned.iterations
    assert unpinned.residuals == pinned.residuals
    assert unpinned.merged == pinned.merged


def test_coarse_direct_solver():
    rep = run(RunConfig(problem="poisson_mms", levels=2, solver="coarse_direct"))
    assert rep.converged
    assert rep.iterations <= 2


def test_coarse_direct_solver_on_three_ranks_matches_one_rank():
    # every rank gathers and factorises the whole finest system
    reps = {
        r: run(RunConfig(problem="poisson_mms", levels=3, ranks=r,
                         solver="coarse_direct"))
        for r in (1, 3)
    }
    assert reps[3].converged and reps[3].iterations <= 2
    assert reps[3].merged.keys() == reps[1].merged.keys()
    assert max(abs(reps[3].merged[k] - v) for k, v in reps[1].merged.items()) <= 1e-12


@pytest.mark.parametrize(
    "problem, t_end", [("poisson_mms", 3.0), ("timedep2d", 0.1)]
)
def test_multigrid_iterations_do_not_depend_on_rank_count(problem, t_end):
    # the smoother's exchange refreshes halo(beta) too, so the interface-slave
    # rows of a multi-rank sweep read current values, not stale ones
    iterations = [
        run(RunConfig(problem=problem, levels=3, ranks=r, t_end=t_end)).iterations
        for r in (1, 2, 3, 4)
    ]
    assert iterations == [iterations[0]] * 4


def test_timedep_cross_rank_agreement_follows_the_solver_tolerance():
    # each of the 50 warm-started Crank-Nicolson solves stops at an absolute
    # residual of `tol` from the previous step's rank-dependent rounding, so
    # 1 and 4 ranks differ by about 3e-8 at tol 1e-10 and 3e-11 at tol 1e-12
    merged = [
        run(RunConfig(problem="timedep2d", levels=3, ranks=r, t_end=0.5, tol=1e-12))
        .merged
        for r in (1, 4)
    ]
    keys = sorted(merged[0])
    assert keys == sorted(merged[1])
    one, four = (np.array([m[k] for k in keys]) for m in merged)
    assert np.max(np.abs(four - one)) <= 1e-10


@pytest.mark.parametrize(
    "solver, mapper_requests, coarse_builds, smoothers",
    [("ssor_fgmres", 1, 0, 2), ("coarse_direct", 1, 1, 0), ("mg_fgmres", 2, 1, 2)],
)
def test_single_level_solvers_set_up_one_space(
    solver, mapper_requests, coarse_builds, smoothers, monkeypatch
):
    # ssor_fgmres and coarse_direct use only the finest level: one space (one
    # mapper negotiation), no hierarchy, and only their own smoother or LU;
    # mg_fgmres factorises level 1, the finest of at most N_C d.o.f.s below
    # the top, smooths level 2 and builds no level 0
    labels = [Counter(), Counter()]
    built = Counter()
    all_to_all, ssor_init = Transport.all_to_all, BlockSsor.__init__

    def counting_all_to_all(self, rank, chunks, label="a2a"):
        labels[rank][label] += 1
        return all_to_all(self, rank, chunks, label)

    def counting_ssor_init(self, *args, **kwargs):
        built["smoothers"] += 1
        ssor_init(self, *args, **kwargs)

    monkeypatch.setattr(Transport, "all_to_all", counting_all_to_all)
    monkeypatch.setattr(BlockSsor, "__init__", counting_ssor_init)
    rep = run(RunConfig(problem="poisson_mms", levels=3, ranks=2, solver=solver))
    assert rep.converged
    for per_rank in labels:
        assert per_rank["mapper-request"] == mapper_requests
        assert per_rank["coarse-build"] == coarse_builds
    assert built["smoothers"] == smoothers


def test_mg_from_level_1_matches_level_0_hierarchy(monkeypatch):
    # timedep2d q1 L3 factorises level 1 (81 d.o.f.s) and builds no level 0;
    # the full hierarchy down to level 0 takes the same iterations to the
    # same solution
    config = RunConfig(problem="timedep2d", levels=3, ranks=2, t_end=0.5)
    assert bench_cli.pick_coarse_level(bench_cli.timedep_problem()[0], 3, "q1") == 1
    sliced = run(config)
    monkeypatch.setattr(bench_cli, "pick_coarse_level", lambda *args: 0)
    full = run(config)
    assert sliced.converged and full.converged
    assert sliced.iterations == full.iterations
    assert sliced.merged.keys() == full.merged.keys()
    assert max(abs(sliced.merged[k] - v) for k, v in full.merged.items()) <= 1e-9


def solve_on_hierarchy_finest(config):
    """poisson_mms solved on the finest level of a whole multigrid hierarchy,
    the reference for the single-level setup: (merged solution, rank 0's
    residual history)."""
    coarse, coeffs, supg = poisson_mms_problem()

    def discretize(ctx):
        A, b = assemble_cdr(ctx, coeffs, supg=supg)
        apply_dirichlet(A, b, ctx, coeffs.dirichlet)
        return A, b

    def body(rank, transport):
        hier = build_hierarchy(
            coarse, config.levels, config.element, discretize, transport, rank,
            omega=config.omega,
        )
        fin = hier.finest
        if config.solver == "mg_fgmres":
            precond = MgPreconditioner(hier)
        elif config.solver == "ssor_fgmres":
            precond = SsorPreconditioner(BlockSsor(fin.ctx, fin.matrix, config.omega))
        else:  # the finest level's one-level multigrid: its coarse solve
            fin_only = MgHierarchy([fin], CoarseSolver(fin.ctx, fin.matrix))
            precond = MgPreconditioner(fin_only)
        res = fgmres(
            fin.matrix, fin.rhs, precond=precond, x0=DistVector(fin.ctx),
            restart=config.restart, tol=config.tol, maxit=config.maxit,
        )
        enforce_dirichlet_values(res.x, fin.ctx, coeffs.dirichlet)
        res.x.restore(ConsistencyLevel.L3)
        return res.residuals, (fin.ctx.true_keys, res.x.values, fin.ctx.master_mask)

    out = spmd_run(config.ranks, body)
    return merge_master_values([sol for _, sol in out]), out[0][0]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize(
    "solver, levels, ranks",
    [
        (solver, levels, ranks)
        for solver in ("ssor_fgmres", "coarse_direct")
        for levels in (1, 3)
        for ranks in (1, 2)
    ]
    + [("mg_fgmres", 1, 1), ("mg_fgmres", 1, 2)],
)
def test_single_level_setup_bitwise_equals_hierarchy_finest(solver, levels, ranks):
    # with one level, mg_fgmres's V-cycle is the coarse solve alone
    config = RunConfig(problem="poisson_mms", levels=levels, ranks=ranks, solver=solver)
    merged, residuals = solve_on_hierarchy_finest(config)
    rep = run(config)
    assert rep.converged
    assert bits(rep.residuals[-1][1]) == bits(residuals)
    assert rep.merged.keys() == merged.keys()
    assert bits(list(rep.merged.values())) == bits([merged[k] for k in rep.merged])


def test_nu_warning_for_non_mg_solver(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        run(RunConfig(problem="poisson_mms", levels=2, solver="ssor_fgmres", nu1=5))
    assert any("ignored" in rec.message for rec in caplog.records)


def test_cli_main(tmp_path):
    code = main(
        [
            "--problem",
            "poisson_mms",
            "--levels",
            "2",
            "--ranks",
            "2",
            "--out-dir",
            str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cli" / "report.csv").exists()


def test_cli_flags_are_the_config_fields(monkeypatch, capsys):
    configs = []
    report = SimpleNamespace(converged=True, iterations=0, time=0.0, exit_code=0)
    monkeypatch.setattr(bench_cli, "run", lambda c: configs.append(c) or report)
    assert main([]) == 0
    assert configs == [RunConfig(out_dir="bench_out")]
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
    fields = dataclasses.fields(RunConfig)
    want = ["--" + f.name.replace("_", "-") for f in fields]
    assert flags == [w for w in want if w != "--snapshot-times"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--ranks", "0"], "ranks"),
        (["--omega", "2.5"], "omega"),
        (["--levels", "0"], "levels"),
        (["--ranks", "17"], "ranks"),
        (["--problem", "timedep2d", "--ranks", "17"], "ranks"),
        (["--problem", "hemker2d", "--ranks", "29"], "ranks"),
    ],
)
def test_cli_main_out_of_range_flag_is_a_usage_error(argv, name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: parfem-bench")
    assert f"error: {name} = " in err


@pytest.mark.parametrize(
    "argv, error",
    [(["--problem", "foo"], "argument --problem: invalid choice: 'foo'"),
     (["--ranks", "17"], "ranks = 17 must be at most 16")],
)
def test_collective_counts_bad_flag_is_a_usage_error(argv, error, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "collective_counts.py"
    spec = importlib.util.spec_from_file_location("collective_counts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exit_info:
        script.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: {error}" in err


@pytest.mark.parametrize(
    "problem, cells", [("poisson_mms", 16), ("timedep2d", 16), ("hemker2d", 28)]
)
def test_config_takes_one_rank_per_coarse_cell(problem, cells):
    # one rank more is a usage error (test_cli_main_out_of_range_flag_...)
    assert RunConfig(problem=problem, ranks=cells).ranks == cells


def test_timedep_short_run_converges_every_step():
    # at levels 2 the inlet strip is a single edge between two wall junction
    # vertices, so Q1 has no inflow d.o.f. there; levels 3 is the coarsest Q1
    # mesh with a nonzero inflow
    rep = run(
        RunConfig(problem="timedep2d", levels=3, omega=1.25, t_end=0.05, dt=0.01)
    )
    assert rep.converged
    assert [step for step, _ in rep.residuals] == [1, 2, 3, 4, 5]
    assert all(len(hist) > 1 for _, hist in rep.residuals)  # every step iterates
    assert max(abs(v) for v in rep.merged.values()) > 1e-2


def test_timedep_q2_levels_2_inflow_at_the_strip_midpoint():
    # the inlet strip is one boundary edge whose midpoint lies inside it, so
    # the inlet part takes the edge and its Q2 midpoint d.o.f. carries the
    # inflow, the largest value of the solution
    rep = run(
        RunConfig(problem="timedep2d", element="q2", levels=2, ranks=2, t_end=0.05)
    )
    assert rep.converged
    assert [step for step, _ in rep.residuals] == [1, 2, 3, 4, 5]
    assert all(len(hist) > 1 for _, hist in rep.residuals)  # every step iterates
    assert max(abs(v) for v in rep.merged.values()) == _inflow_schedule(0.05)


@pytest.mark.xfail(
    strict=False,
    reason="the standard streamline-diffusion parameter leaves undershoots of "
    "about -0.5 behind the cylinder on desk-scale Q1 meshes (measured range "
    "(-0.51, 1.06)); the envelope holds for the overshoot side only",
)
def test_hemker_solution_envelope():
    rep = run(RunConfig(problem="hemker2d", levels=3, maxit=800))
    vals = np.array(list(rep.merged.values()))
    assert rep.converged
    assert vals.min() >= -0.2 and vals.max() <= 1.2


def test_hemker_solution_bounded_sanity():
    rep = run(RunConfig(problem="hemker2d", levels=3, maxit=800))
    vals = np.array(list(rep.merged.values()))
    assert rep.converged
    assert vals.max() <= 1.2  # overshoot side of the envelope
    assert np.all(np.abs(vals) < 2.0)  # no blow-up anywhere


def test_exit_code_two_when_not_converged():
    rep = run(RunConfig(problem="poisson_mms", levels=3, solver="ssor_fgmres",
                        maxit=2))
    assert not rep.converged
    assert rep.exit_code == 2
