"""Benchmark harness: solver comparisons on scalar convection-diffusion runs.

Problems are desk-scale 2D versions of standard benchmarks: the steady
rectangle-minus-cylinder transport problem, a time-dependent inflow/outflow
transport on the unit square, and a manufactured Poisson solution.  The
harness hosts all logical ranks as threads over the in-process transport.
Every rank runs one body: set up the solver, then solve a list of steps per
repeat (one step for a steady problem, one per Crank-Nicolson step for
timedep2d); `mg_fgmres` builds the multigrid levels from `pick_coarse_level`
up, `coarse_direct` the one-level multigrid of the finest level (its V-cycle
is the coarse solve) and `ssor_fgmres` the finest level alone.  Timing wraps
the linear solves only.
With five repeats the reported time drops the fastest and slowest run and
averages the remaining three.  `main` runs one configuration, writes its
artifacts to the output directory and prints one summary line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import os
import sys
import time

import numpy as np

from .assembly import (
    CdrCoefficients,
    DirichletPart,
    apply_dirichlet,
    assemble_cdr,
    assemble_mass,
    crank_nicolson_step,
    crank_nicolson_system,
    enforce_dirichlet_values,
    merge_master_values,
    write_merged_solution,
    write_solution_vtk,
)
from .comm import ConsistencyLevel, spmd_run
from .dlinalg import DistVector, fgmres
from .mesh import build_hemker_mesh, build_rect_mesh
from .multigrid import (
    BlockSsor,
    MgPreconditioner,
    SsorPreconditioner,
    build_hierarchy,
    build_level,
    pick_coarse_level,
)
from .partition import decompose

logger = logging.getLogger(__name__)

PROBLEMS = ("hemker2d", "timedep2d", "poisson_mms")
ELEMENTS = ("q1", "q2")
SOLVERS = ("mg_fgmres", "ssor_fgmres", "coarse_direct")


@dataclasses.dataclass
class RunConfig:
    problem: str = "poisson_mms"
    element: str = "q1"
    levels: int = 3
    ranks: int = 1
    solver: str = "mg_fgmres"
    nu1: int = 2
    nu2: int = 2
    omega: float = 1.0
    restart: int = 50
    tol: float = 1e-10
    maxit: int = 500
    dt: float = 1e-2
    t_end: float = 3.0
    repeats: int = 1
    out_dir: str | None = None
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        floor = dict(levels=1, repeats=1, ranks=1, restart=1, maxit=1, nu1=0, nu2=0)
        ranges = [(f, getattr(self, f) >= m, f"at least {m}") for f, m in floor.items()]
        cells = _PROBLEM_BUILDERS[self.problem]()[0].n_cells  # decompose's limit
        ranges += [
            ("ranks", self.ranks <= cells, f"at most {cells}, the coarse cells"),
            ("element", self.element in ELEMENTS, "q1 or q2"),
            ("tol", self.tol > 0.0, "positive"),
            ("omega", 0.0 < self.omega < 2.0, "in (0, 2), the SSOR range"),
        ]
        if self.problem == "timedep2d":
            steps = round(self.t_end / self.dt) if self.dt > 0.0 else 0
            ranges += [
                ("dt", self.dt > 0.0, "positive"),
                ("t_end", steps >= 1, "at least one time step dt"),
            ]
        for name, ok, need in ranges:
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be {need}")


@dataclasses.dataclass
class RunReport:
    config: RunConfig
    repeats: list  # (iterations, seconds) per repeat
    iterations: int
    time: float
    converged: bool
    merged: dict
    residuals: list  # (step, [residual history])
    snapshots: dict  # time -> merged solution

    @property
    def exit_code(self) -> int:
        return 0 if self.converged else 2


def aggregate_time(times) -> float:
    """Mean of the middle three when there are five repeats, else plain mean."""
    times = sorted(times)
    if len(times) == 5:
        times = times[1:4]
    return float(np.mean(times))


def _inflow_schedule(t: float) -> float:
    if t <= 1.0:
        return math.sin(math.pi * t / 2.0)
    if t <= 2.0:
        return 1.0
    return math.sin(math.pi * (t - 1.0) / 2.0)


def hemker_problem():
    coeffs = CdrCoefficients(
        eps=1e-6,
        b=(1.0, 0.0),
        c=0.0,
        f=0.0,
        dirichlet=[
            DirichletPart(value=0.0, where=lambda x, y: abs(x + 3.0) < 1e-9),
            # the cylinder is the only boundary inside radius 2; its chord
            # midpoints lie at radius 0.92 or more
            DirichletPart(value=1.0, where=lambda x, y: x * x + y * y < 4.0),
        ],
    )
    return build_hemker_mesh(), coeffs, True


def timedep_problem():
    # inlet strip on x=0, outlet strip on x=1 kept Neumann, walls zero;
    # reaction in a tube of radius 0.1 around the inlet-outlet center line
    a = np.array([0.0, 11.0 / 16.0])
    d = np.array([1.0, 7.0 / 16.0]) - a
    d = d / np.linalg.norm(d)

    def reaction(p):
        rel = p - a
        dist = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
        return np.where(dist <= 0.1, 1.0, 0.0)

    # predicates on arrays of edge midpoints
    def on_inlet(x, y):
        return (abs(x) < 1e-9) & (5.0 / 8.0 - 1e-9 <= y) & (y <= 6.0 / 8.0 + 1e-9)

    def strictly_inside_outlet(x, y):
        return (abs(x - 1.0) < 1e-9) & (3.0 / 8.0 + 1e-9 < y) & (y < 4.0 / 8.0 - 1e-9)

    def strictly_inside_inlet(x, y):
        return (abs(x) < 1e-9) & (5.0 / 8.0 + 1e-9 < y) & (y < 6.0 / 8.0 - 1e-9)

    def on_wall(x, y):
        boundary = (abs(x) < 1e-9) | (abs(x - 1.0) < 1e-9)
        boundary |= (abs(y) < 1e-9) | (abs(y - 1.0) < 1e-9)
        # the open outlet strip stays Neumann; the open inlet strip keeps its
        # own value; junction vertices belong to the homogeneous wall
        return boundary & ~strictly_inside_outlet(x, y) & ~strictly_inside_inlet(x, y)

    coeffs = CdrCoefficients(
        eps=1e-6,
        b=(1.0, -0.25),
        c=reaction,
        f=0.0,
        dirichlet=[
            DirichletPart(value=lambda p, t: _inflow_schedule(t), where=on_inlet),
            DirichletPart(value=0.0, where=on_wall),
        ],
    )
    return build_rect_mesh(0.0, 1.0, 0.0, 1.0, 4, 4), coeffs, True


def poisson_mms_problem():
    pi = math.pi

    def forcing(p):
        return 2.0 * pi**2 * np.sin(pi * p[:, 0]) * np.sin(pi * p[:, 1])

    coeffs = CdrCoefficients(
        eps=1.0,
        b=(0.0, 0.0),
        c=0.0,
        f=forcing,
        dirichlet=[DirichletPart(value=0.0, where=lambda x, y: True)],
    )
    return build_rect_mesh(0.0, 1.0, 0.0, 1.0, 4, 4), coeffs, False


def mms_exact(p):
    return np.sin(math.pi * p[:, 0]) * np.sin(math.pi * p[:, 1])


_PROBLEM_BUILDERS = {
    "hemker2d": hemker_problem,
    "timedep2d": timedep_problem,
    "poisson_mms": poisson_mms_problem,
}


def _rank_body(rank, transport, config, coarse, coeffs, supg):
    """One rank's run: set up the solver, then solve every step per repeat.

    A steady problem is one step labelled 0 at t = 0 with the assembled
    right-hand side and a zero initial guess; timedep2d takes Crank-Nicolson
    steps n = 1..t_end/dt at t = n dt, each started from the previous solution.
    """
    if config.problem == "timedep2d":
        explicit = {}  # B = M - dt/2 A of the latest level, the finest at the end

        def discretize(ctx):
            A, _ = assemble_cdr(ctx, coeffs, supg=supg)
            S, explicit["B"] = crank_nicolson_system(
                assemble_mass(ctx), A, config.dt, coeffs.dirichlet
            )
            return S, None

        n_steps = round(config.t_end / config.dt)
        steps = [(n, n * config.dt) for n in range(1, n_steps + 1)]

        def step_system(u, t):
            return crank_nicolson_step(explicit["B"], u, coeffs.dirichlet, t_next=t)
    else:
        def discretize(ctx):
            A, b = assemble_cdr(ctx, coeffs, supg=supg)
            apply_dirichlet(A, b, ctx, coeffs.dirichlet)
            return A, b

        steps = [(0, 0.0)]

        def step_system(u, t):
            return rhs, u

    if config.solver == "ssor_fgmres":
        own = decompose(coarse, transport.n_ranks)
        ctx, matrix, rhs = build_level(
            coarse, own, config.levels - 1, config.element, discretize, transport, rank
        )
        precond = SsorPreconditioner(BlockSsor(ctx, matrix, config.omega))
    else:
        pick = pick_coarse_level(coarse, config.levels, config.element)
        hier = build_hierarchy(
            coarse, config.levels, config.element, discretize, transport, rank,
            nu1=config.nu1, nu2=config.nu2, omega=config.omega,
            coarse_level=pick if config.solver == "mg_fgmres" else config.levels - 1,
        )
        ctx, matrix, rhs = hier.finest.ctx, hier.finest.matrix, hier.finest.rhs
        precond = MgPreconditioner(hier)
    want = {round(t / config.dt) for t in config.snapshot_times}

    repeats = []
    for _ in range(config.repeats):
        u = DistVector(ctx)  # initial condition, matches the t=0 inflow of zero
        solve_time = 0.0
        iterations = 0
        converged = True
        residuals = []
        snapshots = {}
        for label, t in steps:
            b, x0 = step_system(u, t)
            t0 = time.perf_counter()
            res = fgmres(
                matrix,
                b,
                precond=precond,
                x0=x0,
                restart=config.restart,
                tol=config.tol,
                maxit=config.maxit,
            )
            solve_time += time.perf_counter() - t0
            iterations += res.iterations
            converged = converged and res.converged
            residuals.append((label, res.residuals))
            u = res.x
            enforce_dirichlet_values(u, ctx, coeffs.dirichlet, t=t)
            if label in want:
                u.restore(ConsistencyLevel.L3)
                snapshots[round(t, 10)] = (
                    ctx.true_keys.copy(),
                    u.values.copy(),
                    ctx.master_mask.copy(),
                )
        repeats.append((iterations, solve_time))
    u.restore(ConsistencyLevel.L3)
    if config.out_dir is not None:
        write_solution_vtk(
            ctx, u, os.path.join(config.out_dir, f"solution_rank{rank}.vtk")
        )
    return {
        "repeats": repeats,
        "converged": converged,
        "residuals": residuals,
        "solution": (ctx.true_keys, u.values, ctx.master_mask),
        "snapshots": snapshots,
    }


def run(config: RunConfig) -> RunReport:
    """Build the problem, launch the logical ranks, solve, write artifacts."""
    if config.solver != "mg_fgmres" and (config.nu1, config.nu2) != (2, 2):
        logger.warning(
            "smoothing counts nu1/nu2 are ignored by solver %s", config.solver
        )
    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
    coarse, coeffs, supg = _PROBLEM_BUILDERS[config.problem]()
    results = spmd_run(
        config.ranks, _rank_body, config, coarse, coeffs, supg, timeout=600.0
    )
    merged = merge_master_values([r["solution"] for r in results])
    snapshots = {}
    for t in results[0]["snapshots"]:
        snapshots[t] = merge_master_values([r["snapshots"][t] for r in results])
    per_repeat = []
    for i in range(config.repeats):
        its = results[0]["repeats"][i][0]
        secs = max(r["repeats"][i][1] for r in results)
        per_repeat.append((its, secs))
    report = RunReport(
        config=config,
        repeats=per_repeat,
        iterations=per_repeat[-1][0],
        time=aggregate_time([t for _, t in per_repeat]),
        converged=all(r["converged"] for r in results),
        merged=merged,
        residuals=results[0]["residuals"],
        snapshots=snapshots,
    )
    if config.out_dir is not None:
        _write_run_artifacts(report)
    return report


def _write_run_artifacts(report: RunReport):
    out = report.config.out_dir
    with open(os.path.join(out, "report.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["problem", "element", "solver", "levels", "ranks", "repeat",
             "iterations", "time_s", "converged"]
        )
        c = report.config
        for i, (its, secs) in enumerate(report.repeats):
            w.writerow(
                [c.problem, c.element, c.solver, c.levels, c.ranks, i, its,
                 f"{secs:.6f}", report.converged]
            )
        w.writerow(
            [c.problem, c.element, c.solver, c.levels, c.ranks, "aggregate",
             report.iterations, f"{report.time:.6f}", report.converged]
        )
    with open(os.path.join(out, "residuals.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "iteration", "residual"])
        for step, hist in report.residuals:
            for i, r in enumerate(hist):
                w.writerow([step, i, f"{r:.16e}"])
    write_merged_solution(os.path.join(out, "solution_merged.txt"), report.merged)


def scaling_value(r_min, t_min, r, t):
    """Scaling r_min*t_min / (r*t) of an r-rank run, e.g. 2*t_2/(8*t_8)."""
    return (r_min * t_min) / (r * t)


def parse_config(parser, argv=None, skip=()):
    """Parse `argv` with one flag per `RunConfig` field but `snapshot_times`
    and the fields in `skip` (underscores become dashes) beside the parser's
    own flags.  Returns (config, the other arguments as a dict); a value that
    `RunConfig` rejects is a usage error, as is an unknown choice."""
    choices = dict(problem=PROBLEMS, element=ELEMENTS, solver=SOLVERS)
    fields = [f for f in dataclasses.fields(RunConfig)
              if f.name not in ("snapshot_times", *skip)]
    for f in fields:
        default = "bench_out" if f.name == "out_dir" else f.default
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(default),
                            choices=choices.get(f.name), default=default)
    args = vars(parser.parse_args(argv))
    try:
        return RunConfig(**{f.name: args.pop(f.name) for f in fields}), args
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2 and the usage line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parfem-bench",
        description="scalar convection-diffusion solver benchmarks",
    )
    config, _ = parse_config(parser, argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    report = run(config)
    print(f"converged: {report.converged}  iterations: {report.iterations}  "
          f"solve time: {report.time:.4f}s")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
