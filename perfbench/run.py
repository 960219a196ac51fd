"""parfem benchmark: time to a verified solution on three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a parfem source tree; parfem is imported from the
``src/`` directory next to this one.  A run of a workload is a closed loop in
this one process: an untimed warm-up at two levels, then pairs of full
``bench_cli.run`` calls back to back (``out_dir=None``, so no disk I/O is
timed) until the next pair would end after ``--seconds``.  Every call is
checked against the stored reference solution.

A ``--trace 0`` run pairs each call with one of the same workload on the
yardstick: the frozen copy of parfem in ``perfbench/seed_src``, imported as
``parfem_seed`` into the same process.  Its times are the medians of the
per-pair ratios program/yardstick, in seconds of the yardstick's median on
the machine the benchmark was sized on, so host-speed drift cancels.  A
``--trace 1`` run pairs each traced call with an untraced one.

The inputs are fixed meshes.  ``--seed`` only orders the two calls of each
pair after the first, which starts with the program.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of the
traced calls.  perfbench/README.md defines them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_SRC = HERE / "seed_src"  # parfem_seed: src/parfem at the benchmark's commit
OUT = HERE / "out"
REFERENCE = HERE / "reference"

# Only problem, element, levels, ranks, solver, t_end and out_dir are set on
# RunConfig; every other field keeps its default.
WORKLOADS = {
    # setup-heavy single-rank baseline; MG transfers dominate the solve
    "mms_q1_l5_r1": dict(
        problem="poisson_mms", element="q1", levels=5, ranks=1, solver="mg_fgmres"
    ),
    # latency-bound: 50 warm-started Crank-Nicolson solves at 2 ranks
    "timedep_q1_l3_r2": dict(
        problem="timedep2d", element="q1", levels=3, ranks=2, solver="mg_fgmres",
        t_end=0.5,
    ),
    # restarted FGMRES: Gram-Schmidt reductions, no MG transfers
    "mms_q2_l4_r2_ssor": dict(
        problem="poisson_mms", element="q2", levels=4, ranks=2,
        solver="ssor_fgmres",
    ),
}

# Median wall_s, setup_s and solve_s of the seed code, measured while the
# benchmark was sized; a --trace 0 run reports its per-pair ratios to the
# yardstick in these seconds.  They fix the scale and nothing else.
SEED_SECONDS = {
    "mms_q1_l5_r1": dict(wall_s=2.16, setup_s=1.79, solve_s=0.351),
    "timedep_q1_l3_r2": dict(wall_s=3.47, setup_s=0.636, solve_s=2.44),
    "mms_q2_l4_r2_ssor": dict(wall_s=2.45, setup_s=1.84, solve_s=0.622),
}
TIMES = ("wall_s", "setup_s", "solve_s")

TOLERANCE = 1e-8  # max-abs deviation from the reference (cross-rank tolerance)
DEADLINE_S = 170.0  # a hung collective must not keep the benchmark alive


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits without a result."""


def import_parfem(src=SRC, package="parfem"):
    """Import ``package`` from ``src``, never from an installed copy."""
    if not (src / package / "__init__.py").is_file():
        raise BenchError(f"no {package} sources under {src}")
    sys.path.insert(0, str(src))
    bench_cli = importlib.import_module(f"{package}.bench_cli")
    if Path(bench_cli.__file__).resolve().parents[1] != src:
        raise BenchError(f"imported parfem from {bench_cli.__file__}, not {src}")
    return bench_cli


def make_config(bench_cli, workload, warmup=False):
    fields = dict(WORKLOADS[workload], out_dir=None)
    if warmup:
        fields["levels"] = 2
        if "t_end" in fields:
            fields["t_end"] = 0.02
    return bench_cli.RunConfig(**fields)


def load_reference(workload):
    import numpy as np

    path = REFERENCE / f"{workload}.npz"
    if not path.is_file():
        raise BenchError(f"missing reference solution {path}")
    with np.load(path) as data:
        return data["keys"], data["values"]


def check(report, reference):
    """None if the run converged onto the reference, else the reason."""
    import numpy as np

    if not report.converged:
        return f"did not converge in {report.iterations} iterations"
    ref_keys, ref_values = reference
    keys = np.array(sorted(report.merged), dtype=np.int64)
    if not np.array_equal(keys, ref_keys):
        return f"solution has {keys.size} keys, the reference {ref_keys.size} others"
    values = np.array([report.merged[int(k)] for k in keys])
    dev = float(np.max(np.abs(values - ref_values), initial=0.0))
    if not dev <= TOLERANCE:
        return f"max-abs deviation {dev:.3e} from the reference exceeds {TOLERANCE:g}"
    return None


def calibration_probe():
    """Time fixed pure-Python and numpy work; it tracks the host's speed."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i % 7
    x = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(10):
        x = np.sqrt(x * 0.5 + 0.25)
    acc += int(np.sort(x[::7])[0] > 0.0)
    return time.perf_counter() - t0


def timed_call(bench_cli, tracing, config, tracer):
    """One full run() call: (report, wall_s, setup_s or None if traced)."""
    clock = tracing.SetupClock(bench_cli.__name__.partition(".")[0])
    with tracing.Patches() as patches:
        (tracer or clock).install(patches)
        t0 = time.perf_counter()
        report = bench_cli.run(config)
        wall = time.perf_counter() - t0
    if tracer is not None:
        return report, wall, None
    if len(clock.first_entry) != config.ranks:
        raise RuntimeError(
            f"{len(clock.first_entry)} of {config.ranks} ranks reached FGMRES"
        )
    return report, wall, max(clock.first_entry.values()) - t0


def measure(args, sides, tracing, reference, started):
    """Run pairs of calls until the next pair would end after --seconds.

    ``sides`` maps each kind of call to the bench_cli module it calls.
    Returns (calls, last tracer).  Each pair is an untraced call and either a
    traced call (``--trace 1``) or a yardstick call (``--trace 0``).  The
    first pair starts with the untraced call, so that ``peak_rss_mb`` is read
    before any other full call; the seed orders the others.  At least one
    pair is made.
    """
    rng = random.Random(args.seed)
    calls, durations, kept = [], [], None
    while True:
        pair = ["untraced", "traced" if args.trace else "yardstick"]
        if calls:
            rng.shuffle(pair)
        n_pair = len(durations) // 2
        for kind in pair:
            gc.collect()
            t_start = time.perf_counter()
            call = {"kind": kind, "pair": n_pair, "calib_s": calibration_probe()}
            tracer = tracing.Tracer() if kind == "traced" else None
            bench_cli = sides[kind]
            try:
                report, wall, setup = timed_call(
                    bench_cli, tracing, make_config(bench_cli, args.workload), tracer
                )
            except tracing.TraceTargetMissing:
                raise
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                call["error"] = traceback.format_exc(limit=6)
            else:
                call.update(
                    wall_s=wall,
                    solve_s=report.time,
                    iterations=report.iterations,
                    error=check(report, reference),
                )
                if setup is not None:
                    call["setup_s"] = setup
                if tracer is not None:
                    call["layers"], call["accounted_s"] = tracer.layer_metrics()
                    kept = tracer
                del report
            if not calls:
                call["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if call["error"] and kind == "yardstick":
                raise BenchError(f"the yardstick failed: {call['error']}")
            if call["error"]:
                print(f"perfbench: call {len(calls)} failed: {call['error']}",
                      file=sys.stderr)
            calls.append(call)
            durations.append(time.perf_counter() - t_start)
        elapsed = time.perf_counter() - started
        if elapsed + len(pair) * statistics.median(durations) > args.seconds:
            return calls, kept


def completed(calls, kind):
    """Calls of a kind that returned; those that passed, if any did."""
    done = [c for c in calls if c["kind"] == kind and "wall_s" in c]
    return [c for c in done if not c["error"]] or done


def end_to_end_metrics(workload, calls, failed):
    """Times: median per-pair ratio to the yardstick, in the seed's seconds."""
    rows = completed(calls, "untraced")
    yard = {c["pair"]: c for c in calls if c["kind"] == "yardstick"}
    paired = [(c, yard[c["pair"]]) for c in rows if c["pair"] in yard]
    metrics = {
        name: (SEED_SECONDS[workload][name]
               * statistics.median(c[name] / y[name] for c, y in paired), "s")
        for name in TIMES
    }
    metrics["iterations"] = (statistics.median(c["iterations"] for c in rows), "count")
    # after the first call: later calls can raise the process peak by a
    # varying amount as freed memory fragments, so the call count would show
    metrics["peak_rss_mb"] = (calls[0]["rss_mb"], "MB")
    metrics["pass_rate"] = (1.0 - failed / (len(calls) - len(yard)), "ratio")
    return metrics


def per_layer_metrics(calls, tracing):
    traced = completed(calls, "traced")
    untraced = completed(calls, "untraced")
    layers = [c["layers"] for c in traced]
    metrics = {
        name: (statistics.median(layer[name] for layer in layers), unit)
        for name, unit in tracing.METRIC_UNITS.items()
    }
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    coverage = [1.0 - c["layers"]["other_s"] / c["accounted_s"] for c in traced]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    metrics["trace.overhead"] = (
        traced_wall / statistics.median(c["wall_s"] for c in untraced), "ratio"
    )
    return metrics


def source_digest(package_dir):
    """SHA-256 over the sources of one parfem package."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(SRC / "parfem"),
        "seed_src_sha256": source_digest(SEED_SRC / "parfem_seed"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def report_text(env, calls, failed, metrics):
    """Human-readable lines printed before the JSON result."""
    attempted = sum(1 for c in calls if c["kind"] != "yardstick")
    lines = [f"env {json.dumps(env)}"]
    lines.append(f"{'fail_rate':<34} {failed / attempted:>12.4f} ratio "
                 f"({failed} of {attempted} calls failed)")
    for kind in ("untraced", "traced", "yardstick"):
        rows = completed(calls, kind)
        if rows:
            lines.append(f"{kind} wall_s per call: "
                         + " ".join(f"{c['wall_s']:.3f}" for c in rows))
            medians = {name: statistics.median(c[name] for c in rows)
                       for name in TIMES if all(name in c for c in rows)}
            lines.append(f"{kind} medians: "
                         + " ".join(f"{n} {v:.4g}" for n, v in medians.items()))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<34} {value:>12.6g} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    watchdog = threading.Timer(DEADLINE_S, _give_up)
    watchdog.daemon = True
    watchdog.start()

    try:
        bench_cli = import_parfem()
        reference = load_reference(args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing

    env = environment(args)
    ranks = WORKLOADS[args.workload]["ranks"]
    if ranks > env["nproc"]:
        print(f"perfbench: warning: {ranks} rank threads on {env['nproc']} cores",
              file=sys.stderr)
    # As many cores as ranks: the vCPUs of a shared host run at different
    # speeds, and a lone rank thread would land on either from call to call.
    env["cpus"] = sorted(os.sched_getaffinity(0))[:ranks]
    os.sched_setaffinity(0, env["cpus"])
    sides = {"untraced": bench_cli, "traced": bench_cli}
    try:
        if not args.trace:
            sides["yardstick"] = import_parfem(SEED_SRC, "parfem_seed")
        for side in dict.fromkeys(sides.values()):
            try:
                side.run(make_config(side, args.workload, warmup=True))
            except Exception:  # noqa: BLE001 - the measured calls record the failure
                traceback.print_exc()
        calls, tracer = measure(args, sides, tracing, reference, started)
    except tracing.TraceTargetMissing as exc:
        print(f"perfbench: a traced name is gone: {exc}", file=sys.stderr)
        return 3
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["calib_s"] = statistics.median(c["calib_s"] for c in calls)
    program_calls = [c for c in calls if c["kind"] != "yardstick"]
    failed = sum(1 for c in program_calls if c["error"])
    if not completed(calls, "untraced") or (args.trace and not completed(calls, "traced")):
        print("perfbench: no call completed", file=sys.stderr)
        return 1
    metrics = (per_layer_metrics(calls, tracing) if args.trace
               else end_to_end_metrics(args.workload, calls, failed))
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    record = {"env": env, "calls": calls, "metrics": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(report_text(env, calls, failed, metrics)))
    watchdog.cancel()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(program_calls),
        "failed": failed,
        "metrics": result,
    }))
    return 0


def _give_up():
    print(f"perfbench: no result within {DEADLINE_S:.0f} s", file=sys.stderr, flush=True)
    os._exit(4)


if __name__ == "__main__":
    sys.exit(main())
