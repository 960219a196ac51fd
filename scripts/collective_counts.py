"""Count the collectives one benchmark run makes on rank 0.

Wraps `Transport.all_to_all`, `Transport.allreduce_sum` and the barrier wait
from outside the library, runs one `RunConfig` and prints rank 0's
all-to-alls per label, its reductions, its barrier waits and the CPUs its
thread was allowed to run on (one CPU when the rank threads are pinned).
A second run of the same `RunConfig`, with only `fgmres` wrapped, gives rank
0's Python calls per FGMRES iteration: cProfile's call count inside `fgmres`,
less the barrier's lock calls, divided by the iterations.
It is exact, so it does not move with host noise:

    python3 scripts/collective_counts.py --problem timedep2d --levels 3 \
        --ranks 2 --t-end 0.5

Every `RunConfig` field is a flag (underscores become dashes).  `--markdown`
prints one table row instead, for a CI step summary.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import os
import pstats
import sys
import threading
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parfem import bench_cli  # noqa: E402
from parfem.comm import Transport  # noqa: E402


def count_collectives(config: bench_cli.RunConfig):
    """Run `config`; returns (report, a2a calls per label, reductions, waits,
    rank 0's CPU set at its first barrier wait, or None without one)."""
    labels: Counter = Counter()
    counts = {"reductions": 0, "waits": 0, "cpus": None}
    orig = Transport.all_to_all, Transport.allreduce_sum, Transport._wait

    def all_to_all(self, rank, chunks, label="a2a"):
        if rank == 0:
            labels[label] += 1
        return orig[0](self, rank, chunks, label)

    def allreduce_sum(self, rank, value):
        if rank == 0:
            counts["reductions"] += 1
        return orig[1](self, rank, value)

    def wait(self, *args):
        if threading.current_thread().name == "rank0":
            counts["waits"] += 1
            if counts["cpus"] is None and hasattr(os, "sched_getaffinity"):
                counts["cpus"] = sorted(os.sched_getaffinity(0))
        return orig[2](self, *args)

    Transport.all_to_all, Transport.allreduce_sum, Transport._wait = (
        all_to_all, allreduce_sum, wait
    )
    try:
        report = bench_cli.run(config)
    finally:
        Transport.all_to_all, Transport.allreduce_sum, Transport._wait = orig
    return report, labels, counts["reductions"], counts["waits"], counts["cpus"]


# A rank that reaches a barrier last releases the other ranks' gate locks,
# any other rank acquires its own: how many lock calls rank 0 makes depends
# on the order in which the rank threads arrive, so none is counted.
BARRIER_LOCK = "of '_thread.lock' objects>"


def calls_per_iteration(config: bench_cli.RunConfig) -> float | None:
    """Run `config`; returns rank 0's Python calls inside `fgmres` per FGMRES
    iteration, or None without an iteration.  No other wrapper is installed,
    so every counted call is the library's own."""
    counts = {"calls": 0, "iterations": 0}
    orig = bench_cli.fgmres

    def fgmres(*args, **kwargs):
        if threading.current_thread().name != "rank0":
            return orig(*args, **kwargs)
        profile = cProfile.Profile()  # profiles the calling thread only
        res = profile.runcall(orig, *args, **kwargs)
        stats = pstats.Stats(profile)
        lock_calls = sum(
            calls for (_, _, name), (_, calls, *_) in stats.stats.items()
            if name.endswith(BARRIER_LOCK)
        )
        counts["calls"] += stats.total_calls - lock_calls - 1  # less fgmres
        counts["iterations"] += res.iterations
        return res

    bench_cli.fgmres = fgmres
    try:
        bench_cli.run(config)
    finally:
        bench_cli.fgmres = orig
    return counts["calls"] / counts["iterations"] if counts["iterations"] else None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for f in dataclasses.fields(bench_cli.RunConfig):
        if f.name in ("out_dir", "snapshot_times"):
            continue
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default)
    parser.add_argument("--markdown", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = vars(_parse(argv))
    markdown = args.pop("markdown")
    config = bench_cli.RunConfig(**args)
    report, labels, reductions, waits, cpus = count_collectives(config)
    per_it = calls_per_iteration(config)
    a2a = sum(labels.values())
    per_label = ", ".join(f"{k} {v}" for k, v in sorted(labels.items()))
    name = (f"{config.problem} {config.element} L{config.levels} "
            f"{config.solver}, {config.ranks} ranks")
    cpu_text = "n/a" if cpus is None else ",".join(map(str, cpus))
    calls_text = "n/a" if per_it is None else f"{per_it:,.0f}"
    if markdown:
        print(f"| {name} | {report.iterations} | {reductions} | {a2a} "
              f"({per_label}) | {waits} | {cpu_text} | {calls_text} |")
    else:
        print(f"run: {name}, {report.iterations} iterations")
        print(f"all-to-alls: {a2a}")
        for label, n in sorted(labels.items()):
            print(f"  {label}: {n}")
        print(f"reductions: {reductions}")
        print(f"barrier waits: {waits}")
        print(f"rank-0 CPUs: {cpu_text}")
        print(f"rank-0 calls per iteration: {calls_text}")
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
