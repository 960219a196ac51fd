"""Count the collectives one benchmark run makes on rank 0.

Wraps `Transport.all_to_all`, `Transport.allreduce_sum` and the barrier wait
from outside the library, runs one `RunConfig` and prints rank 0's
all-to-alls per label, its reductions, its barrier waits, the CPUs its
thread was allowed to run on (one CPU when the rank threads are pinned) and
its context switches per barrier wait: the thread's voluntary plus
involuntary switches (`getrusage(RUSAGE_THREAD)`, Linux) from the start of
its first barrier wait to the end of its last, divided by its waits.
A second run of the same `RunConfig`, with only `fgmres` wrapped, gives rank
0's Python calls per FGMRES iteration: cProfile's call count inside `fgmres`,
less the barrier's lock calls, divided by the iterations.
The counts are exact, so they do not move with host noise; the switches
depend on the kernel's scheduler and on other load on the CPU:

    python3 scripts/collective_counts.py --problem timedep2d --levels 3 \
        --ranks 2 --t-end 0.5

Every `RunConfig` field but `out_dir` and `snapshot_times` is a flag, as in
`parfem-bench`.  `--markdown` prints one table row instead, for a CI step
summary.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import resource
import sys
import threading
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parfem import bench_cli  # noqa: E402
from parfem.comm import Transport  # noqa: E402


def _thread_switches() -> int | None:
    """The calling thread's context switches so far; None where the platform
    has no per-thread usage."""
    if not hasattr(resource, "RUSAGE_THREAD"):
        return None
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_nvcsw + usage.ru_nivcsw


def count_collectives(config: bench_cli.RunConfig):
    """Run `config`; returns (report, a2a calls per label, reductions, waits,
    rank 0's CPU set at its first barrier wait, or None without one, and its
    context switches per wait, or None without a wait or `RUSAGE_THREAD`)."""
    labels: Counter = Counter()
    counts = {"reductions": 0, "waits": 0, "cpus": None, "switches": [None, None]}
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
        if threading.current_thread().name != "rank0":
            return orig[2](self, *args)
        counts["waits"] += 1
        if counts["waits"] == 1:
            counts["switches"][0] = _thread_switches()
            if hasattr(os, "sched_getaffinity"):
                counts["cpus"] = sorted(os.sched_getaffinity(0))
        slots = orig[2](self, *args)
        counts["switches"][1] = _thread_switches()  # kept from the last wait
        return slots

    Transport.all_to_all, Transport.allreduce_sum, Transport._wait = (
        all_to_all, allreduce_sum, wait
    )
    try:
        report = bench_cli.run(config)
    finally:
        Transport.all_to_all, Transport.allreduce_sum, Transport._wait = orig
    first, last = counts["switches"]
    waits = counts["waits"]
    per_wait = None if first is None else (last - first) / waits
    return report, labels, counts["reductions"], waits, counts["cpus"], per_wait


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", action="store_true")
    config, args = bench_cli.parse_config(parser, argv, skip=("out_dir",))
    report, labels, reductions, waits, cpus, switches = count_collectives(config)
    per_it = calls_per_iteration(config)
    a2a = sum(labels.values())
    per_label = ", ".join(f"{k} {v}" for k, v in sorted(labels.items()))
    name = (f"{config.problem} {config.element} L{config.levels} "
            f"{config.solver}, {config.ranks} ranks")
    cpu_text = "n/a" if cpus is None else ",".join(map(str, cpus))
    calls_text = "n/a" if per_it is None else f"{per_it:,.0f}"
    switch_text = "n/a" if switches is None else f"{switches:.2f}"
    if args["markdown"]:
        print(f"| {name} | {report.iterations} | {reductions} | {a2a} "
              f"({per_label}) | {waits} | {cpu_text} | {switch_text} | {calls_text} |")
    else:
        print(f"run: {name}, {report.iterations} iterations")
        print(f"all-to-alls: {a2a}")
        for label, n in sorted(labels.items()):
            print(f"  {label}: {n}")
        print(f"reductions: {reductions}")
        print(f"barrier waits: {waits}")
        print(f"rank-0 CPUs: {cpu_text}")
        print(f"rank-0 switches per collective: {switch_text}")
        print(f"rank-0 calls per iteration: {calls_text}")
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
