"""Regenerate the reference solutions the benchmark checks every run against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload once and stores its merged master solution (sorted global
keys and values) in perfbench/reference/<workload>.npz.  The stored files
were made at the commit that introduced the benchmark; regenerate them only
when a change is meant to alter the solutions, and say so in that change.
"""

from __future__ import annotations

import sys

import numpy as np

from run import REFERENCE, WORKLOADS, import_parfem, make_config


def main(names):
    bench_cli = import_parfem()
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        report = bench_cli.run(make_config(bench_cli, name))
        if not report.converged:
            raise SystemExit(f"{name}: did not converge")
        keys = np.array(sorted(report.merged), dtype=np.int64)
        values = np.array([report.merged[int(k)] for k in keys])
        np.savez_compressed(REFERENCE / f"{name}.npz", keys=keys, values=values)
        print(f"{name}: {keys.size} d.o.f.s, {report.iterations} iterations")


if __name__ == "__main__":
    main(sys.argv[1:])
