"""Fingerprint the outputs of a fixed set of runs, for bitwise comparisons.

Runs the 11 configurations of `RUNS` and prints one row per run: its
configuration, its iterations, and two SHA-256 digests (the first 16 hex
digits of each):

- the merged solution: its (global key, value) pairs in ascending key, each
  as int64 key bytes followed by float64 value bytes (little-endian);
- the residual histories of rank 0: per step, in step order, the step
  label and the history's length as two int64, then the history as float64.

Two trees whose rows are equal produced the same bits.  `--src` names the
source directory to import parfem from (default: the `src/` of this tree),
so one copy of the script can fingerprint another tree:

    python3 scripts/fingerprints.py
    python3 scripts/fingerprints.py --src ../parent/src --markdown
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (problem, element, levels, ranks, solver); timedep2d runs to t_end 0.5
RUNS = [
    ("poisson_mms", "q1", 5, 1, "mg_fgmres"),
    ("poisson_mms", "q1", 5, 4, "mg_fgmres"),
    ("poisson_mms", "q2", 5, 2, "mg_fgmres"),
    ("poisson_mms", "q2", 4, 2, "ssor_fgmres"),
    ("poisson_mms", "q1", 5, 2, "coarse_direct"),
    ("hemker2d", "q1", 4, 4, "mg_fgmres"),
    ("hemker2d", "q1", 4, 4, "ssor_fgmres"),
    ("hemker2d", "q2", 3, 3, "mg_fgmres"),
    ("timedep2d", "q1", 3, 1, "mg_fgmres"),
    ("timedep2d", "q1", 3, 2, "mg_fgmres"),
    ("timedep2d", "q1", 3, 4, "mg_fgmres"),
]

PAIR = np.dtype([("key", "<i8"), ("value", "<f8")])


def solution_digest(merged: dict) -> str:
    pairs = np.empty(len(merged), dtype=PAIR)
    pairs["key"] = sorted(merged)
    pairs["value"] = [merged[k] for k in pairs["key"].tolist()]
    return hashlib.sha256(pairs.tobytes()).hexdigest()[:16]


def residual_digest(residuals: list) -> str:
    h = hashlib.sha256()
    for step, history in residuals:
        h.update(np.array([step, len(history)], dtype="<i8").tobytes())
        h.update(np.asarray(history, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def fingerprint(bench_cli, run) -> tuple[str, int, str, str]:
    """(config text, iterations, solution digest, residual digest) of a run."""
    problem, element, levels, ranks, solver = run
    extra = {"t_end": 0.5} if problem == "timedep2d" else {}
    config = bench_cli.RunConfig(problem=problem, element=element, levels=levels,
                                 ranks=ranks, solver=solver, **extra)
    report = bench_cli.run(config)
    name = f"{problem} {element} L{levels} {solver}, {ranks} ranks"
    if extra:
        name += ", t_end 0.5"
    return (name, report.iterations, solution_digest(report.merged),
            residual_digest(report.residuals))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the parfem package")
    parser.add_argument("--markdown", action="store_true",
                        help="print markdown table rows")
    args = parser.parse_args(argv)
    if not (Path(args.src) / "parfem" / "__init__.py").is_file():
        parser.error(f"no parfem package under {args.src}")
    sys.path.insert(0, args.src)
    from parfem import bench_cli

    for name, its, solution, residuals in (fingerprint(bench_cli, r) for r in RUNS):
        if args.markdown:
            print(f"| {name} | {its} | {solution} | {residuals} |")
        else:
            print(f"{name}: {its} iterations, solution {solution}, "
                  f"residuals {residuals}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
