"""Every parfem name the benchmark tracer patches still resolves.

`perfbench/tracing.py` replaces each traced function by name, and a traced
benchmark run exits with code 3 when one of them is gone.  This test reads
that file (without importing it as a package or writing next to it) and
resolves each target through the tracer's own `resolve`, so a removed or
renamed function fails here and not only in a traced run.
"""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
TARGETS = [
    "parfem." + name.replace(".", ":", 1)
    for name in (*tracing.LAYER_OF_SPAN, tracing.RUN_SPAN)
] + ["parfem.bench_cli:spmd_run", tracing.SetupClock().target]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    _, _, obj = tracing.resolve(target)
    assert callable(obj)

