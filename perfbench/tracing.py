"""Span tracing of parfem's layers, installed from outside the program.

Every traced target is a public function or method of a parfem module.  It
is replaced for the duration of one traced call by a wrapper that records a
span (name, rank, start, end, parent) and, for a few targets, counters.  A
function that other parfem modules imported by name (``from .x import f``)
is replaced in those modules too, so every call site is seen.  Targets are
named by ``module:qualname``; a name that no longer resolves raises
``TraceTargetMissing`` instead of reading as zero work.

Spans are kept per thread in memory.  A layer's self time is its span's
duration minus the durations of its direct child spans.  Logical ranks are
threads: the rank of a span is set from the ``rank`` argument the rank body
receives from ``spmd_run``; spans on the calling thread get rank -1.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

# Span name -> per-layer time metric its self time is added to.  The run()
# call and each rank's body map to no layer: their self time is what no layer
# covers (other_s).  The spmd_run span only waits for the rank threads.
LAYER_OF_SPAN = {
    "mesh.refine_uniform": "mesh.refine_s",
    "partition.build_rank_cells": "partition.rank_cells_s",
    "partition.classify_dofs": "partition.classify_s",
    "dof_manager.build_dof_map": "dof_manager.dof_map_s",
    "dof_manager.dof_coordinates": "dof_manager.dof_coords_s",
    "mapped_fe.make_reference_map": "mapped_fe.reference_map_s",
    "assembly.matrix_graph": "assembly.graph_s",
    "assembly.assemble_cdr": "assembly.assemble_s",
    "assembly.assemble_mass": "assembly.assemble_s",
    "assembly.apply_dirichlet": "assembly.dirichlet_s",
    "assembly.enforce_dirichlet_values": "assembly.dirichlet_s",
    "assembly.crank_nicolson_step": "assembly.cn_step_s",
    "comm.build_fe_mapper": "comm.mapper_s",
    "comm.InterfaceExchange.__init__": "comm.mapper_s",
    "comm.Transport.all_to_all": "comm.a2a_s",
    "comm.Transport.allreduce_sum": "comm.allreduce_s",
    "comm.Communicator.update": "comm.update_s",
    "dlinalg.DistVector.restore": "dlinalg.restore_s",
    "dlinalg.matvec": "dlinalg.matvec_s",
    "dlinalg.dot": "dlinalg.dot_s",
    "dlinalg.fgmres": "dlinalg.fgmres_self_s",
    "multigrid.build_hierarchy": "multigrid.hierarchy_self_s",
    "multigrid.BlockSsor.__init__": "multigrid.smoother_factor_s",
    "multigrid.CoarseSolver.__init__": "multigrid.coarse_lu_s",
    "multigrid.CoarseSolver.solve": "multigrid.coarse_solve_s",
    "multigrid.BlockSsor.smooth": "multigrid.smooth_s",
    "multigrid.restrict_defect": "multigrid.restrict_s",
    "multigrid.prolongate": "multigrid.prolongate_s",
    "multigrid.v_cycle": "multigrid.v_cycle_self_s",
    "bench_cli.merge_master_values": "bench_cli.merge_s",
}

# Span name -> per-layer call-count metric.
COUNT_OF_SPAN = {
    "mapped_fe.make_reference_map": "mapped_fe.reference_maps",
    "assembly.crank_nicolson_step": "assembly.cn_steps",
    "comm.Transport.allreduce_sum": "comm.allreduce.calls",
    "comm.Communicator.update": "comm.update.calls",
    "dlinalg.matvec": "dlinalg.matvec.calls",
    "dlinalg.dot": "dlinalg.dot.calls",
    "dlinalg.fgmres": "dlinalg.fgmres.calls",
    "multigrid.BlockSsor.smooth": "multigrid.smooth.calls",
    "multigrid.v_cycle": "multigrid.v_cycles",
}

# All-to-all labels used by parfem; any other label is counted as "other".
A2A_LABELS = (
    "IMS", "DHalpha", "DHbeta", "if-average", "if-accumulate",
    "mapper-request", "mapper-reply", "coarse-build", "coarse-rhs",
    "coarse-scatter", "other",
)

RUN_SPAN = "bench_cli.run"
SPMD_SPAN = "bench_cli.spmd_run"
BODY_SPAN = "bench_cli.rank_body"

COUNT_METRICS = tuple(sorted(set(COUNT_OF_SPAN.values()))) + (
    "dlinalg.restores",
) + tuple(
    f"comm.a2a.{label}.{kind}" for label in A2A_LABELS for kind in ("calls", "elems")
)
TIME_METRICS = tuple(sorted(set(LAYER_OF_SPAN.values()))) + ("other_s",)
METRIC_UNITS = {
    **dict.fromkeys(TIME_METRICS, "s"),
    **dict.fromkeys(COUNT_METRICS, "count"),
}


class TraceTargetMissing(RuntimeError):
    """A traced name no longer exists in parfem; the trace would read zero."""


def resolve(target: str):
    """Return (owner, attribute, object) for ``parfem.<module>:<qualname>``."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetMissing(f"{target}: {exc}") from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetMissing(f"{target}: no attribute {part!r}")
    obj = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(
        owner, parts[-1], None
    )
    if obj is None:
        raise TraceTargetMissing(f"{target}: no attribute {parts[-1]!r}")
    return owner, parts[-1], obj


class Patches:
    """Replace attributes, everywhere a parfem module holds them, until exit."""

    def __init__(self):
        self._saved = []

    def replace(self, target: str, make_wrapper):
        owner, attr, orig = resolve(target)
        package = target.partition(".")[0]
        wrapper = make_wrapper(orig)
        self._set(owner, attr, wrapper)
        if not isinstance(owner, type):
            # aliases made by `from .module import name` in other modules
            for name, module in list(sys.modules.items()):
                if module is owner or name.partition(".")[0] != package:
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class SetupClock:
    """Untraced hook: the time each rank first enters FGMRES.

    ``setup_s`` of a run is the latest of these minus the start of run().
    """

    def __init__(self, package="parfem"):
        self.target = f"{package}.bench_cli:fgmres"
        self.first_entry = {}

    def install(self, patches: Patches):
        first = self.first_entry

        def make(orig):
            def fgmres(A, *args, **kwargs):
                first.setdefault(A.ctx.rank, time.perf_counter())
                return orig(A, *args, **kwargs)

            return fgmres

        patches.replace(self.target, make)


class Tracer:
    """Collects spans and counters for one traced call."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # per-thread state: spans, stack, rank, counts
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = SimpleNamespace(
                spans=[], stack=[], rank=-1, counts=Counter()
            )
            with self._lock:
                self._threads.append(st)
        return st

    def span(self, name, orig):
        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else None
            index = len(st.spans)
            record = [name, st.rank, time.perf_counter(), None, parent]
            st.spans.append(record)
            st.stack.append(index)
            try:
                return orig(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                st.stack.pop()

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def _all_to_all(self, orig):
        inner = self.span("comm.Transport.all_to_all", orig)

        def all_to_all(transport, rank, chunks, label="a2a"):
            key = label if label in A2A_LABELS else "other"
            counts = self._state().counts
            counts[f"comm.a2a.{key}.calls"] += 1
            counts[f"comm.a2a.{key}.elems"] += sum(_size(c) for c in chunks)
            return inner(transport, rank, chunks, label)

        return all_to_all

    def _restore(self, orig):
        inner = self.span("dlinalg.DistVector.restore", orig)

        def restore(vector, target):
            if vector.level < target:
                self._state().counts["dlinalg.restores"] += 1
            return inner(vector, target)

        return restore

    def _spmd_run(self, orig):
        tracer = self
        inner = self.span(SPMD_SPAN, orig)

        def spmd_run(n_ranks, body, *args, **kwargs):
            traced_body = tracer.span(BODY_SPAN, body)

            def ranked_body(rank, *rest):
                tracer._state().rank = rank
                return traced_body(rank, *rest)

            return inner(n_ranks, ranked_body, *args, **kwargs)

        return spmd_run

    def install(self, patches: Patches):
        special = {
            "comm.Transport.all_to_all": self._all_to_all,
            "dlinalg.DistVector.restore": self._restore,
        }
        for name in (*LAYER_OF_SPAN, RUN_SPAN):
            target = "parfem." + name.replace(".", ":", 1)
            make = special.get(name) or (lambda orig, name=name: self.span(name, orig))
            patches.replace(target, make)
        patches.replace("parfem.bench_cli:spmd_run", self._spmd_run)

    # -- analysis --------------------------------------------------------
    def spans(self):
        """All spans as (id, name, rank, start, end, parent id) tuples.

        A rank body's parent is the spmd_run span on the calling thread.
        """
        out = []
        spmd_id = None
        for t, st in enumerate(self._threads):
            for i, (name, rank, start, end, parent) in enumerate(st.spans):
                pid = None if parent is None else f"{t}.{parent}"
                out.append([f"{t}.{i}", name, rank, start, end, pid])
                if name == SPMD_SPAN:
                    spmd_id = f"{t}.{i}"
        for span in out:
            if span[1] == BODY_SPAN:
                span[5] = spmd_id
        return out

    def layer_metrics(self):
        """Per-layer self times and counts, summed over ranks.

        Returns (metrics, accounted_s).  ``accounted_s`` is the rank-summed
        wall time: the run() span outside its spmd_run call
        (where the calling thread only waits for the ranks) plus every rank
        body's duration.  ``other_s`` is the part of it no layer covers.
        """
        self_time = defaultdict(float)
        wall = defaultdict(float)
        calls = Counter()
        counts = Counter()
        for st in self._threads:
            spans = st.spans
            counts.update(st.counts)
            child = [0.0] * len(spans)
            for name, _rank, start, end, parent in spans:
                if end is None:
                    raise RuntimeError(f"span {name} never ended")
                if parent is not None:
                    child[parent] += end - start
            for (name, _rank, start, end, _parent), kids in zip(spans, child):
                self_time[name] += (end - start) - kids
                wall[name] += end - start
                calls[name] += 1
        if calls[RUN_SPAN] != 1 or calls[SPMD_SPAN] != 1:
            raise RuntimeError("a traced call needs one run() and one spmd_run span")

        metrics = dict.fromkeys(TIME_METRICS, 0.0)
        for name, secs in self_time.items():
            if name in LAYER_OF_SPAN:
                metrics[LAYER_OF_SPAN[name]] += secs
        covered = sum(metrics.values())
        accounted = wall[RUN_SPAN] - wall[SPMD_SPAN] + wall[BODY_SPAN]
        metrics["other_s"] = accounted - covered
        metrics.update(dict.fromkeys(COUNT_METRICS, 0))
        for name, n in calls.items():
            if name in COUNT_OF_SPAN:
                metrics[COUNT_OF_SPAN[name]] += n
        metrics.update(counts)
        return metrics, accounted

    def write_spans(self, path):
        """Write all spans as gzip CSV: id,name,rank,start_s,end_s,parent."""
        spans = self.spans()
        t0 = min((s[3] for s in spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,rank,start_s,end_s,parent\n")
            for sid, name, rank, start, end, pid in spans:
                fh.write(
                    f"{sid},{name},{rank},{start - t0:.7f},{end - t0:.7f},"
                    f"{'' if pid is None else pid}\n"
                )


def _size(chunk):
    try:
        return len(chunk)
    except TypeError:
        return 0 if chunk is None else 1
