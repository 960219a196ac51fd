"""Simulated SPMD transport and master-to-slave update schedules.

Logical ranks run the same program body on separate threads; they share the
read-only level meshes and the transport.  Its `all_to_all` mirrors
MPI_Alltoallv: every rank deposits one chunk per destination, a barrier makes
all deposits visible, every rank picks up its column.  It is the only barrier:
ranks alternate between two slot sets, so none overwrites a set another still
reads.  The barrier is a mutex, a counter and a gate lock per rank; a timeout
or an abort breaks it for all ranks and reports a deadlock.  The rank threads
share one CPU: the GIL serialises them, and two cores only add wake-ups.

Three master->slave relations restore the consistency of distributed
vectors.  A relation is named after the receiving d.o.f. class; the sender
is whichever rank holds the unique master of that d.o.f.:

    IMS      -> interface slaves        (level 1)
    DHalpha  -> halo(alpha) d.o.f.s     (level 2)
    DHbeta   -> halo(beta) d.o.f.s      (level 3)

Masters are final at level 0 and never receive, so any set of relations is
sent in one all-to-all over the union of their schedules: a restore makes
at most one.  The schedules are negotiated once per finite element space by
exchanging (cell id, local index) keys and are reused for every later update.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import os
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dof_manager import DofMap, build_dof_map, dof_coordinates
from .mapped_fe import CellGeometry, cell_geometry
from .partition import (
    DofClass,
    DofClassification,
    RankCells,
    build_rank_cells,
    classify_dofs,
)


class DeadlockError(RuntimeError):
    pass


class CollectiveMismatch(RuntimeError):
    pass


class ConsistencyLevel(enum.IntEnum):
    L0 = 0  # masters hold sequential values
    L1 = 1  # + interface slaves
    L2 = 2  # + halo(alpha)
    L3 = 3  # + halo(beta): real consistent storage


class Relation(enum.Enum):
    IMS = "IMS"
    DH_ALPHA = "DHalpha"
    DH_BETA = "DHbeta"


RELATION_SLAVE_CLASS = {
    Relation.IMS: DofClass.INTERFACE_SLAVE,
    Relation.DH_ALPHA: DofClass.HALO_ALPHA,
    Relation.DH_BETA: DofClass.HALO_BETA,
}

# relation that lifts a vector to each level from the level below
LEVEL_RELATION = {
    ConsistencyLevel.L1: Relation.IMS,
    ConsistencyLevel.L2: Relation.DH_ALPHA,
    ConsistencyLevel.L3: Relation.DH_BETA,
}


class Transport:
    """In-process collective exchange between logical ranks.

    Each collective waits on the barrier once.  The barrier is a mutex, an
    arrival counter and one pre-acquired gate lock per rank; the last rank to
    arrive resets the counter and opens the gates of the waiting ranks, which
    pass them.  A timeout or `abort()` opens them for good: every waiting
    rank, and every rank that arrives later, raises `DeadlockError` at once.
    Ranks alternate between two slot sets (deposits and labels) by the parity
    of their own collective count, and every rank has read a set before any
    can pass the next barrier and write it again.  Deposits are shared, not
    copied: a sender leaves them unmodified until its next collective returns.
    `trace` keeps (label, rank) of the latest `TRACE_LENGTH` all-to-alls
    (`deque.append` and `clear` are thread-safe).
    """

    TRACE_LENGTH = 4096

    def __init__(self, n_ranks: int, timeout: float = 60.0):
        self.n_ranks = n_ranks
        self.timeout = timeout
        self._mutex, self._arrived, self._broken = threading.Lock(), 0, False
        self._gates = [threading.Lock() for _ in range(n_ranks)]
        for gate in self._gates:
            gate.acquire()
        self._sets = [([None] * n_ranks, [None] * n_ranks) for _ in range(2)]
        self._count = [0] * n_ranks
        self.trace: deque[tuple[str, int]] = deque(maxlen=self.TRACE_LENGTH)

    def clear_trace(self):
        self.trace.clear()

    def abort(self):
        with self._mutex:
            self._broken = True
            for gate in self._gates:
                if gate.locked():  # a gate is only released under the mutex
                    gate.release()

    def _wait(self, rank):
        with self._mutex:
            self._arrived += 1
            if self._arrived == self.n_ranks and not self._broken:
                self._arrived = 0
                for gate in self._gates[:rank] + self._gates[rank + 1 :]:
                    gate.release()
                return
        if not self._broken and not self._gates[rank].acquire(timeout=self.timeout):
            self.abort()
        if self._broken:
            raise DeadlockError("collective aborted, or a rank did not enter it")

    def _exchange(self, rank, label, row):
        """Deposit `row`, wait once, check labels; returns every rank's row."""
        slots, labels = self._sets[self._count[rank] & 1]
        self._count[rank] += 1
        labels[rank] = label
        slots[rank] = row
        self._wait(rank)
        if any(lbl != label for lbl in labels):
            self.abort()
            raise CollectiveMismatch(f"ranks entered different collectives: {labels}")
        return slots

    def all_to_all(self, rank: int, chunks: list, label: str = "a2a") -> list:
        """Deliver chunks[dst] to each destination; returns chunks per source."""
        if len(chunks) != self.n_ranks:
            raise ValueError("need one chunk per destination rank")
        self.trace.append((label, rank))
        return [row[rank] for row in self._exchange(rank, label, list(chunks))]

    def allreduce_sum(self, rank: int, value: float) -> float:
        """Element-wise global sum; every rank adds all inputs in rank order,
        so the result is bitwise identical on every rank."""
        total = 0.0
        for v in self._exchange(rank, "reduce", value):
            total += v
        return total


def spmd_run(n_ranks, body, *args, timeout: float = 60.0, transport=None) -> list:
    """Run `body(rank, transport, *args)` on n_ranks threads, collect results.

    `timeout` applies only to a transport built here.  With n_ranks > 1 each
    rank thread pins itself to the caller's lowest CPU (unpinned where that
    fails): the GIL serialises the ranks, and two cores only add wake-ups.
    """
    if transport is not None and transport.n_ranks != n_ranks:
        raise ValueError(f"transport has {transport.n_ranks} ranks, not {n_ranks}")
    transport = transport or Transport(n_ranks, timeout=timeout)
    pin = n_ranks > 1 and hasattr(os, "sched_getaffinity")
    cpus = {min(os.sched_getaffinity(0))} if pin else None
    results = [None] * n_ranks
    errors: list[BaseException] = []

    def work(rank):
        if cpus:
            with contextlib.suppress(AttributeError, OSError):
                os.sched_setaffinity(0, cpus)
        try:
            results[rank] = body(rank, transport, *args)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)
            transport.abort()

    threads = [
        threading.Thread(target=work, args=(r,), name=f"rank{r}", daemon=True)
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        for exc in errors:
            if not isinstance(exc, DeadlockError):
                raise exc
        raise errors[0]
    return results


@dataclass
class Schedule:
    """One exchange as per-rank lists, the form `Transport.all_to_all` takes.

    `sends[q]` holds the local d.o.f.s whose values go to rank q;
    `recvs[q]` the local d.o.f.s (or the slots of a buffer) that the values
    from rank q fill, in arrival order.
    """

    sends: list[np.ndarray]
    recvs: list[np.ndarray]

    @functools.cached_property
    def rcvd_dof(self) -> np.ndarray:
        """Every receiving d.o.f. (or slot), in ascending source rank."""
        return np.concatenate(self.recvs)

    def send(self, transport, rank: int, values: np.ndarray, label: str):
        """One all-to-all of values[sends[q]]; returns arrivals in rcvd_dof order."""
        chunks = [values[d] for d in self.sends]
        return np.concatenate(transport.all_to_all(rank, chunks, label=label))


def merge_schedules(parts: list[Schedule]) -> Schedule:
    """One schedule carrying the parts' chunks to each rank, in part order."""
    return Schedule(
        [np.concatenate(d) for d in zip(*(s.sends for s in parts))],
        [np.concatenate(d) for d in zip(*(s.recvs for s in parts))],
    )


@dataclass
class FeMapper:
    """Reusable communication schedules for all three relations."""

    schedules: dict[Relation, Schedule]
    true_keys: np.ndarray  # globally minimal (cell, index) key per local dof
    # every block holder (master or interface slave) -> every halo d.o.f.
    contributions: Schedule


def build_fe_mapper(
    classification: DofClassification,
    dof_map: DofMap,
    transport: Transport,
    rank: int,
) -> FeMapper:
    """Negotiate the update schedules (collective over all ranks).

    Each rank broadcasts, per relation, the canonical keys of its slave
    d.o.f.s.  A key names a (cell, local index) pair the slave's rank knows;
    the master rank knows every cell containing its master d.o.f.s, so it can
    answer any such key.  The master replies with the matched keys (and the
    globally minimal key of the d.o.f.), fixing both send and receive
    orderings deterministically.  A halo(alpha) or halo(beta) key is also
    answered by every rank holding the d.o.f. in its block: an interface
    slave's rank knows all cells containing it too.  Those replies give the
    `contributions` schedule of the smoother's exchange.
    """
    n_ranks = transport.n_ranks
    local_keys = dof_map.keys

    requests = {}
    for rel, slave_class in RELATION_SLAVE_CLASS.items():
        idx = classification.of_class(slave_class)
        idx = idx[np.argsort(local_keys[idx], kind="stable")]
        requests[rel] = (local_keys[idx], idx)

    payload = {rel.value: requests[rel][0] for rel in Relation}
    incoming = transport.all_to_all(
        rank, [payload] * n_ranks, label="mapper-request"
    )

    is_master = classification.is_master
    in_block = is_master | (classification.classes == DofClass.INTERFACE_SLAVE)
    # (reply name, requested relation, answering d.o.f.s)
    asked = [(rel, rel, is_master) for rel in Relation]
    halo = (Relation.DH_ALPHA, Relation.DH_BETA)
    asked += [(f"block-{rel.value}", rel, in_block) for rel in halo]
    no_reply = np.empty((0, 2), dtype=np.int64)
    replies = [{name: no_reply for name, *_ in asked} for _ in range(n_ranks)]
    sent_lists = {name: [no_reply[:, 0]] * n_ranks for name, *_ in asked}
    for src in range(n_ranks):
        if src == rank:
            continue
        found = {r: dof_map.dofs_of_keys(incoming[src][r.value]) for r in Relation}
        for name, rel, answering in asked:
            keys, d = incoming[src][rel.value], found[rel]
            hit = d >= 0
            hit[hit] = answering[d[hit]]
            replies[src][name] = np.stack([keys[hit], local_keys[d[hit]]], axis=1)
            sent_lists[name][src] = d[hit]

    answered = transport.all_to_all(rank, replies, label="mapper-reply")

    true_keys = local_keys.copy()
    schedules = {}
    for name, rel, answering in asked:
        req_keys, req_idx = requests[rel]
        got = [a[name] for a in answered]
        recvs = [req_idx[np.searchsorted(req_keys, g[:, 0])] for g in got]
        schedules[name] = Schedule(sent_lists[name], recvs)
        if answering is in_block:
            continue
        rcvd = schedules[name].rcvd_dof
        true_keys[rcvd] = np.concatenate(got)[:, 1]
        matched = np.bincount(rcvd, minlength=dof_map.n_dofs)[req_idx]
        bad = np.flatnonzero(matched != 1)
        if bad.size:
            raise RuntimeError(
                f"rank {rank}: slave dof {int(req_idx[bad[0]])} in {rel.value} "
                f"matched {int(matched[bad[0]])} masters"
            )
    contributions = merge_schedules([schedules.pop(f"block-{r.value}") for r in halo])
    return FeMapper(schedules, true_keys, contributions)


class Communicator:
    """Performs the updates described by a FeMapper."""

    def __init__(self, transport: Transport, rank: int, mapper: FeMapper):
        self.transport = transport
        self.rank = rank
        self.mapper = mapper
        self._merged: dict[tuple[Relation, ...], Schedule] = {}

    def update(self, values: np.ndarray, *relations: Relation):
        """Overwrite every slave of the relations with its master's value.

        One all-to-all over the union of the relations' schedules, merged
        once per relation tuple; masters never receive, so the values sent
        do not depend on the order of the relations.
        """
        s = self._merged.get(relations)
        if s is None:
            parts = [self.mapper.schedules[rel] for rel in relations]
            s = self._merged[relations] = merge_schedules(parts)
        label = "+".join(rel.value for rel in relations)
        values[s.rcvd_dof] = s.send(self.transport, self.rank, values, label)

    def restore(
        self,
        values: np.ndarray,
        current: ConsistencyLevel,
        target: ConsistencyLevel,
    ) -> ConsistencyLevel:
        """Lift current to target with the missing relations, in one update."""
        missing = tuple(
            rel for level, rel in LEVEL_RELATION.items() if current < level <= target
        )
        if missing:
            self.update(values, *missing)
        return max(current, target)


class InterfaceExchange:
    """Symmetric value exchanges over the interface d.o.f.s.

    Defect restriction sums the sharing ranks' partial values (`accumulate`).
    The multigrid smoother replaces interface values by their mean and
    refreshes every halo d.o.f. in the same all-to-all (`settle`).
    Both sides of every rank pair derive the same key-sorted interface list
    locally, so no negotiation is needed beyond the mapper's.  A rank sends
    rank q its values of `shared_with[q]`, and q's values fill the slots
    `slot_with[q]` of a buffer over `if_dofs`; `settle` appends one slot per
    halo d.o.f., filled by the mapper's `contributions`.  Every total starts
    from zero and adds the contributions in ascending rank order, so it is
    bitwise identical on every rank that forms it.
    """

    def __init__(self, transport, rank, classification, dof_map, ownership, mapper):
        self.transport = transport
        self.rank = rank
        n = transport.n_ranks
        if_dofs = classification.of_class(
            DofClass.INTERFACE_MASTER, DofClass.INTERFACE_SLAVE
        )
        self.if_dofs = if_dofs[np.argsort(dof_map.keys[if_dofs], kind="stable")]
        # sharing ranks: owners of the known cells holding each interface dof
        slot = np.full(dof_map.n_dofs, -1)
        slot[self.if_dofs] = np.arange(len(self.if_dofs))
        slots = slot[dof_map.table]
        sharing = np.zeros((len(self.if_dofs), n), dtype=bool)
        owners = np.broadcast_to(ownership[dof_map.cells][:, None], slots.shape)
        sharing[slots[slots >= 0], owners[slots >= 0]] = True
        self.counts = sharing.sum(axis=1).astype(float)
        self.slot_with = [np.flatnonzero(sharing[:, q]) for q in range(n)]
        self.shared_with = [self.if_dofs[s] for s in self.slot_with]
        # settle: interface slots, then one slot per halo d.o.f. fed by every
        # rank holding it in its block (several if it is interface there)
        c = mapper.contributions
        halo, holders = np.unique(c.rcvd_dof, return_counts=True)
        self.settle_dofs = np.concatenate([self.if_dofs, halo])
        self.settle_counts = np.concatenate([self.counts, holders])
        # schedules into the slots, and the start values of their totals
        shared = Schedule(self.shared_with, self.slot_with)
        halo_slots = [len(self.if_dofs) + np.searchsorted(halo, r) for r in c.recvs]
        self._accumulate = (shared, np.zeros(len(if_dofs)))
        self._settle = (
            merge_schedules([shared, Schedule(c.sends, halo_slots)]),
            # -0.0 + v == v for every v: a single contribution passes unchanged
            np.where(self.settle_counts > 1, 0.0, -0.0),
        )

    def _sum(self, values, label, plan):
        schedule, start = plan
        received = schedule.send(self.transport, self.rank, values, label)
        totals = start.copy()
        np.add.at(totals, schedule.rcvd_dof, received)  # in ascending source rank
        return totals

    def accumulate(self, values: np.ndarray):
        """Replace interface values by the sum over all sharing ranks."""
        values[self.if_dofs] = self._sum(values, "if-accumulate", self._accumulate)

    def settle(self, values: np.ndarray):
        """Interface values become the mean over the sharing ranks, halo values
        the mean over their block holders; one all-to-all.  The holders are
        the sharing ranks of the d.o.f.'s master and add in the same order
        from the same start, so each halo value equals its master's bit for
        bit (the master's own where it is the only holder): the vector is
        level-3-consistent."""
        totals = self._sum(values, "if-average", self._settle)
        values[self.settle_dofs] = totals / self.settle_counts


@dataclass
class RankContext:
    """Everything one rank needs to operate on a finite element space."""

    transport: Transport
    rank: int
    mesh: object
    ownership: np.ndarray
    rank_cells: RankCells
    elem_kind: str
    dof_map: DofMap
    classification: DofClassification
    mapper: FeMapper
    comm: Communicator
    exchange: InterfaceExchange
    _cache: dict = field(default_factory=dict)

    @property
    def n_local(self) -> int:
        return self.dof_map.n_dofs

    @property
    def master_mask(self) -> np.ndarray:
        return self.classification.is_master

    @functools.cached_property
    def block_mask(self) -> np.ndarray:
        """Masters plus interface slaves: the rows a rank smooths/owns."""
        mask = self.classification.is_master.copy()
        mask[self.classification.of_class(DofClass.INTERFACE_SLAVE)] = True
        return mask

    @property
    def true_keys(self) -> np.ndarray:
        return self.mapper.true_keys

    @functools.cached_property
    def geometry(self) -> CellGeometry:
        """Reference maps of the known cells, in ascending cell order."""
        return cell_geometry(self.mesh, self.rank_cells.known)

    @functools.cached_property
    def dof_coords(self) -> np.ndarray:
        return dof_coordinates(self.dof_map, self.mesh, geometry=self.geometry)


def build_rank_context(
    mesh, ownership, elem_kind: str, transport: Transport, rank: int
) -> RankContext:
    """Build per-rank space, classification and schedules (collective)."""
    rank_cells = build_rank_cells(mesh, ownership, rank)
    dof_map = build_dof_map(mesh, rank_cells.known, elem_kind)
    classification = classify_dofs(rank_cells, dof_map, ownership)
    mapper = build_fe_mapper(classification, dof_map, transport, rank)
    comm = Communicator(transport, rank, mapper)
    exchange = InterfaceExchange(
        transport, rank, classification, dof_map, ownership, mapper
    )
    return RankContext(
        transport=transport,
        rank=rank,
        mesh=mesh,
        ownership=ownership,
        rank_cells=rank_cells,
        elem_kind=elem_kind,
        dof_map=dof_map,
        classification=classification,
        mapper=mapper,
        comm=comm,
        exchange=exchange,
    )
