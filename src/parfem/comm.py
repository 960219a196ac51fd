"""Simulated SPMD transport and master-to-slave update schedules.

Logical ranks run the same program body on separate threads; they share the
read-only level meshes and the transport.  Its `all_to_all` mirrors
MPI_Alltoallv: every rank deposits one chunk per destination, a barrier makes
all deposits visible, every rank picks up its column.  It is the only barrier:
ranks alternate between two slot sets, so none overwrites a set another still
reads.  The barrier is a mutex, a counter and a gate lock per rank; a timeout
or an abort breaks it for all ranks and reports a deadlock.  The rank threads
of a multi-rank run share one CPU: the GIL serialises them, and two cores
only add wake-ups.  Pinned so, they also run under SCHED_BATCH, whose woken
threads do not preempt the running one: the rank that opens a gate keeps
the CPU and the GIL until it blocks at its own next collective, so a
hand-off costs about one context switch instead of a preemption followed
by a wait for the GIL.

Three master->slave relations restore the consistency of distributed
vectors.  A relation is named after the receiving d.o.f. class; the sender
is whichever rank holds the unique master of that d.o.f.:

    IMS      -> interface slaves        (level 1)
    DHalpha  -> halo(alpha) d.o.f.s     (level 2)
    DHbeta   -> halo(beta) d.o.f.s      (level 3)

Masters are final at level 0 and never receive, so any set of relations is
sent in one all-to-all over the union of their schedules: a restore makes
at most one.  Every exchange of a finite element space is negotiated once,
in one request and one reply of (cell id, local index) keys per rank pair,
and is reused for every later update.
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

    def _wait(self, rank, label, row):
        """Deposit `row`, wait once, check labels; returns every rank's row."""
        slots, labels = self._sets[self._count[rank] & 1]
        self._count[rank] += 1
        labels[rank] = label
        slots[rank] = row
        with self._mutex:
            self._arrived += 1
            last = self._arrived == self.n_ranks and not self._broken
            if last:
                self._arrived = 0
                for gate in self._gates[:rank] + self._gates[rank + 1 :]:
                    gate.release()
        if not (last or self._broken or self._gates[rank].acquire(timeout=self.timeout)):
            self.abort()
        if self._broken and not last:
            raise DeadlockError("collective aborted, or a rank did not enter it")
        if labels.count(label) != self.n_ranks:
            self.abort()
            raise CollectiveMismatch(f"ranks entered different collectives: {labels}")
        return slots

    def all_to_all(self, rank: int, chunks: list, label: str = "a2a") -> list:
        """Deliver chunks[dst] to each destination; returns chunks per source."""
        if len(chunks) != self.n_ranks:
            raise ValueError("need one chunk per destination rank")
        self.trace.append((label, rank))
        return [row[rank] for row in self._wait(rank, label, list(chunks))]

    def allreduce_sum(self, rank: int, value: float) -> float:
        """Element-wise global sum; every rank adds all inputs in rank order,
        so the result is bitwise identical on every rank."""
        total = 0.0
        for v in self._wait(rank, "reduce", value):
            total += v
        return total


def spmd_run(n_ranks, body, *args, timeout: float = 60.0, transport=None) -> list:
    """Run `body(rank, transport, *args)` on n_ranks threads, collect results.

    `timeout` applies only to a transport built here.  With n_ranks > 1 each
    rank thread pins itself to the caller's lowest CPU, then sets its own
    policy to SCHED_BATCH, for the reasons the module docstring gives (where
    pinning fails, it does neither).  The caller's thread, and the thread of
    a 1-rank run, keep the caller's CPUs and policy.
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
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
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
    from rank q fill, in arrival order.  `send` overwrites, `sum` adds: every
    rank that sums a slot over the same arrivals forms the same bits.
    """

    sends: list[np.ndarray]
    recvs: list[np.ndarray]

    @functools.cached_property
    def rcvd_dof(self) -> np.ndarray:
        """Every receiving d.o.f. (or slot), in ascending source rank."""
        return np.concatenate(self.recvs)

    @functools.cached_property
    def arrivals(self) -> np.ndarray:
        """Arrivals per slot; every slot of the buffer receives one at least."""
        return np.bincount(self.rcvd_dof)

    @functools.cached_property
    def _start(self) -> np.ndarray:
        # -0.0 + v == v for every v: a single arrival passes unchanged
        return np.where(self.arrivals > 1, 0.0, -0.0)

    def send(self, transport, rank: int, values: np.ndarray, label: str):
        """One all-to-all of values[sends[q]]; returns arrivals in rcvd_dof order."""
        chunks = [values[d] for d in self.sends]
        return np.concatenate(transport.all_to_all(rank, chunks, label=label))

    def sum(self, transport, rank: int, values: np.ndarray, label: str):
        """One all-to-all; per slot, the arrivals added in ascending source
        rank from 0.0, or from -0.0 when it has one (`_start`)."""
        totals = self._start.copy()
        np.add.at(totals, self.rcvd_dof, self.send(transport, rank, values, label))
        return totals


def merge_schedules(parts: list[Schedule]) -> Schedule:
    """One schedule carrying the parts' chunks to each rank, in part order."""
    return Schedule(
        [np.concatenate(d) for d in zip(*(s.sends for s in parts))],
        [np.concatenate(d) for d in zip(*(s.recvs for s in parts))],
    )


@dataclass
class FeMapper:
    """Every exchange schedule of a space, read from one negotiation."""

    schedules: dict[Relation, Schedule]
    true_keys: np.ndarray  # globally minimal (cell, index) key per local dof
    contributions: Schedule  # every block holder -> every halo d.o.f.
    if_dofs: np.ndarray  # interface d.o.f.s, in ascending key
    shared: Schedule  # per rank: the interface d.o.f.s it shares, slots in if_dofs


def build_fe_mapper(
    classification: DofClassification,
    dof_map: DofMap,
    transport: Transport,
    rank: int,
) -> FeMapper:
    """Negotiate every exchange of the space (collective over all ranks).

    Each rank sends every rank one request: the (key, class) rows of all its
    slave d.o.f.s, in ascending key.  A key names a (cell, local index) pair
    the slave's rank knows; a rank knows every cell containing a d.o.f. of
    its block (masters plus interface slaves), so it answers each key another
    rank requests that it holds there with one reply row: (requested key,
    its own key, is-master).  The master's rows, split by the requested
    class, give the three relation schedules and the globally minimal keys;
    every row answering a halo key gives `contributions`.  A rank shares an
    interface d.o.f. with rank q if q answered it as an interface slave here
    or it answered q's interface slave, so both sides list the same d.o.f.s,
    in ascending key.  Send and receive orders follow the requests.
    """
    n_ranks, keys, classes = transport.n_ranks, dof_map.keys, classification.classes
    is_master = classification.is_master
    slaves = np.flatnonzero(~is_master)
    slaves = slaves[np.argsort(keys[slaves], kind="stable")]
    request = np.stack([keys[slaves], classes[slaves]], axis=1)
    incoming = transport.all_to_all(rank, [request] * n_ranks, label="mapper-request")
    incoming[rank] = request[:0]  # a rank answers none of its own requests

    # per rank: (local d.o.f., requested class, master answer) of each reply row
    sent, replies = [], []
    for asked in incoming:
        d = dof_map.dofs_of_keys(asked[:, 0])
        hit = d >= 0
        hit[hit] = classification.in_block[d[hit]]
        d = d[hit]
        sent.append((d, asked[hit, 1], is_master[d]))
        replies.append(np.stack([asked[hit, 0], keys[d], is_master[d]], axis=1))

    answered = transport.all_to_all(rank, replies, label="mapper-reply")
    got = np.concatenate(answered)
    at = slaves[np.searchsorted(request[:, 0], got[:, 0])]
    from_master = got[:, 2] == 1
    matched = np.bincount(at[from_master], minlength=dof_map.n_dofs)[slaves]
    bad = np.flatnonzero(matched != 1)
    if bad.size:
        g, k = int(slaves[bad[0]]), int(matched[bad[0]])
        raise RuntimeError(f"rank {rank}: slave dof {g} matched {k} masters")
    true_keys = keys.copy()
    true_keys[at[from_master]] = got[from_master, 1]
    bounds = np.cumsum([len(a) for a in answered])[:-1]
    rcvd = list(zip(*(np.split(x, bounds) for x in (at, classes[at], from_master))))

    def schedule(select) -> Schedule:
        """The reply rows that `select(class, master answer)` keeps, both ways."""
        return Schedule(*([d[select(c, m)] for d, c, m in s] for s in (sent, rcvd)))

    relations = RELATION_SLAVE_CLASS.items()
    schedules = {r: schedule(lambda c, m, k=k: m & (c == k)) for r, k in relations}
    # halo(alpha) and halo(beta) are the classes above every interface class
    contributions = schedule(lambda c, m: c >= DofClass.HALO_ALPHA)
    if_slaves = schedule(lambda c, m: c == DofClass.INTERFACE_SLAVE)
    if_dofs = np.flatnonzero(classification.in_block & (classes != DofClass.INNER))
    if_dofs = if_dofs[np.argsort(keys[if_dofs], kind="stable")]
    slot = np.full(dof_map.n_dofs, -1)
    slot[if_dofs] = np.arange(len(if_dofs))
    pairs = zip(if_slaves.sends, if_slaves.recvs)
    slot_with = [np.union1d(slot[s], slot[r]) for s, r in pairs]
    slot_with[rank] = np.arange(len(if_dofs))
    shared = Schedule([if_dofs[s] for s in slot_with], slot_with)
    return FeMapper(schedules, true_keys, contributions, if_dofs, shared)


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
    The interface lists are read from the mapper's reply, so both sides of
    every rank pair list the same d.o.f.s in ascending key.  A rank sends
    rank q its values of `shared.sends[q]`, and q's values fill the slots
    `shared.recvs[q]` of a buffer over `if_dofs`; `settling` adds one slot
    per halo d.o.f., fed by the mapper's `contributions`.  Both sum by
    `Schedule.sum`, so a total is the same on every rank forming it.
    """

    def __init__(self, transport: Transport, rank: int, mapper: FeMapper):
        self.transport = transport
        self.rank = rank
        self.if_dofs = mapper.if_dofs
        self.shared = mapper.shared
        # settle: interface slots, then one slot per halo d.o.f. fed by every
        # rank holding it in its block (several if it is interface there)
        c = mapper.contributions
        halo = np.unique(c.rcvd_dof)
        self.settle_dofs = np.concatenate([self.if_dofs, halo])
        halo_slots = [len(self.if_dofs) + np.searchsorted(halo, r) for r in c.recvs]
        self.settling = merge_schedules([self.shared, Schedule(c.sends, halo_slots)])

    def accumulate(self, values: np.ndarray):
        """Replace interface values by the sum over all sharing ranks."""
        total = self.shared.sum(self.transport, self.rank, values, "if-accumulate")
        values[self.if_dofs] = total

    def settle(self, values: np.ndarray):
        """Interface values become the mean over the sharing ranks, halo values
        the mean over their block holders; one all-to-all.  The holders are
        the sharing ranks of the d.o.f.'s master and add in the same order
        from the same start, so each halo value equals its master's bit for
        bit (the master's own where it is the only holder): the vector is
        level-3-consistent."""
        totals = self.settling.sum(self.transport, self.rank, values, "if-average")
        values[self.settle_dofs] = totals / self.settling.arrivals


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

    # cached: every vector and every scalar product reads them
    @functools.cached_property
    def n_local(self) -> int:
        return self.dof_map.n_dofs

    @functools.cached_property
    def master_mask(self) -> np.ndarray:
        return self.classification.is_master

    @property
    def block_mask(self) -> np.ndarray:
        """Masters plus interface slaves: the rows a rank smooths/owns."""
        return self.classification.in_block

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
    exchange = InterfaceExchange(transport, rank, mapper)
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
