"""Clusters of machines.

The paper's heterogeneous testbed is eight machine types (§V-B footnote:
Dell Precision 380 … IBM BladeCenter HS21XM), one machine per type, against
twelve task types.  Homogeneous experiments (§V-F) use identical machines.
A :class:`Cluster` is an ordered collection of :class:`~repro.sim.machine.
Machine` plus convenience constructors for both layouts.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Protocol, runtime_checkable

from .machine import Machine

__all__ = ["Cluster", "QueueObserver"]


@runtime_checkable
class QueueObserver(Protocol):
    """Structured queue-delta notifications from a :class:`Machine`.

    Machines announce *what* changed instead of merely bumping a version
    counter, so subscribers (notably the completion estimator's
    product caches) can invalidate exactly the affected suffix
    of their derived state:

    * ``on_enqueue(machine, index)`` — a task was appended at queue
      ``index`` (always the tail).  Existing prefix state stays valid.
    * ``on_dequeue(machine, index)`` — the task at ``index`` left the
      queue to start running (always the head today).
    * ``on_drop(machine, index)`` — the task at ``index`` was removed
      without running (pruner drop or deadline reap).  State derived from
      positions ``> index`` is stale.
    * ``on_start(machine)`` — a new task began running (the machine's
      completion belief changed at its root).
    * ``on_finish(machine)`` — the running task completed.

    Indices refer to the queue immediately before the mutation.  Events
    fire after the machine's own state is consistent, so observers may
    inspect ``machine.queue``/``machine.running`` directly.

    Cluster dynamics added two *optional* events, dispatched by name so
    observers written against the original five-method protocol keep
    working (and the completion estimator additionally fail-safes on the
    machine ``version`` counter):

    * ``on_offline(machine)`` — the machine failed or was drained; its
      queue (and on failure, its running task) is gone.  All state
      derived from the machine is stale.
    * ``on_online(machine)`` — the machine recovered, empty.
    """

    def on_enqueue(self, machine: Machine, index: int) -> None: ...
    def on_dequeue(self, machine: Machine, index: int) -> None: ...
    def on_drop(self, machine: Machine, index: int) -> None: ...
    def on_start(self, machine: Machine) -> None: ...
    def on_finish(self, machine: Machine) -> None: ...


class Cluster:
    """Ordered, indexable set of machines."""

    def __init__(self, machines: Sequence[Machine]) -> None:
        if not machines:
            raise ValueError("cluster needs at least one machine")
        ids = [m.machine_id for m in machines]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate machine ids: {ids}")
        self.machines: list[Machine] = list(machines)
        self._by_id = {m.machine_id: m for m in machines}
        # Observers registered at the cluster level, so machines added
        # later (elastic scale-up) inherit every subscription.
        self._observers: list[QueueObserver] = []

    # ------------------------------------------------------------------
    @classmethod
    def heterogeneous(
        cls,
        num_machine_types: int,
        *,
        machines_per_type: int = 1,
        queue_limit: int | None = None,
    ) -> Cluster:
        """One (or more) machine of each machine type, ids 0..n-1."""
        machines = []
        mid = 0
        for mtype in range(num_machine_types):
            for _ in range(machines_per_type):
                machines.append(Machine(mid, mtype, queue_limit=queue_limit))
                mid += 1
        return cls(machines)

    @classmethod
    def homogeneous(
        cls,
        num_machines: int,
        *,
        machine_type: int = 0,
        queue_limit: int | None = None,
    ) -> Cluster:
        """``num_machines`` identical machines, all of ``machine_type``."""
        return cls(
            [Machine(i, machine_type, queue_limit=queue_limit) for i in range(num_machines)]
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines)

    def __getitem__(self, machine_id: int) -> Machine:
        return self._by_id[machine_id]

    @property
    def machine_types(self) -> tuple[int, ...]:
        return tuple(m.machine_type for m in self.machines)

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.machine_types)) == 1

    def machines_with_free_slots(self) -> list[Machine]:
        return [m for m in self.machines if m.has_free_slot]

    def any_free_slot(self) -> bool:
        return any(m.has_free_slot for m in self.machines)

    def online_machines(self) -> list[Machine]:
        """Machines currently accepting work (not failed/drained)."""
        return [m for m in self.machines if m.online]

    def add_machine(self, machine: Machine) -> None:
        """Elastic scale-up: append a new machine to the cluster.

        The machine inherits every cluster-level observer subscription.
        Machine ids stay unique and positional metrics (busy-time tuples)
        simply grow — ids of existing machines never shift.
        """
        if machine.machine_id in self._by_id:
            raise ValueError(f"duplicate machine id {machine.machine_id}")
        self.machines.append(machine)
        self._by_id[machine.machine_id] = machine
        for obs in self._observers:
            machine.subscribe(obs)

    def next_machine_id(self) -> int:
        return max(m.machine_id for m in self.machines) + 1

    def total_queued(self) -> int:
        return sum(m.queue_length for m in self.machines)

    def queued_tasks(self) -> list:
        """All mapped-but-not-running tasks across machine queues."""
        out = []
        for m in self.machines:
            out.extend(m.queue)
        return out

    def set_queue_limit(self, limit: int | None) -> None:
        for m in self.machines:
            m.queue_limit = limit

    # ------------------------------------------------------------------
    def subscribe(self, observer: QueueObserver) -> None:
        """Subscribe ``observer`` to queue-delta events of every machine
        (including machines added later via :meth:`add_machine`)."""
        if observer not in self._observers:
            self._observers.append(observer)
        for m in self.machines:
            m.subscribe(observer)

    def unsubscribe(self, observer: QueueObserver) -> None:
        if observer in self._observers:
            self._observers.remove(observer)
        for m in self.machines:
            m.unsubscribe(observer)
