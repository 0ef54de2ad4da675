"""Clusters of machines.

The paper's heterogeneous testbed is eight machine types (§V-B footnote:
Dell Precision 380 … IBM BladeCenter HS21XM), one machine per type, against
twelve task types.  Homogeneous experiments (§V-F) use identical machines.
A :class:`Cluster` is an ordered collection of :class:`~repro.sim.machine.
Machine` plus convenience constructors for both layouts.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .machine import Machine

__all__ = ["Cluster"]


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

    def any_free_slot(self) -> bool:
        return any(m.has_free_slot for m in self.machines)

    def online_machines(self) -> list[Machine]:
        """Machines currently accepting work (not failed/drained)."""
        return [m for m in self.machines if m.online]

    def add_machine(self, machine: Machine) -> None:
        """Elastic scale-up: append a new machine to the cluster.

        Machine ids stay unique and positional metrics (busy-time tuples)
        simply grow — ids of existing machines never shift.
        """
        if machine.machine_id in self._by_id:
            raise ValueError(f"duplicate machine id {machine.machine_id}")
        self.machines.append(machine)
        self._by_id[machine.machine_id] = machine

    def next_machine_id(self) -> int:
        return max(m.machine_id for m in self.machines) + 1

    def set_queue_limit(self, limit: int | None) -> None:
        for m in self.machines:
            m.queue_limit = limit
