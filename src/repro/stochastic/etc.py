"""Deterministic Expected-Time-to-Compute (ETC) matrix baseline.

Khemka et al. (cited as [12] in the paper's related work) track execution
times with a *deterministic scalar* ETC matrix, in contrast to the paper's
probabilistic PET matrix.  We implement the ETC view as a baseline that
shows what the probabilistic model buys: an ETC-driven pruner estimates
chance of success as a step function (1 when the expected completion
time meets the deadline, else 0), which cannot distinguish a 51 % from
a 99 % chance.
"""

from __future__ import annotations

import numpy as np

from .pet import PETMatrix
from .pmf import PMF

__all__ = ["ETCMatrix"]


class ETCMatrix:
    """Scalar expected execution times per (task type, machine type).

    Provides the same estimation interface shape as :class:`PETMatrix`
    where it matters for scheduling (means), plus a degenerate
    ``pmf(t, m)`` returning a delta at the mean so ETC can be dropped into
    any component that expects probabilistic estimates.
    """

    def __init__(self, means: np.ndarray) -> None:
        means = np.asarray(means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("ETC matrix must be 2-D")
        if np.any(means <= 0):
            raise ValueError("ETC entries must be positive")
        self.means = means
        self._deltas: dict[tuple[int, int], PMF] = {}

    @classmethod
    def from_pet(cls, pet: PETMatrix) -> ETCMatrix:
        """Collapse a PET matrix to its per-cell means."""
        return cls(pet.means.copy())

    @property
    def num_task_types(self) -> int:
        return int(self.means.shape[0])

    @property
    def num_machine_types(self) -> int:
        return int(self.means.shape[1])

    def mean(self, task_type: int, machine_type: int) -> float:
        return float(self.means[task_type, machine_type])

    def type_mean(self, task_type: int) -> float:
        return float(self.means[task_type].mean())

    def overall_mean(self) -> float:
        return float(self.means.mean())

    def pmf(self, task_type: int, machine_type: int) -> PMF:
        """Degenerate PET: all mass at the expected execution time."""
        key = (task_type, machine_type)
        if key not in self._deltas:
            self._deltas[key] = PMF.delta(self.mean(*key))
        return self._deltas[key]

    def best_machines(self, task_type: int) -> np.ndarray:
        return np.argsort(self.means[task_type], kind="stable")
