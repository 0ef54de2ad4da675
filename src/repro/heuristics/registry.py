"""Name-based heuristic registry.

The experiment harness and CLI refer to heuristics by the names the paper
uses (Fig. 3): ``RR MET MCT KPB`` (immediate, heterogeneous),
``MM MSD MMU`` (batch, heterogeneous), ``FCFS-RR EDF SJF`` (homogeneous).
"""

from __future__ import annotations

from collections.abc import Callable

from .base import BatchHeuristic, ImmediateHeuristic
from .batch import MMU, MSD, MinMin
from .extra import LLF, MaxMin, RandomBatch
from .homogeneous import EDF, FCFSRR, SJF
from .immediate import KPB, MCT, MET, RoundRobin

__all__ = [
    "IMMEDIATE_HEURISTICS",
    "BATCH_HEURISTICS",
    "HOMOGENEOUS_HEURISTICS",
    "EXTRA_HEURISTICS",
    "ALL_HEURISTICS",
    "heuristic_name",
    "make_heuristic",
]

Heuristic = ImmediateHeuristic | BatchHeuristic

IMMEDIATE_HEURISTICS: dict[str, Callable[[], ImmediateHeuristic]] = {
    "RR": RoundRobin,
    "MET": MET,
    "MCT": MCT,
    "KPB": KPB,
}

BATCH_HEURISTICS: dict[str, Callable[[], BatchHeuristic]] = {
    "MM": MinMin,
    "MSD": MSD,
    "MMU": MMU,
}

#: Heuristics beyond the paper's §III set (see :mod:`repro.heuristics.extra`).
EXTRA_HEURISTICS: dict[str, Callable[[], BatchHeuristic]] = {
    "LLF": LLF,
    "MAXMIN": MaxMin,
    "RANDOM": RandomBatch,
}

HOMOGENEOUS_HEURISTICS: dict[str, Callable[[], BatchHeuristic]] = {
    "FCFS-RR": FCFSRR,
    "EDF": EDF,
    "SJF": SJF,
}

ALL_HEURISTICS: dict[str, Callable[[], Heuristic]] = {
    **IMMEDIATE_HEURISTICS,
    **BATCH_HEURISTICS,
    **HOMOGENEOUS_HEURISTICS,
    **EXTRA_HEURISTICS,
}


def heuristic_name(name: object) -> str:
    """The registry spelling of a heuristic name: "mm" and "MM" (and
    "fcfs_rr" and "FCFS-RR") are one heuristic, so one cache identity."""
    key = str(name).upper().replace("_", "-")
    if key not in ALL_HEURISTICS:
        raise ValueError(f"unknown heuristic {name!r}; choose from {sorted(ALL_HEURISTICS)}")
    return key


def make_heuristic(name: str, **kwargs) -> Heuristic:
    """Instantiate a heuristic by its paper name (case-insensitive)."""
    try:
        key = heuristic_name(name)
    except ValueError as exc:
        raise KeyError(exc.args[0]) from None
    return ALL_HEURISTICS[key](**kwargs)
