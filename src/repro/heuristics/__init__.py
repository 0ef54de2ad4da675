"""Mapping heuristics (§III): immediate-mode, batch-mode, homogeneous."""

from .base import (
    BatchHeuristic,
    ImmediateHeuristic,
    Plan,
    PlanningContext,
    TwoPhaseBatchHeuristic,
)
from .batch import MMU, MSD, MinMin
from .extra import LLF, MaxMin, RandomBatch
from .homogeneous import EDF, FCFSRR, SJF
from .immediate import KPB, MCT, MET, RoundRobin
from .registry import (
    ALL_HEURISTICS,
    EXTRA_HEURISTICS,
    BATCH_HEURISTICS,
    HOMOGENEOUS_HEURISTICS,
    IMMEDIATE_HEURISTICS,
    make_heuristic,
)

__all__ = [
    "ImmediateHeuristic",
    "BatchHeuristic",
    "TwoPhaseBatchHeuristic",
    "PlanningContext",
    "Plan",
    "RoundRobin",
    "MET",
    "MCT",
    "KPB",
    "MinMin",
    "LLF",
    "MaxMin",
    "RandomBatch",
    "MSD",
    "MMU",
    "FCFSRR",
    "EDF",
    "SJF",
    "make_heuristic",
    "ALL_HEURISTICS",
    "IMMEDIATE_HEURISTICS",
    "BATCH_HEURISTICS",
    "EXTRA_HEURISTICS",
    "HOMOGENEOUS_HEURISTICS",
]
