"""Discrete-event simulation substrate: engine, tasks, machines, cluster."""

from .cluster import Cluster
from .dynamics import ClusterDynamics, DynamicsSpec
from .engine import EventHandle, Priority, Simulator
from .machine import Machine
from .rng import RngStreams, stream_seed
from .task import TERMINAL_STATUSES, Task, TaskStatus, fresh_task_ids

__all__ = [
    "Simulator",
    "EventHandle",
    "Priority",
    "Machine",
    "Cluster",
    "DynamicsSpec",
    "ClusterDynamics",
    "Task",
    "TaskStatus",
    "TERMINAL_STATUSES",
    "fresh_task_ids",
    "RngStreams",
    "stream_seed",
]
