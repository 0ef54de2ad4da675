"""Resource allocation and the serverless system facade (Fig. 1)."""

from .admission import AdmissionController
from .allocator import BatchAllocator, ImmediateAllocator, ResourceAllocator
from .completion import CompletionEstimator, ExecutionModel
from .serverless import DEFAULT_BATCH_QUEUE_SLOTS, ServerlessSystem

__all__ = [
    "CompletionEstimator",
    "ExecutionModel",
    "ResourceAllocator",
    "ImmediateAllocator",
    "BatchAllocator",
    "ServerlessSystem",
    "DEFAULT_BATCH_QUEUE_SLOTS",
    "AdmissionController",
]
