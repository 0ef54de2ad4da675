"""The benchmark tracer's targets exist: a tier-1 guard.

``perfbench/tracing.py`` wraps the entry points of every layer by name
(the estimator's query methods, ``PMF.convolve_truncated``,
``completion.batch_cdf_at``, ...).  A renamed or deleted target would
otherwise only fail a perfbench run.  These tests install the tracer's
layer map in-process and take it out again; nothing is benchmarked.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.stochastic.pmf import PMF
from repro.system import completion
from repro.system.completion import CompletionEstimator

from tests.conftest import make_deterministic_pet

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_every_target_and_uninstall_restores_it(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        undo = list(tracer._undo)
        for owner, attr, _raw in undo:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    finally:
        tracer.uninstall()
    originals: dict = {}
    for owner, attr, raw in undo:
        originals.setdefault((owner, attr), raw)  # first wrap saw the original
    for (owner, attr), raw in originals.items():
        assert _current(owner, attr) is raw, (owner, attr)
        assert not hasattr(_current(owner, attr), "__wrapped__"), (owner, attr)
    wrapped = set(originals)
    for entry in tracing.ESTIMATOR_ENTRIES:
        assert (CompletionEstimator, entry) in wrapped
    assert (completion, "batch_cdf_at") in wrapped
    assert (PMF, "convolve_truncated") in wrapped


def test_estimator_counters_are_cache_stats_keys(tracing):
    est = CompletionEstimator(make_deterministic_pet(np.array([[1.0]])))
    assert set(tracing.ESTIMATOR_COUNTERS) <= set(est.cache_stats())
