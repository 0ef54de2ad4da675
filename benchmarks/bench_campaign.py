"""Campaign-orchestration benches: executor plans, sharding + cache.

Measures the acceptance scenario of the batched executor layer (ISSUE 6)
on the Fig. 7b grid (9 cells × N trials):

* **serial** — the forced one-process plan (the baseline);
* **auto** — ``--jobs``-style sharding under the adaptive plan resolver.
  On one core this must resolve to the serial plan (no pool can win
  there), so the run may not be slower than serial — the fix for the
  PR 4 artifact's 0.96x parallel pathology, recorded below;
* **process** — the forced pool plan, run for byte-identity and to
  exercise the pool + result-cache path;
* **warm** — an immediate re-run served entirely from the cache.

Emits ``BENCH_campaign.json`` next to this file with the wall-clock
series, the resolved plan, per-executor identity flags, and cache hit
counts; ``tools/check_bench.py`` validates the committed payload in CI.
Every executor must reproduce the serial per-trial results byte-for-byte
on every machine; wall-clock gates are env-escapable for shared runners.
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from repro.experiments.campaign import ResultCache, resolve_execution_plan
from repro.experiments.scenarios import run_figure

CAMPAIGN_JSON = Path(__file__).resolve().parent / "BENCH_campaign.json"

#: Trials per cell — the acceptance run uses 10; the default keeps the
#: bench in CI-friendly territory while still giving the pool 27 shards.
CAMPAIGN_TRIALS = int(os.environ.get("BENCH_CAMPAIGN_TRIALS", "3"))

#: Worker budget for the auto leg (the acceptance run's ``--jobs 4``).
CAMPAIGN_JOBS = int(os.environ.get("BENCH_CAMPAIGN_JOBS", "4"))

#: ``BENCH_CAMPAIGN_STRICT=0`` records the speedups without gating on
#: them — for shared CI runners where a few-second workload is
#: noise-sensitive.  The identity and cache-effectiveness asserts
#: always apply.
CAMPAIGN_STRICT = os.environ.get("BENCH_CAMPAIGN_STRICT", "1") != "0"

#: The PR 4 committed artifact on the single-core reference machine:
#: ``--jobs 4`` forced a process pool whose pickling overhead *lost* to
#: the serial run — the pathology the adaptive plan resolver removes.
#: Kept inside the new payload so the trajectory reads PR over PR.
PR4_ARTIFACT = {
    "sequential_s": 4.533215763000044,
    "parallel_s": 4.72731675400064,
    "speedup_parallel_over_sequential": 0.9589405573814507,
}


def _fig7b(**kwargs):
    return run_figure(
        "fig7b", trials=CAMPAIGN_TRIALS, base_seed=BENCH_SEED, scale=BENCH_SCALE, **kwargs
    )


def _per_trial(figure):
    return [
        figure.get(r, c).per_trial_pct for r in figure.rows for c in figure.cols
    ]


def test_campaign_sharding(tmp_path, show):
    """fig7b under every executor plan, plus the cache-warm re-run."""
    # Timed legs run in alternating order, best-of-three: on a shared
    # single-core box successive legs measure progressively slower
    # (throttling), so a fixed order hands whoever runs first a
    # systematic edge — alternation spreads the drift over both legs.
    serial_s = auto_s = float("inf")
    serial = auto = None
    for order in (("auto", "serial"), ("serial", "auto"), ("auto", "serial")):
        for leg in order:
            t0 = time.perf_counter()
            if leg == "serial":
                serial = _fig7b(executor="serial")
                serial_s = min(serial_s, time.perf_counter() - t0)
            else:
                auto = _fig7b(jobs=CAMPAIGN_JOBS)
                auto_s = min(auto_s, time.perf_counter() - t0)

    cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    process = _fig7b(jobs=2, executor="process", cache=cache)
    process_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = _fig7b(jobs=2, executor="process", cache=cache)
    warm_s = time.perf_counter() - t0

    # Byte-identity of every plan against serial — per-trial, not means.
    reference = _per_trial(serial)
    identical = {
        "auto": _per_trial(auto) == reference,
        "process": _per_trial(process) == reference,
        "warm": _per_trial(warm) == reference,
    }

    total_trials = len(serial.rows) * len(serial.cols) * CAMPAIGN_TRIALS
    cores = os.cpu_count() or 1
    kind, workers = resolve_execution_plan(CAMPAIGN_JOBS, total_trials)
    speedup = serial_s / auto_s if auto_s > 0 else float("inf")
    warm_fraction = warm_s / serial_s if serial_s > 0 else 0.0
    payload = {
        "benchmark": "campaign-sharding",
        "workload": {
            "figure": "fig7b",
            "scale": BENCH_SCALE,
            "trials": CAMPAIGN_TRIALS,
            "cells": len(serial.rows) * len(serial.cols),
            "total_trials": total_trials,
        },
        "cpu_count": cores,
        "jobs": CAMPAIGN_JOBS,
        "resolved_plan": {"kind": kind, "workers": workers},
        "serial_s": serial_s,
        "auto_s": auto_s,
        "speedup_auto_over_serial": speedup,
        "process_s": process_s,
        "identical": identical,
        "warm_s": warm_s,
        "warm_fraction_of_serial": warm_fraction,
        "cache": cache.stats(),
        "pr4_artifact": PR4_ARTIFACT,
    }
    CAMPAIGN_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    show(
        f"campaign fig7b ({total_trials} trials): serial {serial_s:.1f}s | "
        f"auto(jobs={CAMPAIGN_JOBS} -> {kind}x{workers}) {auto_s:.1f}s "
        f"({speedup:.2f}x, {cores} cores) | "
        f"process {process_s:.1f}s | warm {warm_s:.2f}s ({warm_fraction:.1%}) "
        f"(JSON: {CAMPAIGN_JSON.name})"
    )

    assert all(identical.values()), (
        f"executor plans diverged from serial: {identical}"
    )
    assert cache.stats() == {"hits": total_trials, "misses": total_trials}
    # The cache must make re-runs nearly free everywhere.
    assert warm_fraction < 0.25, (
        f"warm re-run took {warm_fraction:.1%} of the serial run — cache not effective"
    )
    if cores == 1:
        # The adaptive resolver's whole point on one core.
        assert kind == "serial", f"one core resolved to a {kind} pool"
    if CAMPAIGN_STRICT:
        # On one core auto *is* serial, so this asserts near-parity (the
        # PR 4 pathology was 0.96x with real pool overhead on top);
        # on multi-core it asserts the pool actually wins.
        floor = 0.95 if cores == 1 else (2.0 if cores >= 4 else 1.0)
        assert speedup >= floor, (
            f"auto plan {speedup:.2f}x < {floor}x serial on {cores} cores"
        )
