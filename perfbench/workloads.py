"""The benchmark's four workloads over the mapping core.

Each workload builds its inputs from the ``--seed`` it is given, runs
untraced for the measurement window (:meth:`measure`), or runs one
untraced reference pass and then the same inputs traced (:meth:`trace`).
Both modes run the correctness checks, untimed, into a :class:`Ledger`.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.config import PruningConfig, ToggleMode
from repro.experiments import runner
from repro.experiments.campaign import Campaign, ResultCache, SweepGrid
from repro.experiments.scenarios import level_spec
from repro.service.clock import VirtualClock
from repro.service.service import SchedulerService, run_until_quiescent
from repro.service.timeline import AsyncTimeline
from repro.sim.rng import stream_seed
from repro.system.serverless import ServerlessSystem
from repro.workload import generator
from repro.workload.spec import ArrivalPattern

from calibrate import HostSpeed, Segments
from tracing import (
    Tracer,
    add_estimator_counters,
    install_layers,
    layer_metrics,
    layer_table,
    merge,
)

perf = time.perf_counter

#: Trials per pass of the two simulator workloads (one pass = every
#: input once; passes repeat until the window is spent).  Figures from
#: different seeds spread mostly with the inputs (re-runs of one seed
#: agree within ~1 %), so a pass holds as many distinct inputs as fit.
SIM_TRIALS = {"drop-25k": 8, "defer-25k": 4}
#: Scale of the untimed warm-up trial run in every set-up.
WARMUP_SCALE = 0.15
#: Events after which the memoize=False oracle comparison stops (the
#: from-scratch estimator is ~4x slower; a prefix keeps checks cheap).
ORACLE_EVENTS = {"drop-25k": 600, "defer-25k": 250}
#: Longest stretch of timed work between two host-speed calibrations.
SEGMENT_S = 0.25
#: Process-pool workers of the traced campaign run's pool leg.
CAMPAIGN_WORKERS = 2
CAMPAIGN_HEURISTICS = ("MM", "MSD", "MMU", "MCT", "KPB")
#: Eq.-2 admission gate of the service workload.
ADMISSION_THRESHOLD = 0.3
#: Distinct arrival sequences per pass of the service workload.
SERVICE_SETS = 8


class Ledger:
    """Operations attempted and failed, and the named correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool]] = []

    def op(self, ok: bool = True, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        self.op(bool(ok))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok in self.checks)


def outcome_digest(tasks) -> str:
    """Digest of every task's terminal outcome, in task-id order."""
    h = hashlib.sha256()
    for t in sorted(tasks, key=lambda t: t.task_id):
        h.update(
            f"{t.task_id},{t.status.value},{t.machine_id},"
            f"{t.finished_at!r},{t.dropped_at!r};".encode()
        )
    return h.hexdigest()[:16]


def combine(digests) -> str:
    return hashlib.sha256("|".join(digests).encode()).hexdigest()[:16]


def accounting_identity(system: ServerlessSystem) -> bool:
    """arrived = on_time + late + dropped_missed + dropped_proactive."""
    acc = system.accounting
    return acc.total_arrived == (
        acc.total_on_time + acc.total_late + acc.total_dropped_missed
        + acc.total_dropped_proactive
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1000.0


def record_percentile_ms(passes, q: float) -> float:
    """Median over every trial or service run of its own ``q``-th latency
    percentile, so one run hit by a host stall does not set the figure."""
    return statistics.median(percentile_ms(r.samples, q) for p in passes for r in p)


def trace_metrics(agg, wall_s: float, untraced_wall_s: float) -> dict:
    unattributed = next(s for layer, s, _ in layer_table(agg, wall_s) if layer == "(unattributed)")
    return {
        "trace.wall_s": (wall_s, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_pct": (100.0 * (wall_s / untraced_wall_s - 1.0), "%"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.spans": (agg.spans, "count"),
    }


#: Per-layer metrics only some workloads produce; the rest report zero.
CAMPAIGN_LAYER_KEYS = {
    "campaign.trials": "count",
    "campaign.trial_s_mean": "s",
    "campaign.cache_put_s": "s",
    "campaign.cache_get_s": "s",
    "campaign.warm_run_s": "s",
    "campaign.cache_hit_ratio": "ratio",
    "campaign.pool_overhead_s": "s",
}
SERVICE_LAYER_KEYS = {
    "service.wakeups": "count",
    "service.admitted": "count",
    "service.rejected": "count",
    "service.shed": "count",
}


@dataclass
class TraceResult:
    """What a traced run reports: per-layer metrics plus the table."""

    metrics: dict
    table: list
    notes: list[str] = field(default_factory=list)


def finish_trace(
    agg, counters, wall_s, untraced_wall_s, extra=None, setup_agg=None
) -> TraceResult:
    """Per-layer metrics of a traced pass; ``setup_agg`` adds the traced
    input generation, which sits outside the pass's wall time."""
    metrics = layer_metrics(merge([setup_agg, agg]) if setup_agg else agg, counters)
    for key, unit in {**CAMPAIGN_LAYER_KEYS, **SERVICE_LAYER_KEYS}.items():
        metrics[key] = (0, unit)
    metrics.update(extra or {})
    metrics.update(trace_metrics(agg, wall_s, untraced_wall_s))
    return TraceResult(metrics, layer_table(agg, wall_s))


def traced(fn):
    """Run ``fn(tracer)`` with every layer wrapped; always unwrap."""
    tracer = Tracer()
    install_layers(tracer)
    try:
        return fn(tracer)
    finally:
        tracer.uninstall()


# ======================================================================
# drop-25k / defer-25k: trials through the discrete-event simulator.
# ======================================================================
@dataclass
class TrialRecord:
    digest: str
    wall_s: float  #: at the reference host speed (raw when traced)
    raw_s: float
    tasks: int
    on_time: int
    mapping_events: int
    sim_events: int
    convolutions: int
    identity: bool
    #: Host seconds of each simulator event that ran a mapping event.
    samples: list = field(repr=False, default_factory=list)


class SimWorkload:
    """Batch MM trials at the 25k spiky level, timed per mapping event."""

    def __init__(self, name: str, pruning: PruningConfig, seed: int, tiny: bool) -> None:
        self.name = name
        self.pruning = pruning
        self.seed = seed
        self.scale = 0.1 if tiny else 1.0
        self.trials = 1 if tiny else SIM_TRIALS[name]
        self.oracle_events = 100 if tiny else ORACLE_EVENTS[name]
        self.warmup_scale = 0.05 if tiny else WARMUP_SCALE

    def _generate(self) -> None:
        spec = level_spec("25k", ArrivalPattern.SPIKY, self.scale)
        self.templates = [
            generator.generate_workload(
                spec, self.pet, np.random.default_rng(stream_seed(self.seed, f"perfbench/trial/{i}"))
            )
            for i in range(self.trials)
        ]

    def setup(self) -> None:
        runner.pet_matrix.cache_clear()
        self.pet = runner.pet_matrix()
        self._generate()
        warm_spec = level_spec("25k", ArrivalPattern.SPIKY, self.warmup_scale)
        warm = generator.generate_workload(
            warm_spec, self.pet, np.random.default_rng(stream_seed(self.seed, "perfbench/warmup"))
        )
        self._system(0).run(warm)

    def _system(self, i: int, memoize: bool = True) -> ServerlessSystem:
        return ServerlessSystem(
            self.pet, "MM", pruning=self.pruning, seed=self.seed * 1000 + i, memoize=memoize
        )

    def run_trial(self, i: int, speed: HostSpeed | None = None) -> TrialRecord:
        tasks = copy.deepcopy(self.templates[i])
        system = self._system(i)
        gc.collect()  # drop the previous trial's cycles outside the timing
        seg = Segments(speed, SEGMENT_S)
        system.submit_workload(tasks)
        step = system.sim.step
        allocator = system.allocator
        while True:
            events = allocator.mapping_events
            a = perf()
            if not step():
                break
            b = perf()
            if allocator.mapping_events != events:
                seg.add(b - a)
            seg.maybe_close(b)
        result = system.run()  # queue drained: finalizes and aggregates
        seg.close()
        return TrialRecord(
            digest=outcome_digest(tasks),
            wall_s=seg.normalized_s,
            raw_s=seg.raw_s,
            tasks=result.total,
            on_time=result.on_time,
            mapping_events=result.mapping_events,
            sim_events=system.sim.events_fired,
            convolutions=result.estimator_stats["convolutions"],
            identity=accounting_identity(system)
            and result.unfinished == 0
            and result.total == len(tasks),
            samples=seg.samples,
        )

    def run_pass(self, speed: HostSpeed | None = None) -> list[TrialRecord]:
        return [self.run_trial(i, speed) for i in range(self.trials)]

    def _oracle_check(self, ledger: Ledger) -> None:
        """Trial 0, cut after a prefix of events: the incremental estimator
        and the memoize=False from-scratch oracle decide identically."""
        outcomes = []
        for memoize in (True, False):
            tasks = copy.deepcopy(self.templates[0])
            result = self._system(0, memoize).run(tasks, max_events=self.oracle_events)
            outcomes.append(
                (outcome_digest(tasks), result.mapping_events, result.defer_decisions)
            )
        ledger.check("oracle: incremental == memoize=False", outcomes[0] == outcomes[1])

    @staticmethod
    def _check_identity(records: list[TrialRecord], ledger: Ledger) -> None:
        for rec in records:
            ledger.op(rec.identity)
        ledger.check(
            "accounting identity on every trial", all(rec.identity for rec in records)
        )

    def determinism(self, records: list[TrialRecord]) -> dict:
        return {
            "digest": combine(r.digest for r in records),
            "engine.events": sum(r.sim_events for r in records),
            "allocator.mapping_events": sum(r.mapping_events for r in records),
            "estimator.convolutions": sum(r.convolutions for r in records),
        }

    def measure(self, seconds: float, ledger: Ledger, speed: HostSpeed) -> tuple[dict, dict]:
        passes = []
        t0 = perf()
        while True:
            passes.append(self.run_pass(speed))
            if perf() - t0 >= seconds:
                break
        self._check_identity([r for p in passes for r in p], ledger)
        first = self.determinism(passes[0])
        # A long pass may fill the window alone: trial 0 runs once more,
        # untimed, so there is always a repeat to compare.
        ledger.check(
            "determinism: every pass and a re-run of trial 0 repeat the first pass",
            all(self.determinism(p) == first for p in passes[1:])
            and self.run_trial(0).digest == passes[0][0].digest,
        )
        self._oracle_check(ledger)

        def per_pass(fn):
            return statistics.median(fn(p) / sum(r.wall_s for r in p) for p in passes)

        ref = passes[0]
        metrics = {
            "events_per_s": (per_pass(lambda p: sum(r.mapping_events for r in p)), "1/s"),
            "trials_per_s": (per_pass(len), "1/s"),
            "tasks_per_s": (per_pass(lambda p: sum(r.tasks for r in p)), "1/s"),
            "latency_ms_p50": (record_percentile_ms(passes, 50), "ms"),
            "latency_ms_p99": (record_percentile_ms(passes, 99), "ms"),
            "robustness_pct": (
                100.0 * sum(r.on_time for r in ref) / sum(r.tasks for r in ref),
                "%",
            ),
        }
        info = {
            **first,
            "passes": len(passes),
            "latency_samples": sum(len(r.samples) for p in passes for r in p),
            "raw_events_per_s": statistics.median(
                sum(r.mapping_events for r in p) / sum(r.raw_s for r in p) for p in passes
            ),
        }
        return metrics, info

    def trace(self, ledger: Ledger) -> tuple[TraceResult, dict]:
        reference = self.run_pass()

        def body(tracer):
            self._generate()
            setup_agg = tracer.collect()
            records = self.run_pass()
            return setup_agg, tracer.collect(), tracer.counters, records

        setup_agg, agg, counters, records = traced(body)
        self._check_identity(reference + records, ledger)
        ref = self.determinism(reference)
        ledger.check("determinism: traced pass == untraced pass", self.determinism(records) == ref)
        ledger.check(
            "determinism: traced counters == untraced",
            counters["engine.events"] == ref["engine.events"]
            and counters["allocator.mapping_events"] == ref["allocator.mapping_events"]
            and counters["estimator.convolutions"] == ref["estimator.convolutions"],
        )
        self._oracle_check(ledger)
        wall = sum(r.raw_s for r in records)
        untraced_wall = sum(r.raw_s for r in reference)
        result = finish_trace(agg, counters, wall, untraced_wall, setup_agg=setup_agg)
        return result, {**ref, **deterministic_layer_counters(result.metrics)}


def deterministic_layer_counters(metrics: dict) -> dict:
    keys = (
        "engine.events",
        "allocator.mapping_events",
        "heuristics.plan_calls",
        "estimator.convolutions_per_event",
        "pmf.cdf_gathers",
    )
    return {f"traced.{k}": metrics[k][0] for k in keys}


# ======================================================================
# campaign-mix: cold campaigns over a fresh cache, then warm on it.
# ======================================================================
class CampaignWorkload:
    """Many short trials: per-trial overhead (cache keys and writes, row
    aggregation; in the traced run also the process pool's start and
    pickling)."""

    name = "campaign-mix"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.grid = SweepGrid(
            name="perfbench-mix",
            heuristics=CAMPAIGN_HEURISTICS,
            levels=("15k",),
            patterns=("spiky", "bursty"),
            pruning=("none", "drop-only"),
            trials=1 if tiny else 4,
            base_seed=seed,
            scale=0.1 if tiny else 0.4,
        )
        self.workdir = workdir

    def setup(self) -> None:
        runner.pet_matrix.cache_clear()
        runner.pet_matrix()
        self.campaign = Campaign.from_grid(self.grid)
        self.cells = [cell.config for cell in self.campaign.cells]
        warm = replace(self.grid, trials=1, scale=0.05)
        self._discard(self._cold(Campaign.from_grid(warm), "serial")[2])

    def _new_cache(self) -> ResultCache:
        return ResultCache(Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir)))

    def _cold(self, campaign: Campaign, executor: str):
        cache = self._new_cache()
        gc.collect()
        t0 = perf()
        summary = campaign.run(jobs=CAMPAIGN_WORKERS, cache=cache, executor=executor)
        return summary, perf() - t0, cache

    def _cold_leg(self, cache: ResultCache, speed: HostSpeed) -> list:
        """One cold campaign, serially in this process, cell by cell: each
        cell's summary and its time in a calibrated segment of its own."""
        leg = []
        gc.collect()
        seg = Segments(speed)
        for cell in self.campaign.cells:
            before = seg.normalized_s
            summary = Campaign([cell], name=self.campaign.name).run(cache=cache, executor="serial")
            seg.close()
            leg.append((summary, seg.normalized_s - before))
        return leg

    @staticmethod
    def rows_digest(rows) -> str:
        return hashlib.sha256(
            json.dumps([row.to_dict() for row in rows], sort_keys=True).encode()
        ).hexdigest()[:16]

    def _check_cold(self, cache: ResultCache, ledger: Ledger) -> list:
        results = [cache.get(cfg, t) for cfg in self.cells for t in range(cfg.trials)]
        ok = [
            r is not None
            and r.unfinished == 0
            and r.total == r.on_time + r.late + r.dropped_missed + r.dropped_proactive
            for r in results
        ]
        for good in ok:
            ledger.op(good)
        ledger.check("accounting identity on every trial", all(ok))
        return [r for r in results if r is not None]

    def _check_warm(self, cold_rows, cache: ResultCache, ledger: Ledger):
        t0 = perf()
        warm = self.campaign.run(cache=cache, executor="serial")
        wall = perf() - t0
        total = len(self.cells) * self.grid.trials
        ledger.check(
            "warm re-run: all cache hits, rows equal to cold",
            warm.cache_hits == total
            and warm.cache_misses == 0
            and self.rows_digest(warm.rows) == self.rows_digest(cold_rows),
        )
        return warm, wall

    def _discard(self, cache: ResultCache) -> None:
        shutil.rmtree(cache.root, ignore_errors=True)

    def measure(self, seconds: float, ledger: Ledger, speed: HostSpeed) -> tuple[dict, dict]:
        legs = []
        t0 = perf()
        while True:
            cache = self._new_cache()
            legs.append(self._cold_leg(cache, speed))
            if len(legs) == 1:
                first_cache = cache
            else:
                self._discard(cache)
            if perf() - t0 >= seconds:
                break
        leg_rows = [[row for summary, _ in leg for row in summary.rows] for leg in legs]
        results = self._check_cold(first_cache, ledger)
        self._check_warm(leg_rows[0], first_cache, ledger)
        self._discard(first_cache)
        digest = self.rows_digest(leg_rows[0])
        ledger.check(
            "determinism: every cold leg repeats the first",
            all(self.rows_digest(rows) == digest for rows in leg_rows[1:]),
        )
        trials = len(results)
        events = sum(r.mapping_events for r in results)
        tasks = sum(cfg.spec.num_tasks * cfg.trials for cfg in self.cells)
        # Each cell's median time over the legs, so a host stall in one
        # leg does not set the figure; a leg is their sum.
        cell_s = [statistics.median(leg[i][1] for leg in legs) for i in range(len(self.cells))]
        leg_s = sum(cell_s)
        per_trial = [s / cfg.trials for s, cfg in zip(cell_s, self.cells)]
        metrics = {
            "events_per_s": (events / leg_s, "1/s"),
            "trials_per_s": (trials / leg_s, "1/s"),
            "tasks_per_s": (tasks / leg_s, "1/s"),
            "latency_ms_p50": (percentile_ms(per_trial, 50), "ms"),
            "latency_ms_p99": (percentile_ms(per_trial, 99), "ms"),
            "robustness_pct": (
                100.0 * sum(r.on_time for r in results) / sum(r.total for r in results),
                "%",
            ),
        }
        info = {
            "digest": digest,
            "allocator.mapping_events": events,
            "estimator.convolutions": sum(r.estimator_stats["convolutions"] for r in results),
            "legs": len(legs),
            "raw_trials_per_s": trials / statistics.median(
                sum(s.wall_s for s, _ in leg) for leg in legs
            ),
        }
        return metrics, info

    def trace(self, ledger: Ledger) -> tuple[TraceResult, dict]:
        pool, pool_wall, cache = self._cold(self.campaign, "process")
        self._discard(cache)
        serial, serial_wall, cache = self._cold(self.campaign, "serial")
        self._check_cold(cache, ledger)
        self._discard(cache)

        def body(tracer):
            cold, wall, cache = self._cold(self.campaign, "serial")
            cold_agg = tracer.collect()
            warm, warm_wall = self._check_warm(cold.rows, cache, ledger)
            return cold, wall, cache, cold_agg, tracer.collect(), warm, warm_wall, tracer.counters

        cold, wall, cache, agg, warm_agg, warm, warm_wall, counters = traced(body)
        self._check_cold(cache, ledger)
        self._discard(cache)
        digest = self.rows_digest(serial.rows)
        ledger.check(
            "determinism: pool, serial and traced legs agree",
            self.rows_digest(pool.rows) == digest and self.rows_digest(cold.rows) == digest,
        )
        trials = agg.calls["campaign.trial"]
        in_trial = serial_wall * agg.total_s["campaign.trial"] / wall
        extra = {
            "campaign.trials": (trials, "count"),
            "campaign.trial_s_mean": (agg.total_s["campaign.trial"] / max(trials, 1), "s"),
            "campaign.cache_put_s": (agg.total_s["campaign.cache_put"], "s"),
            "campaign.cache_get_s": (warm_agg.total_s["campaign.cache_get"], "s"),
            "campaign.warm_run_s": (warm_wall, "s"),
            "campaign.cache_hit_ratio": (
                warm.cache_hits / max(warm.cache_hits + warm.cache_misses, 1),
                "ratio",
            ),
            "campaign.pool_overhead_s": (pool_wall - in_trial / CAMPAIGN_WORKERS, "s"),
        }
        result = finish_trace(agg, counters, wall, serial_wall, extra)
        result.notes.append(
            "campaign traced legs ran serially in-process (executor=serial); "
            f"the untraced reference is a serial leg ({serial_wall:.3f} s), and "
            f"the process-pool cold leg took {pool_wall:.3f} s at {CAMPAIGN_WORKERS} workers"
        )
        info = {"digest": digest, **deterministic_layer_counters(result.metrics)}
        return result, info


# ======================================================================
# service-bursty: live offers through the virtual-clock service.
# ======================================================================
@dataclass
class ServiceRecord:
    digest: str
    wall_s: float  #: at the reference host speed (raw when traced)
    raw_s: float
    offers: int
    on_time: int
    mapping_events: int
    wakeups: int
    stats: dict
    #: Host seconds from each ``offer()`` to its decision.
    samples: list = field(repr=False, default_factory=list)
    checks: dict = field(default_factory=dict)
    estimator_stats: dict = field(default_factory=dict)


class ServiceWorkload:
    """Bursty MMPP arrivals offered one by one, each decision awaited."""

    name = "service-bursty"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.scale = 0.1 if tiny else 1.0
        self.sets = 1 if tiny else SERVICE_SETS
        self.warm_offers = 50 if tiny else 300

    def _generate(self) -> None:
        spec = level_spec("25k", ArrivalPattern.BURSTY, self.scale)
        self.arrival_sets = []
        for k in range(self.sets):
            rng = np.random.default_rng(stream_seed(self.seed, f"perfbench/service/{k}"))
            self.arrival_sets.append(
                [
                    (t.arrival, {"task_type": t.task_type, "deadline_slack": t.deadline - t.arrival})
                    for t in generator.generate_workload(spec, self.pet, rng)
                ]
            )

    def setup(self) -> None:
        runner.pet_matrix.cache_clear()
        self.pet = runner.pet_matrix()
        self._generate()
        asyncio.run(self._drive(self.arrival_sets[0][: self.warm_offers]))

    async def _pass(self, speed: HostSpeed | None = None) -> list[ServiceRecord]:
        records = []
        for arrivals in self.arrival_sets:
            # Each run leaves its service in reference cycles; collect
            # them outside the timing so memory stays flat.
            gc.collect()
            records.append(await self._drive(arrivals, speed))
        return records

    async def _drive(self, arrivals, speed: HostSpeed | None = None) -> ServiceRecord:
        """Offer each record at its arrival instant and await its decision.

        Before each arrival the events due up to that instant are drained
        with :func:`run_until_quiescent`'s idle→advance handshake.  The
        final advance to the arrival itself must not be followed by
        ``wait_idle()``: with no event due there, the pump re-parks
        without ever setting idle again.  ``offer()`` wakes it instead.
        """
        clock = VirtualClock()
        system = ServerlessSystem(
            self.pet,
            "MM",
            pruning=PruningConfig.drop_only(),
            seed=self.seed,
            sim=AsyncTimeline(clock),
        )
        service = SchedulerService(system, admission_threshold=ADMISSION_THRESHOLD)
        admitted: list[int] = []
        statuses: Counter = Counter()
        wakeups = 0
        seg = Segments(speed, SEGMENT_S)
        await service.start()
        for when, record in arrivals:
            while True:
                await service.wait_idle()
                nxt = service.next_wakeup()
                if nxt is None or nxt > when:
                    break
                service._idle.clear()
                clock.advance_to(max(nxt, clock.now()))
                wakeups += 1
            if when > clock.now():
                clock.advance_to(when)
            a = perf()
            decision = await service.offer(record)
            b = perf()
            seg.add(b - a)
            seg.maybe_close(b)
            statuses[decision.status] += 1
            if decision.status == "admitted":
                admitted.append(decision.task_id)
        wakeups += await run_until_quiescent(service)
        await service.stop()
        result = service.finalize()
        seg.close()

        stats = service.stats.to_dict()
        tasks = system.tasks
        outcomes = Counter(t.task_id for t in tasks if t.is_terminal)
        checks = {
            "ingress identity (received = admitted + rejected + shed + malformed)": (
                stats["received"]
                == stats["admitted"] + stats["rejected"] + stats["shed"] + stats["malformed"]
                and stats["received"] == len(arrivals)
                and all(statuses[k] == stats[k] for k in ("admitted", "rejected", "shed", "malformed"))
            ),
            "every admitted task reaches exactly one outcome": (
                len(tasks) == stats["admitted"] + stats["rejected"]
                and len(admitted) == stats["admitted"]
                and all(outcomes[i] == 1 for i in admitted)
                and result.unfinished == 0
            ),
            "accounting identity": accounting_identity(system),
        }
        return ServiceRecord(
            digest=outcome_digest(tasks),
            wall_s=seg.normalized_s,
            raw_s=seg.raw_s,
            offers=len(arrivals),
            on_time=result.on_time,
            mapping_events=result.mapping_events,
            wakeups=wakeups,
            stats=stats,
            samples=seg.samples,
            checks=checks,
            estimator_stats=dict(result.estimator_stats),
        )

    @staticmethod
    def _check_runs(reps: list[ServiceRecord], ledger: Ledger) -> None:
        for rec in reps:
            failed = rec.stats["shed"] + rec.stats["malformed"]
            ledger.op(True, rec.offers - failed)
            ledger.op(False, failed)
        for name in reps[0].checks:
            ledger.check(name, all(rec.checks[name] for rec in reps))

    def determinism(self, records: list[ServiceRecord]) -> dict:
        return {
            "digest": combine(r.digest for r in records),
            "allocator.mapping_events": sum(r.mapping_events for r in records),
            "estimator.convolutions": sum(r.estimator_stats["convolutions"] for r in records),
            "service.wakeups": sum(r.wakeups for r in records),
        }

    def measure(self, seconds: float, ledger: Ledger, speed: HostSpeed) -> tuple[dict, dict]:
        async def loop():
            passes = []
            t0 = perf()
            while True:
                passes.append(await self._pass(speed))
                if perf() - t0 >= seconds:
                    return passes

        passes = asyncio.run(loop())
        self._check_runs([r for p in passes for r in p], ledger)
        first = self.determinism(passes[0])
        ledger.check(
            "determinism: every pass repeats the first",
            all(self.determinism(p) == first for p in passes[1:]),
        )

        def per_pass(fn, wall=lambda r: r.wall_s):
            return statistics.median(fn(p) / sum(wall(r) for r in p) for p in passes)

        ref = passes[0]
        offers = sum(r.offers for r in ref)
        metrics = {
            "events_per_s": (per_pass(lambda p: sum(r.mapping_events for r in p)), "1/s"),
            "trials_per_s": (per_pass(len), "1/s"),
            "tasks_per_s": (per_pass(lambda p: sum(r.offers for r in p)), "1/s"),
            "latency_ms_p50": (record_percentile_ms(passes, 50), "ms"),
            "latency_ms_p99": (record_percentile_ms(passes, 99), "ms"),
            "robustness_pct": (100.0 * sum(r.on_time for r in ref) / offers, "%"),
        }
        info = {
            **first,
            **{k: sum(r.stats[k] for r in ref) for k in ref[0].stats},
            "passes": len(passes),
            "latency_samples": sum(len(r.samples) for p in passes for r in p),
            "raw_tasks_per_s": per_pass(lambda p: sum(r.offers for r in p), lambda r: r.raw_s),
        }
        return metrics, info

    def trace(self, ledger: Ledger) -> tuple[TraceResult, dict]:
        reference = asyncio.run(self._pass())

        def body(tracer):
            self._generate()
            setup_agg = tracer.collect()
            records = asyncio.run(self._pass())
            return setup_agg, tracer.collect(), tracer.counters, records

        setup_agg, agg, counters, records = traced(body)
        self._check_runs(reference + records, ledger)
        for rec in records:
            add_estimator_counters(counters, rec.estimator_stats)
        ref = self.determinism(reference)
        ledger.check("determinism: traced pass == untraced pass", self.determinism(records) == ref)
        ledger.check(
            "determinism: traced counters == untraced",
            counters["allocator.mapping_events"] == ref["allocator.mapping_events"],
        )
        extra = {
            "service.wakeups": (ref["service.wakeups"], "count"),
            **{
                f"service.{k}": (sum(r.stats[k] for r in records), "count")
                for k in ("admitted", "rejected", "shed")
            },
        }
        result = finish_trace(
            agg,
            counters,
            sum(r.raw_s for r in records),
            sum(r.raw_s for r in reference),
            extra,
            setup_agg=setup_agg,
        )
        return result, {**ref, **deterministic_layer_counters(result.metrics)}


def make(name: str, seed: int, tiny: bool, workdir: Path):
    if name == "drop-25k":
        return SimWorkload(name, PruningConfig.drop_only(ToggleMode.ALWAYS), seed, tiny)
    if name == "defer-25k":
        return SimWorkload(name, PruningConfig.paper_default(), seed, tiny)
    if name == "campaign-mix":
        return CampaignWorkload(seed, tiny, workdir)
    if name == "service-bursty":
        return ServiceWorkload(seed, tiny)
    raise KeyError(name)


WORKLOADS = ("drop-25k", "defer-25k", "campaign-mix", "service-bursty")
