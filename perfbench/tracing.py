"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer from the
outside (class or module attributes are swapped for timing wrappers, and
put back by :meth:`Tracer.uninstall`); nothing under ``src/`` changes.
Spans are kept in memory as parallel arrays (name id, start, end,
parent) and folded into per-name aggregates by :meth:`Tracer.collect`:
call count, total time and self time (span minus the time its child
spans cover).  Hooks on a few entry points add the deterministic work
counters the layers already expose (plan sizes, drop and defer
decisions, the estimator's cache counters).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Aggregate:
    """Per-phase span totals, keyed by span name."""

    calls: Counter = field(default_factory=Counter)
    total_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    #: Inclusive time keyed by (span name, parent span name).
    under: defaultdict = field(default_factory=lambda: defaultdict(float))
    spans: int = 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()

    # ------------------------------------------------------------------
    def wrap(self, owner, attr, name=None, *, before=None, after=None):
        """Replace ``owner.attr`` with a wrapper.

        With ``name`` the wrapper records a span; ``before(args)`` runs
        ahead of the call and ``after(result, args)`` once it returns.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = raw
        span_id = None
        if name is not None:
            span_id = self._name_ids.setdefault(name, len(self.names))
            if span_id == len(self.names):
                self.names.append(name)
        stack = self._stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            if span_id is None:
                result = original(*args, **kwargs)
            else:
                idx = len(starts)
                names.append(span_id)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                starts.append(_clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[idx] = _clock()
                    stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def collect(self) -> Aggregate:
        """Fold the recorded spans into an :class:`Aggregate` and clear them."""
        if self._stack:
            raise RuntimeError("collect() called with open spans")
        agg = Aggregate()
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        label = self.names
        for i in range(n):
            name = label[names[i]]
            dur = ends[i] - starts[i]
            agg.calls[name] += 1
            agg.total_s[name] += dur
            agg.self_s[name] += dur - child[i]
            p = parents[i]
            agg.under[name, label[names[p]] if p >= 0 else ""] += dur
        agg.spans = n
        # Fresh arrays would orphan the ones the wrappers captured, so
        # clear the captured ones in place.
        del names[:], starts[:], ends[:], parents[:]
        return agg


def merge(aggs: list[Aggregate]) -> Aggregate:
    out = Aggregate()
    for agg in aggs:
        out.calls.update(agg.calls)
        for src, dst in (
            (agg.total_s, out.total_s),
            (agg.self_s, out.self_s),
            (agg.under, out.under),
        ):
            for key, value in src.items():
                dst[key] += value
        out.spans += agg.spans
    return out


# ======================================================================
# The layer map: which entry points are wrapped, under which span names.
# ======================================================================
#: Estimator entry points traced one by one (per-entry calls and time).
ESTIMATOR_ENTRIES = (
    "cluster_queue_chances",
    "queue_chances_suffix",
    "chances_for_pairs",
    "chances_for",
    "chance_of_success",
    "cluster_expected_available",
)

#: Deterministic estimator counters summed over every finished trial.
ESTIMATOR_COUNTERS = ("hits", "misses", "invalidations", "convolutions", "chance_evaluations")


def install_layers(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark attributes."""
    from repro.core.pruner import Pruner
    from repro.experiments import campaign, runner
    from repro.heuristics.base import ImmediateHeuristic, TwoPhaseBatchHeuristic
    from repro.heuristics.registry import ALL_HEURISTICS
    from repro.service.service import SchedulerService
    from repro.service.timeline import AsyncTimeline
    from repro.sim.engine import Simulator
    from repro.stochastic.pmf import PMF
    from repro.system import allocator, completion
    from repro.system.serverless import ServerlessSystem
    from repro.workload import generator  # the module, not the package re-export

    c = tracer.counters

    # sim.engine — one span per fired event (the driver's callbacks nest).
    def on_step(result, _args):
        if result:
            c["engine.events"] += 1

    tracer.wrap(Simulator, "step", "engine.step", after=on_step)

    # system.allocator — arrivals and completions enter here; the
    # mapping event itself is a nested span that samples the batch depth.
    def on_mapping_event(args):
        c["allocator.mapping_events"] += 1
        c["allocator.batch_depth_sum"] += len(getattr(args[0], "batch_queue", ()))

    tracer.wrap(allocator.BatchAllocator, "submit", "allocator.submit")
    tracer.wrap(allocator.ImmediateAllocator, "submit", "allocator.submit")
    tracer.wrap(allocator.ResourceAllocator, "on_completion", "allocator.on_completion")
    tracer.wrap(
        allocator.BatchAllocator, "_mapping_event", "allocator.mapping_event",
        before=on_mapping_event,
    )
    tracer.wrap(
        allocator.ImmediateAllocator, "_run_mapping_event", "allocator.mapping_event",
        before=on_mapping_event,
    )

    def on_dispatch(args):
        if isinstance(args[0], allocator.BatchAllocator):  # planned placements only
            c["allocator.dispatched"] += 1

    tracer.wrap(allocator.ResourceAllocator, "_dispatch", before=on_dispatch)

    # heuristics — batch planning rounds and immediate selections.
    def on_plan(result, _args):
        c["heuristics.planned"] += len(result)

    tracer.wrap(TwoPhaseBatchHeuristic, "plan", "heuristics.plan", after=on_plan)
    for factory in sorted(set(ALL_HEURISTICS.values()), key=lambda f: f.__name__):
        if (
            isinstance(factory, type)
            and issubclass(factory, ImmediateHeuristic)
            and "select_machine" in factory.__dict__
        ):
            tracer.wrap(factory, "select_machine", "heuristics.select")

    # core.pruner — the drop scan and the defer test.
    def on_drops(result, _args):
        c["pruner.drops"] += len(result)

    def on_defer(result, _args):
        c["pruner.should_defer_calls"] += 1
        c["pruner.defers"] += bool(result)

    tracer.wrap(Pruner, "drop_scan", "pruner.drop_scan", after=on_drops)
    tracer.wrap(Pruner, "should_defer", after=on_defer)

    # system.completion — the estimator's query entry points.
    for entry in ESTIMATOR_ENTRIES:
        tracer.wrap(completion.CompletionEstimator, entry, f"estimator.{entry}")

    # stochastic.pmf — chain convolutions and the batched CDF gather
    # (wrapped where the estimator looks it up: it imports it by name).
    tracer.wrap(PMF, "convolve_truncated", "pmf.convolve")
    tracer.wrap(completion, "batch_cdf_at", "pmf.cdf_gather")

    # workload — generation, wherever the benchmark or a campaign trial
    # calls it from.
    tracer.wrap(generator, "generate_workload", "workload.generate")
    tracer.wrap(runner, "generate_workload", "workload.generate")

    # experiments.campaign — trials and the result cache.
    tracer.wrap(campaign, "run_trial", "campaign.trial")
    tracer.wrap(campaign.ResultCache, "get", "campaign.cache_get")
    tracer.wrap(campaign.ResultCache, "put", "campaign.cache_put")

    # service — the live timeline and the admission gate.
    def on_fire(result, _args):
        c["engine.events"] += result

    tracer.wrap(AsyncTimeline, "fire_due", "service.fire_due", after=on_fire)
    tracer.wrap(SchedulerService, "_admit_live", "service.admit")

    # Per-trial estimator counters ride on the record ``run`` returns
    # (``result`` itself may be called twice per trial, e.g. for the
    # trimmed evaluation window).  The service never calls ``run``; its
    # workload adds the counters itself.
    def on_run(result, _args):
        add_estimator_counters(c, result.estimator_stats)

    tracer.wrap(ServerlessSystem, "run", after=on_run)


def add_estimator_counters(counters: Counter, stats) -> None:
    for key in ESTIMATOR_COUNTERS:
        counters[f"estimator.{key}"] += int(stats.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Aggregate, counters: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (campaign and service extras
    are filled in by their workloads)."""
    calls, self_s = agg.calls, agg.self_s
    events = counters["allocator.mapping_events"]
    m: dict[str, tuple[float, str]] = {
        "engine.events": (counters["engine.events"], "count"),
        "engine.self_s": (self_s["engine.step"], "s"),
        "allocator.mapping_events": (events, "count"),
        "allocator.self_s": (
            self_s["allocator.submit"]
            + self_s["allocator.on_completion"]
            + self_s["allocator.mapping_event"],
            "s",
        ),
        "allocator.batch_depth_mean": (
            _ratio(counters["allocator.batch_depth_sum"], events),
            "tasks",
        ),
        "heuristics.plan_calls": (calls["heuristics.plan"], "count"),
        "heuristics.plan_s": (self_s["heuristics.plan"], "s"),
        "heuristics.plans_per_event": (_ratio(calls["heuristics.plan"], events), "1/event"),
        "heuristics.select_calls": (calls["heuristics.select"], "count"),
        "heuristics.select_s": (self_s["heuristics.select"], "s"),
        "heuristics.placement_use_ratio": (
            _ratio(counters["allocator.dispatched"], counters["heuristics.planned"]),
            "ratio",
        ),
        "pruner.drop_scan_calls": (calls["pruner.drop_scan"], "count"),
        "pruner.drop_scan_s": (self_s["pruner.drop_scan"], "s"),
        "pruner.drops": (counters["pruner.drops"], "count"),
        "pruner.defers": (counters["pruner.defers"], "count"),
        "pruner.defer_ratio": (
            _ratio(counters["pruner.defers"], counters["pruner.should_defer_calls"]),
            "ratio",
        ),
    }
    for entry in ESTIMATOR_ENTRIES:
        m[f"estimator.{entry}_calls"] = (calls[f"estimator.{entry}"], "count")
        m[f"estimator.{entry}_s"] = (self_s[f"estimator.{entry}"], "s")
    hits, misses = counters["estimator.hits"], counters["estimator.misses"]
    m.update(
        {
            "estimator.self_s": (
                sum(self_s[f"estimator.{e}"] for e in ESTIMATOR_ENTRIES),
                "s",
            ),
            "estimator.convolutions_per_event": (
                _ratio(counters["estimator.convolutions"], events),
                "1/event",
            ),
            "estimator.chance_evaluations_per_event": (
                _ratio(counters["estimator.chance_evaluations"], events),
                "1/event",
            ),
            "estimator.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
            "estimator.invalidations": (counters["estimator.invalidations"], "count"),
            "pmf.convolve_calls": (calls["pmf.convolve"], "count"),
            "pmf.convolve_s": (self_s["pmf.convolve"], "s"),
            "pmf.cdf_gathers": (calls["pmf.cdf_gather"], "count"),
            "pmf.cdf_gather_s": (self_s["pmf.cdf_gather"], "s"),
            "workload.generate_calls": (calls["workload.generate"], "count"),
            "workload.generate_s": (self_s["workload.generate"], "s"),
            "service.fire_due_s": (self_s["service.fire_due"], "s"),
            "service.admit_chance_s": (
                agg.under["estimator.chances_for", "service.admit"],
                "s",
            ),
        }
    )
    return m


#: Layer of each span name, for the self-time table.
def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_table(agg: Aggregate, wall_s: float) -> list[tuple[str, float, float]]:
    """(layer, self seconds, share of the traced wall) rows, largest first,
    plus the remainder no span covers."""
    per_layer: defaultdict = defaultdict(float)
    for name, value in agg.self_s.items():
        per_layer[layer_of(name)] += value
    rows = sorted(per_layer.items(), key=lambda kv: -kv[1])
    covered = sum(per_layer.values())
    rows.append(("(unattributed)", wall_s - covered))
    return [(layer, s, _ratio(s, wall_s)) for layer, s in rows]
