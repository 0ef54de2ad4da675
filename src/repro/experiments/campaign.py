"""Campaign orchestration: declarative sweeps, sharded across processes.

The paper's evaluation is a *campaign*: dozens of (heuristic × pruning ×
workload) cells, each averaged over 30 independent workload trials
(§V-A, run on the LONI Queen Bee 2 cluster).  This module is the local
equivalent — it turns a declarative :class:`SweepGrid` into experiment
cells, shards the (cell, trial) pairs across a process pool, and caches
every trial result on disk so interrupted or repeated campaigns resume
instead of recomputing.

Three guarantees, enforced by ``tests/experiments/test_campaign.py``:

* **Seeding is preserved bit-for-bit.**  A trial's outcome depends only
  on its :class:`~repro.experiments.runner.ExperimentConfig` and trial
  index — :func:`~repro.experiments.runner.run_trial` derives every
  random stream from ``(base_seed, trial)`` and rebuilds the shared PET
  matrix deterministically from ``PET_SEED`` inside each worker — so
  ``jobs=8`` produces *identical* per-trial results to a serial run, in
  any completion order.
* **The cache is content-addressed.**  Keys are a
  :func:`~repro.sim.rng.fingerprint` of the full (config, seed, trial)
  payload plus schema/version stamps and a digest of the ``repro``
  source tree; any parameter *or code* change misses, any exact re-run
  hits.
* **Aggregation is order-independent.**  Per-cell statistics are always
  computed over trials in index order, regardless of which worker
  finished first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import shutil
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy
import scipy

from .. import __version__
from ..control.registry import resolve_controller
from ..core.config import PruningConfig, ToggleMode
from ..core.convert import NotA, as_bool, as_float, as_floats, as_int, as_str, convert_named
from ..heuristics.registry import heuristic_name
from ..metrics.collector import SimulationResult
from ..metrics.robustness import aggregate_robustness
from ..sim.dynamics import DynamicsSpec
from ..sim.rng import fingerprint
from ..workload.spec import ArrivalPattern, WorkloadSpec
from ..workload.trace import StatMemo, trace_spec
from .report import CampaignRow, CampaignSummary
from .runner import ExperimentConfig, pet_matrix, run_trial

__all__ = [
    "SweepGrid",
    "Campaign",
    "CampaignCell",
    "ResultCache",
    "run_cell_trials",
    "resolve_execution_plan",
    "trial_key",
    "EXECUTOR_CHOICES",
    "PRESETS",
    "LEVELS",
    "BASE_TIME_SPAN",
    "level_spec",
    "is_trace_level",
    "DEFAULT_CACHE_DIR",
    "CACHE_SCHEMA",
]

#: Bump on cache *format* changes (key payload / entry layout).  Code
#: edits need no bump: a digest of the source tree is part of every key.
#: v2: key payload gained ``dynamics`` (cluster churn) and, for trace
#: replay, a content digest of the replayed file.
#: v3: the pruning payload gained the nested ``controller`` config
#: (adaptive β/α control plane) and cached results may carry
#: ``controller_stats``/``fairness_stats``.
#: v4: the workload spec gained the trace-adapter knobs
#: (``trace_format``/``trace_sample``) and the layered-DAG axis
#: (``dag_layers``/``dag_edge_prob``/``dag_max_parents``); cached
#: results may carry ``dag_stats``.
#: v5: the controller payload gained the bandit fields (``betas``/
#: ``alphas``/``epsilon``/``ucb_c``/``seed``/``miss_bands``/
#: ``queue_bands``) and grids gained the ``tuning`` axis (applied as
#: config patches, so tuned cells key on their patched payloads).
CACHE_SCHEMA = 5

#: Project-local default cache directory used by the CLI.
DEFAULT_CACHE_DIR = ".repro_cache"

#: A ``*.tmp*`` cache file older than this is an orphan of a killed
#: write (live ones exist only for the instant before ``os.replace``).
TMP_MAX_AGE_S = 3600.0


# ======================================================================
# Result cache
# ======================================================================
_CODE_FINGERPRINT: str | None = None


def _code_fingerprint() -> str:
    """Digest of every ``repro`` source file (computed once per process).

    Folding this into cache keys means editing any simulation code
    automatically invalidates prior cached trials — no stale figure can
    be served after a behavior change.  ``CACHE_SCHEMA`` remains for
    deliberate format bumps.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()[:16]
    return _CODE_FINGERPRINT


def _provenance() -> dict:
    """What besides the config determines a trial's outcome: the cache
    schema, the package version, the source tree, and the dependencies
    whose RNG bit-streams back the simulation (numpy Generator streams
    may change between feature releases; scipy.special's Student-t
    kernels ``stdtrit`` and ``stdtr`` back the aggregation's confidence
    intervals and paired p-values).
    Any of these changing must miss rather than replay results the
    current environment no longer reproduces."""
    return {
        "schema": CACHE_SCHEMA,
        "repro": __version__,
        "code": _code_fingerprint(),
        "deps": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }


#: Content digests per trace file; trial_key calls this once per
#: (cell, trial), so without the memo a 30-trial cell would hash the
#: same unchanged file 30 times.
_TRACE_DIGESTS = StatMemo(capacity=64)


def _trace_digest(path: str) -> str:
    """Content digest of a replayed trace file.

    The spec only names the *path*; editing the file in place must miss
    the cache rather than replay results of the old contents (the digest
    memo is keyed on the file's stat signature, so an edit re-hashes).
    A missing file digests to a sentinel — the subsequent run fails
    loudly in the worker, and the sentinel never collides with real
    contents.
    """
    sig = StatMemo.signature(path)
    if sig is None:
        return "missing"
    digest = _TRACE_DIGESTS.get(sig)
    if digest is None:
        try:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
        except OSError:
            return "missing"
        _TRACE_DIGESTS.put(sig, digest)
    return digest


def _config_payload(config: ExperimentConfig) -> dict:
    """Canonical, JSON-stable description of one experimental cell.

    Everything that can change a trial's outcome is in here; the display
    ``label`` and the cell's ``trials`` count (trial identity is carried
    separately) are deliberately not.
    """
    spec = asdict(config.spec)
    spec["pattern"] = config.spec.pattern.value
    pruning = None
    if config.pruning is not None:
        pruning = asdict(config.pruning)
        pruning["toggle_mode"] = config.pruning.toggle_mode.value
    payload = {
        **_provenance(),
        "heuristic": config.heuristic,
        "spec": spec,
        "pruning": pruning,
        "heterogeneity": config.heterogeneity,
        "base_seed": config.base_seed,
        "dynamics": asdict(config.dynamics) if config.dynamics is not None else None,
    }
    if config.spec.pattern is ArrivalPattern.TRACE:
        payload["trace_digest"] = _trace_digest(config.spec.trace_path)
    return payload


def trial_key(config: ExperimentConfig, trial: int) -> str:
    """Content-addressed cache key of one (cell, trial) pair."""
    return fingerprint({"cell": _config_payload(config), "trial": trial}, length=32)


class ResultCache:
    """On-disk store of per-trial :class:`SimulationResult` records.

    Entries live in one subdirectory per *provenance* (code +
    dependency + schema fingerprint) with one JSON file per trial,
    named by :func:`trial_key` — so the entries another code version
    wrote are segregated, not mixed in, and :meth:`prune_stale` can age
    whole obsolete versions out by directory without touching a cache a
    parallel branch/worktree is still using.  Writes go through a temp
    file + :func:`os.replace` so a killed campaign never leaves a
    truncated entry; unreadable entries are treated as misses and
    overwritten.
    """

    #: Shapes of the paths this cache creates — pruning only ever
    #: touches names matching these, so pointing ``--cache-dir`` at a
    #: directory with other content cannot destroy it.
    _DIR_RE = re.compile(r"[0-9a-f]{16}")
    _TMP_RE = re.compile(r"[0-9a-f]{32}\.tmp\d+")

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._touched = False

    @property
    def current_dir(self) -> Path:
        """Entry directory of the current code/dependency provenance."""
        return self.root / fingerprint(_provenance(), length=16)

    def path_for(self, config: ExperimentConfig, trial: int) -> Path:
        return self.current_dir / f"{trial_key(config, trial)}.json"

    def get(self, config: ExperimentConfig, trial: int) -> SimulationResult | None:
        path = self.path_for(config, trial)
        try:
            payload = json.loads(path.read_text())
            result = SimulationResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        if not self._touched:
            # Reads don't move the directory mtime on their own; mark
            # the provenance as in-use so an all-hits warm cache is not
            # aged out by prune_stale.
            self._touched = True
            try:
                os.utime(path.parent)
            except OSError:
                pass
        return result

    def put(self, config: ExperimentConfig, trial: int, result: SimulationResult) -> None:
        path = self.path_for(config, trial)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "cell": _config_payload(config),
            "trial": trial,
            "result": result.to_dict(),
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def prune_stale(self, max_age_days: float = 7.0) -> int:
        """Age out entries of other code/dependency versions; returns
        the number of paths removed.

        Every source edit or dependency upgrade starts a fresh
        provenance subdirectory, so without pruning the default cache
        would grow monotonically during iterative development.  A
        subdirectory of a *different* provenance is removed once
        untouched for ``max_age_days`` — recent ones survive, so
        switching between two active branches does not destroy either
        branch's warm cache.  Orphaned ``*.tmp*`` files from killed
        writes are removed once stale by :data:`TMP_MAX_AGE_S` — never
        younger, because a concurrent campaign's in-flight atomic write
        owns its tmp file for the instant before ``os.replace``.  The
        CLI prunes on every cache-enabled run.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        now = time.time()  # reprolint: ignore[D001] on-disk cache ages are wall-clock by definition
        cutoff = now - max_age_days * 86400.0
        tmp_cutoff = now - TMP_MAX_AGE_S
        current = self.current_dir.name

        def _reap_tmp(candidates: Iterable[Path]) -> int:
            reaped = 0
            for tmp in candidates:
                if (
                    self._TMP_RE.fullmatch(tmp.name)
                    and tmp.is_file()
                    and tmp.stat().st_mtime < tmp_cutoff
                ):
                    tmp.unlink()
                    reaped += 1
            return reaped

        for path in self.root.iterdir():
            try:
                # Only names this cache itself creates are eligible —
                # an unrelated directory handed in as --cache-dir is
                # left alone.
                if path.is_dir() and self._DIR_RE.fullmatch(path.name):
                    # Read the mtime first: reaping a tmp file below
                    # refreshes it, which would grant a dead directory
                    # another full age period.
                    dir_mtime = path.stat().st_mtime
                    removed += _reap_tmp(path.glob("*.tmp*"))
                    if path.name != current and dir_mtime < cutoff:
                        shutil.rmtree(path)
                        removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"


# ======================================================================
# Sharded trial executor
# ======================================================================
#: Executor kinds ``run_cell_trials`` accepts.  ``"auto"`` resolves to
#: a process pool when parallelism can plausibly pay, else serial.
EXECUTOR_CHOICES = ("auto", "serial", "process")

#: Below this many pending trials ``"auto"`` never spins up a pool:
#: worker startup plus chunk pickling costs more than the trials.
MIN_PARALLEL_PENDING = 4

#: Target chunks per worker: more than one so stragglers rebalance,
#: few so the per-campaign submission/pickle count stays low (one
#: pickle per *chunk*, not per trial).
CHUNKS_PER_WORKER = 4


def resolve_execution_plan(
    jobs: int | None,
    pending: int,
    *,
    executor: str = "auto",
    cpu_count: int | None = None,
) -> tuple[str, int]:
    """Resolve ``(executor kind, workers)`` for ``pending`` runnable trials.

    The adaptive contract: workers are clamped to ``min(jobs, pending,
    cpu_count)``, and ``"auto"`` falls back to serial whenever a pool
    cannot win — ``cpu_count == 1`` (a pool only adds pickling and
    scheduling on the same core that runs the trials), fewer than
    :data:`MIN_PARALLEL_PENDING` pending trials, or an effective worker
    count of 1.  An *explicit* ``"process"`` request is honored as asked
    (clamped to ``pending`` only), so the determinism harness can
    exercise the pool code path on any box.  ``cpu_count``
    defaults to live ``os.cpu_count()``.
    """
    if executor not in EXECUTOR_CHOICES:
        raise ValueError(
            f"executor must be one of {EXECUTOR_CHOICES}, got {executor!r}"
        )
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if pending <= 1 or executor == "serial":
        return "serial", 1
    if executor != "auto":
        return executor, max(1, min(jobs if jobs else cpu, pending))
    if jobs is None or jobs <= 1:
        return "serial", 1  # parallelism stays opt-in
    workers = min(jobs, pending, cpu)
    if workers <= 1 or pending < MIN_PARALLEL_PENDING:
        return "serial", 1
    return "process", workers


#: Set by ``_init_worker`` — the shared read-only trial inputs travel to
#: each process exactly once (via the pool initializer), and submitted
#: chunks then reference cells by index instead of carrying configs.
_WORKER_CONFIGS: Sequence[ExperimentConfig] | None = None


def _init_worker(configs: Sequence[ExperimentConfig]) -> None:
    """Executor initializer: install the shared read-only trial inputs.

    Besides the config table, this pre-builds the frozen PET matrix of
    every heterogeneity kind the campaign touches, so a process worker
    pays the deterministic matrix construction once up front rather
    than inside its first trial.
    """
    global _WORKER_CONFIGS
    _WORKER_CONFIGS = configs
    for kind in sorted({c.heterogeneity for c in configs}):
        pet_matrix(kind)


def _run_chunk(chunk: Sequence[tuple[int, int]]) -> list[tuple]:
    """Run one chunk of (cell index, trial) pairs inside a worker.

    Per-trial failures are captured and returned, not raised: one bad
    trial must not discard the finished siblings sharing its chunk.
    """
    configs = _WORKER_CONFIGS
    assert configs is not None, "executor worker used before _init_worker ran"
    out: list[tuple] = []
    for ci, t in chunk:
        try:
            out.append((ci, t, run_trial(configs[ci], t), None))
        except Exception as exc:  # re-raised by the parent, see run_cell_trials
            out.append((ci, t, None, exc))
    return out


def _chunked(
    todo: Sequence[tuple[int, int]], workers: int
) -> list[list[tuple[int, int]]]:
    """Split pending pairs into ~:data:`CHUNKS_PER_WORKER` chunks each."""
    size = max(1, math.ceil(len(todo) / (workers * CHUNKS_PER_WORKER)))
    return [list(todo[i : i + size]) for i in range(0, len(todo), size)]


def run_cell_trials(
    configs: Sequence[ExperimentConfig],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    executor: str = "auto",
) -> list[list[SimulationResult]]:
    """Run every trial of every cell; returns per-cell trial lists.

    Cache lookups happen first; only missing (cell, trial) pairs are
    executed.  :func:`resolve_execution_plan` turns ``jobs``/``executor``
    into a plan: serial in-process or a process pool — submission is
    chunked (one pickle per chunk), and the configs plus frozen PET matrices
    reach each worker once via the pool initializer.  Every trial is a
    pure function of ``(config, trial)`` — seeds derive from that pair
    alone — so any plan produces byte-identical results in any
    completion order.  Each result is written to the cache the moment
    its chunk finishes, which is what lets an interrupted campaign
    resume.
    """
    configs = list(configs)
    results: dict[tuple[int, int], SimulationResult] = {}
    todo: list[tuple[int, int]] = []
    for ci, cfg in enumerate(configs):
        for t in range(cfg.trials):
            hit = cache.get(cfg, t) if cache is not None else None
            if hit is not None:
                results[ci, t] = hit
            else:
                todo.append((ci, t))

    kind, workers = resolve_execution_plan(jobs, len(todo), executor=executor)
    if kind == "serial":
        for ci, t in todo:
            results[ci, t] = run_trial(configs[ci], t)
            if cache is not None:
                cache.put(configs[ci], t, results[ci, t])
    else:
        first_error: BaseException | None = None
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(configs,)
        ) as pool:
            futures = [pool.submit(_run_chunk, chunk) for chunk in _chunked(todo, workers)]
            try:
                for future in as_completed(futures):
                    # A failing trial must not discard its siblings:
                    # every completed result is cached before the error
                    # is allowed to propagate, so a resumed campaign
                    # re-runs only the genuinely missing trials.
                    for ci, t, result, exc in future.result():
                        if exc is not None:
                            if cache is None:
                                # Nothing preserves the siblings' work —
                                # fail fast rather than compute results
                                # that will be discarded anyway.
                                raise exc
                            if first_error is None:
                                first_error = exc
                            continue
                        results[ci, t] = result
                        if cache is not None:
                            cache.put(configs[ci], t, result)
            except BaseException:
                # Interrupt or cache-write failure: drop the queued
                # chunks instead of running them only to discard them.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        if first_error is not None:
            raise first_error

    return [
        [results[ci, t] for t in range(cfg.trials)] for ci, cfg in enumerate(configs)
    ]


# ======================================================================
# Declarative sweep grids
# ======================================================================
def _as_params(value: object) -> dict:
    if not isinstance(value, Mapping) or not value:
        raise NotA("a non-empty mapping", value)
    return dict(value)


def _one_of(noun: str, choices: Mapping[str, object]) -> Callable[[object], tuple]:
    """A ``parse`` resolving a name among ``choices`` to its value."""

    def parse(entry: object) -> tuple[str, object]:
        if not isinstance(entry, str) or entry not in choices:
            raise ValueError(f"unknown {noun} {entry!r}; choose from {list(choices)}")
        return entry, choices[entry]

    return parse


#: Scaled task counts per oversubscription level, preserving the paper's
#: 15 : 20 : 25 arrival-rate ratios.  Scale calibration (see
#: docs/experiments.md): the paper runs 15k/20k/25k tasks over ~3000 time
#: units against eight SPECint-profiled machines.  Our PET means are
#: synthetic, so absolute counts are not transferable; what defines the
#: regime is the *oversubscription ratio* — offered load over cluster
#: capacity.  These levels keep the paper's load ratios at ratios ≈ 2.2 /
#: 2.9 / 3.7, which lands the baseline heuristics in the same robustness
#: bands the paper reports (moderate → heavy oversubscription).
LEVELS: dict[str, int] = {"15k": 900, "20k": 1200, "25k": 1500}

#: Scaled workload time span (paper: ~3000 time units).
BASE_TIME_SPAN = 600.0

#: One demand spike per this many time units (paper's Fig. 6 spacing,
#: scaled: ~4 spikes over the base span).
SPIKE_PERIOD = 150.0


def level_spec(
    level: str,
    pattern: ArrivalPattern = ArrivalPattern.SPIKY,
    scale: float = 1.0,
) -> WorkloadSpec:
    """Workload spec of one oversubscription level at a given scale.

    ``scale`` stretches the workload at a constant arrival rate (scale
    16.7 ≈ the paper's trace length).
    """
    if level not in LEVELS:
        raise KeyError(f"unknown level {level!r}; choose from {sorted(LEVELS)}")
    base = WorkloadSpec(
        num_tasks=LEVELS[level],
        time_span=BASE_TIME_SPAN,
        pattern=pattern,
        num_spikes=max(int(round(BASE_TIME_SPAN / SPIKE_PERIOD)), 1),
    )
    return base.scaled(scale)


def _named_level(entry: object, scale: float = 1.0) -> tuple[str, WorkloadSpec]:
    if not isinstance(entry, str):
        raise ValueError(f"unrecognized level entry: {entry!r}")
    return entry, level_spec(entry, scale=scale)


#: Level-mapping keys: each WorkloadSpec field a synthetic level sets,
#: converted by the type of its default (the pattern comes from the
#: pattern axis, trace fields from the file), then the trace-replay keys.
_LEVEL_KEYS: dict[str, tuple[str, Callable[[object], object]]] = {
    **{
        f.name: (f.name, {int: as_int, float: as_float, tuple: as_floats}[type(f.default)])
        for f in WorkloadSpec.__dataclass_fields__.values()
        if isinstance(f.default, (int, float, tuple)) and not f.name.startswith("trace_")
    },
    "trim_edge_tasks": ("trim_edge_tasks", lambda v: None if v is None else as_int(v)),
    "trace": ("path", as_str),
    "format": ("fmt", as_str),
    "sample": ("sample", as_float),
}


def _build_level(fields: dict, scale: float = 1.0) -> WorkloadSpec:
    """A synthetic level's spec at ``scale`` (each cell sets its
    pattern), or a trace level's spec derived from the file — the
    pattern and scale axes do not apply to a replayed trace."""
    if "path" in fields:
        extra = set(fields) - {"path", "fmt", "sample", "trim_edge_tasks"}
        if extra:
            raise ValueError(f"keys {sorted(extra)} do not apply to trace levels")
        try:
            return trace_spec(**fields)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load trace level {fields['path']!r}: {exc}") from exc
    if {"fmt", "sample"} & set(fields):
        raise ValueError('"format" and "sample" apply only to trace levels (with a "trace" key)')
    fields = {"num_tasks": 300, "time_span": 200.0, **fields}
    spec = WorkloadSpec(**fields).scaled(scale)
    if "num_spikes" in fields and spec.num_spikes != fields["num_spikes"]:
        # An explicitly pinned spike count survives scaling.
        spec = spec.with_(num_spikes=fields["num_spikes"])
    return spec


def _level_label(spec: WorkloadSpec) -> str:
    if spec.pattern is ArrivalPattern.TRACE:
        return Path(spec.trace_path).stem
    # The post-scale count — it's what actually runs.
    return f"{spec.num_tasks}t"


def is_trace_level(entry: object) -> bool:
    """Whether a ``levels`` entry replays a trace file."""
    return isinstance(entry, Mapping) and "trace" in entry


def _build_dag(fields: dict) -> dict:
    """DAG entries resolve to WorkloadSpec field overrides."""
    if not fields.get("dag_layers"):
        raise ValueError('a dag entry must set "layers" >= 2 (use "none" for independent tasks)')
    return fields


def _dag_label(fields: Mapping) -> str:
    label = f"dag{fields['dag_layers']}"
    # Non-default wiring knobs must be visible, or two distinct
    # variants would collide on the same derived label.
    if fields.get("dag_edge_prob", WorkloadSpec.dag_edge_prob) != WorkloadSpec.dag_edge_prob:
        label += f"-p{fields['dag_edge_prob']:g}"
    if fields.get("dag_max_parents", WorkloadSpec.dag_max_parents) != WorkloadSpec.dag_max_parents:
        label += f"-m{fields['dag_max_parents']}"
    return label


def _pruning_label(config: PruningConfig) -> str:
    label = f"P{round(config.pruning_threshold * 100)}"
    if config.toggle_mode is not ToggleMode.REACTIVE:
        label += f"-{config.toggle_mode.value}"
    # Non-default switches must be visible, or two distinct variants
    # would collide on the same derived label.
    off = {"enable_deferring": "-nodefer", "enable_dropping": "-nodrop", "enable_fairness": "-nofair"}
    return label + "".join(tag for name, tag in off.items() if not getattr(config, name))


def _build_dynamics(fields: dict) -> DynamicsSpec | None:
    spec = DynamicsSpec(**fields)
    # All-zero event counts are the static cluster: same cell identity
    # (label and cache key) as the "none" entry, so the grid cannot
    # silently double-compute identical cells.
    return None if spec.is_static else spec


def _dynamics_label(spec: DynamicsSpec) -> str:
    parts = []
    if spec.failures:
        parts.append(f"f{spec.failures}")
        if spec.mean_downtime != DynamicsSpec.mean_downtime:
            # Distinct downtimes are distinct scenarios; without this
            # the derived labels would collide.
            parts.append(f"d{spec.mean_downtime:g}")
    if spec.scale_up:
        parts.append(f"up{spec.scale_up}")
    if spec.scale_down:
        parts.append(f"down{spec.scale_down}")
    return "dyn-" + "-".join(parts) if parts else "static"


def _build_tuning(fields: dict) -> dict:
    """Tuning entries resolve to a knob patch (:mod:`repro.tuning.params`),
    spelled out or replayed from a tuner trial ledger."""
    # Deferred: repro.tuning imports this module.
    from ..tuning.ledger import ledger_best

    if ("params" in fields) == ("ledger" in fields):
        raise ValueError(
            f'a tuning entry needs exactly one of "params" or "ledger", '
            f"got {sorted(fields)}"
        )
    if "params" in fields:
        if "rank" in fields:
            raise ValueError("unknown tuning-entry keys ['rank']; allowed: ['label', 'params']")
        return fields["params"]
    return ledger_best(fields["ledger"], rank=fields.get("rank", 0))


def params_label(params: Mapping) -> str:
    """Deterministic short label of a tuning knob patch (``tuned-<hex>``)."""
    return f"tuned-{fingerprint(dict(params), length=8)}"


@dataclass(frozen=True)
class _Axis:
    """One row of :data:`_AXES`: how entries of one grid axis resolve."""

    #: The entry's name in errors ("unknown level keys"; default: the axis).
    noun: str = ""
    #: Label of the ``"none"``/``None`` entry (value ``None``), if any.
    none_label: str | None = None
    #: Mapping-entry key → (field handed to ``build``, converter).
    keys: Mapping[str, tuple[str, Callable[[object], object]]] = field(default_factory=dict)
    #: ``build(fields) -> value`` over the converted fields.
    build: Callable[..., object] | None = None
    #: The label derived from a resolved (non-``None``) value.
    label: Callable[[Any], str] = str
    #: The mapping key that overrides the derived label.
    label_key: str = "label"
    #: How errors name a mapping key.
    key_name: str = '"{}"'
    #: String shortcut → the mapping entry it stands for.
    shortcuts: Mapping[str, Mapping] = field(default_factory=dict)
    #: ``parse(entry) -> (label, value)`` for every other entry.
    parse: Callable[..., tuple[str, object]] | None = None
    #: Baseline cells are emitted once, not once per entry of this axis.
    pruned_only: bool = False


#: Every grid axis (SweepGrid's entry-list fields), in the order
#: :meth:`SweepGrid.expand` crosses them.  The field table in
#: ``docs/experiments.md`` documents every key.
_AXES: dict[str, _Axis] = {
    "heuristics": _Axis(parse=lambda entry: (heuristic_name(entry),) * 2),
    "levels": _Axis(
        noun="level",
        keys=_LEVEL_KEYS,
        build=_build_level,
        label=_level_label,
        label_key="name",
        key_name="level {}",
        parse=_named_level,
    ),
    "patterns": _Axis(
        parse=_one_of("pattern", {p.value: p for p in ArrivalPattern}), label=lambda p: p.value
    ),
    "dag": _Axis(
        none_label="none",
        shortcuts={"layered": {"layers": 4}},
        keys={
            "layers": ("dag_layers", as_int),
            "edge_prob": ("dag_edge_prob", as_float),
            "max_parents": ("dag_max_parents", as_int),
        },
        build=_build_dag,
        label=_dag_label,
    ),
    "heterogeneity": _Axis(  # the PET-matrix kinds of runner.pet_matrix
        parse=_one_of(
            "heterogeneity kind", {k: k for k in ("inconsistent", "consistent", "homogeneous")}
        )
    ),
    "pruning": _Axis(
        none_label="base",
        shortcuts={
            "paper": {"label": "P"},
            "defer-only": {"label": "D50", "toggle": "never", "drop": False},
            "drop-only": {"label": "T", "defer": False},
        },
        keys={
            "threshold": ("pruning_threshold", as_float),
            "toggle": ("toggle_mode", ToggleMode),
            "dropping_toggle": ("dropping_toggle", as_int),
            "fairness_factor": ("fairness_factor", as_float),
            "defer": ("enable_deferring", as_bool),
            "drop": ("enable_dropping", as_bool),
            "fairness": ("enable_fairness", as_bool),
        },
        # Only keys actually present are passed through — the paper
        # defaults live in PruningConfig alone, never duplicated here.
        build=lambda fields: PruningConfig(**fields),
        label=_pruning_label,
    ),
    "controller": _Axis(
        none_label="",
        parse=resolve_controller,
        label=lambda config: config.kind,
        pruned_only=True,
    ),
    "tuning": _Axis(
        none_label="none",
        keys={
            "params": ("params", _as_params),
            "ledger": ("ledger", as_str),
            "rank": ("rank", as_int),
        },
        build=_build_tuning,
        label=params_label,
        pruned_only=True,
    ),
    "dynamics": _Axis(
        none_label="static",
        shortcuts={"churn": {"label": "churn", "failures": 3}},
        keys={
            "failures": ("failures", as_int),
            "mean_downtime": ("mean_downtime", as_float),
            "scale_up": ("scale_up", as_int),
            "scale_down": ("scale_down", as_int),
            "window": ("window", as_floats),
            "min_online": ("min_online", as_int),
        },
        build=_build_dynamics,
        label=_dynamics_label,
    ),
}


def _resolve(axis: str, entry: object, **context: object) -> tuple[str, object]:
    """Resolve one entry of a grid axis to ``(label, value)``.

    ``"none"``/``None`` (on axes that have it), then a string shortcut,
    then a mapping: its optional label key overrides the derived label,
    and every other key must be one the row converts.  Any other entry
    goes to ``parse``.  ``context`` reaches ``parse``/``build`` (levels
    take the grid's ``scale``).  Errors start ``<axis> axis:``.
    """
    row = _AXES[axis]
    noun = row.noun or axis
    try:
        if row.none_label is not None and (entry is None or entry == "none"):
            return row.none_label, None
        if isinstance(entry, str) and entry in row.shortcuts:
            entry = row.shortcuts[entry]
        if not (row.keys and isinstance(entry, Mapping)):
            if row.parse is None:
                raise ValueError(f"unrecognized {noun} entry: {entry!r}")
            return row.parse(entry, **context)
        fields = dict(entry)
        label = fields.pop(row.label_key, None)
        unknown = set(fields) - set(row.keys)
        if unknown:
            raise ValueError(
                f"unknown {noun} keys {sorted(unknown)}; allowed: "
                f"{sorted({*row.keys, row.label_key})}"
            )
        converted: dict[str, object] = {}
        for key, raw in fields.items():
            target, convert = row.keys[key]
            converted[target] = convert_named(row.key_name.format(key), convert, raw)
        assert row.build is not None
        value = row.build(converted, **context)
    except ValueError as exc:
        raise ValueError(f"{axis} axis: {exc}") from exc
    return (str(label) if label else _label(axis, value)), value


def _label(axis: str, value: object) -> str:
    """The label ``axis``'s row derives for a resolved ``value``."""
    row = _AXES[axis]
    if value is None:
        assert row.none_label is not None
        return row.none_label
    return row.label(value)


@dataclass(frozen=True)
class SweepGrid:
    """A declarative parameter grid that expands to experiment cells.

    The cross product of ``heuristics × levels × patterns × dag ×
    heterogeneity × pruning × controller × tuning × dynamics`` (the
    order cells are emitted in) defines the campaign's cells;
    ``trials``, ``base_seed`` and ``scale`` apply to every cell.  Grids
    are plain data — build them in code, load them with
    :meth:`from_json`, or pick a named :meth:`preset`.

    The ``controller`` axis attaches an adaptive β/α control plane
    (:mod:`repro.control`) and the ``tuning`` axis patches tuned
    parameter sets (explicit ``params`` or a tuner trial ledger) onto
    each *pruned* variant; baseline cells (``pruning: "none"``) have
    nothing to control or tune, so they are emitted exactly once
    instead of once per entry of those axes.  The ``dag`` axis wires a
    layered random dependency graph over each synthetic workload; trace
    levels carry explicit edges in the file itself, so combining them
    with a non-``none`` dag entry is an error.
    """

    name: str = "campaign"
    heuristics: tuple = ("MM",)
    levels: tuple = ("15k",)
    patterns: tuple = ("spiky",)
    heterogeneity: tuple = ("inconsistent",)
    pruning: tuple = ("none", "paper")
    dynamics: tuple = ("none",)
    controller: tuple = ("none",)
    dag: tuple = ("none",)
    tuning: tuple = ("none",)
    trials: int = 10
    base_seed: int = 42
    scale: float = 1.0

    def __post_init__(self) -> None:
        for fname in _AXES:
            value = getattr(self, fname)
            if isinstance(value, (str, Mapping)):
                value = (value,)
            try:
                # Copy mapping entries so a caller mutating one afterwards
                # (or a shared source like PRESETS) can't corrupt the grid.
                value = tuple(dict(v) if isinstance(v, Mapping) else v for v in value)
            except TypeError:
                raise ValueError(f"{fname} must be a list of entries, got {value!r}") from None
            if not value:
                raise ValueError(f"{fname} must not be empty")
            object.__setattr__(self, fname, value)
        for fname, convert in (("trials", as_int), ("base_seed", as_int), ("scale", as_float)):
            object.__setattr__(self, fname, convert_named(fname, convert, getattr(self, fname)))
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return sum(1 for _ in self.cell_indices())

    @property
    def total_trials(self) -> int:
        return self.num_cells * self.trials

    def cell_indices(self) -> Iterator[dict[str, int]]:
        """Per-axis entry indices (``{axis field: entry index}``) of every
        cell, aligned with :meth:`expand`'s cells."""
        pruned_only = [axis for axis, row in _AXES.items() if row.pruned_only]
        for combo in itertools.product(*(range(len(getattr(self, a))) for a in _AXES)):
            index = dict(zip(_AXES, combo))
            level = self.levels[index["levels"]]
            pruning = self.pruning[index["pruning"]]
            # Trace levels replay a fixed file: the pattern axis does not
            # apply, so each trace cell is emitted for the first pattern
            # only.  Baseline cells have no β/α to control and no knobs
            # to tune: emitted for the first entry of those axes only.
            if (is_trace_level(level) and index["patterns"]) or (
                (pruning is None or pruning == "none") and any(index[a] for a in pruned_only)
            ):
                continue
            yield index

    def expand(self) -> list[CampaignCell]:
        """The grid's cells, in deterministic cross-product order.

        Every entry of every axis resolves through :data:`_AXES` here,
        so a typo'd grid fails before any trial runs instead of
        mid-campaign inside a worker.
        """
        # Resolve each entry once — its meaning does not depend on the
        # combination it lands in (a level's only on the grid's scale).
        choices = {
            axis: [
                _resolve(axis, entry, **({"scale": self.scale} if axis == "levels" else {}))
                for entry in getattr(self, axis)
            ]
            for axis in _AXES
        }
        trace_levels = [entry for entry in self.levels if is_trace_level(entry)]
        synthetic = [entry for entry in self.levels if not is_trace_level(entry)]
        if synthetic and ("trace", ArrivalPattern.TRACE) in choices["patterns"]:
            # "trace" is not a generator: it only describes trace levels
            # (which carry it implicitly).  Resolving it against a
            # synthetic level would surface a confusing WorkloadSpec
            # error from deep inside the library.
            raise ValueError(
                f"pattern 'trace' applies only to trace levels, but the "
                f"grid has synthetic level(s) {synthetic!r}; give levels "
                f'as {{"trace": "path.csv"}} mappings or drop the pattern'
            )
        if trace_levels and any(fields is not None for _, fields in choices["dag"]):
            raise ValueError(
                "the dag axis applies only to synthetic levels — trace "
                "files carry explicit dependency edges (JSON v3) — but "
                f"the grid has trace level(s) {trace_levels!r}"
            )
        cells: list[CampaignCell] = []
        for index in self.cell_indices():
            pick = {axis: choices[axis][i] for axis, i in index.items()}
            level, spec = pick["levels"]
            if spec.pattern is not ArrivalPattern.TRACE:
                spec = spec.with_(pattern=pick["patterns"][1])
            plabel, pconfig = pick["pruning"]
            glabel, gfields = pick["dag"]
            clabel, cconfig = pick["controller"]
            tlabel, tparams = pick["tuning"]
            dlabel, dspec = pick["dynamics"]
            controlled = pconfig is not None and cconfig is not None
            tuned = pconfig is not None and tparams is not None
            vlabel = f"{plabel}+{clabel}" if controlled else plabel
            # Trace levels carry their own pattern; labels and summary
            # rows report what actually runs.
            pattern = spec.pattern.value
            label = (
                f"{pick['heuristics'][1]}/{vlabel}{f'~{tlabel}' if tuned else ''}"
                f"@{level}/{pattern}/{pick['heterogeneity'][1]}"
            )
            if gfields is not None:
                label += f"/{glabel}"
            if dspec is not None:
                label += f"/{dlabel}"
            config = ExperimentConfig(
                heuristic=pick["heuristics"][1],
                spec=spec if gfields is None else spec.with_(**gfields),
                pruning=pconfig.with_(controller=cconfig) if controlled else pconfig,
                heterogeneity=pick["heterogeneity"][1],
                trials=self.trials,
                base_seed=self.base_seed,
                label=label,
                dynamics=dspec,
            )
            if tuned:
                from ..tuning.params import apply_params

                try:
                    config = apply_params(config, tparams)
                except ValueError as exc:
                    raise ValueError(f"tuning entry {tlabel!r}: {exc}") from exc
            cells.append(
                CampaignCell(
                    config=config,
                    level=level,
                    pattern=pattern,
                    pruning_label=vlabel,
                    dynamics_label=dlabel,
                    controller_label=clabel if controlled else "",
                    dag_label=glabel,
                    tuning_label=tlabel if tuned else "none",
                )
            )
        _check_unique_labels(
            cells,
            "give the colliding entries explicit 'label' keys (or level "
            "entries explicit 'name' keys)",
        )
        return cells

    def with_pruning(
        self,
        *,
        threshold: float | None = None,
        dropping_toggle: int | None = None,
        controller: object = None,
    ) -> SweepGrid:
        """The grid with β/α set on every pruned entry and, given a
        ``controller`` entry, the controller axis replaced by it.

        Baseline (``"none"``) entries are untouched — the overrides
        change how pruning prunes, they never *add* pruning.  Values are
        validated at :meth:`expand` time like any other entry; with no
        overrides the grid itself is returned.
        """
        fields = {
            key: value
            for key, value in (("threshold", threshold), ("dropping_toggle", dropping_toggle))
            if value is not None
        }
        shortcuts = _AXES["pruning"].shortcuts

        def override(entry: object) -> object:
            if isinstance(entry, str):
                entry = shortcuts.get(entry, entry)
            if not isinstance(entry, Mapping):
                return entry  # "none" stays the baseline; junk fails in expand()
            return {**entry, **fields}

        grid = self
        if fields:
            grid = replace(grid, pruning=tuple(override(entry) for entry in self.pruning))
        if controller is not None:
            grid = replace(grid, controller=(controller,))
        return grid

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.__dataclass_fields__}
        for name in _AXES:
            payload[name] = [dict(e) if isinstance(e, Mapping) else e for e in payload[name]]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> SweepGrid:
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"sweep grid must be a JSON object, got {type(payload).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown sweep-grid keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path: str | Path) -> SweepGrid:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read grid file {path}: {exc}") from exc
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"grid file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def preset(cls, name: str) -> SweepGrid:
        """A named preset grid (see :data:`PRESETS`)."""
        if name not in PRESETS:
            raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        return cls.from_dict(PRESETS[name])

    @classmethod
    def load(cls, source: str | Path) -> SweepGrid:
        """Preset name or path to a grid JSON file — the CLI's resolver."""
        if isinstance(source, str) and source in PRESETS:
            return cls.preset(source)
        path = Path(source)
        if path.exists():
            return cls.from_json(path)
        raise ValueError(
            f"{source!r} is neither a preset ({sorted(PRESETS)}) nor a grid file"
        )


@dataclass(frozen=True)
class CampaignCell:
    """One expanded grid cell: the runnable config plus its grid coordinates."""

    config: ExperimentConfig
    level: str
    pattern: str
    pruning_label: str
    dynamics_label: str = "static"
    #: Controller-axis label ("" = no control plane attached).
    controller_label: str = ""
    #: DAG-axis label ("none" = independent tasks).
    dag_label: str = "none"
    #: Tuning-axis label ("none" = the grid config ran unpatched).
    tuning_label: str = "none"


def _depth_outcomes(trials: Sequence[SimulationResult]) -> dict:
    """Per-depth outcome counts summed over a cell's trials.

    Empty for independent-task workloads, so non-DAG summary rows keep
    their exact pre-DAG JSON payload (the row serializes the mapping
    sparsely).
    """
    merged: dict[str, Counter] = {}
    for result in trials:
        depths = result.dag_stats.get("depths", {}) if result.dag_stats else {}
        for depth, counts in depths.items():
            merged.setdefault(str(depth), Counter()).update(counts)
    return {
        depth: dict(counter)
        for depth, counter in sorted(merged.items(), key=lambda kv: int(kv[0]))
    }


def _check_unique_labels(cells: Sequence[CampaignCell], hint: str) -> None:
    """Summaries/CSV key on the label; colliding cells would be silently
    indistinguishable downstream."""
    counts = Counter(c.config.display_label for c in cells)
    duplicates = sorted(label for label, n in counts.items() if n > 1)
    if duplicates:
        raise ValueError(f"duplicate cell labels {duplicates}; {hint}")


# ======================================================================
# The campaign itself
# ======================================================================
class Campaign:
    """A set of experiment cells executed as one sharded, cached run.

    Typical use::

        grid = SweepGrid(heuristics=("MM", "MSD"), levels=("15k", "25k"))
        summary = Campaign.from_grid(grid).run(jobs=8, cache=ResultCache(".repro_cache"))
        print(summary.to_text())
    """

    def __init__(self, cells: Sequence[CampaignCell], *, name: str = "campaign") -> None:
        self.cells = list(cells)
        self.name = name

    @classmethod
    def from_grid(cls, grid: SweepGrid) -> Campaign:
        return cls(grid.expand(), name=grid.name)

    @classmethod
    def from_configs(
        cls, configs: Sequence[ExperimentConfig], *, name: str = "campaign"
    ) -> Campaign:
        """Wrap ad-hoc :class:`ExperimentConfig` s; each grid coordinate is
        the label the axis's :data:`_AXES` row derives from the config."""
        cells = []
        for c in configs:
            plabel = _label("pruning", c.pruning)
            clabel = _label("controller", c.pruning and c.pruning.controller)
            dag = None
            if c.spec.dag_layers:
                dag = {f: getattr(c.spec, f) for f, _ in _AXES["dag"].keys.values()}
            cells.append(
                CampaignCell(
                    config=c,
                    level=_label("levels", c.spec),
                    pattern=_label("patterns", c.spec.pattern),
                    pruning_label=f"{plabel}+{clabel}" if clabel else plabel,
                    dynamics_label=_label("dynamics", c.dynamics),
                    controller_label=clabel,
                    dag_label=_label("dag", dag),
                )
            )
        _check_unique_labels(cells, "give the configs distinct 'label' values")
        return cls(cells, name=name)

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        executor: str = "auto",
    ) -> CampaignSummary:
        """Execute every (cell, trial) pair and aggregate per cell."""
        t0 = time.perf_counter()  # reprolint: ignore[D001] wall_s telemetry only, never enters sim state
        hits0 = cache.hits if cache is not None else 0
        misses0 = cache.misses if cache is not None else 0
        per_cell = run_cell_trials(
            [cell.config for cell in self.cells],
            jobs=jobs,
            cache=cache,
            executor=executor,
        )
        rows = [
            CampaignRow(
                label=cell.config.display_label,
                heuristic=cell.config.heuristic,
                level=cell.level,
                pattern=cell.pattern,
                heterogeneity=cell.config.heterogeneity,
                pruning=cell.pruning_label,
                dynamics=cell.dynamics_label,
                controller=cell.controller_label,
                dag=cell.dag_label,
                # Mean over trials of the largest final sufferage score —
                # 0.0 when fairness telemetry was not collected.
                max_sufferage=(
                    sum(r.max_sufferage for r in trials) / len(trials)
                    if trials
                    else 0.0
                ),
                # Mean over trials of drops cascaded from dropped DAG
                # ancestors — 0.0 for independent-task workloads.
                cascade_drops=(
                    sum(r.cascade_drops for r in trials) / len(trials)
                    if trials
                    else 0.0
                ),
                depths=_depth_outcomes(trials),
                tuning=cell.tuning_label,
                stats=aggregate_robustness(trials),
            )
            for cell, trials in zip(self.cells, per_cell)
        ]
        return CampaignSummary(
            name=self.name,
            rows=rows,
            wall_s=time.perf_counter() - t0,  # reprolint: ignore[D001] wall_s telemetry only
            jobs=jobs or 1,
            cache_hits=(cache.hits - hits0) if cache is not None else 0,
            cache_misses=(cache.misses - misses0) if cache is not None else 0,
        )


# ======================================================================
# Preset grids
# ======================================================================
#: Named sweep grids.  ``smoke`` is the CI preset (seconds, not minutes);
#: the others mirror the paper's figure campaigns and compose with
#: ``--scale`` / ``--trials`` overrides from the CLI.
PRESETS: dict[str, dict] = {
    "smoke": {
        "name": "smoke",
        "heuristics": ["MM"],
        "levels": [
            {"name": "tiny", "num_tasks": 120, "time_span": 80.0, "num_task_types": 4}
        ],
        "patterns": ["spiky"],
        "pruning": ["none", "paper"],
        "trials": 2,
        "base_seed": 7,
    },
    "fig7b": {
        "name": "fig7b",
        "heuristics": ["MM", "MSD", "MMU"],
        "levels": ["15k"],
        "patterns": ["spiky"],
        "pruning": [
            "none",
            {"label": "drop-always", "toggle": "always", "defer": False},
            "drop-only",
        ],
        "trials": 10,
    },
    "thresholds": {
        "name": "thresholds",
        "heuristics": ["MM", "MSD", "MMU"],
        "levels": ["25k"],
        "patterns": ["spiky"],
        "pruning": [
            "none",
            {"label": "D25", "threshold": 0.25, "toggle": "never", "drop": False},
            {"label": "D50", "threshold": 0.5, "toggle": "never", "drop": False},
            {"label": "D75", "threshold": 0.75, "toggle": "never", "drop": False},
        ],
        "trials": 10,
    },
    "oversub": {
        "name": "oversub",
        "heuristics": ["MM", "MSD", "MMU"],
        "levels": ["15k", "20k", "25k"],
        "patterns": ["spiky"],
        "pruning": ["none", "paper"],
        "trials": 10,
    },
    "heterogeneity": {
        "name": "heterogeneity",
        "heuristics": ["MM"],
        "levels": ["15k", "25k"],
        "patterns": ["spiky", "constant"],
        "heterogeneity": ["inconsistent", "consistent", "homogeneous"],
        "pruning": ["none", "paper"],
        "trials": 10,
    },
    # ------------------------------------------------------------------
    # Scenario-dynamics presets (beyond the paper's static clusters).
    # ------------------------------------------------------------------
    # Machine churn: the same workload on a static cluster vs one that
    # loses (and recovers) machines mid-run — oversubscription *caused*
    # by capacity loss rather than load alone.
    "churn": {
        "name": "churn",
        "heuristics": ["MM"],
        "levels": [
            {"name": "tiny", "num_tasks": 160, "time_span": 100.0, "num_task_types": 6}
        ],
        "patterns": ["spiky"],
        "pruning": ["none", "paper"],
        "dynamics": [
            "none",
            {"label": "churn", "failures": 2, "mean_downtime": 25.0},
            {"label": "elastic", "failures": 1, "mean_downtime": 20.0,
             "scale_up": 1, "scale_down": 1},
        ],
        "trials": 3,
        "base_seed": 11,
    },
    # Bursty load: periodic spikes (the paper) vs random MMPP bursts vs
    # inhomogeneous-Poisson spikes at the same offered load.
    "bursty": {
        "name": "bursty",
        "heuristics": ["MM", "MSD"],
        "levels": ["20k"],
        "patterns": ["spiky", "bursty", "poisson"],
        "pruning": ["none", "paper"],
        "trials": 5,
    },
    # Adaptive pruning: the same bursty oversubscribed workload under a
    # grid of static β settings vs the feedback controllers — the
    # scenario family the control plane (repro.control) opens.  The
    # bench gate (benchmarks/bench_control.py) runs the same comparison
    # standalone and asserts adaptive ≥ best static β.
    "adaptive": {
        "name": "adaptive",
        "heuristics": ["MM"],
        "levels": ["20k"],
        "patterns": ["bursty"],
        "pruning": [
            "none",
            {"label": "P30", "threshold": 0.3},
            {"label": "P50", "threshold": 0.5},
            {"label": "P70", "threshold": 0.7},
        ],
        "controller": [
            "none",
            "hysteresis",
            "target-success",
        ],
        "trials": 5,
    },
    # Trace replay: recorded arrival traces (CSV) instead of synthetic
    # generators.  Paths are repo-relative — run from the checkout root.
    "trace": {
        "name": "trace",
        "heuristics": ["MM"],
        "levels": [
            {"trace": "examples/traces/bursty_small.csv", "name": "bursty-small"},
            {"trace": "examples/traces/steady_small.csv", "name": "steady-small"},
        ],
        "patterns": ["trace"],
        "pruning": ["none", "paper"],
        "trials": 3,
    },
    # DAG workloads: the same synthetic load with and without a layered
    # dependency graph wired over it — pruning a doomed ancestor now
    # cascades to its transitive dependents (subgraph pruning).
    "dag": {
        "name": "dag",
        "heuristics": ["MM"],
        "levels": [
            {"name": "tiny", "num_tasks": 120, "time_span": 80.0, "num_task_types": 4}
        ],
        "patterns": ["spiky"],
        "pruning": ["none", "paper"],
        "dag": ["none", {"label": "dag3", "layers": 3}],
        "trials": 2,
        "base_seed": 7,
    },
    # Public-trace adapters: miniature Azure-Functions-style and Google
    # cluster-usage-style CSVs (tests/data) replayed through the
    # normalizing adapters, full and deterministically downsampled.
    # Paths are repo-relative — run from the checkout root.
    "azure": {
        "name": "azure",
        "heuristics": ["MM"],
        "levels": [
            {"trace": "tests/data/azure_mini.csv", "name": "azure-mini",
             "format": "azure"},
            {"trace": "tests/data/azure_mini.csv", "name": "azure-s60",
             "format": "azure", "sample": 0.6},
        ],
        "patterns": ["trace"],
        "pruning": ["none", "paper"],
        "trials": 3,
    },
    "gcluster": {
        "name": "gcluster",
        "heuristics": ["MM"],
        "levels": [
            {"trace": "tests/data/gcluster_mini.csv", "name": "gcluster-mini",
             "format": "gcluster"},
        ],
        "patterns": ["trace"],
        "pruning": ["none", "paper"],
        "trials": 3,
    },
}
