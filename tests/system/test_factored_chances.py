"""Chances of success with the running task factored out of Eq. 1.

Queued-task queries (``queue_chances_suffix`` / ``cluster_queue_chances``)
answer Eq. 2 as ``F_k(d) = Σ_j b[j] · F_{Q_k}(K − j)`` — the running
base ``b`` against the running-task-free product ``Q_k`` — and new-task
queries (``chances_for`` / ``chances_for_pairs`` / ``chance_of_success``)
read the machine's availability ``A = b ⊛ Q_{n-1}`` against the new
task's PET, instead of reading the left-associated chain ``b ⊛ pet_0 ⊛ …
⊛ pet_k``.  The forms differ only in float association, so against the
chain the bound is a few ulps; the incremental mode and the
``memoize=False`` oracle compute the same formula and agree bitwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PruningConfig
from repro.experiments.runner import ExperimentConfig, run_trial
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.stochastic.pet import PETMatrix
from repro.stochastic.pmf import PMF, convolved_cdf_at
from repro.system.completion import CompletionEstimator
from repro.workload.spec import WorkloadSpec

#: Largest |factored − chain| accepted.  The chances are sums of at most
#: a few hundred products of probabilities, so reassociation moves them
#: by a few ulps of 1.0 (2.2e-16 each).
BOUND = 4e-15


@st.composite
def pet_cells(draw):
    size = draw(st.integers(min_value=1, max_value=9))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    probs = np.asarray(weights) / sum(weights)
    return PMF(probs, offset=float(draw(st.integers(0, 4))))


@st.composite
def scenarios(draw):
    """A one-machine PET matrix, the running type, a queue of types with
    deadlines, a fractional start time and ascending query times that
    sweep the running task's conditioning cut from before its support to
    past it."""
    types = draw(st.integers(min_value=1, max_value=3))
    cells = [draw(pet_cells()) for _ in range(types)]
    running = draw(st.integers(0, types - 1))
    queue = draw(st.lists(st.integers(0, types - 1), min_size=1, max_size=5))
    # Tenths are not dyadic, so anchors pick up float error on the way.
    start = draw(st.integers(0, 200)) / 10.0
    span = sum(c.offset + c.probs.size for c in cells) * (len(queue) + 1)
    # Quarter-unit deadlines land exactly on grid points often, which is
    # where the CDF tolerance matters.
    deadlines = [
        start + draw(st.integers(-4, int(4 * span) + 4)) / 4.0 for _ in queue
    ]
    reach = cells[running].offset + cells[running].probs.size + 2
    steps = draw(
        st.lists(st.integers(0, int(4 * reach)), min_size=1, max_size=6, unique=True)
    )
    nows = [start + s / 4.0 for s in sorted(steps)]
    return cells, running, queue, start, deadlines, nows


@st.composite
def new_task_scenarios(draw):
    """A :func:`scenarios` machine plus new tasks (type, deadline) to
    append to it."""
    scenario = draw(scenarios())
    cells, _, queue, start, _, _ = scenario
    span = sum(c.offset + c.probs.size for c in cells) * (len(queue) + 2)
    probes = [
        (draw(st.integers(0, len(cells) - 1)), start + draw(st.integers(-4, int(4 * span) + 4)) / 4.0)
        for _ in range(draw(st.integers(1, 4)))
    ]
    return scenario, probes


def _loaded(cells, running, queue, start, deadlines, *, memoize, horizon=512.0):
    pet = PETMatrix([[c] for c in cells])
    cluster = Cluster.heterogeneous(1)
    sim = Simulator(start_time=start)
    machine = cluster[0]
    for tid, (ttype, deadline) in enumerate(
        [(running, start + 1e6)] + list(zip(queue, deadlines))
    ):
        task = Task(
            task_id=tid, task_type=ttype, arrival=min(start, deadline), deadline=deadline
        )
        task.mark_mapped(0, start)
        machine.dispatch(task, sim, lambda *a: 1.0, lambda *a: None)
    est = CompletionEstimator(pet, memoize=memoize, horizon=horizon)
    return machine, est


def _make_idle(machine):
    """Leave the queue but take the running task away — a state the
    simulator reaches only transiently, which the estimator must still
    answer with an idle (unit delta) base."""
    machine.running = None
    machine.running_started_at = None
    machine.version += 1


def _chain_chances(machine, est, now):
    chain = est._build_chain(machine, now)
    return [chain[k + 1].cdf_at(t.deadline) for k, t in enumerate(machine.queue)]


def _check_against_chain(scenario, *, idle=False):
    cells, running, queue, start, deadlines, nows = scenario
    inc, inc_est = _loaded(cells, running, queue, start, deadlines, memoize=True)
    ora, ora_est = _loaded(cells, running, queue, start, deadlines, memoize=False)
    ref, ref_est = _loaded(cells, running, queue, start, deadlines, memoize=False)
    if idle:
        for machine in (inc, ora, ref):
            _make_idle(machine)
    for now in nows:
        got = inc_est.queue_chances_suffix(inc, now)
        assert np.array_equal(got, ora_est.queue_chances_suffix(ora, now))
        want = _chain_chances(ref, ref_est, now)
        for g, w in zip(got.tolist(), want):
            assert abs(g - w) <= BOUND
            assert (g == 0.0) == (w == 0.0)
        for start_at in range(1, len(queue)):
            part = inc_est.queue_chances_suffix(inc, now, start=start_at)
            assert np.array_equal(part, got[start_at:])


class TestAgainstLeftAssociatedChain:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_running_bases(self, scenario):
        """Uncut, interior and collapsed bases: ``nows`` run from the
        task's start to past the end of its support."""
        _check_against_chain(scenario)

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_idle_base(self, scenario):
        _check_against_chain(scenario, idle=True)

    @settings(max_examples=60, deadline=None)
    @given(scenarios(), st.sampled_from([0.5, 2.0, 5.0, 9.0]))
    def test_binding_horizon_falls_back_to_the_chain(self, scenario, horizon):
        """Entries the horizon truncates are answered by the chain itself:
        equal values, not just close ones."""
        cells, running, queue, start, deadlines, nows = scenario
        inc, inc_est = _loaded(
            cells, running, queue, start, deadlines, memoize=True, horizon=horizon
        )
        ora, ora_est = _loaded(
            cells, running, queue, start, deadlines, memoize=False, horizon=horizon
        )
        ref, ref_est = _loaded(
            cells, running, queue, start, deadlines, memoize=False, horizon=horizon
        )
        for now in nows:
            got = inc_est.queue_chances_suffix(inc, now)
            assert np.array_equal(got, ora_est.queue_chances_suffix(ora, now))
            chain = ref_est._build_chain(ref, now)
            for k, (g, w) in enumerate(zip(got.tolist(), _chain_chances(ref, ref_est, now))):
                if chain[k + 1].tail > 0.0:
                    assert g == w
                else:
                    assert abs(g - w) <= BOUND


def _check_new_tasks(scenario, probes, *, idle=False, horizon=512.0):
    """New-task chances of the incremental estimator equal the oracle's
    bitwise, agree across the three query entry points, and stay within
    ``BOUND`` of the chain ``_build_chain(...)[-1] ⊛ pet`` — exactly
    equal where the horizon truncates that PCT."""
    cells, running, queue, start, deadlines, nows = scenario
    loaded = [
        _loaded(cells, running, queue, start, deadlines, memoize=m, horizon=horizon)
        for m in (True, False, False)
    ]
    if idle:
        for machine, _ in loaded:
            _make_idle(machine)
    (inc, inc_est), (ora, ora_est), (ref, ref_est) = loaded
    tasks = [
        Task(task_id=100 + i, task_type=t, arrival=min(start, d), deadline=d)
        for i, (t, d) in enumerate(probes)
    ]
    for now in nows:
        got = inc_est.chances_for(tasks, [inc], now)[:, 0]
        assert np.array_equal(got, ora_est.chances_for(tasks, [ora], now)[:, 0])
        assert np.array_equal(got, inc_est.chances_for_pairs([(t, inc) for t in tasks], now))
        assert [inc_est.chance_of_success(t, inc, now) for t in tasks] == got.tolist()
        avail = ref_est._build_chain(ref, now)[-1]
        for task, g in zip(tasks, got.tolist()):
            pct = avail.convolve(cells[task.task_type]).truncate(now + horizon)
            w = pct.cdf_at(task.deadline)
            if pct.tail > 0.0:
                assert g == w
            else:
                assert abs(g - w) <= BOUND
                assert (g == 0.0) == (w == 0.0)


class TestNewTasksAgainstTheChain:
    @settings(max_examples=120, deadline=None)
    @given(new_task_scenarios())
    def test_running_bases(self, case):
        _check_new_tasks(*case)

    @settings(max_examples=50, deadline=None)
    @given(new_task_scenarios())
    def test_idle_base(self, case):
        _check_new_tasks(*case, idle=True)

    @settings(max_examples=50, deadline=None)
    @given(new_task_scenarios(), st.sampled_from([0.5, 2.0, 5.0, 9.0]))
    def test_binding_horizon_equals_the_chain(self, case, horizon):
        _check_new_tasks(*case, horizon=horizon)


class TestAvailabilityForm:
    """Every new-task chance reads the machine's availability ``A = b ⊛
    Q_{n-1}`` (Eq. 1's ``PCT(n − 1)``, ``Q_{n-1}`` itself when idle).
    The memoized form equals the oracle's bitwise, sits within ``BOUND``
    of the chain's availability, and is reused while its key holds."""

    @settings(max_examples=120, deadline=None)
    @given(scenarios(), st.sampled_from([512.0, 0.5, 2.0, 5.0, 9.0]), st.booleans())
    def test_memo_equals_the_oracle_and_the_chain(self, scenario, horizon, idle):
        cells, running, queue, start, deadlines, nows = scenario
        loaded = [
            _loaded(cells, running, queue, start, deadlines, memoize=m, horizon=horizon)
            for m in (True, False, False)
        ]
        if idle:
            for machine, _ in loaded:
                _make_idle(machine)
        (inc, inc_est), (ora, ora_est), (ref, ref_est) = loaded
        for now in nows:
            form = inc_est._availability(inc, now)
            assert inc_est._availability(inc, now) is form  # the memo answers
            a, a_cum, offset = form
            o, o_cum, o_offset = ora_est._availability(ora, now)
            assert offset == o_offset
            assert (a is None) == (o is None)
            if a is None:
                continue
            assert np.array_equal(a, o) and np.array_equal(a_cum, o_cum)
            chain = ref_est.availability_pct(ref, now)
            if chain.tail == 0.0:
                assert chain.offset == offset
                assert chain.probs.size == a.size
                assert np.max(np.abs(chain.probs - a)) <= BOUND

    def test_every_base_kind(self):
        """A clock sweep through the running task's support reaches the
        uncut, interior and clock-tracking (``tdep``) bases, and an idle
        machine its own: new-task chances equal the oracle's bitwise at
        every step."""
        wide = PMF(np.linspace(1.0, 2.0, 12) / np.linspace(1.0, 2.0, 12).sum(), 2.0)
        cells = [wide, PMF([0.2, 0.5, 0.3], 1.0), PMF([0.6, 0.4], 3.0)]
        deadlines = [9.0, 12.5, 15.0]
        inc, inc_est = _loaded(cells, 0, [1, 2, 1], 0.5, deadlines, memoize=True)
        ora, ora_est = _loaded(cells, 0, [1, 2, 1], 0.5, deadlines, memoize=False)
        probes = [
            Task(task_id=100 + t, task_type=t, arrival=0.0, deadline=14.0 + 3 * t)
            for t in range(3)
        ]
        kinds = set()
        for step in range(1, 40):
            now = 0.5 + step / 2
            if step == 30:
                _make_idle(inc)
                _make_idle(ora)
            got = inc_est.chances_for(probes, [inc], now)
            assert np.array_equal(got, ora_est.chances_for(probes, [ora], now))
            kinds.add(inc_est._states[inc.machine_id].base_kind)
        assert kinds == {"uncut", "interior", "tdep", "idle"}


class TestNewTaskTypesCostNoConvolution:
    """K offers of K distinct task types to an unchanged two-machine
    cluster: only the first offer convolves, and a clock tick that moves
    the running tasks' cuts costs at most one convolution per machine."""

    K = 6

    def _cluster(self, memoize):
        rng = np.random.default_rng(3)
        cells = [
            [PMF(w / w.sum(), float(1 + (t + m) % 3)) for m in range(2)]
            for t in range(self.K)
            for w in [rng.uniform(0.1, 1.0, size=4 + t)]
        ]
        pet = PETMatrix(cells)
        cluster = Cluster.heterogeneous(2)
        sim = Simulator(start_time=0.25)
        for m in range(2):
            for i, ttype in enumerate((0, 1, 2)):
                task = Task(task_id=10 * m + i, task_type=ttype, arrival=0.0, deadline=1e6)
                task.mark_mapped(m, 0.25)
                cluster[m].dispatch(task, sim, lambda *a: 1.0, lambda *a: None)
        return cluster, CompletionEstimator(pet, memoize=memoize)

    def test_only_the_first_offer_convolves(self):
        cluster, est = self._cluster(True)
        oracle_cluster, oracle = self._cluster(False)
        now = 1.0
        for k in range(self.K):
            probe = Task(task_id=100 + k, task_type=k, arrival=now, deadline=now + 12.0)
            before = est.convolutions
            got = est.chances_for([probe], cluster.machines, now)
            if k == 0:
                assert est.convolutions > before
            else:
                assert est.convolutions == before
            assert np.array_equal(got, oracle.chances_for([probe], oracle_cluster.machines, now))
        kinds = set()
        for step in range(1, 12):
            now = 1.0 + step
            probe = Task(task_id=200 + step, task_type=step % self.K, arrival=now, deadline=now + 12.0)
            before = est.convolutions
            got = est.chances_for([probe], cluster.machines, now)
            assert est.convolutions - before <= len(cluster.machines)
            assert np.array_equal(got, oracle.chances_for([probe], oracle_cluster.machines, now))
            kinds.update(est._states[m.machine_id].base_kind for m in cluster.machines)
        assert "interior" in kinds


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(pet_cells(), pet_cells(), st.integers(0, 25))
    def test_matches_cumulative_of_the_convolution(self, b, q, k):
        full = np.add.accumulate(np.convolve(b.probs, q.probs))
        want = full[min(k, full.size - 1)]
        got = convolved_cdf_at(b.probs, b.cumulative(), q.cumulative(), k)
        assert abs(got - want) <= BOUND


class TestMovingCutCostsNoConvolution:
    """One running machine, a fixed 4-task queue, and a clock stepping
    through the running task's support: every new cut re-answers the
    queue with dot products only."""

    def _setup(self, memoize):
        wide = PMF(np.linspace(1.0, 2.0, 12) / np.linspace(1.0, 2.0, 12).sum(), 2.0)
        short = PMF([0.2, 0.5, 0.3], 1.0)
        other = PMF([0.6, 0.4], 3.0)
        cells = [wide, short, other]
        deadlines = [9.0, 12.5, 15.0, 18.25]
        return _loaded(cells, 0, [1, 2, 1, 2], 0.5, deadlines, memoize=memoize)

    def test_zero_convolutions_after_the_first_query(self):
        machine, est = self._setup(True)
        oracle_machine, oracle = self._setup(False)
        nows = [0.5 + 2.0 + 0.25 + i for i in range(7)]  # 7 interior cuts
        cuts = set()
        for i, now in enumerate(nows):
            before = est.convolutions
            (got,) = est.cluster_queue_chances([machine], now)
            if i:
                assert est.convolutions == before
            (want,) = oracle.cluster_queue_chances([oracle_machine], now)
            assert np.array_equal(got, want)
            cuts.add(est._states[machine.machine_id].base_cut)
        assert len(cuts) >= 5

    def test_same_cut_returns_the_same_array(self):
        machine, est = self._setup(True)
        (first,) = est.cluster_queue_chances([machine], 3.0)
        (again,) = est.cluster_queue_chances([machine], 3.4)  # same cut
        assert again is first
        (moved,) = est.cluster_queue_chances([machine], 4.0)  # next cut
        assert moved is not first


class TestExactTies:
    def test_a_tie_the_two_forms_round_apart_is_decided_on_the_chain(self, monkeypatch):
        """A bursty 480-task MM trial at β = 0.75 (trial 3 of the control
        benchmark's ``P75`` cell at its heaviest level).  At t ≈ 74.42 a
        queued task's chain chance is exactly 0.75 while the factored
        sum rounds to 0.7500000000000001; the drop scan re-reads it from
        the chain and drops the task, as the chain path always did."""
        consulted = []
        original = CompletionEstimator.chain_chance

        def spy(self, task, machine, now, index=None):
            value = original(self, task, machine, now, index)
            consulted.append(value)
            return value

        monkeypatch.setattr(CompletionEstimator, "chain_chance", spy)
        spec = WorkloadSpec(
            num_tasks=480,
            time_span=150.0,
            num_task_types=8,
            pattern="bursty",
            burst_amplitude=8.0,
            burst_fraction=0.15,
            burst_cycles=4.0,
        )
        config = ExperimentConfig(
            heuristic="MM",
            spec=spec,
            pruning=PruningConfig(pruning_threshold=0.75),
            trials=5,
            base_seed=42,
        )
        result = run_trial(config, 3)
        assert 0.75 in consulted
        # The chain path's outcome (the factored value alone gives 173 / 74).
        assert (result.on_time, result.dropped_proactive) == (169, 66)
