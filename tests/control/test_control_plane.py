"""Integration tests: the control plane inside a full simulation.

The acceptance contract of the subsystem:

* the default (no controller) and the explicit ``StaticController`` are
  *bit-identical* in every task outcome — telemetry is the only
  difference;
* adaptive controllers actually move the live setpoints (and the Pruner
  and Toggle consume them);
* determinism holds: same config + seed → same trajectory, parallel
  campaign execution byte-identical to serial, memoize modes identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ControllerConfig, PruningConfig
from repro.core.pruner import Pruner
from repro.experiments.campaign import run_cell_trials
from repro.experiments.runner import ExperimentConfig, pet_matrix, run_trial
from repro.metrics.collector import SimulationResult
from repro.system.serverless import ServerlessSystem
from repro.workload.generator import generate_workload
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(num_tasks=140, time_span=80.0, num_task_types=6, pattern="bursty")


def run_system(pruning, *, heuristic="MM", seed=3, workload_seed=5):
    pet = pet_matrix()
    tasks = generate_workload(SPEC, pet, np.random.default_rng(workload_seed))
    system = ServerlessSystem(pet, heuristic, pruning=pruning, seed=seed)
    result = system.run(tasks)
    return system, result


def outcome_fields(payload: dict) -> dict:
    return {
        k: v
        for k, v in payload.items()
        if k not in ("controller_stats", "fairness_stats")
    }


class TestStaticIsBitIdentical:
    def test_default_payload_has_no_telemetry_keys(self):
        _, result = run_system(PruningConfig.paper_default())
        payload = result.to_dict()
        assert "controller_stats" not in payload
        assert "fairness_stats" not in payload

    @pytest.mark.parametrize("heuristic", ["MM", "MCT"])
    def test_static_controller_outcomes_equal_no_controller(self, heuristic):
        base = PruningConfig.paper_default()
        _, r0 = run_system(base, heuristic=heuristic)
        _, r1 = run_system(
            base.with_(controller=ControllerConfig(kind="static")),
            heuristic=heuristic,
        )
        assert outcome_fields(r1.to_dict()) == outcome_fields(r0.to_dict())
        assert r1.controller_stats["updates"] == 0
        assert r1.controller_stats["initial"] == r1.controller_stats["final"]

    def test_setpoints_without_controller_stay_frozen(self):
        system, _ = run_system(PruningConfig.paper_default())
        assert system.pruner.driver is None
        assert system.pruner.setpoints.beta == 0.5
        assert system.pruner.setpoints.alpha == 0


class TestAdaptiveControllersActuate:
    def test_schedule_trajectory_matches_breakpoints(self):
        cfg = ControllerConfig(
            kind="schedule", schedule=((0.0, 0.3), (40.0, 0.8))
        )
        system, result = run_system(
            PruningConfig.paper_default().with_(controller=cfg)
        )
        stats = result.controller_stats
        assert stats["controller"] == "schedule"
        # Both steps were applied, in order, at/after their breakpoints.
        betas = [row[1] for row in stats["trajectory"]]
        assert betas == [0.3, 0.8]
        assert stats["trajectory"][1][0] >= 40.0
        assert system.pruner.setpoints.beta == 0.8

    def test_schedule_beta_drives_defer_decisions(self):
        """A β=1 schedule defers strictly more than a β=0 one — the live
        setpoint demonstrably reaches the defer check.  (β=0 still
        defers *zero-chance* tasks: the bar is ``chance <= β``.)"""
        lo = ControllerConfig(kind="schedule", schedule=((0.0, 0.0),))
        hi = ControllerConfig(kind="schedule", schedule=((0.0, 1.0),))
        _, r_lo = run_system(
            PruningConfig(enable_fairness=False).with_(controller=lo)
        )
        _, r_hi = run_system(
            PruningConfig(enable_fairness=False).with_(controller=hi)
        )
        assert r_hi.defer_decisions > r_lo.defer_decisions

    def test_hysteresis_moves_within_bounds(self):
        cfg = ControllerConfig(
            kind="hysteresis", low=0.02, high=0.15, step=0.1,
            beta_min=0.2, beta_max=0.8, cooldown=2, window=4,
        )
        _, result = run_system(PruningConfig.paper_default().with_(controller=cfg))
        stats = result.controller_stats
        assert stats["updates"] > 0
        for _, beta, alpha in stats["trajectory"]:
            assert 0.2 <= beta <= 0.8
            assert alpha >= 0

    def test_live_alpha_reaches_toggle(self):
        pruning = PruningConfig.paper_default().with_(dropping_toggle=5)
        pruner = Pruner(pruning)
        assert pruner.toggle.alpha == 5
        pruner.setpoints.alpha = 0
        assert pruner.toggle.alpha == 0


class TestDeterminism:
    CONTROLLERS = [
        ControllerConfig(kind="hysteresis", low=0.02, high=0.2, step=0.1,
                         cooldown=4, window=4),
        ControllerConfig(kind="target-success", target=0.6, settle=8),
        ControllerConfig(kind="schedule", schedule=((0.0, 0.3), (40.0, 0.7))),
        ControllerConfig(kind="static"),
    ]

    @pytest.mark.parametrize("cfg", CONTROLLERS, ids=lambda c: c.kind)
    def test_same_seed_same_trajectory(self, cfg):
        pruning = PruningConfig.paper_default().with_(controller=cfg)
        _, r1 = run_system(pruning)
        _, r2 = run_system(pruning)
        assert r1.to_dict() == r2.to_dict()

    @pytest.mark.parametrize("cfg", CONTROLLERS, ids=lambda c: c.kind)
    def test_memoize_modes_identical(self, cfg):
        pruning = PruningConfig.paper_default().with_(controller=cfg)
        pet = pet_matrix()
        payloads = []
        for memoize in (True, False):
            tasks = generate_workload(SPEC, pet, np.random.default_rng(5))
            system = ServerlessSystem(pet, "MM", pruning=pruning, seed=3, memoize=memoize)
            payload = system.run(tasks).to_dict()
            payload.pop("estimator_stats")  # cache counters differ by design
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_parallel_vs_serial_byte_identity(self):
        """Every new controller: jobs=2 must reproduce serial trials
        exactly (setpoints are a pure function of config + observed
        state, so workers can't diverge)."""
        configs = [
            ExperimentConfig(
                heuristic="MM",
                spec=WorkloadSpec(
                    num_tasks=90, time_span=60.0, num_task_types=4, pattern="bursty"
                ),
                pruning=PruningConfig.paper_default().with_(controller=cfg),
                trials=2,
                base_seed=17,
                label=f"ctl-{cfg.kind}",
            )
            for cfg in self.CONTROLLERS
        ]
        serial = run_cell_trials(configs, jobs=None)
        parallel = run_cell_trials(configs, jobs=2)
        for cell_s, cell_p in zip(serial, parallel):
            for rs, rp in zip(cell_s, cell_p):
                assert rs.to_dict() == rp.to_dict()


class TestTelemetryRoundTrip:
    def test_result_round_trips_with_telemetry(self):
        cfg = ControllerConfig(kind="hysteresis", low=0.02, high=0.2, step=0.1)
        _, result = run_system(PruningConfig.paper_default().with_(controller=cfg))
        payload = result.to_dict()
        assert SimulationResult.from_dict(payload).to_dict() == payload
        assert result.max_sufferage >= 0.0
        assert result.controller_updates == payload["controller_stats"]["updates"]

    def test_json_round_trip_exact(self):
        import json

        cfg = ControllerConfig(kind="schedule", schedule=((0.0, 0.4),))
        _, result = run_system(PruningConfig.paper_default().with_(controller=cfg))
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_run_trial_carries_telemetry(self):
        config = ExperimentConfig(
            heuristic="MM",
            spec=WorkloadSpec(num_tasks=80, time_span=50.0, pattern="bursty"),
            pruning=PruningConfig.paper_default().with_(
                controller=ControllerConfig(kind="static")
            ),
            trials=1,
        )
        result = run_trial(config, 0)
        assert result.controller_stats["controller"] == "static"
        assert "scores" in result.fairness_stats
