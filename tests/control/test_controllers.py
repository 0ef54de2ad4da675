"""Unit tests for the adaptive pruning controllers (repro.control)."""

from __future__ import annotations

import pytest

from repro.control.controllers import (
    HysteresisController,
    ScheduleController,
    StaticController,
    TargetSuccessController,
)
from repro.control.driver import ControllerDriver
from repro.control.registry import (
    CONTROLLERS,
    make_controller,
    make_driver,
    parse_controller_spec,
    resolve_controller,
)
from repro.control.signals import ControlSignals, Setpoints
from repro.core.config import CONTROLLER_KINDS, ControllerConfig, PruningConfig


def signals(
    *,
    now=0.0,
    on_time=0,
    late=0,
    dropped_missed=0,
    dropped_proactive=0,
    mapping_events=1,
    misses_since_last_event=0,
    beta=0.5,
    alpha=0,
    **kw,
) -> ControlSignals:
    defaults = dict(
        arrived=0,
        defers=0,
        queued=0,
        batch_queued=0,
        running=0,
        sufferage={},
    )
    defaults.update(kw)
    return ControlSignals(
        now=now,
        mapping_events=mapping_events,
        misses_since_last_event=misses_since_last_event,
        on_time=on_time,
        late=late,
        dropped_missed=dropped_missed,
        dropped_proactive=dropped_proactive,
        beta=beta,
        alpha=alpha,
        **defaults,
    )


class TestConfigValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown controller kind"):
            ControllerConfig(kind="pid")

    def test_registry_covers_every_kind(self):
        assert set(CONTROLLERS) == set(CONTROLLER_KINDS)

    def test_schedule_needs_breakpoints(self):
        with pytest.raises(ValueError, match="at least one breakpoint"):
            ControllerConfig(kind="schedule")

    def test_schedule_must_be_sorted(self):
        with pytest.raises(ValueError, match="ascending"):
            ControllerConfig(kind="schedule", schedule=((10.0, 0.5), (5.0, 0.7)))

    def test_negative_breakpoint_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ControllerConfig(kind="schedule", schedule=((-1.0, 0.5),))

    def test_beta_bounds_ordering(self):
        with pytest.raises(ValueError, match="beta_min"):
            ControllerConfig(kind="hysteresis", beta_min=0.8, beta_max=0.2)

    def test_band_ordering(self):
        with pytest.raises(ValueError, match="low"):
            ControllerConfig(kind="hysteresis", low=0.5, high=0.1)

    def test_integral_float_counts_coerced(self):
        cfg = ControllerConfig(kind="hysteresis", cooldown=4.0, window=2.0)
        assert cfg.cooldown == 4 and isinstance(cfg.cooldown, int)
        assert cfg.window == 2 and isinstance(cfg.window, int)

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            ControllerConfig(kind="hysteresis", cooldown=4.5)

    def test_schedule_points_normalized_to_float_tuples(self):
        cfg = ControllerConfig(kind="schedule", schedule=[[0, 0.3], [10, 0.7]])
        assert cfg.schedule == ((0.0, 0.3), (10.0, 0.7))

    def test_target_range(self):
        with pytest.raises(ValueError, match="target"):
            ControllerConfig(kind="target-success", target=1.0)

    def test_bool_dropping_toggle_rejected_by_name(self):
        with pytest.raises(ValueError, match="dropping_toggle must be an integer"):
            PruningConfig(dropping_toggle=True)

    def test_bool_pruning_threshold_rejected_by_name(self):
        with pytest.raises(ValueError, match="pruning_threshold must be a number"):
            PruningConfig(pruning_threshold=True)

    def test_bool_alpha_arm_rejected_by_name(self):
        with pytest.raises(ValueError, match="alphas must be integers, got True"):
            ControllerConfig(kind="bandit", alphas=(True,))

    def test_string_beta_arm_rejected_by_name(self):
        with pytest.raises(ValueError, match="betas must be numbers, got '0.5'"):
            ControllerConfig(kind="bandit", betas=("0.5",))

    def test_accepted_values_are_kept_as_given(self):
        """The checks convert nothing they accept (trial keys hash the
        config as given)."""
        pruning = PruningConfig(pruning_threshold=1, dropping_toggle=2.0)
        assert type(pruning.pruning_threshold) is int
        assert type(pruning.dropping_toggle) is float
        bandit = ControllerConfig(kind="bandit", betas=(0.5,), alphas=(2.0,))
        assert bandit.betas == (0.5,) and bandit.alphas == (2,)

    def test_dict_round_trip_through_pruning_config(self):
        import dataclasses

        pruning = PruningConfig(
            controller=ControllerConfig(kind="hysteresis", high=0.3)
        )
        payload = dataclasses.asdict(pruning)
        assert payload["controller"]["kind"] == "hysteresis"
        rebuilt = PruningConfig(
            **{**payload, "toggle_mode": pruning.toggle_mode}
        )
        assert rebuilt.controller == pruning.controller


class TestStatic:
    def test_never_moves(self):
        base = PruningConfig()
        ctl = StaticController(ControllerConfig(), base)
        for i in range(10):
            assert ctl.update(signals(now=float(i), late=i)) is None
        assert ctl.breakpoints() == ()
        assert ctl.at_time(5.0) is None


class TestSchedule:
    def make(self, **kw):
        base = PruningConfig(pruning_threshold=0.5, dropping_toggle=1)
        cfg = ControllerConfig(kind="schedule", **kw)
        return ScheduleController(cfg, base)

    def test_piecewise_constant_beta(self):
        ctl = self.make(schedule=((10.0, 0.3), (20.0, 0.8)))
        assert ctl.setpoints_at(0.0) == (0.5, 1)  # config values before t0
        assert ctl.setpoints_at(10.0) == (0.3, 1)
        assert ctl.setpoints_at(15.0) == (0.3, 1)
        assert ctl.setpoints_at(20.0) == (0.8, 1)
        assert ctl.setpoints_at(1e9) == (0.8, 1)

    def test_alpha_schedule(self):
        ctl = self.make(schedule=((0.0, 0.4),), alpha_schedule=((30.0, 3.0),))
        assert ctl.setpoints_at(0.0) == (0.4, 1)
        assert ctl.setpoints_at(30.0) == (0.4, 3)

    def test_breakpoints_merge_both_schedules(self):
        ctl = self.make(schedule=((10.0, 0.3),), alpha_schedule=((5.0, 2.0), (10.0, 0.0)))
        assert ctl.breakpoints() == (5.0, 10.0)

    def test_update_is_pure_function_of_time(self):
        ctl = self.make(schedule=((10.0, 0.3),))
        s = signals(now=12.0, late=100, dropped_missed=50)
        assert ctl.update(s) == ctl.at_time(12.0) == (0.3, 1)


class TestHysteresis:
    def make(self, **kw):
        defaults = dict(low=0.1, high=0.3, step=0.2, cooldown=2, window=1,
                        beta_min=0.1, beta_max=0.9)
        defaults.update(kw)
        base = PruningConfig(pruning_threshold=0.5)
        return HysteresisController(
            ControllerConfig(kind="hysteresis", **defaults), base
        )

    def test_no_outcomes_no_opinion(self):
        ctl = self.make()
        assert ctl.update(signals()) is None

    def test_steps_up_above_band(self):
        ctl = self.make()
        out = ctl.update(signals(late=8, on_time=2))  # miss rate 0.8
        assert out == (0.7, 0)

    def test_steps_down_below_band(self):
        ctl = self.make()
        out = ctl.update(signals(on_time=100))  # miss rate 0
        assert out == (0.3, 0)

    def test_dead_band_holds(self):
        ctl = self.make()
        out = ctl.update(signals(late=2, on_time=8))  # rate 0.2 inside band
        assert out == (0.5, 0)

    def test_cooldown_blocks_consecutive_steps(self):
        ctl = self.make(cooldown=3)
        assert ctl.update(signals(late=10)) == (0.7, 0)
        # During cool-down, more misses do not move β again...
        assert ctl.update(signals(late=20)) == (0.7, 0)
        assert ctl.update(signals(late=30)) == (0.7, 0)
        assert ctl.update(signals(late=40)) == (0.7, 0)
        # ...and the first post-cool-down tick does.
        beta, alpha = ctl.update(signals(late=50))
        assert (beta, alpha) == (pytest.approx(0.9), 0)

    def test_clamped_at_bounds(self):
        ctl = self.make(cooldown=1, step=0.5)
        ctl.update(signals(late=10))
        ctl.update(signals(late=20))
        out = ctl.update(signals(late=30))
        assert out == (0.9, 0)  # beta_max, not 1.0+

    def test_adapt_alpha_drops_to_zero_above_band(self):
        base = PruningConfig(pruning_threshold=0.5, dropping_toggle=4)
        ctl = HysteresisController(
            ControllerConfig(
                kind="hysteresis", low=0.1, high=0.3, step=0.1, cooldown=1,
                window=1, adapt_alpha=True,
            ),
            base,
        )
        assert ctl.update(signals(late=10, alpha=4))[1] == 0
        ctl.update(signals(late=10, on_time=1000, alpha=0))  # consumes cool-down
        assert ctl.update(signals(late=10, on_time=2000, alpha=0))[1] == 4

    def test_ewma_smooths_single_spike(self):
        ctl = self.make(window=9)  # gain 0.2
        ctl.update(signals(on_time=10))          # ewma 0 → step down
        out = ctl.update(signals(on_time=10, late=10))  # window rate 1.0, ewma 0.2
        # 0.2 is inside the band: no second move.
        assert out == (0.3, 0)


class TestTargetSuccess:
    def make(self, **kw):
        defaults = dict(target=0.5, settle=2, beta_min=0.1, beta_max=0.9)
        defaults.update(kw)
        base = PruningConfig(pruning_threshold=0.5)
        return TargetSuccessController(
            ControllerConfig(kind="target-success", **defaults), base
        )

    def test_waits_for_settle_window(self):
        ctl = self.make(settle=3)
        assert ctl.update(signals(on_time=1)) is None
        assert ctl.update(signals(on_time=2)) is None
        assert ctl.update(signals(on_time=3)) is not None

    def test_below_target_moves_beta_up(self):
        ctl = self.make()
        ctl.update(signals(on_time=0, late=0))
        out = ctl.update(signals(on_time=1, late=9))  # rate 0.1 < 0.5
        assert out is not None and out[0] == pytest.approx(0.7)

    def test_at_target_relaxes_beta(self):
        ctl = self.make()
        ctl.update(signals())
        out = ctl.update(signals(on_time=9, late=1))  # rate 0.9 >= 0.5
        assert out is not None and out[0] == pytest.approx(0.3)

    def test_empty_window_extends_instead_of_voting(self):
        ctl = self.make(settle=2)
        assert ctl.update(signals()) is None
        assert ctl.update(signals()) is None  # window had no outcomes
        out = ctl.update(signals(late=4))  # now it has
        assert out is not None

    def test_bracket_reopens_after_convergence(self):
        ctl = self.make(settle=1)
        for i in range(1, 60):
            ctl.update(signals(late=4 * i))  # always below target
        # β pinned near beta_max but the bracket must have re-opened,
        # so a long over-target stretch can pull it back down.
        high = ctl.beta
        for i in range(60, 120):
            ctl.update(signals(late=240, on_time=100 * i))
        assert ctl.beta < high


class TestDriver:
    def test_records_only_changes(self):
        sp = Setpoints(beta=0.5, alpha=0)
        drv = ControllerDriver(StaticController(ControllerConfig(), PruningConfig()), sp)
        for i in range(5):
            drv.tick(signals(now=float(i)))
        stats = drv.stats()
        assert stats["ticks"] == 5
        assert stats["updates"] == 0
        assert stats["trajectory"] == []
        assert stats["initial"] == [0.5, 0.0] == stats["final"]

    def test_clamps_whatever_controller_emits(self):
        class Wild(StaticController):
            def update(self, s):
                return 7.3, -4

        sp = Setpoints(beta=0.5, alpha=2)
        drv = ControllerDriver(Wild(ControllerConfig(), PruningConfig()), sp)
        drv.tick(signals(now=1.0))
        assert sp.beta == 1.0 and sp.alpha == 0
        assert drv.stats()["trajectory"] == [[1.0, 1.0, 0.0]]

    def test_time_tick_uses_at_time(self):
        base = PruningConfig(pruning_threshold=0.5)
        cfg = ControllerConfig(kind="schedule", schedule=((10.0, 0.2),))
        sp = Setpoints(beta=0.5, alpha=0)
        drv = make_driver(cfg, base, sp)
        drv.time_tick(10.0)
        assert sp.beta == 0.2
        assert drv.stats()["time_ticks"] == 1

    def test_make_driver_none_for_no_controller(self):
        assert make_driver(None, PruningConfig(), Setpoints(0.5, 0)) is None


class TestRegistry:
    def test_bare_names(self):
        for kind in ("static", "hysteresis", "target-success"):
            cfg = parse_controller_spec(kind)
            assert cfg.kind == kind
            assert isinstance(
                make_controller(cfg, PruningConfig()), CONTROLLERS[kind]
            )

    def test_spec_with_parameters(self):
        cfg = parse_controller_spec("hysteresis:low=0.02,high=0.4,step=0.05,adapt_alpha=true")
        assert (cfg.low, cfg.high, cfg.step, cfg.adapt_alpha) == (0.02, 0.4, 0.05, True)

    def test_schedule_spec_pairs(self):
        cfg = parse_controller_spec("schedule:0=0.3,120=0.7,alpha@60=2")
        assert cfg.schedule == ((0.0, 0.3), (120.0, 0.7))
        assert cfg.alpha_schedule == ((60.0, 2.0),)

    def test_unknown_kind_and_parameter(self):
        with pytest.raises(ValueError, match="unknown controller"):
            parse_controller_spec("pid")
        with pytest.raises(ValueError, match="unknown controller parameter"):
            parse_controller_spec("hysteresis:gain=2")

    def test_resolve_none(self):
        assert resolve_controller(None) == ("", None)
        assert resolve_controller("none") == ("", None)

    def test_resolve_spec_string_with_label(self):
        """Two tunings of one kind can share a grid axis: spec strings
        accept an inline ``label=`` item that names the cell."""
        label, cfg = resolve_controller("hysteresis:high=0.4,label=hot")
        assert label == "hot"
        assert cfg.kind == "hysteresis" and cfg.high == 0.4
        label2, cfg2 = resolve_controller("static:label=telemetry")
        assert label2 == "telemetry" and cfg2.kind == "static"

    def test_resolve_mapping_with_label(self):
        label, cfg = resolve_controller(
            {"kind": "schedule", "schedule": [[0, 0.25], [120, 0.75]], "label": "ramp"}
        )
        assert label == "ramp"
        assert cfg.schedule == ((0.0, 0.25), (120.0, 0.75))

    def test_resolve_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown controller keys"):
            resolve_controller({"kind": "static", "gain": 1.0})
        # Mapping values go through the spec-string converters: a bool
        # is not a number, and a non-numeric count fails as ValueError
        # by name instead of as a TypeError from a comparison.
        with pytest.raises(ValueError, match="high=True: expected a number"):
            resolve_controller({"kind": "hysteresis", "high": True})
        with pytest.raises(ValueError, match="controller parameter window='eight'"):
            resolve_controller({"kind": "hysteresis", "window": "eight"})
        # ... and a numeric string means what it means in a spec string.
        assert resolve_controller({"kind": "hysteresis", "window": "8"}) == (
            resolve_controller("hysteresis:window=8")
        )
