"""Knob-application tests: the tuning-params → ExperimentConfig patch."""

from __future__ import annotations

import pytest

from repro.control.registry import resolve_controller
from repro.core.config import ControllerConfig, PruningConfig
from repro.experiments.campaign import trial_key
from repro.experiments.runner import ExperimentConfig
from repro.tuning.params import apply_params, params_label
from repro.workload.spec import WorkloadSpec


def cell(pruning=True, controller=None):
    return ExperimentConfig(
        heuristic="MM",
        spec=WorkloadSpec(num_tasks=30, time_span=20.0, num_task_types=3),
        pruning=PruningConfig(pruning_threshold=0.5, controller=controller)
        if pruning
        else None,
        trials=1,
        base_seed=3,
        label="cell",
    )


class TestFixedKnobs:
    def test_beta_alpha_heuristic(self):
        out = apply_params(cell(), {"beta": 0.7, "alpha": 2, "heuristic": "MSD"})
        assert out.heuristic == "MSD"
        assert out.pruning.pruning_threshold == pytest.approx(0.7)
        assert out.pruning.dropping_toggle == 2
        # The input config is untouched (replace(), not mutation).
        assert cell().pruning.pruning_threshold == pytest.approx(0.5)

    def test_integral_float_alpha_coerced(self):
        out = apply_params(cell(), {"alpha": 2.0})
        assert out.pruning.dropping_toggle == 2
        with pytest.raises(ValueError, match="alpha must be an integer"):
            apply_params(cell(), {"alpha": 2.5})

    def test_unknown_knob_named(self):
        with pytest.raises(ValueError, match=r"unknown tuning knobs \['gamma'\]"):
            apply_params(cell(), {"gamma": 1})

    def test_baseline_cell_rejects_pruning_knobs(self):
        for params in ({"beta": 0.7}, {"alpha": 1}, {"controller": "hysteresis"}):
            with pytest.raises(ValueError, match="no-pruning baseline"):
                apply_params(cell(pruning=False), params)

    def test_invalid_beta_names_the_knob(self):
        with pytest.raises(ValueError, match="tuning knob beta"):
            apply_params(cell(), {"beta": 1.5})

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"beta": True}, "tuning knob beta must be a number, got True"),
            ({"beta": "0.4"}, "tuning knob beta must be a number, got '0.4'"),
            ({"alpha": True}, "tuning knob alpha must be an integer, got True"),
            ({"heuristic": "bogus"}, "tuning knob heuristic='bogus': .*unknown heuristic"),
            ({"controller.cooldown": True}, "tuning knob controller.cooldown=True"),
        ],
    )
    def test_values_convert_strictly(self, params, match):
        """Knob values convert like grid entries: a bool is not a
        number, a string not a β, and an unknown heuristic fails here,
        naming the knob, not later inside the campaign."""
        base = cell(controller=ControllerConfig(kind="hysteresis"))
        with pytest.raises(ValueError, match=match):
            apply_params(base, params)

    def test_heuristic_name_normalized(self):
        """'mm' and 'MM' are one experiment: one cache identity."""
        lower = apply_params(cell(), {"heuristic": "mm"})
        upper = apply_params(cell(), {"heuristic": "MM"})
        assert lower.heuristic == "MM"
        assert trial_key(lower, 0) == trial_key(upper, 0)


class TestControllerKnobs:
    def test_spec_string_and_none(self):
        out = apply_params(cell(), {"controller": "hysteresis:high=0.3"})
        assert out.pruning.controller.kind == "hysteresis"
        assert out.pruning.controller.high == pytest.approx(0.3)
        hot = cell(controller=ControllerConfig(kind="hysteresis"))
        assert apply_params(hot, {"controller": "none"}).pruning.controller is None
        assert apply_params(hot, {"controller": None}).pruning.controller is None

    def test_mapping_form(self):
        out = apply_params(
            cell(), {"controller": {"kind": "bandit", "betas": (0.3, 0.7), "seed": 5}}
        )
        assert out.pruning.controller.kind == "bandit"
        assert out.pruning.controller.betas == (0.3, 0.7)

    def test_mapping_values_convert_as_on_the_grid(self):
        """A mapping's string value is spec text, on the grid's
        controller axis and on the knob alike."""
        entry = {"kind": "hysteresis", "high": "0.3"}
        out = apply_params(cell(), {"controller": entry})
        assert out.pruning.controller == resolve_controller(entry)[1]
        assert out.pruning.controller.high == pytest.approx(0.3)

    def test_bad_spec_and_bad_type_named(self):
        with pytest.raises(ValueError, match="tuning knob controller='pid'"):
            apply_params(cell(), {"controller": "pid"})
        with pytest.raises(ValueError, match="not a spec or mapping"):
            apply_params(cell(), {"controller": 7})

    def test_nested_fields_patch_existing_controller(self):
        base = ControllerConfig(kind="hysteresis", high=0.1, step=0.25)
        out = apply_params(
            cell(controller=base), {"controller.high": 0.3, "controller.cooldown": 4}
        )
        assert out.pruning.controller.high == pytest.approx(0.3)
        assert out.pruning.controller.cooldown == 4
        assert out.pruning.controller.step == pytest.approx(0.25)  # untouched

    def test_controller_knob_composes_with_nested_fields(self):
        # "controller" applies first, then controller.<field> — regardless
        # of mapping insertion order.
        orders = (
            {"controller.high": 0.3, "controller": "hysteresis:step=0.1"},
            {"controller": "hysteresis:step=0.1", "controller.high": 0.3},
        )
        results = [apply_params(cell(), p).pruning.controller for p in orders]
        assert results[0] == results[1]
        assert results[0].high == pytest.approx(0.3)
        assert results[0].step == pytest.approx(0.1)

    def test_nested_field_needs_a_controller(self):
        with pytest.raises(ValueError, match="needs a controller on the cell"):
            apply_params(cell(), {"controller.high": 0.3})

    def test_nested_field_must_exist_and_not_be_kind(self):
        base = ControllerConfig(kind="hysteresis")
        with pytest.raises(ValueError, match="no such controller field"):
            apply_params(cell(controller=base), {"controller.gain": 2})
        with pytest.raises(ValueError, match="no such controller field"):
            apply_params(cell(controller=base), {"controller.kind": "static"})

    def test_invalid_nested_value_names_the_knob(self):
        base = ControllerConfig(kind="hysteresis")
        with pytest.raises(ValueError, match="controller.cooldown=2.5"):
            apply_params(cell(controller=base), {"controller.cooldown": 2.5})


class TestParamsLabel:
    def test_deterministic_and_order_independent(self):
        a = params_label({"beta": 0.7, "alpha": 2})
        b = params_label({"alpha": 2, "beta": 0.7})
        assert a == b
        assert a.startswith("tuned-") and len(a) == len("tuned-") + 8
        assert params_label({"beta": 0.8}) != a
