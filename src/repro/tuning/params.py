"""Applying tuning parameters to experiment cells.

The shared vocabulary between the offline tuner, the ``tuning`` sweep
axis, and the CLI: a flat ``{knob: value}`` mapping patched onto an
:class:`~repro.experiments.runner.ExperimentConfig`.

Knobs
-----
``heuristic``
    Mapping-heuristic registry name (``"MM"``, ``"MSD"``, …).
``beta``
    The pruning threshold β of the cell's :class:`PruningConfig`.
``alpha``
    The dropping-Toggle α.
``controller``
    A controller entry, exactly as on the grid's ``controller`` axis: a
    spec string (``"hysteresis:high=0.2"``, ``"bandit:betas=[0.3,0.7]"``),
    a mapping (``{"kind": "hysteresis", "high": 0.2}``), or ``"none"`` to
    detach the control plane.
``controller.<field>``
    One :class:`~repro.core.config.ControllerConfig` field of the
    cell's controller (``controller.high``, ``controller.step``, …),
    applied after any ``controller`` knob so the two compose.

Values resolve through the sweep grid's own rows and converters (β and
α as the ``pruning`` row's ``threshold`` and ``dropping_toggle``).
β/α/controller knobs require the cell to have a pruning config —
patching a baseline (no-pruning) cell is an error, not a silent no-op.
"""

from __future__ import annotations

from dataclasses import replace
from collections.abc import Callable, Mapping

from ..control.registry import convert_param
from ..core.config import ControllerConfig
from ..core.convert import convert_named
from ..experiments.campaign import _AXES, _resolve, params_label
from ..experiments.runner import ExperimentConfig

__all__ = ["apply_params", "params_label", "PARAM_KNOBS"]

#: Fixed (non-``controller.<field>``) knob names, in application order.
PARAM_KNOBS = ("heuristic", "beta", "alpha", "controller")

#: β/α knob → the ``pruning`` grid row's key it stands for.
_PRUNING_KEYS = {"beta": "threshold", "alpha": "dropping_toggle"}


def _require_pruning(config: ExperimentConfig, knob: str) -> None:
    if config.pruning is None:
        raise ValueError(
            f"tuning knob {knob!r} needs a pruning config, but cell "
            f"{config.display_label!r} is a no-pruning baseline"
        )


def _row_value(axis: str) -> Callable[[object], object]:
    """The value ``axis``'s grid row resolves an entry to."""
    return lambda entry: _resolve(axis, entry)[1]


def apply_params(config: ExperimentConfig, params: Mapping) -> ExperimentConfig:
    """Return ``config`` with the tuning ``params`` patched in.

    Knobs apply in a fixed order (heuristic, β, α, controller, then
    ``controller.<field>`` sorted by name), so the result is independent
    of the mapping's insertion order.  Unknown knobs and invalid values
    raise ``ValueError`` naming the offending knob.
    """
    fixed = {k: v for k, v in params.items() if k in PARAM_KNOBS}
    nested = {k: v for k, v in params.items() if k.startswith("controller.")}
    unknown = sorted(set(params) - set(fixed) - set(nested))
    if unknown:
        raise ValueError(
            f"unknown tuning knobs {unknown}; allowed: {list(PARAM_KNOBS)} "
            f"or 'controller.<field>'"
        )
    out = config
    if "heuristic" in fixed:
        heuristic = convert_named(
            "tuning knob heuristic", _row_value("heuristics"), fixed["heuristic"]
        )
        out = replace(out, heuristic=heuristic)
    for knob, key in _PRUNING_KEYS.items():
        if knob in fixed:
            _require_pruning(out, knob)
            target, convert = _AXES["pruning"].keys[key]
            pruning = convert_named(
                f"tuning knob {knob}",
                lambda v: out.pruning.with_(**{target: convert(v)}),
                fixed[knob],
            )
            out = replace(out, pruning=pruning)
    if "controller" in fixed:
        _require_pruning(out, "controller")
        controller = convert_named(
            "tuning knob controller", _row_value("controller"), fixed["controller"]
        )
        out = replace(out, pruning=out.pruning.with_(controller=controller))
    for knob in sorted(nested):
        field = knob[len("controller."):]
        _require_pruning(out, knob)
        if out.pruning.controller is None:
            raise ValueError(
                f"tuning knob {knob!r} needs a controller on the cell — set one "
                f"in the grid/mix or via the 'controller' knob"
            )
        if field not in ControllerConfig.__dataclass_fields__ or field == "kind":
            raise ValueError(
                f"tuning knob {knob!r}: no such controller field; allowed: "
                f"{sorted(set(ControllerConfig.__dataclass_fields__) - {'kind'})}"
            )
        controller = convert_named(
            f"tuning knob {knob}",
            lambda v: out.pruning.controller.with_(**{field: convert_param(field, v)}),
            nested[knob],
        )
        out = replace(out, pruning=out.pruning.with_(controller=controller))
    return out
