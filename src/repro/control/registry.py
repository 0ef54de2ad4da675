"""Controller registry: names → classes, plus spec parsing.

Mirrors the heuristics registry: every controller is reachable by a
stable name so sweep grids, the CLI, and golden-case manifests can name
one declaratively.

Three spellings resolve to a :class:`~repro.core.config.ControllerConfig`:

* a bare name — ``"hysteresis"`` (all defaults);
* a CLI/grid spec string — ``"hysteresis:low=0.05,high=0.3,step=0.1"``
  or ``"schedule:0=0.25,120=0.75"`` (schedule pairs are ``t=β``);
* a mapping — ``{"kind": "target-success", "target": 0.6}``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping

from ..core.config import CONTROLLER_KINDS, ControllerConfig, PruningConfig
from .controllers import (
    BanditController,
    Controller,
    HysteresisController,
    ScheduleController,
    StaticController,
    TargetSuccessController,
)
from .driver import ControllerDriver
from .signals import Setpoints

__all__ = [
    "CONTROLLERS",
    "make_controller",
    "make_driver",
    "parse_controller_spec",
    "resolve_controller",
]

#: kind → controller class (keys match :data:`CONTROLLER_KINDS`).
CONTROLLERS: dict[str, type[Controller]] = {
    "static": StaticController,
    "schedule": ScheduleController,
    "hysteresis": HysteresisController,
    "target-success": TargetSuccessController,
    "bandit": BanditController,
}
assert set(CONTROLLERS) == set(CONTROLLER_KINDS)


# ----------------------------------------------------------------------
# Typed spec-value converters.  A spec value arrives as the raw string
# from a ``k=v`` item or, after JSON parsing (values starting with ``[``
# or ``{``), as a list/dict — each converter normalizes both spellings
# and raises a bare-reason ValueError; ``_convert`` prefixes the
# offending key so every error names what was wrong *and where*.
# ----------------------------------------------------------------------
def _as_float(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _as_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected an integer, got {value!r}")
    as_float = float(value)
    if not as_float.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(as_float)


def _as_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    raise ValueError(f"expected true/false, got {value!r}")


def _as_float_tuple(value: object) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_as_float(v) for v in value)
    return (_as_float(value),)  # a bare scalar is a 1-element grid


def _as_int_tuple(value: object) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(v) for v in value)
    return (_as_int(value),)


def _as_breakpoints(value: object) -> tuple[tuple[float, float], ...]:
    """Schedule breakpoints from a JSON dict (``{"0": 0.25, "120": 0.75}``)
    or pair list (``[[0, 0.25], [120, 0.75]]``)."""
    if isinstance(value, Mapping):
        pairs = [(_as_float(t), _as_float(v)) for t, v in value.items()]
    elif isinstance(value, (list, tuple)):
        pairs = []
        for point in value:
            if not isinstance(point, (list, tuple)) or len(point) != 2:
                raise ValueError(f"expected [t, value] pairs, got {point!r}")
            pairs.append((_as_float(point[0]), _as_float(point[1])))
    else:
        raise ValueError(f"expected a {{t: value}} dict or [t, value] pairs, got {value!r}")
    return tuple(sorted(pairs))


#: ControllerConfig fields a spec string / mapping may set → converter.
_FIELD_TYPES: dict[str, Callable[[object], object]] = {
    "low": _as_float,
    "high": _as_float,
    "step": _as_float,
    "cooldown": _as_int,
    "window": _as_int,
    "adapt_alpha": _as_bool,
    "beta_min": _as_float,
    "beta_max": _as_float,
    "target": _as_float,
    "settle": _as_int,
    "epsilon": _as_float,
    "ucb_c": _as_float,
    "seed": _as_int,
    "betas": _as_float_tuple,
    "alphas": _as_int_tuple,
    "miss_bands": _as_float_tuple,
    "queue_bands": _as_int_tuple,
    "schedule": _as_breakpoints,
    "alpha_schedule": _as_breakpoints,
}


def make_controller(config: ControllerConfig, base: PruningConfig) -> Controller:
    """Instantiate the controller a config names."""
    return CONTROLLERS[config.kind](config, base)


def make_driver(
    config: ControllerConfig | None,
    base: PruningConfig,
    setpoints: Setpoints,
) -> ControllerDriver | None:
    """Build the driver for a pruning config (``None`` → no control plane)."""
    if config is None:
        return None
    return ControllerDriver(make_controller(config, base), setpoints)


def _split_spec_items(text: str) -> list[str]:
    """Split a spec's parameter list on *top-level* commas only.

    Commas nested inside ``[...]``/``{...}`` (a ``betas=[0.3,0.5]`` grid,
    a JSON ``schedule={...}`` dict) or inside quotes belong to the value,
    not the item list.  Unbalanced brackets fail here, by name, instead
    of as a confusing per-item parse error downstream.
    """
    items: list[str] = []
    depth = 0
    quote: str | None = None
    start = 0
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in controller spec {text!r}")
        elif ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    if depth != 0 or quote is not None:
        raise ValueError(f"unbalanced brackets or quotes in controller spec {text!r}")
    items.append(text[start:])
    return items


def _convert(key: str, raw: object) -> object:
    """Coerce one parameter of either spelling: a spec string's raw
    ``k=v`` text or a mapping entry's (JSON-typed) value."""
    if key not in _FIELD_TYPES:
        raise ValueError(
            f"unknown controller parameter {key!r}; allowed: {sorted(_FIELD_TYPES)}"
        )
    value = raw
    if isinstance(raw, str) and raw[:1] in "[{":
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"controller parameter {key}={raw!r} is not valid JSON: {exc}"
            ) from exc
    try:
        return _FIELD_TYPES[key](value)
    except ValueError as exc:
        raise ValueError(f"controller parameter {key}={raw!r}: {exc}") from exc


def parse_controller_spec(spec: str) -> ControllerConfig:
    """Parse a ``kind[:k=v,...]`` spec string (the CLI's ``--controller``).

    Values may be scalars (``hysteresis:high=0.3``), JSON lists
    (``bandit:betas=[0.3,0.5,0.7],seed=7``) or JSON dicts
    (``schedule:schedule={"0":0.25,"120":0.75}``) — commas inside
    brackets belong to the value.  The schedule kind also keeps its
    positional ``t=β`` pairs (``"schedule:0=0.25,120=0.75"``) with named
    α breakpoints via ``alpha@t=value`` (``"schedule:0=0.3,alpha@60=2"``).
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty controller spec")
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in CONTROLLERS:
        raise ValueError(
            f"unknown controller {kind!r}; choose from {sorted(CONTROLLERS)}"
        )
    kwargs: dict = {}
    schedule: list[tuple[float, float]] = []
    alpha_schedule: list[tuple[float, float]] = []
    if rest.strip():
        for item in _split_spec_items(rest):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"controller spec item {item!r} is not key=value")
            key = key.strip()
            value = value.strip()
            # Schedule kind: bare ``t=β`` / ``alpha@t=v`` breakpoints —
            # but a *named* parameter (window=, schedule={...}) is still
            # a parameter, so known field names take precedence.
            if kind == "schedule" and key not in _FIELD_TYPES:
                try:
                    if key.startswith("alpha@"):
                        alpha_schedule.append((float(key[len("alpha@"):]), float(value)))
                    else:
                        schedule.append((float(key), float(value)))
                    continue
                except ValueError as exc:
                    raise ValueError(
                        f"schedule breakpoint {item!r} is not t=beta "
                        f"(or alpha@t=value): {exc}"
                    ) from exc
            kwargs[key] = _convert(key, value)
    if kind == "schedule":
        named = kwargs.pop("schedule", ())
        named_alpha = kwargs.pop("alpha_schedule", ())
        kwargs["schedule"] = tuple(sorted((*schedule, *named)))
        kwargs["alpha_schedule"] = tuple(sorted((*alpha_schedule, *named_alpha)))
    return ControllerConfig(kind=kind, **kwargs)


def resolve_controller(entry: object) -> tuple[str, ControllerConfig | None]:
    """Resolve one grid ``controller`` entry to ``(label, config)``.

    Accepted forms::

        "none" / None                  no control plane (the default)
        "static" / "hysteresis" / ...  a registered kind with defaults
        "hysteresis:high=0.3"          a spec string (see parse_controller_spec)
        "hysteresis:high=0.4,label=hot"  spec string with an explicit label,
                                       so two tunings of one kind can share
                                       a grid axis without colliding
        {"kind": "schedule",           fully explicit variant; values are
         "schedule": [[0, 0.25],       coerced as spec-string values are;
          [120, 0.75]],                "label" overrides the derived name
         "label": "ramp"}
    """
    if entry is None or entry == "none":
        return "", None
    if isinstance(entry, str):
        # Pull a label= item out before parsing — it names the grid cell,
        # it is not a controller parameter.
        label = None
        kind, sep, rest = entry.partition(":")
        if sep:
            params = []
            for item in _split_spec_items(rest):
                key, eq, value = item.partition("=")
                if eq and key.strip() == "label":
                    label = value.strip()
                else:
                    params.append(item)
            entry = kind + (":" + ",".join(params) if params else "")
        config = parse_controller_spec(entry)
        return label or config.kind, config
    if isinstance(entry, Mapping):
        fields = dict(entry)
        label = fields.pop("label", None)
        allowed = set(ControllerConfig.__dataclass_fields__)
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(
                f"unknown controller keys {sorted(unknown)}; allowed: "
                f"{sorted(allowed | {'label'})}"
            )
        for key in fields:
            if key != "kind":
                fields[key] = _convert(key, fields[key])
        config = ControllerConfig(**fields)
        return str(label) if label else config.kind, config
    raise ValueError(f"unrecognized controller entry: {entry!r}")
