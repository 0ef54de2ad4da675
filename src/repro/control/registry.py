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

from collections.abc import Callable, Mapping

from ..core.config import CONTROLLER_KINDS, ControllerConfig, PruningConfig
from ..core.convert import as_bool, as_float, as_int, parse_text
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
    "convert_param",
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


def _grid(convert: Callable[[object], object]) -> Callable[[object], tuple]:
    """A list converter that takes a bare scalar as a 1-element grid."""
    return lambda value: tuple(
        convert(v) for v in (value if isinstance(value, (list, tuple)) else (value,))
    )


def _as_breakpoints(value: object) -> tuple[tuple[float, float], ...]:
    """Schedule breakpoints from a JSON dict (``{"0": 0.25, "120": 0.75}``)
    or pair list (``[[0, 0.25], [120, 0.75]]``)."""
    if isinstance(value, Mapping):
        pairs = [(as_float(_value(t)), as_float(v)) for t, v in value.items()]
    elif isinstance(value, (list, tuple)):
        pairs = []
        for point in value:
            if not isinstance(point, (list, tuple)) or len(point) != 2:
                raise ValueError(f"expected [t, value] pairs, got {point!r}")
            pairs.append((as_float(point[0]), as_float(point[1])))
    else:
        raise ValueError(f"expected a {{t: value}} dict or [t, value] pairs, got {value!r}")
    return tuple(sorted(pairs))


#: ControllerConfig fields a spec string / mapping may set → converter.
_FIELD_TYPES: dict[str, Callable[[object], object]] = {
    "low": as_float,
    "high": as_float,
    "step": as_float,
    "cooldown": as_int,
    "window": as_int,
    "adapt_alpha": as_bool,
    "beta_min": as_float,
    "beta_max": as_float,
    "target": as_float,
    "settle": as_int,
    "epsilon": as_float,
    "ucb_c": as_float,
    "seed": as_int,
    "betas": _grid(as_float),
    "alphas": _grid(as_int),
    "miss_bands": _grid(as_float),
    "queue_bands": _grid(as_int),
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


def _value(raw: object) -> object:
    """A spec value: text (a ``k=v`` item's or a mapping's) is parsed."""
    return parse_text(raw) if isinstance(raw, str) else raw


def convert_param(key: str, raw: object) -> object:
    """Coerce one parameter of either spelling — a spec string's ``k=v``
    text or a mapping entry's value — through the shared strict
    converters; the error names the key."""
    if key not in _FIELD_TYPES:
        raise ValueError(
            f"unknown controller parameter {key!r}; allowed: {sorted(_FIELD_TYPES)}"
        )
    try:
        return _FIELD_TYPES[key](_value(raw))
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
    label, config = _parse_spec(spec)
    if label is not None:
        raise ValueError("a label= item names a grid cell; use resolve_controller")
    return config


def _parse_spec(spec: str) -> tuple[str | None, ControllerConfig]:
    """``parse_controller_spec`` plus the ``label=`` item that names the
    grid cell (``None`` when absent) — not a controller parameter."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty controller spec")
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in CONTROLLERS:
        raise ValueError(
            f"unknown controller {kind!r}; choose from {sorted(CONTROLLERS)}"
        )
    label = None
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
            if key == "label":
                label = value
                continue
            # Schedule kind: bare ``t=β`` / ``alpha@t=v`` breakpoints —
            # but a *named* parameter (window=, schedule={...}) is still
            # a parameter, so known field names take precedence.
            if kind == "schedule" and key not in _FIELD_TYPES:
                points, t = (
                    (alpha_schedule, key[len("alpha@"):])
                    if key.startswith("alpha@")
                    else (schedule, key)
                )
                try:
                    points.append((as_float(_value(t)), as_float(_value(value))))
                except ValueError as exc:
                    raise ValueError(
                        f"schedule breakpoint {item!r} is not t=beta "
                        f"(or alpha@t=value): {exc}"
                    ) from exc
                continue
            kwargs[key] = convert_param(key, value)
    if kind == "schedule":
        named = kwargs.pop("schedule", ())
        named_alpha = kwargs.pop("alpha_schedule", ())
        kwargs["schedule"] = tuple(sorted((*schedule, *named)))
        kwargs["alpha_schedule"] = tuple(sorted((*alpha_schedule, *named_alpha)))
    return label, ControllerConfig(kind=kind, **kwargs)


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
        label, config = _parse_spec(entry)
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
        config = ControllerConfig(
            **{k: v if k == "kind" else convert_param(k, v) for k, v in fields.items()}
        )
        return str(label) if label else config.kind, config
    raise ValueError(f"unrecognized controller entry {entry!r}: not a spec or mapping")
