"""Pruning Configuration (Fig. 4, left input).

The service provider tunes the pruning mechanism through this object:

* ``pruning_threshold`` (β) — minimum chance of success a task needs to be
  mapped (deferring) or to stay in a machine queue once dropping is
  engaged.  The paper's default, established by Fig. 8, is 50 %.
* ``dropping_toggle`` (α) — how many deadline misses since the previous
  mapping event flip the Toggle into dropping mode (reactive Toggle uses
  α = 0, i.e. "at least one missed task").
* ``fairness_factor`` (c) — per-event sufferage-score step (§IV-D);
  default 0.05 per §V-A.
* ``controller`` — optional :class:`ControllerConfig` attaching a runtime
  control plane (:mod:`repro.control`) that adapts β/α to observed load;
  ``None`` (the default) keeps the paper's static setpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .convert import NotA, as_bool, as_float, as_int, convert_named

__all__ = ["PruningConfig", "ToggleMode", "ControllerConfig", "CONTROLLER_KINDS"]

#: Registered controller kinds (the :mod:`repro.control` registry keys).
CONTROLLER_KINDS = ("static", "schedule", "hysteresis", "target-success", "bandit")

#: ControllerConfig's scalar rates and bounds (checked, kept as given).
_CONTROLLER_NUMBERS = ("low", "high", "step", "beta_min", "beta_max", "target", "epsilon", "ucb_c")


def _each(name: str, convert, what: str, values) -> list:
    """``convert`` over every entry of the list field ``name``."""
    try:
        return [convert(v) for v in values]
    except NotA as exc:
        raise ValueError(f"{name} must be {what}, got {exc.value!r}") from None


@dataclass(frozen=True)
class ControllerConfig:
    """Declarative spec of one β/α feedback controller (:mod:`repro.control`).

    One flat record covers every registered kind — only the fields the
    chosen ``kind`` reads matter; the rest keep their defaults.  Keeping
    the config a plain frozen dataclass (no callables, no live state)
    is what makes controller setpoints a pure function of config +
    observed simulation state: campaign cache keys stay sound and
    parallel sweeps stay bit-identical to serial ones.

    Fields by kind
    --------------
    ``static``
        No knobs — β/α frozen at the :class:`PruningConfig` values
        (bit-identical to running without a controller, but with
        controller/fairness telemetry collected).
    ``schedule``
        ``schedule`` — piecewise-constant β(t) as ``((t, β), ...)``
        breakpoints, and optionally ``alpha_schedule`` as
        ``((t, α), ...)``.  Before the first breakpoint the
        :class:`PruningConfig` values apply.
    ``hysteresis``
        Step β between ``beta_min``/``beta_max`` by ``step`` when the
        EWMA deadline-miss rate leaves the ``low``..``high`` dead-band,
        with ``cooldown`` quiet ticks between moves and EWMA gain
        ``2 / (window + 1)``.  ``adapt_alpha`` additionally drops α to 0
        while the miss rate is above the band.
    ``target-success``
        Successive-approximation search driving the windowed on-time
        rate toward ``target``: every ``settle`` ticks the observed rate
        halves the bracket [``beta_min``, ``beta_max``] around β.
    ``bandit``
        Contextual ε-greedy/UCB over a discretized (β, α) arm grid:
        every ``window`` ticks the windowed on-time rate rewards the
        pulled arm, the (miss-rate band × queue-depth band) context is
        re-classified against ``miss_bands``/``queue_bands``, and the
        next arm is drawn from ``betas`` × ``alphas`` (α falls back to
        the :class:`PruningConfig` Toggle when ``alphas`` is empty).
        ``ucb_c > 0`` selects deterministic UCB1; otherwise exploration
        is ε-greedy at rate ``epsilon``, drawn from the dedicated
        ``tuning`` named stream of :mod:`repro.sim.rng` rooted at
        ``seed`` — so the policy stays a pure function of (config,
        observed snapshots).
    """

    kind: str = "static"
    # -- schedule ------------------------------------------------------
    schedule: tuple = ()
    alpha_schedule: tuple = ()
    # -- hysteresis ----------------------------------------------------
    low: float = 0.05
    high: float = 0.25
    step: float = 0.1
    cooldown: int = 8
    window: int = 8
    adapt_alpha: bool = False
    # -- shared bounds / target-success --------------------------------
    beta_min: float = 0.05
    beta_max: float = 0.95
    target: float = 0.5
    settle: int = 16
    # -- bandit --------------------------------------------------------
    betas: tuple = ()
    alphas: tuple = ()
    epsilon: float = 0.1
    ucb_c: float = 0.0
    seed: int = 0
    miss_bands: tuple = (0.05, 0.25)
    queue_bands: tuple = (4, 16)

    def __post_init__(self) -> None:
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(
                f"unknown controller kind {self.kind!r}; choose from {CONTROLLER_KINDS}"
            )
        for name in _CONTROLLER_NUMBERS:
            convert_named(name, as_float, getattr(self, name))
        convert_named("adapt_alpha", as_bool, self.adapt_alpha)
        for name in ("schedule", "alpha_schedule"):
            points = tuple(
                (convert_named(name, as_float, t), convert_named(name, as_float, v))
                for t, v in getattr(self, name)
            )
            if any(t < 0.0 for t, _ in points):
                raise ValueError(f"{name} breakpoint times must be >= 0")
            if list(points) != sorted(points, key=lambda p: p[0]):
                raise ValueError(f"{name} breakpoints must be in ascending time order")
            object.__setattr__(self, name, points)
        if self.kind == "schedule" and not (self.schedule or self.alpha_schedule):
            raise ValueError("schedule controller needs at least one breakpoint")
        if not 0.0 <= self.beta_min <= self.beta_max <= 1.0:
            raise ValueError(
                f"need 0 <= beta_min <= beta_max <= 1, got "
                f"[{self.beta_min}, {self.beta_max}]"
            )
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(f"need 0 <= low <= high <= 1, got [{self.low}, {self.high}]")
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        for name in ("cooldown", "window", "settle", "seed"):
            # These count ticks (or seed a stream): JSON's 8.0 is 8.
            value = convert_named(name, as_int, getattr(self, name))
            if value < 1 and name != "seed":
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        self._init_bandit_fields()

    def _init_bandit_fields(self) -> None:
        """Coerce/validate the bandit-family fields (all kinds carry
        them, so canonicalization is unconditional — cache payloads
        round-trip through plain JSON lists)."""
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.ucb_c < 0.0:
            raise ValueError(f"ucb_c must be >= 0, got {self.ucb_c}")
        betas = tuple(_each("betas", as_float, "numbers", self.betas))
        if self.kind == "bandit" and not betas:
            betas = (0.25, 0.5, 0.75, 0.95)  # canonical default arm grid
        if any(not 0.0 <= b <= 1.0 for b in betas):
            raise ValueError(f"betas must lie in [0, 1], got {betas}")
        if list(betas) != sorted(set(betas)):
            raise ValueError(f"betas must be strictly ascending, got {betas}")
        object.__setattr__(self, "betas", betas)
        alphas = _each("alphas", as_int, "integers", self.alphas)
        for a in alphas:
            if a < 0:
                raise ValueError(f"alphas must be >= 0, got {a}")
        if alphas != sorted(set(alphas)):
            raise ValueError(f"alphas must be strictly ascending, got {tuple(alphas)}")
        object.__setattr__(self, "alphas", tuple(alphas))
        bands = tuple(_each("miss_bands", as_float, "numbers", self.miss_bands))
        if not bands or any(not 0.0 <= b <= 1.0 for b in bands):
            raise ValueError(f"miss_bands must be non-empty rates in [0, 1], got {bands}")
        if list(bands) != sorted(set(bands)):
            raise ValueError(f"miss_bands must be strictly ascending, got {bands}")
        object.__setattr__(self, "miss_bands", bands)
        qbands = _each("queue_bands", as_int, "integers", self.queue_bands)
        for q in qbands:
            if q < 0:
                raise ValueError(f"queue_bands must be >= 0, got {q}")
        if not qbands or qbands != sorted(set(qbands)):
            raise ValueError(
                f"queue_bands must be non-empty and strictly ascending, got {tuple(qbands)}"
            )
        object.__setattr__(self, "queue_bands", tuple(qbands))

    def with_(self, **changes) -> ControllerConfig:
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)


class ToggleMode(enum.Enum):
    """How the Toggle module engages task dropping (§V-C scenarios)."""

    NEVER = "never"        #: "no Toggle, no dropping"
    ALWAYS = "always"      #: "no Toggle, always dropping"
    REACTIVE = "reactive"  #: "reactive Toggle" — dropping under oversubscription


@dataclass(frozen=True)
class PruningConfig:
    """Immutable pruning-mechanism settings (paper defaults, §V-A)."""

    pruning_threshold: float = 0.5
    dropping_toggle: int = 0
    fairness_factor: float = 0.05
    toggle_mode: ToggleMode = ToggleMode.REACTIVE
    #: Master switches so experiments can isolate deferring vs dropping.
    enable_deferring: bool = True
    enable_dropping: bool = True
    #: Disable the Fairness module entirely (sufferage scores frozen at 0).
    enable_fairness: bool = True
    #: Optional runtime control plane adapting β/α to observed load
    #: (``None`` → the paper's static setpoints, bit-identical pre-PR-5
    #: behavior and result payloads).
    controller: ControllerConfig | None = None

    def __post_init__(self) -> None:
        # Checked, not converted: an accepted value is kept as given, so
        # trial keys stay what they were.
        convert_named("pruning_threshold", as_float, self.pruning_threshold)
        convert_named("dropping_toggle", as_int, self.dropping_toggle)
        convert_named("fairness_factor", as_float, self.fairness_factor)
        if not 0.0 <= self.pruning_threshold <= 1.0:
            raise ValueError(
                f"pruning_threshold must be in [0, 1], got {self.pruning_threshold}"
            )
        if self.dropping_toggle < 0:
            raise ValueError(f"dropping_toggle must be >= 0, got {self.dropping_toggle}")
        if self.fairness_factor < 0:
            raise ValueError(f"fairness_factor must be >= 0, got {self.fairness_factor}")
        if isinstance(self.toggle_mode, str):
            object.__setattr__(self, "toggle_mode", ToggleMode(self.toggle_mode))
        if isinstance(self.controller, dict):
            # Round-tripping through dataclasses.asdict (the campaign
            # cache payload) flattens the nested config to a mapping.
            object.__setattr__(self, "controller", ControllerConfig(**self.controller))

    # Convenience presets -------------------------------------------------
    @classmethod
    def paper_default(cls) -> PruningConfig:
        """Threshold 50 %, fairness factor 0.05, reactive Toggle (§V-A)."""
        return cls()

    @classmethod
    def defer_only(cls, threshold: float = 0.5) -> PruningConfig:
        """Fig. 8 setting: deferring enabled, dropping never engaged."""
        return cls(
            pruning_threshold=threshold,
            toggle_mode=ToggleMode.NEVER,
            enable_dropping=False,
        )

    @classmethod
    def drop_only(cls, mode: ToggleMode = ToggleMode.REACTIVE) -> PruningConfig:
        """Fig. 7 setting: dropping per ``mode``, deferring disabled."""
        return cls(toggle_mode=mode, enable_deferring=False)

    def with_(self, **changes) -> PruningConfig:
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)
