"""Declarative search spaces for the offline auto-tuner.

A :class:`SearchSpace` is plain data: an ordered tuple of parameter
descriptors — continuous ranges (linear or log scale), integer ranges,
and categorical choices — each named after the experiment knob it
drives (``"beta"``, ``"controller.high"``, ``"heuristic"``; see
:mod:`repro.tuning.params` for the knob vocabulary).

Determinism contract: sampling draws exactly one uniform variate per
parameter, in declaration order, so a proposal is a pure function of
(space, generator state) — reordering or renaming parameters changes
the trajectory, adding draws inside one parameter cannot perturb its
neighbours.  ``value_at``/``position`` map between a parameter's value
and its normalized [0, 1] coordinate; the Gaussian-process strategy
models the space through those coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping, Sequence

import numpy as np

from ..core.convert import as_int, convert_named
from ..sim.rng import fingerprint

__all__ = ["Continuous", "Integer", "Categorical", "SearchSpace"]

_SCALES = ("linear", "log")


def _check_range(name: str, low: float, high: float, scale: str) -> None:
    if scale not in _SCALES:
        raise ValueError(f"parameter {name!r}: scale must be one of {_SCALES}, got {scale!r}")
    if not low < high:
        raise ValueError(f"parameter {name!r}: need low < high, got [{low}, {high}]")
    if scale == "log" and low <= 0:
        raise ValueError(f"parameter {name!r}: log scale needs low > 0, got {low}")


@dataclass(frozen=True)
class Continuous:
    """A real-valued range, sampled uniformly in linear or log space."""

    name: str
    low: float
    high: float
    scale: str = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        _check_range(self.name, self.low, self.high, self.scale)

    def value_at(self, u: float) -> float:
        """The value at normalized coordinate ``u`` ∈ [0, 1]."""
        if self.scale == "log":
            lo, hi = math.log(self.low), math.log(self.high)
            return float(math.exp(lo + u * (hi - lo)))
        return float(self.low + u * (self.high - self.low))

    def position(self, value: object) -> float:
        """Inverse of :meth:`value_at` (clipped to [0, 1])."""
        v = float(value)  # type: ignore[arg-type]
        if self.scale == "log":
            lo, hi = math.log(self.low), math.log(self.high)
            u = (math.log(max(v, self.low)) - lo) / (hi - lo)
        else:
            u = (v - self.low) / (self.high - self.low)
        return min(max(u, 0.0), 1.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": "continuous",
            "low": self.low,
            "high": self.high,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class Integer:
    """An integer range (inclusive bounds), linear or log spaced."""

    name: str
    low: int
    high: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        for bound in ("low", "high"):
            value = convert_named(f"parameter {self.name!r}: {bound}", as_int, getattr(self, bound))
            object.__setattr__(self, bound, value)
        _check_range(self.name, float(self.low), float(self.high), self.scale)

    def value_at(self, u: float) -> int:
        if self.scale == "log":
            lo, hi = math.log(self.low), math.log(self.high)
            raw = math.exp(lo + u * (hi - lo))
        else:
            raw = self.low + u * (self.high - self.low)
        return int(min(max(round(raw), self.low), self.high))

    def position(self, value: object) -> float:
        v = float(value)  # type: ignore[arg-type]
        if self.scale == "log":
            lo, hi = math.log(self.low), math.log(self.high)
            u = (math.log(max(v, float(self.low))) - lo) / (hi - lo)
        else:
            u = (v - self.low) / (self.high - self.low)
        return min(max(u, 0.0), 1.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": "integer",
            "low": self.low,
            "high": self.high,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class Categorical:
    """A finite unordered choice set (heuristic names, controller specs)."""

    name: str
    choices: tuple

    def __post_init__(self) -> None:
        choices = tuple(self.choices)
        if len(choices) < 1:
            raise ValueError(f"parameter {self.name!r}: choices must not be empty")
        if len(set(choices)) != len(choices):
            raise ValueError(f"parameter {self.name!r}: duplicate choices {choices!r}")
        object.__setattr__(self, "choices", choices)

    def value_at(self, u: float) -> object:
        index = min(int(u * len(self.choices)), len(self.choices) - 1)
        return self.choices[index]

    def position(self, value: object) -> float:
        try:
            index = self.choices.index(value)
        except ValueError:
            raise ValueError(
                f"parameter {self.name!r}: {value!r} is not one of {self.choices!r}"
            ) from None
        if len(self.choices) == 1:
            return 0.5
        return index / (len(self.choices) - 1)

    def to_dict(self) -> dict:
        return {"name": self.name, "type": "categorical", "choices": list(self.choices)}


_PARAM_TYPES = {"continuous": Continuous, "integer": Integer, "categorical": Categorical}


@dataclass(frozen=True)
class SearchSpace:
    """An ordered set of named tuning parameters (plain, JSON-able data)."""

    params: tuple

    def __post_init__(self) -> None:
        params = tuple(self.params)
        if not params:
            raise ValueError("search space must have at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names {dupes}")
        object.__setattr__(self, "params", params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> dict:
        """One proposal: exactly one uniform draw per parameter, in
        declaration order (the purity contract — see module docstring)."""
        return {p.name: p.value_at(float(rng.random())) for p in self.params}

    def at(self, coords: Sequence[float]) -> dict:
        """The proposal at a normalized coordinate vector."""
        if len(coords) != len(self.params):
            raise ValueError(
                f"expected {len(self.params)} coordinates, got {len(coords)}"
            )
        return {p.name: p.value_at(float(u)) for p, u in zip(self.params, coords)}

    def normalize(self, params: Mapping) -> list[float]:
        """Normalized [0, 1] coordinates of a proposal (GP feature vector)."""
        missing = [p.name for p in self.params if p.name not in params]
        if missing:
            raise ValueError(f"proposal is missing parameters {missing}")
        return [p.position(params[p.name]) for p in self.params]

    # ------------------------------------------------------------------
    @property
    def key(self) -> str:
        """Content fingerprint (part of the trial-ledger identity)."""
        return fingerprint(self.to_dict())

    def to_dict(self) -> list[dict]:
        return [p.to_dict() for p in self.params]

    @classmethod
    def from_dict(cls, payload: object) -> SearchSpace:
        if not isinstance(payload, Sequence) or isinstance(payload, (str, bytes)):
            raise ValueError(
                f"search space must be a list of parameter objects, got {payload!r}"
            )
        params = []
        for entry in payload:
            if not isinstance(entry, Mapping):
                raise ValueError(f"search-space entry must be an object, got {entry!r}")
            fields = dict(entry)
            kind = fields.pop("type", None)
            if kind not in _PARAM_TYPES:
                raise ValueError(
                    f"search-space entry {fields.get('name', entry)!r}: type must be "
                    f"one of {sorted(_PARAM_TYPES)}, got {kind!r}"
                )
            if "name" not in fields:
                raise ValueError(f"search-space entry {entry!r} has no name")
            if kind == "categorical" and isinstance(fields.get("choices"), list):
                fields["choices"] = tuple(
                    tuple(c) if isinstance(c, list) else c for c in fields["choices"]
                )
            try:
                params.append(_PARAM_TYPES[kind](**fields))
            except TypeError as exc:
                raise ValueError(
                    f"search-space entry {fields['name']!r}: {exc}"
                ) from exc
        return cls(params=tuple(params))

    @classmethod
    def from_json(cls, path: str | Path) -> SearchSpace:
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read search space {path}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"search space {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
