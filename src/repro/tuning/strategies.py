"""Search strategies: how the tuner picks the next proposal.

Every strategy is registered by name in :data:`STRATEGIES` and obeys one
contract: :meth:`~Strategy.propose` is a **pure function of (seed,
search space, observed history)**.  Randomness comes only from the
dedicated ``tuning`` named stream, re-derived per trial index
(``tuning_seed(seed, "trial/<i>")``), so proposal *i* never depends on
how many draws earlier proposals consumed — same seed, same space, same
history ⇒ byte-identical trajectory, which is what makes the trial
ledger resumable and the benchmark artifact reproducible.

Shipped strategies:

``random``
    Independent uniform samples of the space — the baseline every other
    strategy must beat, and the cheapest smoke-test mode.
``successive-halving``
    A fixed rung plan: a random population evaluated at reduced fidelity
    (a fraction of the mix's workload trials), with the top ``1/eta``
    promoted to the next rung at ``eta``× the fidelity until survivors
    run at full fidelity.  Because the campaign cache keys trials
    individually, a promoted config's low-rung trials are cache hits at
    the next rung — fidelity is a prefix, not a re-run.
``bayes``
    Pure-NumPy Gaussian-process regression (RBF kernel over the space's
    normalized coordinates, Cholesky solve) maximizing expected
    improvement over a seeded candidate set.  No new dependencies.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from ..core.convert import as_float, as_int, convert_named, parse_text
from ..sim.rng import tuning_seed
from .ledger import TrialRecord
from .space import SearchSpace

__all__ = ["Proposal", "Strategy", "STRATEGIES", "make_strategy"]


@dataclass(frozen=True)
class Proposal:
    """One point to evaluate: parameters plus the evaluation fidelity
    (fraction of the mix's full workload-trial count)."""

    params: dict
    fidelity: float = 1.0


class Strategy(abc.ABC):
    """One search policy over a :class:`SearchSpace`."""

    name = "strategy"
    #: option name → converter, the strategy's declared knobs.
    OPTIONS: dict = {}

    def __init__(
        self, space: SearchSpace, *, seed: int, budget: int, **options: object
    ) -> None:
        self.space = space
        self.seed = convert_named("seed", as_int, seed)
        self.budget = convert_named("budget", as_int, budget)
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        unknown = sorted(set(options) - set(self.OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown {self.name} option(s) {unknown}; "
                f"allowed: {sorted(self.OPTIONS)}"
            )
        self.options = {
            key: convert_named(f"{self.name} option {key!r}", convert, options[key])
            for key, convert in self.OPTIONS.items()
            if key in options
        }

    def _rng(self, index: int) -> np.random.Generator:
        """The trial's own child of the ``tuning`` named stream —
        proposal *i* is independent of every other proposal's draws."""
        return np.random.default_rng(tuning_seed(self.seed, f"trial/{index}"))

    @abc.abstractmethod
    def propose(self, history: Sequence[TrialRecord]) -> Proposal | None:
        """The next proposal given the observed history (``None`` = done)."""

    def spec_dict(self) -> dict:
        """Canonical ``{"kind": ..., **options}`` form (ledger identity)."""
        return {"kind": self.name, **{k: self.options[k] for k in sorted(self.options)}}


class RandomStrategy(Strategy):
    """Independent uniform samples until the budget is spent."""

    name = "random"

    def propose(self, history: Sequence[TrialRecord]) -> Proposal | None:
        index = len(history)
        if index >= self.budget:
            return None
        return Proposal(params=self.space.sample(self._rng(index)))


class SuccessiveHalvingStrategy(Strategy):
    """Random population, best ``1/eta`` promoted at ``eta``× fidelity.

    The rung plan is fixed up front from (population, eta): rung *r*
    holds ``floor(population / eta^r)`` configs at fidelity
    ``eta^(r - s)`` where ``s = floor(log_eta(population))`` — the top
    rung always runs at fidelity 1.  Promotion ranks the previous rung
    by score (ties to the earlier trial), so the whole plan is a pure
    function of (seed, history scores).
    """

    name = "successive-halving"
    OPTIONS = {"population": as_int, "eta": as_int}

    def __init__(
        self, space: SearchSpace, *, seed: int, budget: int, **options: object
    ) -> None:
        super().__init__(space, seed=seed, budget=budget, **options)
        # Resolved defaults are written back into ``options`` so
        # ``spec_dict`` — and through it the ledger key — captures the
        # *actual* plan (the defaults depend on the budget, which is
        # deliberately not part of the key).
        self.eta = int(self.options.setdefault("eta", 2))
        if self.eta < 2:
            raise ValueError(f"successive-halving eta must be >= 2, got {self.eta}")
        population = self.options.get("population")
        if population is None:
            # Largest population whose full rung plan fits the budget.
            population = 1
            for n0 in range(1, self.budget + 1):
                if sum(self._rung_sizes(n0)) <= self.budget:
                    population = n0
            self.options["population"] = population
        self.population = int(population)
        if self.population < 1:
            raise ValueError(
                f"successive-halving population must be >= 1, got {self.population}"
            )
        self.rung_sizes = self._rung_sizes(self.population)

    def _rung_sizes(self, population: int) -> list[int]:
        halvings = int(math.log(max(population, 1), self.eta))
        return [max(1, population // self.eta**r) for r in range(halvings + 1)]

    def propose(self, history: Sequence[TrialRecord]) -> Proposal | None:
        index = len(history)
        if index >= self.budget or index >= sum(self.rung_sizes):
            return None
        halvings = len(self.rung_sizes) - 1
        rung, start = 0, 0
        while index >= start + self.rung_sizes[rung]:
            start += self.rung_sizes[rung]
            rung += 1
        fidelity = float(self.eta ** (rung - halvings))
        if rung == 0:
            return Proposal(params=self.space.sample(self._rng(index)), fidelity=fidelity)
        prev_start = start - self.rung_sizes[rung - 1]
        previous = list(history[prev_start:start])
        ranked = sorted(previous, key=lambda r: (-r.score, r.index))
        return Proposal(params=dict(ranked[index - start].params), fidelity=fidelity)


class BayesStrategy(Strategy):
    """Gaussian-process surrogate + expected improvement (pure NumPy).

    After ``init`` random trials, the observed (normalized coordinates →
    standardized score) pairs fit an RBF-kernel GP (Cholesky solve,
    jittered by ``noise``); the next proposal maximizes expected
    improvement over ``candidates`` seeded uniform candidate points.
    ``argmax`` takes the first maximizer, so the whole step is
    deterministic given (seed, history).
    """

    name = "bayes"
    OPTIONS = {
        "init": as_int,
        "candidates": as_int,
        "length_scale": as_float,
        "noise": as_float,
        "xi": as_float,
    }

    def __init__(
        self, space: SearchSpace, *, seed: int, budget: int, **options: object
    ) -> None:
        super().__init__(space, seed=seed, budget=budget, **options)
        # As in successive-halving: resolved defaults land in ``options``
        # so the ledger key pins the actual plan (init depends on budget).
        default_init = min(budget, max(3, len(space.params) + 2))
        self.init = int(self.options.setdefault("init", default_init))
        self.candidates = int(self.options.setdefault("candidates", 64))
        self.length_scale = float(self.options.setdefault("length_scale", 0.25))
        self.noise = float(self.options.setdefault("noise", 1e-6))
        self.xi = float(self.options.setdefault("xi", 0.01))
        if self.init < 1:
            raise ValueError(f"bayes init must be >= 1, got {self.init}")
        if self.candidates < 1:
            raise ValueError(f"bayes candidates must be >= 1, got {self.candidates}")
        if self.length_scale <= 0 or self.noise <= 0:
            raise ValueError("bayes length_scale and noise must be > 0")

    def propose(self, history: Sequence[TrialRecord]) -> Proposal | None:
        index = len(history)
        if index >= self.budget:
            return None
        rng = self._rng(index)
        if index < self.init:
            return Proposal(params=self.space.sample(rng))
        coords = np.asarray(
            [self.space.normalize(r.params) for r in history], dtype=np.float64
        )
        scores = np.asarray([r.score for r in history], dtype=np.float64)
        std = float(scores.std())
        y = (scores - scores.mean()) / (std if std > 0 else 1.0)
        kernel = self._rbf(coords, coords)
        kernel[np.diag_indices_from(kernel)] += self.noise
        chol = np.linalg.cholesky(kernel)
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
        # One uniform block per candidate set — a pure function of the
        # trial index, like every other draw.
        cands = rng.random((self.candidates, len(self.space.params)))
        k_star = self._rbf(cands, coords)
        mean = k_star @ alpha
        v = np.linalg.solve(chol, k_star.T)
        var = np.maximum(1.0 + self.noise - np.sum(v * v, axis=0), 1e-12)
        sigma = np.sqrt(var)
        best = float(y.max())
        z = (mean - best - self.xi) / sigma
        cdf = 0.5 * (1.0 + np.asarray([math.erf(zi / math.sqrt(2.0)) for zi in z]))
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ei = (mean - best - self.xi) * cdf + sigma * pdf
        return Proposal(params=self.space.at(cands[int(np.argmax(ei))]))

    def _rbf(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return np.exp(-0.5 * sq / self.length_scale**2)


#: name → strategy class, the pluggable registry.
STRATEGIES: dict[str, type[Strategy]] = {
    "random": RandomStrategy,
    "successive-halving": SuccessiveHalvingStrategy,
    "bayes": BayesStrategy,
}


def make_strategy(
    spec: object, space: SearchSpace, *, seed: int, budget: int
) -> Strategy:
    """Resolve a strategy spec to an instance.

    Accepted: a registered name (``"bayes"``), a spec string with
    options (``"successive-halving:population=8,eta=2"``), or a mapping
    (``{"kind": "bayes", "init": 4}``).
    """
    if isinstance(spec, Mapping):
        fields = dict(spec)
        kind = fields.pop("kind", None)
        if kind not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {kind!r}; choose from {sorted(STRATEGIES)}"
            )
        return STRATEGIES[kind](space, seed=seed, budget=budget, **fields)
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        kind = kind.strip()
        if kind not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {kind!r}; choose from {sorted(STRATEGIES)}"
            )
        options: dict = {}
        if rest.strip():
            for item in rest.split(","):
                item = item.strip()
                if not item:
                    continue
                key, eq, value = item.partition("=")
                if not eq:
                    raise ValueError(f"strategy option {item!r} is not key=value")
                try:
                    options[key.strip()] = parse_text(value)
                except ValueError as exc:
                    raise ValueError(f"strategy option {key.strip()!r}: {exc}") from exc
        return STRATEGIES[kind](space, seed=seed, budget=budget, **options)
    raise ValueError(f"unrecognized strategy spec: {spec!r}")
