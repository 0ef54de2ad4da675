"""Figure claims: Figs. 7–10 regenerated from the figure registry.

Each :data:`~repro.experiments.scenarios.FIGURES` entry runs once at
bench scale through :func:`~repro.experiments.scenarios.run_figure`, and
every row of its :attr:`~repro.experiments.scenarios.Figure.claims` is
one test case checked by
:func:`~repro.experiments.scenarios.failed_claims`.  The first case of a
figure prints the table the paper plots as grouped bars.  Tier-1 checks
the same rows on tiny runs (``tests/experiments/test_scenarios.py``).
"""

import pytest

from benchmarks.conftest import run_figure
from repro.experiments.scenarios import FIGURES, failed_claims

ROWS = [(name, claim) for name, figure in FIGURES.items() for claim in figure.claims]


@pytest.mark.parametrize(
    ("name", "claim"), ROWS, ids=[f"{name}:{claim.name}" for name, claim in ROWS]
)
def test_claim_holds(name, claim, show):
    result = run_figure(name)
    if claim is FIGURES[name].claims[0]:
        show(result.to_text())
    failed = failed_claims(result)
    assert claim.name not in failed, failed[claim.name]
