"""Benchmark workloads: one manifest, the analyze grid and the validate levels.

Each workload runs `simulate` once into a fresh directory, then `analyze`
once per entry of `analyses`, then `validate` once over `spurious_levels`.
The workload seed goes into the manifest and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

DEFAULT_SEED = 1     # the seed whose output digests are in digests.json


@dataclass(frozen=True)
class Analysis:
    """Keyword arguments of one `analyze` call; None keeps the manifest value."""

    filters: str | None = None
    t_prime: float | None = None
    consensus_n: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    conditions: tuple[dict, ...]
    repetitions: int
    visit_budget: int
    n_ads: int
    spurious_levels: tuple[float, ...]
    roster_size: int = 0          # > 0: explicit personas, else the default 10
    analyses: tuple[Analysis, ...] = (Analysis(),)

    def manifest(self, seed: int, taxonomy) -> dict:
        """The manifest dict for one run; `taxonomy` is the demo tree."""
        data = {
            "experiment_id": f"bench-{self.name}",
            "seed": seed,
            "conditions": [dict(c) for c in self.conditions],
            "repetitions": self.repetitions,
            "session": {"visit_budget": self.visit_budget},
            "sim": {"n_ads": self.n_ads},
        }
        if self.roster_size:
            data["personas"] = [
                {"id": _slug(cat), "category": cat, "sensitive": False}
                for cat in roster_categories(taxonomy)[: self.roster_size]
            ]
        else:
            data["n_personas"] = 10
        return data


def roster_categories(taxonomy) -> list[str]:
    """Demo categories with child keywords, sorted; not the root or weather."""
    from obameter import persona_bundle

    return [
        kw for kw in taxonomy.keywords()
        if kw not in ("root", "weather") and len(persona_bundle(taxonomy, kw)) > 1
    ]


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text.lower()).strip("-")


_SWEEP = tuple(
    Analysis(filters=f, t_prime=t, consensus_n=n)
    for f, t, n in product(("r", "rsc", "rscdg"), (1.5, 2.5, 3.0), (1, 2))
)

WORKLOADS = {
    w.name: w
    for w in (
        # simulate-heavy: OBA serving in World.visit dominates
        Workload(
            name="harvest",
            conditions=({"geo": "ES"}, {"geo": "US", "dnt": True}),
            repetitions=1,
            visit_budget=120,
            n_ads=200,
            spurious_levels=(0.0,),
        ),
        # validate-heavy: many personas, so keyword consensus dominates
        Workload(
            name="roster",
            conditions=({"geo": "ES"},),
            repetitions=1,
            visit_budget=60,
            n_ads=100,
            roster_size=40,
            spurious_levels=(0.0, 0.02),
        ),
        # analyze-heavy: one corpus re-read and re-filtered for every grid point
        Workload(
            name="resweep",
            conditions=({"geo": "ES"}, {"geo": "US"}),
            repetitions=1,
            visit_budget=60,
            n_ads=150,
            analyses=_SWEEP,
            spurious_levels=(0.0,),
        ),
    )
}
