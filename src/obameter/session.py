"""Visit scheduling and session execution.

A session draws `visit_budget` pages uniformly from the persona's pool
(training plus control pages) with i.i.d. exponential inter-visit gaps,
then walks the schedule against an ad harvester. Ads are only harvested
on control-page visits. The harvester owns each session's state:
`begin` returns it and every `visit` of the session gets it back. A
clean-profile session keeps no state, so nothing accumulates across
pages.

Repeated sightings of the same ad merge: impressions aggregate by
(persona, session, control page, landing page) with ntimes summed, and
the sum of ntimes equals the raw number of served ads.

A session either walks its whole schedule or fails: an error raised by
the harvester propagates as it is, and nothing of the session is
returned.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from .corpus import AdImpression, WebPage, landing_key
from .errors import ConfigurationError, CorpusDataError
from .persona import Persona


@dataclass
class SessionPlan:
    """What every session of a run shares: the manifest's `session` section."""

    visit_budget: int = 310
    mean_interval: float = 180.0  # simulated seconds between visits

    def __post_init__(self) -> None:
        # each range check is a negated comparison, so NaN fails it too
        if not self.visit_budget >= 1:
            raise ConfigurationError(f"visit_budget must be >= 1, got {self.visit_budget}")
        if not 0 < self.mean_interval <= sys.float_info.max:
            raise ConfigurationError(
                f"mean_interval must be positive and finite, got {self.mean_interval}")


@dataclass(kw_only=True)
class SessionConfig(SessionPlan):
    """One session's parameters. Equal configs and seeds replay exactly;
    the session's persona is the one `run_session` is given."""

    session_id: str
    geo: str = "ES"
    dnt: bool = False
    clean_profile: bool = False
    seed: int = 0


@dataclass
class VisitEvent:
    """One scheduled page visit on the simulated clock."""

    t: float
    page: WebPage

    @property
    def kind(self) -> str:  # "training" | "control", the page's role
        return self.page.role


@dataclass
class ServedAd:
    """What a harvester returns for one displayed ad."""

    landing_url: str
    label: str | None = None  # ground-truth ad kind when simulated


class AdHarvester(Protocol):
    """Ad-serving backend driven by run_session.

    begin() returns the session's browser state, and visit() gets that
    state with each page, observes the page unless `config.clean_profile`
    is set, and returns the ads displayed there (empty on training pages).
    """

    def begin(self, config: SessionConfig) -> Any: ...

    def visit(self, state: Any, event: VisitEvent) -> list[ServedAd]: ...


@dataclass
class SessionResult:
    """A finished session."""

    visits: list[VisitEvent]
    impressions: list[AdImpression]
    visit_mix: dict[str, int] = field(default_factory=dict)
    raw_served: int = 0


def schedule_visits(pool: Sequence[WebPage], config: SessionConfig) -> list[VisitEvent]:
    """Draw the visit schedule: uniform pages, exponential gaps.

    Deterministic in config.seed. Timestamps are strictly increasing and
    exactly config.visit_budget events are produced. An empty pool raises
    ConfigurationError.
    """
    if not pool:
        raise ConfigurationError("cannot schedule visits over an empty page pool")
    rng = random.Random(config.seed)
    rate = 1.0 / config.mean_interval
    events: list[VisitEvent] = []
    t = 0.0
    for _ in range(config.visit_budget):
        gap = rng.expovariate(rate)
        while gap <= 0.0:  # keeps timestamps strictly increasing
            gap = rng.expovariate(rate)
        t += gap
        page = pool[rng.randrange(len(pool))]
        events.append(VisitEvent(t=t, page=page))
    return events


def run_session(
    persona: Persona,
    control_pages: Sequence[WebPage],
    config: SessionConfig,
    harvester: AdHarvester,
) -> SessionResult:
    """Execute one session of `persona` against a harvester; every
    impression carries the persona's id and `config.session_id`.

    Any exception the harvester raises propagates unchanged.
    """
    pool = list(persona.training_pages) + list(control_pages)
    events = schedule_visits(pool, config)

    merged: dict[tuple[str, str], AdImpression] = {}
    mix = {"training": 0, "control": 0}
    raw = 0

    state = harvester.begin(config)
    for event in events:
        served = harvester.visit(state, event)
        kind = event.kind
        mix[kind] = mix.get(kind, 0) + 1
        if kind == "control":
            for ad in served:
                raw += 1
                key = (event.page.url, landing_key(ad.landing_url))
                hit = merged.get(key)
                if hit is None:
                    merged[key] = AdImpression(
                        persona_id=persona.id,
                        session_id=config.session_id,
                        control_page=event.page.url,
                        landing_page=ad.landing_url,
                        ntimes=1,
                        ground_truth=ad.label,
                    )
                else:
                    if hit.ground_truth != ad.label:
                        raise CorpusDataError(
                            f"conflicting ground truth for {key}: "
                            f"{hit.ground_truth!r} vs {ad.label!r}"
                        )
                    hit.ntimes += 1

    return SessionResult(
        visits=events,
        impressions=list(merged.values()),
        visit_mix=mix,
        raw_served=raw,
    )
