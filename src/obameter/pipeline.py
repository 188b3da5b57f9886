"""Three-stage ad filter pipeline.

The stages run in a fixed order and each removes whole impressions,
leaving survivors untouched (same objects, same ntimes):

1. retargeting filter: drop impressions whose landing page matches any
   visited training or control page, given as the set of their keys;
2. static & contextual filter: drop impressions whose landing page also
   appeared in the clean profile's impressions, matched globally across
   control pages;
3. demographic & geo filter: drop impressions whose audience contains a
   persona whose interest category sits below the similarity threshold,
   strictly; sharing with taxonomy-near personas (or with nobody) is fine.

Landing pages always compare by the corpus equality rule (host + path,
query stripped), through the landing_key each AdImpression stores.
Persona categories are compared by `KeywordTaxonomy.score`, which also
decides categories missing from the taxonomy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping

from .corpus import AdImpression
from .errors import ConfigurationError, CorpusDataError
from .taxonomy import KeywordTaxonomy

# filter-set codes, ordered; "sc" and "dg" never run without "r"
FILTER_SETS = {
    "r": ("r",),
    "rsc": ("r", "sc"),
    "rscdg": ("r", "sc", "dg"),
}


@dataclass
class FilterConfig:
    """Which stages run (stored as `enabled`), and the demographic similarity
    threshold."""

    filters: str = field(default="rscdg", metadata={"key": "enabled"})
    t_prime: float = 2.5

    def __post_init__(self) -> None:
        if self.filters not in FILTER_SETS:
            raise ConfigurationError(
                f"unknown filter set {self.filters!r}, expected one of "
                f"{sorted(FILTER_SETS)}"
            )
        if not 0 <= self.t_prime <= sys.float_info.max:
            raise ConfigurationError(f"t_prime must be finite and >= 0, got {self.t_prime}")

    @property
    def stages(self) -> tuple[str, ...]:
        return FILTER_SETS[self.filters]


def filter_retargeting(
    impressions: Iterable[AdImpression], visited_keys: AbstractSet[str]
) -> list[AdImpression]:
    """Drop impressions that land on a page the persona already visited.

    visited_keys holds the landing keys of the visited pages.
    """
    return [imp for imp in impressions if imp.landing_key not in visited_keys]


def filter_static_contextual(
    impressions: Iterable[AdImpression],
    clean_impressions: Iterable[AdImpression] | None,
) -> list[AdImpression]:
    """Drop impressions whose landing page the clean profile also saw.

    Matching is global: the control page that showed the ad does not
    matter. An empty clean corpus is legitimate and removes nothing;
    a missing one (None) raises CorpusDataError.
    """
    if clean_impressions is None:
        raise CorpusDataError(
            "static & contextual filter needs a clean-profile impression corpus"
        )
    clean_keys = {c.landing_key for c in clean_impressions}
    return [imp for imp in impressions if imp.landing_key not in clean_keys]


def build_audience(
    impressions_by_persona: Mapping[str, Iterable[AdImpression]],
) -> dict[str, set[str]]:
    """Landing-page key to the set of personas that received the ad.

    Build this over the full multi-persona corpus of one experiment
    condition before filtering per persona.
    """
    audience: dict[str, set[str]] = {}
    for pid, imps in impressions_by_persona.items():
        for imp in imps:
            audience.setdefault(imp.landing_key, set()).add(pid)
    return audience


def filter_demo_geo(
    impressions: Iterable[AdImpression],
    persona_id: str,
    persona_categories: Mapping[str, str],
    audience: Mapping[str, set[str]],
    taxonomy: KeywordTaxonomy,
    t_prime: float,
) -> list[AdImpression]:
    """Drop impressions shared with any taxonomy-distant persona.

    An impression seen by this persona alone survives. Similarity exactly
    equal to t_prime keeps the impression; only strictly lower removes.
    A persona in any impression's audience with no category raises
    ConfigurationError naming the smallest such id.
    """
    try:
        own_cat = persona_categories[persona_id]
    except KeyError:
        raise ConfigurationError(
            f"no category known for persona {persona_id!r}"
        ) from None
    impressions = list(impressions)
    seen_by = [audience.get(imp.landing_key, ()) for imp in impressions]
    others = set().union(*seen_by) - {persona_id}
    unknown = [pid for pid in others if pid not in persona_categories]
    if unknown:
        raise ConfigurationError(f"no category known for persona {min(unknown)!r}")
    distant = {
        pid for pid in others
        if taxonomy.score(own_cat, persona_categories[pid]) < t_prime
    }
    return [imp for imp, aud in zip(impressions, seen_by) if distant.isdisjoint(aud)]


@dataclass
class PipelineResult:
    """Survivors after each enabled stage, plus attrition counts."""

    by_stage: dict[str, list[AdImpression]]
    attrition: dict[str, int]


def apply_filters(
    impressions: Iterable[AdImpression],
    config: FilterConfig,
    visited_keys: AbstractSet[str],
    clean_impressions: Iterable[AdImpression] | None,
    persona_id: str,
    persona_categories: Mapping[str, str],
    audience: Mapping[str, set[str]],
    taxonomy: KeywordTaxonomy,
) -> PipelineResult:
    """Run the enabled stages in the fixed order r, sc, dg."""
    current = list(impressions)
    attrition: dict[str, int] = {"input": len(current)}
    by_stage: dict[str, list[AdImpression]] = {}
    for stage in config.stages:
        if stage == "r":
            current = filter_retargeting(current, visited_keys)
            attrition["after_retargeting"] = len(current)
        elif stage == "sc":
            current = filter_static_contextual(current, clean_impressions)
            attrition["after_static_contextual"] = len(current)
        elif stage == "dg":
            current = filter_demo_geo(
                current, persona_id, persona_categories, audience,
                taxonomy, config.t_prime,
            )
            attrition["after_demo_geo"] = len(current)
        by_stage[stage] = current
    return PipelineResult(by_stage=by_stage, attrition=attrition)
