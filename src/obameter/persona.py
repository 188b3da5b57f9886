"""Persona construction: training-page selection and keyword consensus.

A persona is an interest category plus the training pages that teach that
interest to ad aggregators. Selection runs three steps over candidate
pages:

1. keep candidates whose selection-source keywords contain the category;
2. keep candidates whose observed profile footprint is exactly the
   category, or the category plus at most one other (sensitive personas
   instead require an empty footprint, so visiting them leaks nothing);
3. require a minimum number of survivors, else reject the persona.

Training keywords are then pooled across tagging sources with an N-of-M
consensus: a keyword from one source survives iff at least N of the other
sources carry some keyword whose `KeywordTaxonomy.score` against it is
above the similarity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

from .corpus import WebPage, _record_fields
from .errors import ConfigurationError, InsufficientSources, PersonaRejected
from .taxonomy import KeywordTaxonomy, normalize_keyword


@dataclass
class Persona:
    """A trained browsing identity and its training-page selection attrition.

    Its fields are the record of personas.json and of world.json, which
    `to_dict` writes and `from_dict` reads back.
    """

    id: str
    category: str
    sensitive: bool = False
    training_pages: list[WebPage] = field(default_factory=list)
    attrition: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.category = normalize_keyword(self.category)

    @property
    def visited_urls(self) -> list[str]:
        return [p.url for p in self.training_pages]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "training_pages": self.visited_urls,
        }

    @classmethod
    def from_dict(cls, rec: Mapping) -> "Persona":
        return cls(**_record_fields(cls, rec) | {
            "training_pages": [
                WebPage(url=u, role="training") for u in rec["training_pages"]
            ],
        })


@dataclass
class CandidatePage:
    """A page considered for training, with everything selection needs.

    source_keywords carries per-source keyword sets (the selection source
    must be among them to pass step 1); profile_categories is the interest
    footprint a clean browser observes when visiting the page.
    """

    page: WebPage
    source_keywords: dict[str, set[str]]
    profile_categories: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.source_keywords = {
            src: {normalize_keyword(k) for k in kws}
            for src, kws in self.source_keywords.items()
        }
        self.profile_categories = {
            normalize_keyword(c) for c in self.profile_categories
        }


@dataclass
class TrainingSelection:
    """Selection outcome: ordered unique pages plus per-step attrition."""

    pages: list[WebPage]
    attrition: dict[str, int]


def select_training_pages(
    category: str,
    candidates: Iterable[CandidatePage],
    sensitive: bool,
    selection_source: str,
    min_pages: int = 10,
) -> TrainingSelection:
    """Run the three-step training-page selection for one persona.

    Raises PersonaRejected, carrying the attrition counts, when fewer than
    min_pages candidates survive.
    """
    cat = normalize_keyword(category)
    pool = list(candidates)

    step1 = [c for c in pool if cat in c.source_keywords.get(selection_source, ())]

    if sensitive:
        step2 = [c for c in step1 if not c.profile_categories]
    else:
        step2 = [
            c
            for c in step1
            if cat in c.profile_categories and len(c.profile_categories) <= 2
        ]

    seen: set[str] = set()
    pages: list[WebPage] = []
    for c in step2:
        if c.page.url not in seen:
            seen.add(c.page.url)
            pages.append(c.page)

    attrition = {
        "candidates": len(pool),
        "dropped_no_category_keyword": len(pool) - len(step1),
        "dropped_profile_footprint": len(step1) - len(step2),
        "selected": len(pages),
    }
    if len(pages) < min_pages:
        raise PersonaRejected(
            f"persona category {cat!r}: {len(pages)} training pages "
            f"selected, need at least {min_pages}",
            attrition,
        )
    return TrainingSelection(pages=pages, attrition=attrition)


@dataclass
class ConsensusConfig:
    """N-of-M consensus parameters.

    n is the number of OTHER sources that must corroborate a keyword;
    threshold is the strict Leacock-Chodorow cutoff.
    """

    n: int = 2
    threshold: float = 2.5

    def __post_init__(self) -> None:
        if not self.n >= 0:
            raise ConfigurationError(f"consensus n must be >= 0, got {self.n}")
        # an infinite threshold would reject even exact matches (score inf)
        if not 0 <= self.threshold < math.inf:
            raise ConfigurationError(
                f"consensus threshold must be finite and >= 0, got {self.threshold}"
            )


def consensus_training_keywords(
    persona: Persona,
    tags: Mapping[str, Mapping[str, Iterable[str]]],
    config: ConsensusConfig,
    taxonomy: KeywordTaxonomy,
) -> dict[str, set[str]]:
    """Cross-source consensus over the persona's training-page keywords.

    `tags` maps source -> canonical URL -> keywords, as `load_tags` reads
    them; every source in it counts, and only the persona's training pages are
    read. Returns the retained keyword set per source. Raises
    InsufficientSources when fewer sources are present than the rule needs
    (at least two, and at least n + 1 so that n other sources can exist).
    """
    union = {
        src: set().union(*(table.get(url, ()) for url in persona.visited_urls))
        for src, table in tags.items()
    }

    needed = max(2, config.n + 1)
    if len(union) < needed:
        raise InsufficientSources(
            f"consensus needs at least {needed} sources, got {len(union)}"
        )

    # each keyword's neighbours: the keywords, itself included, similar to it
    vocab = sorted(set().union(*union.values()))
    near: dict[str, set[str]] = {kw: set() for kw in vocab}
    for i, kw in enumerate(vocab):
        for other in vocab[i:]:
            if taxonomy.similar_or_exact(kw, other, config.threshold):
                near[kw].add(other)
                near[other].add(kw)

    return {
        src: {
            kw for kw in kws
            if sum(not near[kw].isdisjoint(union[other])
                   for other in union if other != src) >= config.n
        }
        for src, kws in sorted(union.items())
    }
