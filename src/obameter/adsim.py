"""Synthetic ad ecosystem with ground-truth ad kinds.

The world holds themed training pages per persona, five weather-themed
control pages, a tracker (aggregator) placement map, and an ad inventory
in which every ad unit carries exactly one kind label:

    oba          targeted at a taxonomy category; served on a control page
                 only when an aggregator present there has accumulated
                 enough profile weight for that category
    contextual   matches the control page's theme, profile-independent
    static       always eligible
    retargeting  points back at a page already in the browser's history
    geo_demo     keyed on the session's geo label, profile-independent

Serving draws a fixed number of ad slots per control visit, weighted by
the units' base weights, without replacement within the visit. Eligibility
reads the inventory that `World.begin` indexes once into each session's
browser: the static units and the session geo's geo_demo units in one
base list, the contextual units by theme, and, unless the session's DNT
is honoured, the retargeting units by landing URL and the oba units by
target category. A control visit takes the base list, the page theme's
list, the lists of the landing URLs in the browser's history, and the
lists of the categories whose profile weight reaches the activation
threshold (the max over the aggregators present on the page, or with
`share_profiles` the sum over all of them), computed only for categories
some oba unit targets. It sorts the merged positions, so the eligible
units keep inventory order, which the weighted draw picks from by
position. Aggregator profiles build up from tracked page visits.
`World.begin` returns the session's browser, and `World.visit` serves and
observes one page with it; a clean-profile browser observes nothing, so
it stays empty and can never receive oba or retargeting ads, which is why
the activation threshold must be positive.

The world generates every URL in canonical form, so serving parses none:
trackers, categories, themes and the browser history all hold canonical
URLs, and a retargeting unit's landing URL is looked up as it is.

Tag noise is a post-processing of the world's true page categories and
never influences serving. Keyword dropout and spurious injection decide
each (source, page, keyword) with a deterministic hash compared against
the rate, so realized tag sets grow monotonically with the spurious rate.
A sweep over several spurious rates draws each decision once
(`WorldTagSource.tag_levels`). The world doubles as a set of tagging
sources for the analysis side.
"""

from __future__ import annotations

import math
import random
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Collection, Iterator, Literal, Sequence

from . import demo
from .corpus import (
    _SOURCE_NAME,
    AD_KINDS,
    WebPage,
    _build_records,
    _built,
    _keyword_set,
    _record_fields,
    _to_record,
    from_dict,
)
from .errors import ConfigurationError, CorpusDataError
from .persona import CandidatePage, Persona, select_training_pages
from .seeding import cut, derive_seed, draws_below, keyed_hasher, uniform, with_labels
from .session import ServedAd, SessionConfig, VisitEvent
from .taxonomy import KeywordTaxonomy, normalize_keyword

DEFAULT_MIX = {
    "oba": 0.4,
    "contextual": 0.3,
    "static": 0.1,
    "retargeting": 0.1,
    "geo_demo": 0.1,
}

# Targeted inventory bids higher per displayed ad.
DEFAULT_KIND_WEIGHTS = {
    "oba": 5.0,
    "contextual": 1.0,
    "static": 1.0,
    "retargeting": 1.0,
    "geo_demo": 1.0,
}

DEFAULT_SOURCES = ("sim-a", "sim-b", "sim-c")


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


@dataclass
class TagNoise:
    """Per-source tag corruption rates."""

    dropout: float = 0.0
    spurious: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dropout", "spurious"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} rate must be in [0, 1], got {v}")


@dataclass
class SimConfig:
    """World-building and serving knobs."""

    n_ads: int = 100
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    ads_per_visit: int = 3
    activation_threshold: float = 3.0
    honor_dnt: bool = False
    share_profiles: bool = False
    trackers_total: int = 60
    trackers_min: int = 15
    trackers_max: int = 40
    training_pages_per_persona: int = 12
    n_control_pages: int = 5
    geo_labels: list[str] = field(default_factory=lambda: ["ES", "US"])
    kind_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_KIND_WEIGHTS)
    )
    profile_decay_halflife: float | None = None
    tag_noise: TagNoise = field(default_factory=TagNoise)
    sources: list[str] = field(default_factory=lambda: list(DEFAULT_SOURCES))

    def __post_init__(self) -> None:
        # each range check is a negated comparison, so NaN fails it too
        # kind_counts takes n_ads into float arithmetic
        if not 1 <= self.n_ads <= sys.float_info.max:
            raise ConfigurationError(
                f"n_ads must be >= 1 and at most the largest float, got {self.n_ads}")
        if not self.ads_per_visit >= 1:
            raise ConfigurationError(f"ads_per_visit must be >= 1, got {self.ads_per_visit}")
        if not 0 < self.activation_threshold <= sys.float_info.max:
            # at 0 an empty profile already activates every oba unit
            raise ConfigurationError(
                f"activation_threshold must be positive and finite, "
                f"got {self.activation_threshold}"
            )
        unknown = set(self.mix) - set(AD_KINDS)
        if unknown:
            raise ConfigurationError(f"unknown ad kinds in mix: {sorted(unknown)}")
        if not all(0 <= v <= 1 for v in self.mix.values()):
            raise ConfigurationError("mix proportions must be in [0, 1]")
        if abs(sum(self.mix.values()) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"mix proportions must sum to 1, got {sum(self.mix.values())}"
            )
        if not (1 <= self.trackers_min <= self.trackers_max <= self.trackers_total):
            raise ConfigurationError(
                "tracker bounds must satisfy 1 <= min <= max <= total, got "
                f"{self.trackers_min}/{self.trackers_max}/{self.trackers_total}"
            )
        if not self.training_pages_per_persona >= 10:
            raise ConfigurationError("training_pages_per_persona must be >= 10")
        if not self.n_control_pages >= 1:
            raise ConfigurationError("n_control_pages must be >= 1")
        if not self.geo_labels:
            raise ConfigurationError("geo_labels must be non-empty")
        if len(self.sources) < 2:
            raise ConfigurationError("need at least 2 tag sources")
        # each source is written to tags.<name>.jsonl, so a name must be usable
        # there and name one file
        for i, name in enumerate(self.sources):
            if not _SOURCE_NAME.fullmatch(name):
                raise ConfigurationError(f"unusable tag source name: {name!r}")
            if name in self.sources[:i]:
                raise ConfigurationError(f"tag source {name!r} is listed twice")
        half = self.profile_decay_halflife
        if half is not None and not 0 < half <= sys.float_info.max:
            raise ConfigurationError(
                f"profile_decay_halflife must be positive and finite, got {half}")
        # an infinite weight or pool total (at most every unit's) makes every
        # slot draw fall through to the pool's last unit, and one beyond float
        # range cannot be drawn from at all
        bad = sorted(set(self.kind_weights) - set(AD_KINDS)) + [
            k for k in AD_KINDS if not 0 < self.kind_weights.get(k, 0) <= sys.float_info.max]
        if bad:
            raise ConfigurationError("kind_weights must give each ad kind, and no other "
                                     f"key, a positive finite weight; wrong for {bad}")
        counts = kind_counts(self.n_ads, self.mix)
        total = sum(counts[k] * float(self.kind_weights[k]) for k in AD_KINDS)
        if not total <= sys.float_info.max:
            raise ConfigurationError("kind_weights times the kind counts must have a finite sum")


@dataclass
class AdUnit:
    """One inventory entry; `kind` is the ground-truth label, one of AD_KINDS."""

    ad_id: str
    kind: Literal[AD_KINDS]
    landing_url: str
    base_weight: float = 1.0
    target_category: str | None = None  # oba
    theme: str | None = None            # contextual
    geo: str | None = None              # geo_demo

    def __post_init__(self) -> None:
        if self.kind not in AD_KINDS:
            raise CorpusDataError(
                f"kind must be one of {', '.join(AD_KINDS)}, got {self.kind!r}"
            )


def kind_counts(n_ads: int, mix: dict[str, float]) -> dict[str, int]:
    """Largest-remainder rounding of mix proportions to exact counts."""
    quotas = {k: n_ads * mix.get(k, 0.0) for k in AD_KINDS}
    counts = {k: math.floor(q) for k, q in quotas.items()}
    short = n_ads - sum(counts.values())
    leftovers = sorted(
        AD_KINDS, key=lambda k: (quotas[k] - counts[k], k), reverse=True
    )
    for k in leftovers[:short]:
        counts[k] += 1
    return counts


class _Browser:
    """One session's serving state: whether it observes, what it has
    observed, the rng that draws its ad slots, and its eligible inventory,
    as positions in `World.ads` keyed by what makes each unit eligible on a
    control visit. Static units and the session geo's geo_demo units are
    always eligible, so they form one base list. Under honoured DNT no
    retargeting or oba unit is ever eligible, so neither is indexed."""

    __slots__ = ("observes", "history", "profiles", "clock", "rng",
                 "base", "by_theme", "by_landing", "by_category")

    def __init__(self, ads: Sequence[AdUnit], config: SessionConfig, suppressed: bool,
                 rng: random.Random) -> None:
        self.observes = not config.clean_profile
        self.history: set[str] = set()  # canonical URLs of visited pages
        # aggregator id -> category -> accumulated weight
        self.profiles: dict[str, dict[str, float]] = {}
        self.clock = 0.0
        self.rng = rng
        self.base: list[int] = []
        self.by_theme: dict[str | None, list[int]] = {}
        self.by_landing: dict[str, list[int]] = {}
        self.by_category: dict[str | None, list[int]] = {}
        for i, ad in enumerate(ads):
            if ad.kind == "static" or (ad.kind == "geo_demo" and ad.geo == config.geo):
                self.base.append(i)
            elif ad.kind == "contextual":
                self.by_theme.setdefault(ad.theme, []).append(i)
            elif ad.kind == "retargeting" and not suppressed:
                self.by_landing.setdefault(ad.landing_url, []).append(i)
            elif ad.kind == "oba" and not suppressed:
                self.by_category.setdefault(ad.target_category, []).append(i)


@dataclass(eq=False)
class World:
    """Built ad ecosystem; implements the session AdHarvester protocol.

    Its fields are the world.json record, which `to_dict` writes and
    `from_dict` reads back, and it holds nothing else: a session's
    serving state is the browser `begin` returns.
    """

    config: SimConfig
    seed: int
    personas: list[Persona]
    control_pages: list[WebPage]
    ads: list[AdUnit]
    page_categories: dict[str, list[str]]
    page_themes: dict[str, str]
    trackers: dict[str, list[str]]
    aggregators: list[str]

    # -- harvester protocol -------------------------------------------------

    def begin(self, config: SessionConfig) -> _Browser:
        return _Browser(
            self.ads, config, self.config.honor_dnt and config.dnt,
            random.Random(derive_seed(self.seed, "serve", config.session_id)),
        )

    def visit(self, browser: _Browser, event: VisitEvent) -> list[ServedAd]:
        url = event.page.url
        served: list[ServedAd] = []
        if event.kind == "control":
            chosen = self._serve(browser, url)
            served = [ServedAd(landing_url=ad.landing_url, label=ad.kind) for ad in chosen]
        if browser.observes:
            self._observe(browser, url, event.t)
        return served

    # -- serving ------------------------------------------------------------

    def _decay_factor(self, browser: _Browser, now: float) -> float:
        half = self.config.profile_decay_halflife
        if half is None or now <= browser.clock:
            return 1.0
        return 2.0 ** (-(now - browser.clock) / half)

    def _observe(self, browser: _Browser, url: str, now: float) -> None:
        factor = self._decay_factor(browser, now)
        if factor != 1.0:
            for prof in browser.profiles.values():
                for cat in prof:
                    prof[cat] *= factor
        browser.clock = max(browser.clock, now)
        cats = self.page_categories.get(url, ())
        for agg in self.trackers.get(url, ()):
            prof = browser.profiles.setdefault(agg, {})
            for cat in cats:
                prof[cat] = prof.get(cat, 0.0) + 1.0
        browser.history.add(url)

    def _activated(
        self, browser: _Browser, present: Sequence[str], targeted: Collection[str]
    ) -> Collection[str]:
        """The `targeted` categories whose profile weight, as the page's
        aggregators see it, reaches the activation threshold."""
        threshold = self.config.activation_threshold
        if self.config.share_profiles:
            # data brokers pooled their observations; added up in profile
            # order, so each total is the float a per-category sum gives
            totals: dict[str, float] = {}
            for prof in browser.profiles.values():
                for cat, w in prof.items():
                    if cat in targeted:
                        totals[cat] = totals.get(cat, 0.0) + w
            return [cat for cat, total in totals.items() if total >= threshold]
        # the max over the present aggregators reaches it when one of them does
        active: set[str] = set()
        for agg in present:
            prof = browser.profiles.get(agg)
            if prof:
                for cat, w in prof.items():
                    if w >= threshold and cat in targeted:
                        active.add(cat)
        return active

    def _eligible(self, browser: _Browser, url: str) -> list[AdUnit]:
        picks = browser.base + browser.by_theme.get(self.page_themes.get(url), [])
        for seen in browser.history & browser.by_landing.keys():
            picks += browser.by_landing[seen]
        # a page without aggregators activates nothing
        present = self.trackers.get(url)
        if present and browser.by_category:
            for cat in self._activated(browser, present, browser.by_category):
                picks += browser.by_category[cat]
        # inventory order, which the weighted draw picks from by position
        picks.sort()
        ads = self.ads
        return [ads[i] for i in picks]

    def _serve(self, browser: _Browser, url: str) -> list[AdUnit]:
        pool = self._eligible(browser, url)
        if not pool:
            return []
        rng = browser.rng
        slots = min(self.config.ads_per_visit, len(pool))
        weights = [ad.base_weight for ad in pool]
        picked: list[AdUnit] = []
        for _ in range(slots):
            total = sum(weights)
            mark = rng.random() * total
            acc = 0.0
            idx = len(pool) - 1
            for i, w in enumerate(weights):
                acc += w
                if mark < acc:
                    idx = i
                    break
            picked.append(pool.pop(idx))
            weights.pop(idx)
        return picked

    # -- corpus views --------------------------------------------------------

    def all_pages(self) -> list[WebPage]:
        pages: list[WebPage] = []
        for persona in self.personas:
            pages.extend(persona.training_pages)
        pages.extend(self.control_pages)
        publisher = {p.url for p in pages}
        for ad in self.ads:
            if ad.landing_url not in publisher:
                pages.append(WebPage(url=ad.landing_url, role="landing"))
        return pages

    def tag_sources(self, noise: TagNoise | None = None) -> list["WorldTagSource"]:
        noise = noise if noise is not None else self.config.tag_noise
        return [
            WorldTagSource(name=name, world=self, noise=noise)
            for name in self.config.sources
        ]

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return _to_record(self)

    @classmethod
    def from_dict(cls, data: dict) -> "World":
        world = _built(lambda d: cls(*_record_fields(cls, d)), data, "world record")
        return replace(
            world,
            config=from_dict(SimConfig, world.config, "sim"),
            personas=_build_records(Persona, world.personas, lambda i, why: (
                f"persona record {why} (personas[{i}])")),
            control_pages=[WebPage(url=u, role="control") for u in world.control_pages],
            ads=_build_records(AdUnit, world.ads, lambda i, why: f"ad record {why} (ads[{i}])"),
        )


class WorldTagSource:
    """The simulator acting as a tagging source.

    Starts from the world's true page categories, drops each true keyword
    with probability `noise.dropout`, and injects each pool keyword with
    probability `noise.spurious`. Each decision compares the draw
    `derive_seed(salt, "drop" or "spur", url, keyword)` with the rate's
    `cut`, so a keyword present at rate r stays present at any rate above
    r. The draws are `seeding.draws_below` of the page's prefix over the
    keywords' bytes, encoded once per source; only a kept spurious draw is
    turned into its uniform.
    """

    def __init__(self, name: str, world: World, noise: TagNoise):
        self.name = name
        self.world = world
        self._hasher = keyed_hasher(derive_seed(world.seed, "tags", name))
        # every category of any page, the keywords spurious injection draws
        self.spurious_pool = sorted(
            {c for cats in world.page_categories.values() for c in cats}
        )
        # each pool keyword, so each page's true keyword too, as its label
        self._labels = {k: k.encode("utf-8") for k in self.spurious_pool}
        self._drop_cut, self._spur_cut = cut(noise.dropout), cut(noise.spurious)

    def _draws(self, url: str, spur_cut: int) -> tuple[list[str], dict[str, int]]:
        """The true keywords of `url` that survive dropout, and each pool
        keyword whose spurious draw lies below `spur_cut`, with its draw."""
        kept = list(self.world.page_categories.get(url, ()))
        if self._drop_cut:
            dropped = draws_below(with_labels(self._hasher, "drop", url),
                                  {k: self._labels[k] for k in kept}, self._drop_cut)
            kept = [k for k in kept if k not in dropped]
        if not spur_cut:
            return kept, {}
        return kept, draws_below(with_labels(self._hasher, "spur", url), self._labels, spur_cut)

    def keywords_for(self, page: WebPage) -> set[str]:
        kept, below = self._draws(page.url, self._spur_cut)
        return {*kept, *below}

    def tag_levels(
        self, pages: Sequence[WebPage], levels: Sequence[float]
    ) -> Iterator[dict[str, set[str]]]:
        """`tag_pages(pages, source)` at each spurious level in turn, in the
        caller's order, with this source's dropout.

        Each (url, keyword) is drawn once for all levels, spurious draws up
        to the largest level, and a level keeps the draws below it, so the
        tables nest as the level grows. A level's table is built when the
        iterator reaches it.
        """
        bound = cut(max(levels, default=0.0))
        # each pool keyword (so each page's true keyword too) -> its one
        # tag form, by `tag_pages`'s rule; a keyword without one is left out
        canon = {k: tag for k in self.spurious_pool for tag in _keyword_set((k,))}
        # per URL: kept keywords, and spurious draws below the bound as rising
        # uniforms beside their keywords; compact, as they outlive each table
        drawn: dict[str, tuple[tuple[str, ...], tuple[float, ...], tuple[str, ...]]] = {}
        for page in pages:
            if page.url not in drawn:
                kept, below = self._draws(page.url, bound)
                below = sorted((uniform(n), canon[k]) for k, n in below.items() if k in canon)
                drawn[page.url] = (
                    tuple({canon[k] for k in kept if k in canon}),
                    tuple(u for u, _ in below),
                    tuple(k for _, k in below),
                )
        for level in levels:
            yield {
                url: {*kept, *spur[:bisect_left(draws, level)]}
                for url, (kept, draws, spur) in drawn.items()
            }


@dataclass
class PersonaSpec:
    """What a manifest says about one persona."""

    id: str
    category: str
    sensitive: bool = False


def default_persona_specs(count: int = 10) -> list[PersonaSpec]:
    cats = demo.DEFAULT_PERSONA_CATEGORIES
    if count > len(cats):
        raise ConfigurationError(
            f"only {len(cats)} default persona categories exist, asked for {count}"
        )
    return [PersonaSpec(id=_slug(c), category=c) for c in cats[:count]]


def build_world(
    config: SimConfig,
    specs: Sequence[PersonaSpec],
    taxonomy: KeywordTaxonomy,
    seed: int = 0,
) -> World:
    """Deterministically build the ecosystem for a persona roster.

    Candidate training pages are generated per persona (a few of them
    deliberately fail selection so the attrition counts are exercised),
    the tracker map guarantees 15 to 40 distinct trackers per persona,
    and the ad inventory follows the configured kind mix exactly.
    """
    if not specs:
        raise ConfigurationError("need at least one persona spec")
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("persona ids must be unique")
    # training URLs are built from the slug, so it must be non-empty and
    # unique too
    slugs: dict[str, str] = {}
    for spec in specs:
        slug = _slug(spec.id)
        if not slug:
            raise ConfigurationError(
                f"persona id {spec.id!r} has no letter or digit to build "
                "its URL slug from"
            )
        first = slugs.setdefault(slug, spec.id)
        if first != spec.id:
            raise ConfigurationError(
                f"persona ids {first!r} and {spec.id!r} share the URL slug "
                f"{slug!r}"
            )
        if spec.category not in taxonomy:
            raise ConfigurationError(
                f"persona {spec.id!r}: category {spec.category!r} not in taxonomy"
            )

    rng = random.Random(derive_seed(seed, "world"))
    aggregators = [f"agg-{i:02d}" for i in range(config.trackers_total)]

    page_categories: dict[str, list[str]] = {}
    page_themes: dict[str, str] = {}
    trackers: dict[str, list[str]] = {}

    # control pages: weather theme, dense tracker placement
    control_pages: list[WebPage] = []
    for i in range(config.n_control_pages):
        url = f"https://weather-{i}.example/forecast"
        page = WebPage(url=url, role="control")
        control_pages.append(page)
        extra = demo.WEATHER_SUBCATEGORIES[i % len(demo.WEATHER_SUBCATEGORIES)]
        page_categories[page.url] = ["weather", extra]
        page_themes[page.url] = "weather"
        trackers[page.url] = list(aggregators)

    personas: list[Persona] = []
    selection_source = config.sources[0]
    for spec in specs:
        persona = _build_persona(
            spec, config, taxonomy, rng, page_categories, selection_source
        )
        _place_trackers(persona, config, rng, aggregators, trackers)
        personas.append(persona)

    ads = _build_inventory(
        config, personas, control_pages, taxonomy, page_categories, rng
    )
    return World(
        config=config,
        seed=seed,
        personas=personas,
        control_pages=control_pages,
        ads=ads,
        page_categories=page_categories,
        page_themes=page_themes,
        trackers=trackers,
        aggregators=aggregators,
    )


def _build_persona(
    spec: PersonaSpec,
    config: SimConfig,
    taxonomy: KeywordTaxonomy,
    rng: random.Random,
    page_categories: dict[str, list[str]],
    selection_source: str,
) -> Persona:
    cat = normalize_keyword(spec.category)
    bundle = demo.persona_bundle(taxonomy, cat)
    slug = _slug(spec.id)

    candidates: list[CandidatePage] = []
    for i in range(config.training_pages_per_persona):
        url = f"https://{slug}-{i:02d}.example/articles"
        # every good page carries the category; children rotate through
        cats = [cat]
        if len(bundle) > 1:
            cats.append(bundle[1 + i % (len(bundle) - 1)])
        if spec.sensitive:
            profile = set()
        elif i % 3 == 0 or len(cats) == 1:
            profile = {cat}
        else:
            profile = {cat, cats[-1]}
        candidates.append(
            CandidatePage(
                page=WebPage(url=url, role="training"),
                source_keywords={s: set(cats) for s in config.sources},
                profile_categories=profile,
            )
        )
        page_categories[candidates[-1].page.url] = sorted(set(cats))

    # two deliberate rejects: one misses the category keyword, one has a
    # contaminated (or, for sensitive personas, non-empty) profile
    off_topic = CandidatePage(
        page=WebPage(url=f"https://{slug}-offtopic.example", role="training"),
        source_keywords={s: {"antiques"} for s in config.sources},
        profile_categories=set() if spec.sensitive else {cat},
    )
    dirty = CandidatePage(
        page=WebPage(url=f"https://{slug}-dirty.example", role="training"),
        source_keywords={s: {cat} for s in config.sources},
        profile_categories={cat, "antiques", "watches"} if not spec.sensitive else {cat},
    )
    candidates.extend([off_topic, dirty])

    selection = select_training_pages(
        category=cat,
        candidates=candidates,
        sensitive=spec.sensitive,
        selection_source=selection_source,
        min_pages=10,
    )
    return Persona(
        id=spec.id,
        category=cat,
        sensitive=spec.sensitive,
        training_pages=selection.pages,
        attrition=selection.attrition,
    )


def _place_trackers(
    persona: Persona,
    config: SimConfig,
    rng: random.Random,
    aggregators: list[str],
    trackers: dict[str, list[str]],
) -> None:
    """Give the persona's training pages 15..40 distinct trackers total."""
    k = rng.randint(config.trackers_min, config.trackers_max)
    pool = rng.sample(aggregators, k)
    pages = persona.training_pages
    placed: dict[str, set[str]] = {p.url: set() for p in pages}
    # deal every pool member once so the distinct count is exactly k
    for i, agg in enumerate(pool):
        placed[pages[i % len(pages)].url].add(agg)
    # then thicken pages a little
    for p in pages:
        for agg in rng.sample(pool, min(2, len(pool))):
            placed[p.url].add(agg)
    for p in pages:
        trackers[p.url] = sorted(placed[p.url])


def _build_inventory(
    config: SimConfig,
    personas: list[Persona],
    control_pages: list[WebPage],
    taxonomy: KeywordTaxonomy,
    page_categories: dict[str, list[str]],
    rng: random.Random,
) -> list[AdUnit]:
    # generated ad URLs are already in canonical form, so they can key
    # page_categories directly
    counts = kind_counts(config.n_ads, config.mix)
    ads: list[AdUnit] = []
    weights = config.kind_weights

    categories = [persona.category for persona in personas]
    for i in range(counts["oba"]):
        target = categories[i % len(categories)]
        url = f"https://ads-oba-{i:03d}.example/offer"
        ads.append(AdUnit(
            ad_id=f"oba-{i:03d}", kind="oba", landing_url=url,
            base_weight=weights["oba"], target_category=target,
        ))
        page_categories[url] = sorted(demo.persona_bundle(taxonomy, target))

    for i in range(counts["contextual"]):
        url = f"https://ads-ctx-{i:03d}.example/deal"
        ads.append(AdUnit(
            ad_id=f"ctx-{i:03d}", kind="contextual", landing_url=url,
            base_weight=weights["contextual"], theme="weather",
        ))
        extra = demo.WEATHER_SUBCATEGORIES[i % len(demo.WEATHER_SUBCATEGORIES)]
        page_categories[url] = ["weather", extra]

    for i in range(counts["static"]):
        url = f"https://ads-static-{i:03d}.example/brand"
        cat = demo.STATIC_AD_CATEGORIES[i % len(demo.STATIC_AD_CATEGORIES)]
        ads.append(AdUnit(
            ad_id=f"static-{i:03d}", kind="static", landing_url=url,
            base_weight=weights["static"],
        ))
        page_categories[url] = [cat]

    # retargeting units point back at real publisher pages, one page each
    targets: list[str] = []
    for persona in personas:
        targets.extend(p.url for p in persona.training_pages)
    targets.extend(p.url for p in control_pages)
    rng.shuffle(targets)
    if counts["retargeting"] > len(targets):
        raise ConfigurationError(
            f"{counts['retargeting']} retargeting units need as many distinct "
            f"publisher pages, only {len(targets)} exist"
        )
    for i in range(counts["retargeting"]):
        ads.append(AdUnit(
            ad_id=f"ret-{i:03d}", kind="retargeting", landing_url=targets[i],
            base_weight=weights["retargeting"],
        ))

    for i in range(counts["geo_demo"]):
        url = f"https://ads-geo-{i:03d}.example/local"
        cat = demo.LOCAL_AD_CATEGORIES[i % len(demo.LOCAL_AD_CATEGORIES)]
        geo = config.geo_labels[i % len(config.geo_labels)]
        ads.append(AdUnit(
            ad_id=f"geo-{i:03d}", kind="geo_demo", landing_url=url,
            base_weight=weights["geo_demo"], geo=geo,
        ))
        page_categories[url] = [cat]

    all_landings = [ad.landing_url for ad in ads]
    if len(set(all_landings)) != len(all_landings):
        raise ConfigurationError("internal: duplicate ad landing pages")
    return ads
