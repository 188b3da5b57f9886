"""Hand-built corpus around a pool-shopper persona.

The numbers are chosen so every pipeline stage has an exact, human
checkable outcome. One persona ("pools") carries 388 ad impressions
totalling 6007 displays; 7 of them land on already-visited training
pages, 226 also appear in the clean-profile corpus, and 128 are shared
with a taxonomically distant persona ("moto"). Five of the final
impressions are shared with a close persona ("tubs"), which must NOT
trigger removal. The stage-by-stage truth:

    stage   pages  ntimes  matched-ntimes  BAiLP
    r       381    6000    1020            0.17
    rsc     155    1360    1020            0.75
    rscdg    27    1000     970            0.97

Keyword consensus over three agreeing sources gives the training set
{"swimming pools & spas", "surf & swim"}, and the surviving matched
pages jointly carry both keywords, so TTK stays 1.0 at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from obameter import (
    AdImpression,
    ConsensusConfig,
    Persona,
    WebPage,
    build_audience,
    consensus_training_keywords,
    demo_taxonomy,
    landing_key,
)

SOURCES = ("alpha", "beta", "gamma")
CONTROL_URL = "https://news.example/front"

EXPECTED = {
    "input_pages": 388,
    "input_ntimes": 6007,
    "r_pages": 381,
    "r_ntimes": 6000,
    "removed_by_sc": 226,
    "rsc_pages": 155,
    "rsc_ntimes": 1360,
    "removed_by_dg": 128,
    "rscdg_pages": 27,
    "rscdg_ntimes": 1000,
    "bailp_r": 0.17,
    "bailp_rsc": 0.75,
    "bailp_rscdg": 0.97,
    "training_keywords": {"swimming pools & spas", "surf & swim"},
}


@dataclass
class PoolsCase:
    taxonomy: object
    persona: Persona
    visited_keys: set[str]
    impressions: list[AdImpression]
    clean_impressions: list[AdImpression]
    impressions_by_persona: dict[str, list[AdImpression]]
    audience: dict[str, set[str]]
    categories: dict[str, str]
    training_tags: dict[str, dict[str, set[str]]]  # source -> url -> keywords
    consensus: ConsensusConfig
    tags: dict[str, set[str]] = field(default_factory=dict)  # landing url -> keywords


def _imp(pid: str, sid: str, landing: str, ntimes: int) -> AdImpression:
    return AdImpression(
        persona_id=pid,
        session_id=sid,
        control_page=CONTROL_URL,
        landing_page=landing,
        ntimes=ntimes,
    )


def build() -> PoolsCase:
    taxonomy = demo_taxonomy()
    training = [WebPage(url=f"https://pools-{i:02d}.example/guide") for i in range(10)]
    persona = Persona(id="pools", category="swimming pools & spas",
                      training_pages=training)
    sid = "pools|ES|r0"

    tags: dict[str, set[str]] = {}
    impressions: list[AdImpression] = []

    # 7 retargeting hits on already-visited training pages, 1 display each
    for page in training[:7]:
        impressions.append(_imp("pools", sid, page.url, 1))

    # 20 matched pages later removed by the demographic filter: 50 displays
    dg_matched: list[str] = []
    for i in range(20):
        url = f"https://m-dg-{i:03d}.example/offer"
        dg_matched.append(url)
        tags[url] = {"swimming pools & spas" if i % 2 == 0 else "surf & swim"}
        impressions.append(_imp("pools", sid, url, 2 if i < 10 else 3))

    # 26 matched pages that survive everything: 970 displays
    fin_matched: list[str] = []
    for i in range(26):
        url = f"https://m-fin-{i:03d}.example/offer"
        fin_matched.append(url)
        tags[url] = {"swimming pools & spas" if i % 2 == 0 else "surf & swim"}
        impressions.append(_imp("pools", sid, url, 37 if i < 18 else 38))

    # 226 unmatched pages the clean profile also saw: 4640 displays
    sc_unmatched: list[str] = []
    for i in range(226):
        url = f"https://u-sc-{i:03d}.example/promo"
        sc_unmatched.append(url)
        tags[url] = {"local news"}
        impressions.append(_imp("pools", sid, url, 21 if i < 120 else 20))

    # 108 unmatched pages shared with the distant persona: 310 displays
    dg_unmatched: list[str] = []
    for i in range(108):
        url = f"https://u-dg-{i:03d}.example/promo"
        dg_unmatched.append(url)
        tags[url] = {"coins & currency"}
        impressions.append(_imp("pools", sid, url, 3 if i < 94 else 2))

    # 1 unmatched page nobody else saw: 30 displays
    solo = "https://u-fin-000.example/promo"
    tags[solo] = {"stamp collecting"}
    impressions.append(_imp("pools", sid, solo, 30))

    clean_impressions = [
        _imp("__clean__", "__clean__|ES|r0", url, 1) for url in sc_unmatched
    ] + [
        _imp("__clean__", "__clean__|ES|r0", f"https://clean-extra-{i}.example/promo", 1)
        for i in range(3)
    ]

    moto_imps = [
        _imp("moto", "moto|ES|r0", url, 1) for url in dg_matched + dg_unmatched
    ]
    tubs_imps = [_imp("tubs", "tubs|ES|r0", url, 1) for url in fin_matched[:5]]

    impressions_by_persona = {
        "pools": impressions,
        "moto": moto_imps,
        "tubs": tubs_imps,
    }
    categories = {
        "pools": "swimming pools & spas",
        "tubs": "hot tubs & spas",
        "moto": "motor sports",
    }

    # three sources agree on the training keywords, so consensus keeps both
    training_tags = {
        src: {
            page.url: {"swimming pools & spas"} | ({"surf & swim"} if i < 3 else set())
            for i, page in enumerate(training)
        }
        for src in SOURCES
    }

    return PoolsCase(
        taxonomy=taxonomy,
        persona=persona,
        visited_keys={landing_key(p.url) for p in training},
        impressions=impressions,
        clean_impressions=clean_impressions,
        impressions_by_persona=impressions_by_persona,
        audience=build_audience(impressions_by_persona),
        categories=categories,
        training_tags=training_tags,
        consensus=ConsensusConfig(n=2, threshold=2.5),
        tags=tags,
    )


def training_keywords(case: PoolsCase) -> dict[str, set[str]]:
    """Consensus result per source; all three agree here."""
    return consensus_training_keywords(
        case.persona, case.training_tags, case.consensus, case.taxonomy
    )


# --------------------------------------------------------------------------
# multi-source consensus disagreement case

CONSENSUS_EXPECTED = {
    "hier": {
        "input": {
            "swimming pools & spas", "surf & swim", "gems & jewellery",
            "gyms & health clubs", "security", "toys & games",
        },
        "retained": {
            "swimming pools & spas", "surf & swim", "security", "toys & games",
        },
        "eliminated": {"gems & jewellery", "gyms & health clubs"},
    },
    "flat-a": {
        "input": {"pools", "swimming", "jewellery", "security", "toys & games"},
        "retained": {"pools", "swimming", "security", "toys & games"},
        "eliminated": {"jewellery"},
    },
    "flat-b": {
        "input": {
            "hot tubs & spas", "water sports", "fitness", "security", "toys & games",
        },
        "retained": {"hot tubs & spas", "water sports", "security", "toys & games"},
        "eliminated": {"fitness"},
    },
}


def consensus_case() -> tuple[Persona, dict[str, dict[str, set[str]]]]:
    """One persona, two training pages, three disagreeing sources.

    The hierarchical source assigns six keywords; two of them are backed
    by only one other source ("gems & jewellery" only by flat-a's
    sibling "jewellery", "gyms & health clubs" only by flat-b's parent
    "fitness") and must fall to the 2-of-3 rule.
    """
    pages = [
        WebPage(url="https://poolpricer.example/costs"),
        WebPage(url="https://backyard-fun.example/shop"),
    ]
    persona = Persona(id="shopper", category="swimming pools & spas",
                      training_pages=pages)
    per_page = {
        "hier": [
            {"swimming pools & spas", "surf & swim", "gems & jewellery"},
            {"security", "toys & games", "gyms & health clubs"},
        ],
        "flat-a": [
            {"pools", "swimming", "jewellery"},
            {"security", "toys & games"},
        ],
        "flat-b": [
            {"hot tubs & spas", "water sports", "fitness"},
            {"security", "toys & games"},
        ],
    }
    tags = {
        src: {page.url: kws for page, kws in zip(pages, page_kws)}
        for src, page_kws in per_page.items()
    }
    return persona, tags
