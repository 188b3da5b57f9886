"""Training-page selection and multi-source keyword consensus."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from obameter import (
    CandidatePage,
    ConsensusConfig,
    Persona,
    WebPage,
    consensus_training_keywords,
    select_training_pages,
)
from obameter.errors import ConfigurationError, PersonaRejected

import reference
from pools_fixture import CONSENSUS_EXPECTED, consensus_case


def _candidate(url, keywords, profile):
    return CandidatePage(
        page=WebPage(url=url),
        source_keywords={"alpha": set(keywords)},
        profile_categories=set(profile),
    )


def _good_candidates(n, category="banking"):
    return [
        _candidate(f"http://page-{i:02d}.example", {category}, {category})
        for i in range(n)
    ]


class TestSelection:
    def test_keeps_clean_on_topic_pages(self):
        sel = select_training_pages(
            category="banking", candidates=_good_candidates(12),
            sensitive=False, selection_source="alpha",
        )
        assert len(sel.pages) == 12
        assert sel.attrition == {
            "candidates": 12,
            "dropped_no_category_keyword": 0,
            "dropped_profile_footprint": 0,
            "selected": 12,
        }

    def test_drops_pages_without_the_category_keyword(self):
        cands = _good_candidates(10) + [
            _candidate("http://offtopic.example", {"antiques"}, {"banking"}),
        ]
        sel = select_training_pages("banking", cands, False, "alpha")
        assert sel.attrition["dropped_no_category_keyword"] == 1
        assert all(p.url != "http://offtopic.example" for p in sel.pages)

    def test_drops_pages_with_wide_profile_footprint(self):
        cands = _good_candidates(10) + [
            _candidate("http://dirty.example", {"banking"},
                       {"banking", "antiques", "watches"}),
        ]
        sel = select_training_pages("banking", cands, False, "alpha")
        assert sel.attrition["dropped_profile_footprint"] == 1

    def test_sensitive_needs_empty_profile(self):
        cands = [
            _candidate(f"http://s-{i:02d}.example", {"diabetes"}, set())
            for i in range(10)
        ] + [_candidate("http://leaky.example", {"diabetes"}, {"diabetes"})]
        sel = select_training_pages("diabetes", cands, True, "alpha")
        assert len(sel.pages) == 10
        assert sel.attrition["dropped_profile_footprint"] == 1

    def test_duplicate_urls_collapse(self):
        cands = _good_candidates(10) + [_good_candidates(1)[0]]
        sel = select_training_pages("banking", cands, False, "alpha")
        assert len(sel.pages) == 10

    def test_too_few_pages_rejects_with_attrition(self):
        with pytest.raises(PersonaRejected) as err:
            select_training_pages("banking", _good_candidates(9), False, "alpha")
        assert err.value.attrition["selected"] == 9

    def test_min_pages_override(self):
        sel = select_training_pages("banking", _good_candidates(3), False,
                                    "alpha", min_pages=3)
        assert len(sel.pages) == 3

    def test_missing_selection_source_drops_page(self):
        cands = _good_candidates(10) + [CandidatePage(
            page=WebPage(url="http://nosource.example"),
            source_keywords={"beta": {"banking"}},
            profile_categories={"banking"},
        )]
        sel = select_training_pages("banking", cands, False, "alpha")
        assert sel.attrition["dropped_no_category_keyword"] == 1


class TestConsensus:
    def test_disagreeing_sources(self, taxonomy):
        persona, tags = consensus_case()
        retained = consensus_training_keywords(
            persona, tags, ConsensusConfig(n=2, threshold=2.5), taxonomy
        )
        for src, expect in CONSENSUS_EXPECTED.items():
            assert retained[src] == expect["retained"], src
            assert expect["input"] - retained[src] == expect["eliminated"], src

    def test_insufficient_sources(self, taxonomy):
        persona, tags = consensus_case()
        two = {src: table for src, table in tags.items() if src != "flat-b"}
        with pytest.raises(ConfigurationError, match="consensus needs at least"):
            consensus_training_keywords(
                persona, two, ConsensusConfig(n=2, threshold=2.5), taxonomy
            )

    def test_n1_works_with_two_sources(self, taxonomy):
        persona, tags = consensus_case()
        two = {src: table for src, table in tags.items() if src != "flat-b"}
        retained = consensus_training_keywords(
            persona, two, ConsensusConfig(n=1, threshold=2.5), taxonomy
        )
        # single corroboration now suffices for the sibling-backed pair
        assert "gems & jewellery" in retained["hier"]
        assert "gyms & health clubs" not in retained["hier"]

    def test_exact_match_outside_taxonomy_counts(self, taxonomy):
        pages = [WebPage(url="http://t.example")]
        persona = Persona(id="p", category="banking", training_pages=pages)
        tags = {s: {"http://t.example": {"blockchain"}} for s in ("a", "b", "c")}
        retained = consensus_training_keywords(
            persona, tags, ConsensusConfig(n=2, threshold=2.5), taxonomy
        )
        assert retained["a"] == {"blockchain"}

    def test_assignments_off_training_pages_ignored(self, taxonomy):
        persona, tags = consensus_case()
        noisy = {
            src: {**table, "http://unrelated.example": {"dating"}}
            for src, table in tags.items()
        }
        with_noise = consensus_training_keywords(
            persona, noisy, ConsensusConfig(2, 2.5), taxonomy
        )
        without = consensus_training_keywords(
            persona, tags, ConsensusConfig(2, 2.5), taxonomy
        )
        assert with_noise == without

    @pytest.mark.parametrize("threshold", [math.inf, math.nan, -0.1])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        with pytest.raises(ConfigurationError, match="threshold"):
            ConsensusConfig(n=2, threshold=threshold)


# one demo subtree at path lengths 1 to 5, a far branch, and two keywords
# outside the taxonomy
_KEYWORDS = st.sampled_from([
    "home & garden", "yard & patio", "swimming pools & spas", "inground pools",
    "pool maintenance", "hot tubs & spas", "pools", "lawn care", "plumbing",
    "finance", "banking", "online banking", "insurance", "blockchain", "web3",
])
_TRAINING = ["http://t-0.example/a", "http://t-1.example/b"]


class TestConsensusOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_the_pair_loop(self, taxonomy, data):
        persona = Persona(id="p", category="banking", training_pages=[
            WebPage(url=u, role="training") for u in _TRAINING
        ])
        urls = st.sampled_from(_TRAINING + ["http://off.example/"])
        sources = [f"s{i}" for i in range(data.draw(st.integers(2, 4)))]
        tags = {
            src: data.draw(st.dictionaries(
                urls, st.sets(_KEYWORDS, max_size=4), max_size=3
            ))
            for src in sources
        }
        scores = reference.scores(taxonomy)
        threshold = data.draw(st.one_of(
            st.floats(0.0, scores[0] + 0.5), st.sampled_from(scores)
        ))
        config = ConsensusConfig(n=data.draw(st.integers(0, 3)), threshold=threshold)
        if len(sources) < max(2, config.n + 1):
            with pytest.raises(ConfigurationError, match="consensus needs at least"):
                consensus_training_keywords(persona, tags, config, taxonomy)
            return
        assert (consensus_training_keywords(persona, tags, config, taxonomy)
                == reference.consensus(persona, tags, config, taxonomy))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_personas_over_shared_pages_each_match_the_pair_loop(self, taxonomy, data):
        # personas over overlapping training pages, keywords inside and
        # outside the taxonomy, some spelt other than their canonical form
        urls = [f"http://t-{i}.example/p" for i in range(5)]
        personas = [
            Persona(id=f"p{i}", category="banking", training_pages=[
                WebPage(url=u, role="training")
                for u in data.draw(st.lists(st.sampled_from(urls), min_size=1,
                                            max_size=3, unique=True))
            ])
            for i in range(data.draw(st.integers(2, 4)))
        ]
        keywords = st.one_of(_KEYWORDS, st.sampled_from(
            ["Online  Banking", "online_banking", "Web3", " web3 "]
        ))
        tags = {
            src: data.draw(st.dictionaries(
                st.sampled_from(urls), st.sets(keywords, max_size=4), max_size=5
            ))
            for src in ("s0", "s1", "s2")
        }
        n = data.draw(st.integers(0, 2))
        scores = reference.scores(taxonomy)
        thresholds = data.draw(st.lists(st.one_of(
            st.floats(0.0, scores[0] + 0.5), st.sampled_from(scores)
        ), min_size=2, max_size=2, unique=True))
        for threshold in thresholds:
            config = ConsensusConfig(n=n, threshold=threshold)
            for persona in personas:
                assert (consensus_training_keywords(persona, tags, config, taxonomy)
                        == reference.consensus(persona, tags, config, taxonomy))

    def test_neighbours_never_score_a_pair(self, taxonomy, monkeypatch):
        # personas over overlapping keywords: their neighbours come from a
        # walk over the tree and nothing is scored, also at a threshold equal
        # to the score of pools and inground pools, which must compare strictly
        threshold = taxonomy.score("pools", "inground pools")
        config = ConsensusConfig(n=1, threshold=threshold)
        cases = []
        for i in range(3):
            url = f"http://t-{i}.example/p"
            persona = Persona(id=f"p{i}", category="banking",
                              training_pages=[WebPage(url=url, role="training")])
            tags = {"s0": {url: {"pools", "banking", "web3"}},
                    "s1": {url: {"inground pools", "banking", "web3", "Web3"}}}
            cases.append((persona, tags, reference.consensus(persona, tags, config, taxonomy)))

        def refuse(*args):
            raise AssertionError("a keyword pair was scored")
        for name in ("_score", "_min_pathlen", "_pair_pathlen"):
            monkeypatch.setattr(taxonomy, name, refuse)
        for persona, tags, expected in cases:
            kept = consensus_training_keywords(persona, tags, config, taxonomy)
            assert kept == expected == {"s0": {"banking", "web3"},
                                        "s1": {"banking", "web3", "Web3"}}

    def test_public_query_still_normalizes_its_arguments(self, taxonomy):
        assert "online banking" in taxonomy
        assert taxonomy.similar_or_exact("Online  Banking", "online_banking",
                                         reference.scores(taxonomy)[0] - 0.01)
        # outside the taxonomy only equal normalized texts are similar
        assert taxonomy.similar_or_exact("Web  3", "web_3", 3.0)
        assert not taxonomy.similar_or_exact("Web  3", "web_4", 0.0)
