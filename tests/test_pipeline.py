"""Filter pipeline behaviour, including the worked three-stage replay."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import pools_fixture
import reference
from obameter import (
    AdImpression,
    FilterConfig,
    apply_filters,
    build_audience,
    filter_demo_geo,
    filter_static_contextual,
    normalize_keyword,
)
from obameter.errors import ConfigurationError, CorpusDataError
from obameter.pipeline import FILTER_SETS

E = pools_fixture.EXPECTED


def _ntimes(imps):
    return sum(i.ntimes for i in imps)


@pytest.fixture(scope="module")
def case():
    return pools_fixture.build()


@pytest.fixture(scope="module")
def result(case):
    return apply_filters(
        case.impressions,
        FilterConfig(),
        case.visited_keys,
        case.clean_impressions,
        "pools",
        case.categories,
        case.audience,
        case.taxonomy,
    )


class TestWorkedReplay:
    def test_stage_page_counts(self, result):
        assert result.attrition == {
            "input": E["input_pages"],
            "after_retargeting": E["r_pages"],
            "after_static_contextual": E["rsc_pages"],
            "after_demo_geo": E["rscdg_pages"],
        }

    def test_stage_removal_counts(self, result):
        assert E["r_pages"] - E["rsc_pages"] == E["removed_by_sc"]
        assert E["rsc_pages"] - E["rscdg_pages"] == E["removed_by_dg"]

    def test_stage_display_counts(self, result):
        assert _ntimes(result.by_stage["r"]) == E["r_ntimes"]
        assert _ntimes(result.by_stage["sc"]) == E["rsc_ntimes"]
        assert _ntimes(result.by_stage["dg"]) == E["rscdg_ntimes"]

    def test_survivors_are_final_stage(self, result):
        assert list(result.by_stage) == ["r", "sc", "dg"]

    def test_input_untouched(self, case, result):
        assert len(case.impressions) == E["input_pages"]
        assert _ntimes(case.impressions) == E["input_ntimes"]

    def test_survivors_keep_identity_and_ntimes(self, case, result):
        originals = {id(imp) for imp in case.impressions}
        for imp in result.by_stage["dg"]:
            assert id(imp) in originals
        assert _ntimes(result.by_stage["dg"]) == E["rscdg_ntimes"]


class TestPipelineAlgebra:
    def test_each_stage_contracts(self, case, result):
        sizes = [len(case.impressions)] + [
            len(result.by_stage[s]) for s in ("r", "sc", "dg")
        ]
        assert sizes == sorted(sizes, reverse=True)
        for stage in ("r", "sc", "dg"):
            assert set(map(id, result.by_stage[stage])) <= set(map(id, case.impressions))

    def test_idempotent_on_own_survivors(self, case, result):
        again = apply_filters(
            result.by_stage["dg"],
            FilterConfig(),
            case.visited_keys,
            case.clean_impressions,
            "pools",
            case.categories,
            case.audience,
            case.taxonomy,
        )
        assert again.by_stage["dg"] == result.by_stage["dg"]

    def test_shorter_filter_sets_prefix_the_full_run(self, case, result):
        partial = apply_filters(
            case.impressions,
            FilterConfig(filters="rsc"),
            case.visited_keys,
            case.clean_impressions,
            "pools",
            case.categories,
            case.audience,
            case.taxonomy,
        )
        assert partial.by_stage["sc"] == result.by_stage["sc"]
        assert "after_demo_geo" not in partial.attrition


class TestFilterConfig:
    def test_unknown_set_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(filters="dg")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(t_prime=-0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="t_prime"):
            FilterConfig(t_prime=math.nan)

    def test_stage_order_is_fixed(self):
        assert FILTER_SETS["rscdg"] == ("r", "sc", "dg")
        assert FilterConfig(filters="rsc").stages == ("r", "sc")


class TestStaticContextualStage:
    def test_missing_clean_profile_raises(self, case):
        with pytest.raises(CorpusDataError, match="needs a clean-profile impression corpus"):
            filter_static_contextual(case.impressions, None)

    def test_empty_clean_profile_removes_nothing(self, case):
        kept = filter_static_contextual(case.impressions, [])
        assert kept == case.impressions

    def test_match_ignores_control_page_and_query(self):
        imp = AdImpression(persona_id="p", session_id="s",
                           control_page="https://ctrl-a.example/",
                           landing_page="https://shop.example/item?utm=x",
                           ntimes=4)
        clean = AdImpression(persona_id="c", session_id="c",
                             control_page="https://ctrl-b.example/",
                             landing_page="http://shop.example/item",
                             ntimes=1)
        assert filter_static_contextual([imp], [clean]) == []


class TestDemoGeoStage:
    def test_solo_audience_survives_any_threshold(self, case):
        solo = [i for i in case.impressions
                if i.landing_page == "https://u-fin-000.example/promo"]
        kept = filter_demo_geo(solo, "pools", case.categories,
                               case.audience, case.taxonomy, t_prime=3.0)
        assert kept == solo

    def test_equality_at_threshold_keeps(self, case):
        shared = [i for i in case.impressions
                  if i.landing_page.startswith("https://m-fin-00")][:5]
        sibling_score = reference.score(
            case.taxonomy, "swimming pools & spas", "hot tubs & spas"
        )
        assert sibling_score == pytest.approx(math.log(38 / 3), abs=1e-12)
        kept = filter_demo_geo(shared, "pools", case.categories,
                               case.audience, case.taxonomy,
                               t_prime=sibling_score)
        assert kept == shared
        removed = filter_demo_geo(shared, "pools", case.categories,
                                  case.audience, case.taxonomy,
                                  t_prime=sibling_score + 1e-9)
        assert removed == []

    def test_missing_own_category_raises(self, case):
        with pytest.raises(ConfigurationError, match="ghost"):
            filter_demo_geo(case.impressions[:1], "ghost", case.categories,
                            case.audience, case.taxonomy, t_prime=2.5)

    def test_missing_other_category_raises(self, case):
        categories = dict(case.categories)
        del categories["moto"]
        shared = [i for i in case.impressions
                  if i.landing_page.startswith("https://u-dg-")]
        with pytest.raises(ConfigurationError, match="moto"):
            filter_demo_geo(shared, "pools", categories,
                            case.audience, case.taxonomy, t_prime=2.5)

    @pytest.mark.parametrize("audience_ids, known, unknown", [
        # the known member is distant, so stopping at it would drop silently
        ({"p", "a", "z"}, {"a": "dating"}, "z"),
        ({"p", "a", "z"}, {"z": "dating"}, "a"),
        ({"p", "m", "b", "x"}, {}, "b"),
    ])
    def test_unknown_audience_member_raises_whatever_the_id_order(
        self, taxonomy, audience_ids, known, unknown
    ):
        imps = [AdImpression(persona_id="p", session_id="s",
                             control_page="https://c.example/",
                             landing_page="https://ad.example/x", ntimes=1)]
        audience = {"ad.example/x": audience_ids}
        cats = {"p": "banking", **known}
        with pytest.raises(ConfigurationError, match=f"'{unknown}'"):
            filter_demo_geo(imps, "p", cats, audience, taxonomy, t_prime=2.5)

    def test_out_of_taxonomy_exact_match_keeps(self, case, taxonomy):
        imps = [AdImpression(persona_id="p1", session_id="s",
                             control_page="https://c.example/",
                             landing_page="https://ad.example/x", ntimes=1)]
        audience = {"ad.example/x": {"p1", "p2"}}
        cats = {"p1": "blockchain", "p2": "blockchain"}
        kept = filter_demo_geo(imps, "p1", cats, audience, taxonomy, t_prime=3.0)
        assert kept == imps

    def test_out_of_taxonomy_mismatch_removes(self, case, taxonomy):
        imps = [AdImpression(persona_id="p1", session_id="s",
                             control_page="https://c.example/",
                             landing_page="https://ad.example/x", ntimes=1)]
        audience = {"ad.example/x": {"p1", "p2"}}
        cats = {"p1": "blockchain", "p2": "web3"}
        assert filter_demo_geo(imps, "p1", cats, audience, taxonomy,
                               t_prime=0.5) == []
        # a zero threshold can never call anything dissimilar
        assert filter_demo_geo(imps, "p1", cats, audience, taxonomy,
                               t_prime=0.0) == imps


class TestAudience:
    def test_audience_keys_merge_on_landing_equality(self):
        a = AdImpression(persona_id="p1", session_id="s1",
                         control_page="https://c.example/",
                         landing_page="https://x.example/a?q=1", ntimes=1)
        b = AdImpression(persona_id="p2", session_id="s2",
                         control_page="https://c.example/",
                         landing_page="http://x.example/a", ntimes=2)
        audience = build_audience({"p1": [a], "p2": [b]})
        assert audience == {"x.example/a": {"p1", "p2"}}

    def test_worked_case_audience(self, case):
        assert case.audience["u-fin-000.example/promo"] == {"pools"}
        assert case.audience["m-fin-000.example/offer"] == {"pools", "tubs"}
        assert case.audience["u-dg-000.example/promo"] == {"pools", "moto"}


# landing pages that partly collide under the host + path equality rule
_LANDINGS = st.sampled_from([
    "https://a.example/x", "http://a.example/x?utm=1", "https://a.example/y",
    "https://b.example/x", "https://b.example:8443/x", "https://c.example/",
])

# siblings, distant pairs, and categories outside the demo taxonomy
# ("blockchain" and "Blockchain" match exactly, "web3" does not)
_CATEGORIES = st.sampled_from([
    "swimming pools & spas", "hot tubs & spas", "motor sports", "banking",
    "blockchain", "Blockchain", "web3",
])


def _impressions(pid):
    return st.lists(
        st.builds(AdImpression, persona_id=st.just(pid), session_id=st.just(pid),
                  control_page=st.just("https://ctrl.example/"),
                  landing_page=_LANDINGS, ntimes=st.integers(1, 3)),
        max_size=8,
    )


def _ids(imps):
    return {id(imp) for imp in imps}


class TestMonotoneFilters:
    @settings(max_examples=200, deadline=None)
    @given(imps=_impressions("p"), clean=_impressions("c"), extra=_impressions("c"))
    def test_more_clean_impressions_never_add_sc_survivors(self, imps, clean, extra):
        fewer = filter_static_contextual(imps, clean)
        more = filter_static_contextual(imps, clean + extra)
        assert _ids(more) <= _ids(fewer)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_higher_t_prime_never_adds_dg_survivors(self, taxonomy, data):
        pids = ["p0", "p1", "p2", "p3"]
        categories = {pid: data.draw(_CATEGORIES) for pid in pids}
        by_persona = {pid: data.draw(_impressions(pid)) for pid in pids}
        audience = build_audience(by_persona)
        thresholds = st.floats(0.0, reference.scores(taxonomy)[0] + 0.5)
        low, high = sorted([data.draw(thresholds), data.draw(thresholds)])
        kept = [
            filter_demo_geo(by_persona["p0"], "p0", categories, audience,
                            taxonomy, t_prime)
            for t_prime in (low, high)
        ]
        assert _ids(kept[1]) <= _ids(kept[0])


class TestDemoGeoOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_impression_loop(self, taxonomy, data):
        pids = [f"p{i}" for i in range(data.draw(st.integers(1, 4)))]
        # canonical, as Persona stores them
        categories = {pid: normalize_keyword(data.draw(_CATEGORIES)) for pid in pids}
        by_persona = {pid: data.draw(_impressions(pid)) for pid in pids}
        audience = build_audience(by_persona)
        in_tree = sorted({c for c in categories.values() if c in taxonomy})
        top = reference.scores(taxonomy)[0]
        boundaries = [0.0, top, top + 0.1] + [
            reference.score(taxonomy, a, b) for a in in_tree for b in in_tree
        ]
        t_prime = data.draw(st.one_of(
            st.floats(0.0, top + 0.5), st.sampled_from(boundaries)
        ))
        for pid in pids:
            kept = filter_demo_geo(by_persona[pid], pid, categories, audience,
                                   taxonomy, t_prime)
            expected = reference.dg(by_persona[pid], pid, categories,
                                    reference.audience(by_persona), taxonomy, t_prime)
            assert [id(imp) for imp in kept] == [id(imp) for imp in expected]

