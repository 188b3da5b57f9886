"""World building, serving rules, and ground-truth soundness."""

import json
import math
import re
import sys
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from obameter import (
    Persona,
    PersonaSpec,
    SessionConfig,
    SimConfig,
    World,
    build_world,
    landing_key,
    run_session,
)
from obameter.adsim import (
    DEFAULT_KIND_WEIGHTS,
    DEFAULT_MIX,
    AdUnit,
    TagNoise,
    default_persona_specs,
    kind_counts,
)
from obameter.corpus import from_dict, tag_pages
from obameter.errors import ConfigurationError, CorpusDataError
from obameter.seeding import cut, derive_seed, hash_uniform
from obameter.session import schedule_visits

import reference


@pytest.fixture
def make_world(taxonomy):
    def build(seed=5, **overrides):
        config = SimConfig(**overrides)
        return build_world(config, default_persona_specs(4), taxonomy, seed=seed)
    return build


@pytest.fixture
def world(make_world):
    return make_world()


def _session(world, persona_id, seed=1, **kwargs):
    persona = next(p for p in world.personas if p.id == persona_id)
    config = SessionConfig(session_id=persona_id, visit_budget=150,
                           seed=seed, **kwargs)
    return run_session(persona, world.control_pages, config, world)


class TestKindCounts:
    def test_default_mix_at_100(self):
        counts = kind_counts(100, {
            "oba": 0.4, "contextual": 0.3, "static": 0.1,
            "retargeting": 0.1, "geo_demo": 0.1,
        })
        assert counts == {"oba": 40, "contextual": 30, "static": 10,
                          "retargeting": 10, "geo_demo": 10}

    def test_largest_remainder_sums_exactly(self):
        counts = kind_counts(7, {
            "oba": 0.4, "contextual": 0.3, "static": 0.1,
            "retargeting": 0.1, "geo_demo": 0.1,
        })
        assert sum(counts.values()) == 7
        assert counts["oba"] == 3


class TestConfigValidation:
    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_activation_threshold_must_be_positive(self, threshold):
        # at 0 an empty (clean) profile would activate every oba unit
        with pytest.raises(ConfigurationError, match="activation_threshold"):
            SimConfig(activation_threshold=threshold)

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="must sum to 1"):
            SimConfig(mix={"oba": 0.5, "contextual": 0.5, "static": 0.5,
                           "retargeting": 0.0, "geo_demo": 0.0})

    @pytest.mark.parametrize("share", [float("nan"), -0.1])
    def test_mix_share_must_be_a_number_at_least_zero(self, share):
        with pytest.raises(ConfigurationError, match="mix proportions"):
            SimConfig(mix={"oba": 0.5, "contextual": 0.5, "static": share})

    @pytest.mark.parametrize("halflife", [0.0, -1.0, float("nan")])
    def test_profile_decay_halflife_must_be_positive(self, halflife):
        with pytest.raises(ConfigurationError, match="profile_decay_halflife"):
            SimConfig(profile_decay_halflife=halflife)

    @pytest.mark.parametrize("weight", [0.0, float("nan"), float("inf")])
    def test_kind_weights_must_be_positive(self, weight):
        with pytest.raises(ConfigurationError, match="kind_weights"):
            SimConfig(kind_weights={**DEFAULT_KIND_WEIGHTS, "static": weight})

    def test_kind_weights_naming_no_ad_kind_are_rejected(self):
        with pytest.raises(ConfigurationError, match=r"wrong for \[.bogus.\]"):
            SimConfig(kind_weights={**DEFAULT_KIND_WEIGHTS, "bogus": -1})

    def test_kind_weights_whose_pool_total_overflows_are_rejected(self):
        with pytest.raises(ConfigurationError, match="finite sum"):
            SimConfig(kind_weights={**DEFAULT_KIND_WEIGHTS, "oba": 1e308, "static": 1e308})
        # two static units: half the largest float each sums to it exactly,
        # and the next weight up sums to 2**1024, which overflows
        half = sys.float_info.max / 2
        only_static = {k: 1.0 if k == "static" else 0.0 for k in DEFAULT_MIX}
        config = SimConfig(n_ads=2, mix=only_static,
                           kind_weights={**DEFAULT_KIND_WEIGHTS, "static": half})
        assert kind_counts(2, only_static)["static"] == 2
        assert config.kind_weights["static"] * 2 == sys.float_info.max
        with pytest.raises(ConfigurationError, match="finite sum"):
            SimConfig(n_ads=2, mix=only_static, kind_weights={
                **DEFAULT_KIND_WEIGHTS, "static": math.nextafter(half, math.inf)
            })

    @pytest.mark.parametrize("field_name", ["n_ads", "ads_per_visit", "n_control_pages"])
    def test_counts_reject_nan(self, field_name):
        with pytest.raises(ConfigurationError, match=field_name):
            SimConfig(**{field_name: float("nan")})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ad kinds"):
            SimConfig(mix={"oba": 0.5, "popunder": 0.5})

    def test_tracker_bounds(self):
        with pytest.raises(ConfigurationError, match="tracker bounds"):
            SimConfig(trackers_min=50, trackers_max=40)

    def test_needs_two_sources(self):
        with pytest.raises(ConfigurationError, match="at least 2 tag sources"):
            SimConfig(sources=["only-one"])

    @pytest.mark.parametrize("name", ["a/b", "", ".a", "a b", "a\n"])
    def test_source_name_that_no_tag_file_can_have_is_rejected(self, name):
        with pytest.raises(ConfigurationError, match="unusable tag source name"):
            SimConfig(sources=["x", name])

    def test_source_listed_twice_is_rejected(self):
        with pytest.raises(ConfigurationError, match="tag source 'x' is listed twice"):
            SimConfig(sources=["x", "y", "x"])

    def test_noise_rates_bounded(self):
        with pytest.raises(ConfigurationError, match=r"dropout rate must be in \[0, 1\]"):
            TagNoise(dropout=1.5)

    def test_training_pages_floor(self):
        with pytest.raises(ConfigurationError, match="training_pages_per_persona"):
            SimConfig(training_pages_per_persona=5)


class TestWorldShape:
    def test_personas_have_enough_training_pages(self, world):
        for persona in world.personas:
            assert len(persona.training_pages) >= 10
            assert persona.attrition["candidates"] > persona.attrition["selected"]

    def test_tracker_count_within_bounds(self, world):
        for persona in world.personas:
            aggs = set()
            for page in persona.training_pages:
                aggs.update(world.trackers[page.url])
            assert world.config.trackers_min <= len(aggs) <= world.config.trackers_max

    def test_ad_landings_are_distinct(self, world):
        landings = [ad.landing_url for ad in world.ads]
        assert len(set(landings)) == len(landings)

    def test_duplicate_persona_ids_rejected(self, taxonomy):
        specs = default_persona_specs(2)
        specs[1].id = specs[0].id
        with pytest.raises(ConfigurationError, match="persona ids must be unique"):
            build_world(SimConfig(), specs, taxonomy)

    # without retargeting units nothing else notices the shared pages
    @pytest.mark.parametrize("mix", [None, {"oba": 0.6, "contextual": 0.4}])
    def test_persona_ids_sharing_a_slug_rejected(self, taxonomy, mix):
        specs = [PersonaSpec(id="movies", category="movies"),
                 PersonaSpec(id="Movies!", category="motor sports")]
        config = SimConfig() if mix is None else SimConfig(mix=mix)
        with pytest.raises(ConfigurationError, match=r"'movies' and 'Movies!' share"):
            build_world(config, specs, taxonomy, seed=1)

    def test_persona_id_without_a_slug_rejected(self, taxonomy):
        specs = [PersonaSpec(id="!!!", category="movies")]
        with pytest.raises(ConfigurationError, match=r"persona id '!!!' has no letter"):
            build_world(SimConfig(), specs, taxonomy, seed=1)

    def test_unknown_category_rejected(self, taxonomy):
        specs = default_persona_specs(1)
        specs[0].category = "quantum basket weaving"
        with pytest.raises(ConfigurationError, match="'quantum basket weaving' not in"):
            build_world(SimConfig(), specs, taxonomy)


class TestServingRules:
    def test_every_impression_is_labelled(self, world):
        result = _session(world, "motor-sports")
        assert result.impressions
        assert all(imp.ground_truth is not None for imp in result.impressions)

    def test_retargeting_lands_on_previously_visited_pages(self, world):
        found = 0
        for pid in ("motor-sports", "motorcycles", "cooking-recipes", "banking"):
            result = _session(world, pid)
            seen = {landing_key(ev.page.url) for ev in result.visits}
            for imp in result.impressions:
                if imp.ground_truth == "retargeting":
                    found += 1
                    assert landing_key(imp.landing_page) in seen
        assert found > 0

    def test_clean_profile_never_gets_targeted_kinds(self, world):
        clean = Persona(id="c", category="weather", training_pages=[])
        config = SessionConfig(session_id="c", visit_budget=200, seed=3,
                               clean_profile=True)
        result = run_session(clean, world.control_pages, config, world)
        kinds = {imp.ground_truth for imp in result.impressions}
        assert "oba" not in kinds
        assert "retargeting" not in kinds
        assert kinds  # it does see the untargeted inventory

    def test_clean_browser_stays_empty_while_served(self, world):
        persona = world.personas[0]
        config = SessionConfig(session_id=persona.id, visit_budget=150, seed=3,
                               clean_profile=True)
        browser = world.begin(config)
        events = schedule_visits(persona.training_pages + world.control_pages, config)
        served = [ad for event in events for ad in world.visit(browser, event)]
        assert served
        assert browser.history == set()
        assert browser.profiles == {}
        assert browser.clock == 0.0

    def test_oba_targets_the_profiled_category(self, world):
        result = _session(world, "banking")
        oba = [imp for imp in result.impressions if imp.ground_truth == "oba"]
        assert oba
        by_url = {ad.landing_url: ad for ad in world.ads}
        for imp in oba:
            assert by_url[imp.landing_page].target_category == "banking"

    def test_dnt_ignored_by_default(self, world):
        result = _session(world, "banking", dnt=True)
        kinds = {imp.ground_truth for imp in result.impressions}
        assert "oba" in kinds

    def test_dnt_honored_when_configured(self, make_world):
        world = make_world(honor_dnt=True)
        result = _session(world, "banking", dnt=True)
        kinds = {imp.ground_truth for imp in result.impressions}
        assert "oba" not in kinds
        assert "retargeting" not in kinds

    def test_geo_ads_match_session_geo(self, world):
        by_url = {ad.landing_url: ad for ad in world.ads}
        for geo in ("ES", "US"):
            result = _session(world, "banking", geo=geo)
            labelled = [imp for imp in result.impressions
                        if imp.ground_truth == "geo_demo"]
            assert labelled
            for imp in labelled:
                assert by_url[imp.landing_page].geo == geo

    def test_profile_decay_starves_activation(self, make_world):
        # a 1-second half-life wipes the profile between 180-second visits
        world = make_world(profile_decay_halflife=1.0)
        result = _session(world, "banking")
        kinds = {imp.ground_truth for imp in result.impressions}
        assert "oba" not in kinds

    def test_shared_profiles_sum_across_aggregators(self, world):
        # only the sum of the two profiles reaches the 3.0 threshold
        banking = {ad.ad_id for ad in world.ads if ad.target_category == "banking"}
        assert banking and world.config.activation_threshold == 3.0
        url = world.control_pages[0].url

        def eligible_oba():
            browser = world.begin(SessionConfig(session_id="p"))
            browser.profiles = {"agg-00": {"banking": 2.0}, "agg-01": {"banking": 1.5}}
            return {ad.ad_id for ad in world._eligible(browser, url) if ad.kind == "oba"}

        assert eligible_oba() == set()
        world.config.share_profiles = True
        assert eligible_oba() == banking


@pytest.fixture(scope="module")
def base_world(taxonomy):
    return build_world(SimConfig(), default_persona_specs(4), taxonomy, seed=5)


_AGGS = [f"agg-{i:02d}" for i in range(6)]
_WEIGHT = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=8.0),
)


@st.composite
def _serving_cases(draw, world):
    cats = sorted({ad.target_category for ad in world.ads if ad.kind == "oba"})
    profiles = draw(st.dictionaries(
        st.sampled_from(_AGGS),
        st.dictionaries(st.sampled_from(cats + ["weather"]), _WEIGHT, max_size=4),
        max_size=5,
    ))
    retarget = [ad.landing_url for ad in world.ads if ad.kind == "retargeting"]
    history = draw(st.sets(st.sampled_from(
        retarget + [world.personas[0].training_pages[0].url, "https://elsewhere.example/x"]
    )))
    url = draw(st.sampled_from([
        world.control_pages[0].url,
        world.personas[0].training_pages[0].url,
        "https://unlisted.example/page",  # no theme
    ]))
    # None leaves the page out of the tracker map
    present = draw(st.one_of(st.none(), st.lists(st.sampled_from(_AGGS), max_size=4)))
    trackers = {k: v for k, v in world.trackers.items() if k != url}
    if present is not None:
        trackers[url] = present
    sim = replace(
        world.config,
        activation_threshold=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5])),
        honor_dnt=draw(st.booleans()),
        share_profiles=draw(st.booleans()),
    )
    variant = replace(world, config=sim, trackers=trackers)
    config = SessionConfig(
        session_id="p",
        # FR has no geo_demo unit
        geo=draw(st.sampled_from(["ES", "US", "FR"])),
        dnt=draw(st.booleans()),
    )
    browser = variant.begin(config)
    browser.profiles = profiles
    browser.history = history
    return variant, config, browser, url


class TestEligibilityEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_eligible_matches_per_ad_rule_in_inventory_order(self, base_world, data):
        world, config, browser, url = data.draw(_serving_cases(base_world))
        got = world._eligible(browser, url)
        want = reference.eligible(world, config, browser, url)
        assert [ad.ad_id for ad in got] == [ad.ad_id for ad in want]

    @pytest.mark.parametrize("overrides", [
        {},
        {"honor_dnt": True, "share_profiles": True},
        {"profile_decay_halflife": 900.0},
    ], ids=["default", "dnt-shared", "decay"])
    def test_sessions_match_the_reference_harvester(self, taxonomy, overrides):
        world = build_world(SimConfig(n_ads=400, **overrides),
                            default_persona_specs(4), taxonomy, seed=8)
        kinds = set()
        for persona in world.personas:
            for geo, dnt in (("ES", False), ("US", True)):
                config = SessionConfig(session_id=persona.id, visit_budget=150,
                                       seed=4, geo=geo, dnt=dnt)
                got = run_session(persona, world.control_pages, config, world)
                want = run_session(persona, world.control_pages, config,
                                   reference.Harvester(world))
                assert got.raw_served == want.raw_served
                assert [asdict(imp) for imp in got.impressions] \
                    == [asdict(imp) for imp in want.impressions]
                kinds.update(imp.ground_truth for imp in got.impressions)
        # every variant serves targeted ads to some session
        assert {"oba", "retargeting"} <= kinds


class TestDeterminismAndRoundTrip:
    def test_same_seed_same_session(self, make_world):
        w1, w2 = make_world(seed=12), make_world(seed=12)
        r1 = _session(w1, "banking", seed=7)
        r2 = _session(w2, "banking", seed=7)
        assert [(i.landing_page, i.ntimes, i.ground_truth) for i in r1.impressions] \
            == [(i.landing_page, i.ntimes, i.ground_truth) for i in r2.impressions]

    def test_persona_round_trips_through_its_record(self, world):
        for persona in world.personas:
            assert persona.attrition
            assert Persona.from_dict(persona.to_dict()) == persona
            record = json.loads(json.dumps(persona.to_dict()))
            assert Persona.from_dict(record) == persona

    def test_config_round_trips_through_asdict(self):
        config = SimConfig(n_ads=50, tag_noise=TagNoise(dropout=0.1),
                           profile_decay_halflife=600.0, sources=["x", "y"])
        assert from_dict(SimConfig, asdict(config), "sim") == config

    def test_world_round_trip_replays_identically(self, make_world):
        world = make_world(seed=12)
        clone = World.from_dict(json.loads(json.dumps(world.to_dict())))
        assert clone.to_dict() == world.to_dict()
        # a clean profile's browser observes nothing, and its serving draws
        # still run on from visit to visit
        for clean in (False, True):
            r1 = _session(world, "banking", seed=7, clean_profile=clean)
            r2 = _session(clone, "banking", seed=7, clean_profile=clean)
            assert r1.impressions
            assert [(i.landing_page, i.ntimes, i.ground_truth) for i in r1.impressions] \
                == [(i.landing_page, i.ntimes, i.ground_truth) for i in r2.impressions]

    def test_world_holds_only_its_record_after_sessions(self, world):
        for pid in ("banking", "motor-sports"):
            _session(world, pid)
        _session(world, "banking", clean_profile=True)
        assert set(vars(world)) == {f.name for f in fields(World)}

    def test_records_ignore_unknown_keys(self, world):
        record = world.to_dict() | {"note": "kept by another tool"}
        record["personas"] = [p.to_dict() | {"note": 1} for p in world.personas]
        record["ads"] = [asdict(ad) | {"note": [1]} for ad in world.ads]
        assert World.from_dict(record).to_dict() == world.to_dict()

    @pytest.mark.parametrize("key", [f.name for f in fields(World)])
    def test_world_record_without_a_key_is_a_data_error(self, world, key):
        record = world.to_dict()
        del record[key]
        with pytest.raises(CorpusDataError, match=f"world record has no '{key}'"):
            World.from_dict(record)

    @pytest.mark.parametrize("key", [f.name for f in fields(AdUnit)])
    def test_ad_record_without_a_key_is_a_data_error(self, world, key):
        record = world.to_dict()
        del record["ads"][-1][key]
        last = len(record["ads"]) - 1
        with pytest.raises(CorpusDataError,
                           match=rf"^ad record has no '{key}' \(ads\[{last}\]\)$"):
            World.from_dict(record)

    def test_ad_record_not_an_object_is_a_data_error(self, world):
        record = world.to_dict()
        record["ads"][0] = ["oba"]
        with pytest.raises(CorpusDataError, match="ad record is not an object"):
            World.from_dict(record)

    @pytest.mark.parametrize("key", [f.name for f in fields(Persona)])
    def test_persona_record_without_a_key_is_a_data_error(self, world, key):
        record = world.to_dict()
        del record["personas"][-1][key]
        last = len(record["personas"]) - 1
        with pytest.raises(CorpusDataError,
                           match=rf"^persona record has no '{key}' \(personas\[{last}\]\)$"):
            World.from_dict(record)

    @pytest.mark.parametrize("kind", [5, "banner", "OBA", None])
    def test_ad_of_an_unknown_kind_is_a_data_error(self, world, kind):
        record = world.to_dict()
        record["ads"][2]["kind"] = kind
        got = re.escape(f"got {kind!r} (ads[2])")
        with pytest.raises(CorpusDataError, match=rf"^ad record kind must be one of .*, {got}$"):
            World.from_dict(record)
        with pytest.raises(CorpusDataError):
            AdUnit(ad_id="a", kind=kind, landing_url="http://x.example")


_NOISES = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.15), (0.25, 0.4), (1.0, 1.0)]


class TestTagSources:
    @pytest.mark.parametrize("dropout, spurious", _NOISES)
    def test_keywords_match_the_hash_uniform_transcription(self, world, dropout, spurious):
        noise = TagNoise(dropout=dropout, spurious=spurious)
        for src in world.tag_sources(noise):
            for page in world.all_pages():
                assert src.keywords_for(page) == reference.tag_keywords(
                    world, src.name, dropout, spurious, page.url
                ), (src.name, page.url)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("levels", [[0.1, 0.0, 0.1], [0.4, 0.02, 0.2], [0.0], [1.0, 0.05]])
    def test_level_tables_are_tag_pages_at_each_level(self, world, dropout, levels):
        pages = world.all_pages()
        for src in world.tag_sources(TagNoise(dropout=dropout)):
            expected = [
                tag_pages(pages, next(s for s in world.tag_sources(
                    TagNoise(dropout=dropout, spurious=level)) if s.name == src.name))
                for level in levels
            ]
            assert list(src.tag_levels(pages, levels)) == expected

    def test_a_draw_equal_to_the_rate_is_not_below_it(self, world):
        # a keyword is injected when its draw is strictly below the rate,
        # and kept when its drop draw is at or above the dropout
        page = world.control_pages[0]
        name = world.config.sources[0]
        salt = derive_seed(world.seed, "tags", name)
        pool = sorted({c for cats in world.page_categories.values() for c in cats})
        spur = next(k for k in pool if k not in world.page_categories[page.url])
        u = hash_uniform(salt, "spur", page.url, spur)
        true = world.page_categories[page.url][0]
        d = hash_uniform(salt, "drop", page.url, true)

        def tagged(dropout, spurious):
            src = world.tag_sources(TagNoise(dropout=dropout, spurious=spurious))[0]
            return src.keywords_for(page)

        assert spur not in tagged(0.0, u)
        assert spur in tagged(0.0, math.nextafter(u, 1.0))
        assert true in tagged(d, 0.0)
        assert true not in tagged(math.nextafter(d, 1.0), 0.0)
        src = world.tag_sources(TagNoise())[0]
        at, above = src.tag_levels([page], [u, math.nextafter(u, 1.0)])
        assert spur not in at[page.url] and spur in above[page.url]

    def test_a_draw_at_the_cut_is_not_below_it(self, world):
        # draws n that are the smallest integer with their uniform, so that
        # n == cut(n / 2**64): injected only above that uniform, and kept
        # from dropout at it
        at_cut = {}
        for name in world.config.sources:
            salt = derive_seed(world.seed, "tags", name)
            pool = sorted({c for cats in world.page_categories.values() for c in cats})
            for page in world.all_pages():
                for kind, keywords in (("spur", pool),
                                       ("drop", world.page_categories[page.url])):
                    for k in keywords:
                        n = derive_seed(salt, kind, page.url, k)
                        if cut(n / 2.0**64) == n:
                            at_cut.setdefault(kind, (name, page, k, n / 2.0**64))
        assert set(at_cut) == {"spur", "drop"}

        def tagged(name, page, **rates):
            src = next(s for s in world.tag_sources(TagNoise(**rates)) if s.name == name)
            return src.keywords_for(page)

        name, page, k, u = at_cut["spur"]
        assert k not in world.page_categories[page.url]
        assert k not in tagged(name, page, spurious=u)
        assert k in tagged(name, page, spurious=math.nextafter(u, 1.0))
        src = next(s for s in world.tag_sources(TagNoise()) if s.name == name)
        at, above = src.tag_levels([page], [u, math.nextafter(u, 1.0)])
        assert k not in at[page.url] and k in above[page.url]
        name, page, k, u = at_cut["drop"]
        assert k in tagged(name, page, dropout=u)
        assert k not in tagged(name, page, dropout=math.nextafter(u, 1.0))

    def test_level_tables_normalize_as_tag_pages_does(self, world):
        url = world.personas[0].training_pages[0].url
        world.page_categories[url] = ["Online  Banking", "   ", "pools"]
        pages = world.all_pages()
        src = world.tag_sources(TagNoise())[0]
        levels = [0.0, 0.3]
        expected = [tag_pages(pages, s) for s in
                    (world.tag_sources(TagNoise(spurious=level))[0] for level in levels)]
        assert list(src.tag_levels(pages, levels)) == expected
        assert expected[0][url] == {"online banking", "pools"}

    def test_zero_noise_returns_true_categories(self, world):
        src = world.tag_sources(TagNoise())[0]
        page = world.personas[0].training_pages[0]
        assert src.keywords_for(page) == set(world.page_categories[page.url])

    def test_dropout_one_empties_everything(self, world):
        src = world.tag_sources(TagNoise(dropout=1.0))[0]
        page = world.personas[0].training_pages[0]
        assert src.keywords_for(page) == set()

    def test_spurious_one_floods_with_pool(self, world):
        src = world.tag_sources(TagNoise(spurious=1.0))[0]
        page = world.control_pages[0]
        every_category = {c for cats in world.page_categories.values() for c in cats}
        assert every_category <= src.keywords_for(page)

    def test_spurious_sets_nest_as_rate_grows(self, world):
        pages = world.all_pages()[:40]
        rates = [0.0, 0.1, 0.3, 0.6, 1.0]
        for name in world.config.sources:
            previous = None
            for rate in rates:
                src = next(
                    s for s in world.tag_sources(TagNoise(dropout=0.1, spurious=rate))
                    if s.name == name
                )
                current = {p.url: src.keywords_for(p) for p in pages}
                if previous is not None:
                    for url in current:
                        assert previous[url] <= current[url]
                previous = current

    def test_sources_disagree_under_noise(self, world):
        noise = TagNoise(dropout=0.3, spurious=0.3)
        a, b = world.tag_sources(noise)[:2]
        pages = world.all_pages()
        assert any(a.keywords_for(p) != b.keywords_for(p) for p in pages)
