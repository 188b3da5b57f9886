"""Visit scheduling and session execution against a scripted harvester."""

import statistics

import pytest

from obameter import (
    Persona,
    ServedAd,
    SessionConfig,
    WebPage,
    run_session,
)
from obameter.errors import ConfigurationError, CorpusDataError, ObameterError
from obameter.session import schedule_visits


class ScriptedHarvester:
    """Serves from a callback; can be told to blow up mid-session.

    begin() returns a fresh state object per session, and each visit()
    records the state it was handed.
    """

    def __init__(self, serve=None, fail_at=None):
        self.serve = serve or (lambda config, event: [])
        self.fail_at = fail_at
        self.begun = []
        self.handed = []
        self.seen = 0

    def begin(self, config):
        state = {"config": config}
        self.begun.append(state)
        return state

    def visit(self, state, event):
        self.seen += 1
        self.handed.append(state)
        if self.fail_at is not None and self.seen == self.fail_at:
            raise ObameterError("backend went away")
        return self.serve(state["config"], event)


def _persona(n_pages=3):
    pages = [WebPage(url=f"http://train-{i}.example/a") for i in range(n_pages)]
    return Persona(id="p", category="banking", training_pages=pages)


CONTROLS = [WebPage(url=f"http://ctrl-{i}.example/home", role="control")
            for i in range(2)]


class TestSchedule:
    def test_exact_budget_and_monotone_clock(self):
        config = SessionConfig(persona_id="p", visit_budget=500, seed=9)
        events = schedule_visits(_persona().training_pages, config)
        assert len(events) == 500
        times = [e.t for e in events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_kind_follows_page_role(self):
        pool = _persona().training_pages + CONTROLS
        config = SessionConfig(persona_id="p", visit_budget=200, seed=3)
        events = schedule_visits(pool, config)
        kinds = {e.page.url: e.kind for e in events}
        for page in CONTROLS:
            if page.url in kinds:
                assert kinds[page.url] == "control"

    def test_mean_gap_tracks_mean_interval(self):
        config = SessionConfig(persona_id="p", visit_budget=4000,
                               mean_interval=60.0, seed=17)
        events = schedule_visits(_persona().training_pages, config)
        gaps = [b.t - a.t for a, b in zip(events, events[1:])] + [events[0].t]
        assert statistics.fmean(gaps) == pytest.approx(60.0, rel=0.1)

    def test_deterministic_in_seed(self):
        pool = _persona().training_pages
        one = schedule_visits(pool, SessionConfig(persona_id="p", seed=5))
        two = schedule_visits(pool, SessionConfig(persona_id="p", seed=5))
        other = schedule_visits(pool, SessionConfig(persona_id="p", seed=6))
        assert one == two
        assert one != other

    def test_empty_pool(self):
        with pytest.raises(ConfigurationError, match="empty page pool"):
            schedule_visits([], SessionConfig(persona_id="p"))

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(persona_id="p", visit_budget=0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_mean_interval_positive_and_finite(self, interval):
        with pytest.raises(ConfigurationError, match="mean_interval"):
            SessionConfig(persona_id="p", mean_interval=interval)


class TestRunSession:
    def test_impressions_only_from_control_visits(self):
        # harvester offers an ad on every visit; only control ones count
        harvester = ScriptedHarvester(
            serve=lambda c, e: [ServedAd("http://ad.example/item", "static")]
        )
        config = SessionConfig(persona_id="p", visit_budget=300, seed=2)
        result = run_session(_persona(), CONTROLS, config, harvester)
        controls = {p.url for p in CONTROLS}
        assert result.impressions
        assert all(imp.control_page in controls for imp in result.impressions)
        assert sum(result.visit_mix.values()) == 300

    def test_repeats_merge_and_conserve_counts(self):
        harvester = ScriptedHarvester(
            serve=lambda c, e: [ServedAd("http://ad.example/item", "static")]
        )
        config = SessionConfig(persona_id="p", visit_budget=300, seed=2)
        result = run_session(_persona(), CONTROLS, config, harvester)
        # one merged impression per control page that was visited
        assert len(result.impressions) == len(
            {imp.control_page for imp in result.impressions}
        )
        assert sum(imp.ntimes for imp in result.impressions) == result.raw_served
        assert result.raw_served == result.visit_mix["control"]

    def test_conflicting_ground_truth_rejected(self):
        labels = iter(["oba", "static"] * 500)

        def serve(config, event):
            return [ServedAd("http://ad.example/item", next(labels))]

        harvester = ScriptedHarvester(serve=serve)
        config = SessionConfig(persona_id="p", visit_budget=200, seed=2)
        with pytest.raises(CorpusDataError, match="conflicting ground truth"):
            run_session(_persona(), [CONTROLS[0]], config, harvester)

    @pytest.mark.parametrize("clean", [False, True])
    def test_every_visit_gets_the_state_begin_returned(self, clean):
        harvester = ScriptedHarvester()
        for seed in (4, 5):
            config = SessionConfig(persona_id="p", session_id=f"s{seed}",
                                   visit_budget=120, seed=seed, clean_profile=clean)
            run_session(_persona(), CONTROLS, config, harvester)
        first, second = harvester.begun
        assert first["config"].session_id == "s4"
        assert second["config"].session_id == "s5"
        assert all(state is first for state in harvester.handed[:120])
        assert all(state is second for state in harvester.handed[120:])
        assert len(harvester.handed) == 240

    def test_failure_propagates(self):
        harvester = ScriptedHarvester(
            serve=lambda c, e: [ServedAd("http://ad.example/item", "static")],
            fail_at=50,
        )
        config = SessionConfig(persona_id="p", visit_budget=300, seed=2)
        with pytest.raises(ObameterError, match="backend went away"):
            run_session(_persona(), CONTROLS, config, harvester)
        assert harvester.seen == 50

    def test_session_id_defaults_to_persona(self):
        config = SessionConfig(persona_id="p7")
        assert config.session_id == "p7"
