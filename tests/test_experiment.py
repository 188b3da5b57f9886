"""Manifest handling and the simulate/analyze/validate round trip."""

import collections
import dataclasses
import hashlib
import json
import math
import random
import shutil
import tracemalloc
import types
import typing
from urllib.parse import urlsplit, urlunsplit

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from test_golden import GOLDEN_MANIFEST, GOLDEN_SHA256, _run

from obameter import (
    ConsensusConfig,
    ExperimentManifest,
    ExperimentStore,
    FilterConfig,
    KeywordTaxonomy,
    Persona,
    WebPage,
    World,
    analyze,
    build_world,
    filter_attrition,
    load_manifest,
    normalize_keyword,
    normalize_url,
    simulate,
    validate,
)
from obameter import corpus, experiment
from obameter import taxonomy as taxonomy_module
from obameter.adsim import TagNoise, default_persona_specs
from obameter.cli import main
from obameter.corpus import tag_pages
from obameter.errors import ConfigurationError, CorpusDataError, ObameterError
from obameter.experiment import (
    CLEAN_ID,
    Condition,
    SessionRow,
    resolve_taxonomy,
    session_label,
)

TINY = {
    "experiment_id": "tiny",
    "seed": 11,
    "n_personas": 3,
    "repetitions": 2,
    "session": {"visit_budget": 40},
    "conditions": [{"geo": "ES"}, {"geo": "US", "dnt": True}],
}


def _copy_corpus(root, dest, skip=()):
    """Copy a corpus directory without the files named in skip."""
    shutil.copytree(root, dest, ignore=lambda _, names: [n for n in names if n in skip])
    return dest


def _mark_incomplete(root, dest, session_ids):
    """Copy a corpus, marking the given sessions complete: false."""
    store = ExperimentStore(_copy_corpus(root, dest))
    doc = store.load_doc("sessions.json")
    for row in doc["sessions"]:
        if row["session"] in session_ids:
            row["complete"] = False
    store.write_doc("sessions.json", doc)
    return dest


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny-corpus")
    manifest = ExperimentManifest.from_dict(TINY)
    summary = simulate(manifest, root)
    return root, summary


class TestManifest:
    def test_round_trips_through_dict(self):
        manifest = ExperimentManifest.from_dict(TINY)
        doc = manifest.to_dict()
        assert ExperimentManifest.from_dict(doc).to_dict() == doc
        assert doc["session"]["visit_budget"] == 40
        assert doc["filters"] == {"enabled": "rscdg", "t_prime": 2.5}

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown manifest keys"):
            ExperimentManifest.from_dict({"experiment_id": "x", "buget": 3})

    def test_unknown_session_key(self):
        with pytest.raises(ConfigurationError, match="unknown session keys"):
            ExperimentManifest.from_dict({"session": {"budget": 3}})

    def test_unknown_sim_key(self):
        with pytest.raises(ConfigurationError, match="unknown sim keys"):
            ExperimentManifest.from_dict({"sim": {"ad_count": 10}})

    def test_unknown_consensus_key(self):
        with pytest.raises(ConfigurationError, match="unknown consensus keys"):
            ExperimentManifest.from_dict({"consensus": {"min_sources": 2}})

    def test_unknown_filters_key(self):
        with pytest.raises(ConfigurationError, match="unknown filters keys"):
            ExperimentManifest.from_dict({"filters": {"stages": "r"}})

    @pytest.mark.parametrize("section", [
        {"sim": {"tag_noise": {"spurios": 0.1}}},
        {"personas": [{"id": "one", "category": "banking", "age": 30}]},
        {"conditions": [{"geo": "ES", "lang": "es"}]},
    ])
    def test_unknown_nested_keys(self, section):
        with pytest.raises(ConfigurationError, match="unknown .* keys"):
            ExperimentManifest.from_dict(section)

    def test_session_keys_only_under_session(self):
        with pytest.raises(ConfigurationError, match="unknown manifest keys"):
            ExperimentManifest.from_dict({"visit_budget": 40})

    def test_too_few_sources_for_consensus(self):
        two = {"sim": {"sources": ["x", "y"]}}
        with pytest.raises(ConfigurationError, match="needs at least 3 tag sources"):
            ExperimentManifest.from_dict(two)
        manifest = ExperimentManifest.from_dict({**two, "consensus": {"n": 1}})
        with pytest.raises(ConfigurationError, match="tag sources"):
            dataclasses.replace(manifest, consensus=ConsensusConfig(n=2))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentManifest.from_dict({"seed": seed})
        with pytest.raises(ConfigurationError, match="seed"):
            dataclasses.replace(ExperimentManifest(), seed=seed)

    @pytest.mark.parametrize("section", [
        {"session": {"mean_interval": float("nan")}},
        {"session": {"mean_interval": float("inf")}},
        {"session": {"visit_budget": float("nan")}},
        {"repetitions": float("nan")},
        {"n_personas": float("nan")},
        {"filters": {"t_prime": float("nan")}},
        {"consensus": {"n": float("nan")}},
        {"sim": {"activation_threshold": float("nan")}},
        {"sim": {"mix": {"oba": float("nan"), "static": 1.0}}},
    ], ids=["mean_interval-nan", "mean_interval-inf", "visit_budget", "repetitions",
            "n_personas", "t_prime", "consensus-n", "activation_threshold", "mix"])
    def test_non_finite_number_rejected(self, section):
        # no manifest file can hold NaN or Infinity, but a library caller can
        doc = json.loads(json.dumps(section))
        with pytest.raises(ConfigurationError):
            ExperimentManifest.from_dict(doc)

    def test_values_are_checked_not_converted(self):
        # an int is a float, and null is a float | None
        doc = {"session": {"mean_interval": 90}, "sim": {"profile_decay_halflife": None}}
        written = ExperimentManifest.from_dict(doc).to_dict()
        assert type(written["session"]["mean_interval"]) is int
        assert written["sim"]["profile_decay_halflife"] is None

    def test_more_default_personas_than_exist_is_refused_at_load(self):
        # the count simulate would refuse is refused when the manifest is built
        with pytest.raises(ConfigurationError, match="only 10 default persona categories"):
            ExperimentManifest.from_dict({"n_personas": 99})
        with pytest.raises(ConfigurationError, match="asked for 11"):
            dataclasses.replace(ExperimentManifest(), n_personas=11)
        assert ExperimentManifest.from_dict({"n_personas": 10}).n_personas == 10
        roster = {"personas": [{"id": "one", "category": "banking"}], "n_personas": 99}
        assert len(ExperimentManifest.from_dict(roster).persona_specs()) == 1

    def test_largest_seed_accepted(self):
        assert ExperimentManifest.from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1

    def test_reserved_persona_id(self):
        doc = {"personas": [{"id": CLEAN_ID, "category": "banking"}]}
        with pytest.raises(ConfigurationError, match="reserved"):
            ExperimentManifest.from_dict(doc)

    def test_duplicate_condition_ids(self):
        doc = {"conditions": [{"geo": "ES"}, {"geo": "ES"}]}
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExperimentManifest.from_dict(doc)

    def test_explicit_personas_win_over_count(self):
        doc = {
            "n_personas": 7,
            "personas": [{"id": "one", "category": "banking"}],
        }
        manifest = ExperimentManifest.from_dict(doc)
        specs = manifest.persona_specs()
        assert [s.id for s in specs] == ["one"]

    def test_load_manifest_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TINY), encoding="utf-8")
        assert load_manifest(path).experiment_id == "tiny"

    def test_load_manifest_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="cannot read manifest"):
            load_manifest(path)

    def test_demo_taxonomy_resolves(self):
        assert "swimming pools & spas" in resolve_taxonomy("demo")


class TestSimulate:
    def test_summary_counts(self, corpus_dir):
        _, summary = corpus_dir
        # 3 personas x 2 reps x 2 conditions, plus one clean run per condition
        assert summary["sessions"] == 3 * 2 * 2 + 2
        assert summary["personas"] == 3
        assert summary["conditions"] == ["ES", "US+dnt"]
        assert summary["impressions"] > 0

    def test_corpus_files_exist(self, corpus_dir):
        root, _ = corpus_dir
        for name in ("manifest.json", "world.json", "personas.json",
                     "sessions.json", "pages.jsonl", "visits.jsonl",
                     "impressions.jsonl"):
            assert (root / name).exists()
        assert ExperimentStore(root).tag_sources() == ["sim-a", "sim-b", "sim-c"]

    def test_session_rows_well_formed(self, corpus_dir):
        root, summary = corpus_dir
        rows = ExperimentStore(root).load_doc("sessions.json")["sessions"]
        assert len(rows) == summary["sessions"]
        required = {"session", "persona", "condition", "geo", "dnt", "rep",
                    "clean", "complete", "visit_mix", "raw_served",
                    "n_impressions"}
        for row in rows:
            assert required <= set(row)
            assert row["session"] == session_label(
                row["persona"], row["condition"], row["rep"]
            )
            assert row["complete"] is True
        clean_rows = [r for r in rows if r["clean"]]
        assert [(r["persona"], r["condition"], r["rep"]) for r in clean_rows] \
            == [(CLEAN_ID, "ES", 0), (CLEAN_ID, "US+dnt", 0)]
        assert sum(r["n_impressions"] for r in rows) == summary["impressions"]

    def test_clean_sessions_visit_only_control_pages(self, corpus_dir):
        root, _ = corpus_dir
        clean_sids = {session_label(CLEAN_ID, c, 0) for c in ("ES", "US+dnt")}
        visits = [v for v in ExperimentStore(root).load_visits()
                  if v.session in clean_sids]
        assert visits
        assert all(v.kind == "control" for v in visits)

    def test_rerun_does_not_duplicate_event_logs(self, corpus_dir):
        root, summary = corpus_dir
        before = (root / "visits.jsonl").read_text(encoding="utf-8")
        again = simulate(ExperimentManifest.from_dict(TINY), root)
        assert again == summary
        assert (root / "visits.jsonl").read_text(encoding="utf-8") == before

    def test_rerun_clears_outputs_of_the_earlier_run(self, tmp_path):
        small = {**TINY, "n_personas": 2, "repetitions": 1,
                 "conditions": [{"geo": "ES"}], "session": {"visit_budget": 25}}
        simulate(ExperimentManifest.from_dict(small), tmp_path)
        analyze(tmp_path)
        validate(tmp_path, spurious_levels=[0.0])
        (tmp_path / "notes.txt").write_text("mine", encoding="utf-8")
        # what a process killed between writing and replacing leaves
        stale = (".report.json.tmp", ".sessions.json.tmp", ".tags.sim-a.jsonl.tmp")
        for name in stale:
            (tmp_path / name).write_text("torn", encoding="utf-8")

        rerun = {**small, "sim": {"sources": ["x", "y"]}, "consensus": {"n": 1}}
        simulate(ExperimentManifest.from_dict(rerun), tmp_path)
        for name in ("report.json", "report.csv", "performance.json", *stale):
            assert not (tmp_path / name).exists()
        assert (tmp_path / "notes.txt").read_text(encoding="utf-8") == "mine"
        assert analyze(tmp_path)["sources"] == ["x", "y"]


class TestHarvesterFailure:
    def test_failed_run_leaves_no_manifest_or_sessions(self, tmp_path, fail_on_visit):
        fail_on_visit(100)  # inside the third of 14 sessions
        with pytest.raises(ObameterError, match="harvester failed"):
            simulate(ExperimentManifest.from_dict(GOLDEN_MANIFEST), tmp_path)
        assert not (tmp_path / "visits.jsonl").exists()
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "sessions.json").exists()
        with pytest.raises(CorpusDataError, match="missing manifest.json"):
            analyze(tmp_path)

    def test_failed_rerun_leaves_a_finished_corpus_alone(self, tmp_path, fail_on_visit):
        assert _run(tmp_path, GOLDEN_MANIFEST) == GOLDEN_SHA256
        (tmp_path / "notes.txt").write_text("mine", encoding="utf-8")
        fail_on_visit(100)
        with pytest.raises(ObameterError, match="harvester failed"):
            simulate(ExperimentManifest.from_dict(GOLDEN_MANIFEST), tmp_path)
        after = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir()) if p.name != "notes.txt"
        }
        assert after == GOLDEN_SHA256
        assert (tmp_path / "notes.txt").read_text(encoding="utf-8") == "mine"

    def test_rerun_after_failure_reproduces_the_golden_run(
        self, tmp_path, monkeypatch, fail_on_visit
    ):
        fail_on_visit(100)
        with pytest.raises(ObameterError, match="harvester failed"):
            simulate(ExperimentManifest.from_dict(GOLDEN_MANIFEST), tmp_path)
        monkeypatch.undo()
        assert _run(tmp_path, GOLDEN_MANIFEST) == GOLDEN_SHA256


class TestSessionIndependence:
    def test_shuffled_sessions_on_one_world_and_on_a_copy_match_the_in_order_run(self):
        # what lets a session's rows be written as it ends: no serving state
        # outlives a session, and running sessions changes nothing in the world
        manifest = ExperimentManifest.from_dict(TINY)
        world = build_world(manifest.sim, manifest.persona_specs(),
                            resolve_taxonomy(manifest.taxonomy), seed=manifest.seed)
        clean = Persona(id=CLEAN_ID, category="weather")
        plan = [(persona, cond, rep, False) for cond in manifest.conditions
                for rep in range(manifest.repetitions) for persona in world.personas]
        plan += [(clean, cond, 0, True) for cond in manifest.conditions]
        record = world.to_dict()

        def run(on, order):
            got = {}
            for i in order:
                persona, cond, rep, clean_run = plan[i]
                got[i] = experiment._run_one(on, persona, cond, rep, manifest, clean_run)
            return got

        in_order = run(world, range(len(plan)))
        shuffled = list(range(len(plan)))
        random.Random(7).shuffle(shuffled)
        copy = World.from_dict(world.to_dict())
        for got in (run(world, shuffled), run(copy, shuffled[::-1])):
            assert [(got[i][0], got[i][1].impressions) for i in range(len(plan))] \
                == [(in_order[i][0], in_order[i][1].impressions) for i in range(len(plan))]
        assert any(result.impressions for _, result in in_order.values())
        assert world.to_dict() == record
        assert copy.to_dict() == record


class TestIncompleteSessions:
    """sessions.json rows marked complete: false, as another harvester may write."""

    def test_incomplete_session_is_not_analysed(self, corpus_dir, tmp_path):
        root, _ = corpus_dir
        full = analyze(root)
        row = next(r for r in full["attrition"] if r["condition"] == "US+dnt")
        sid = row["session"]
        persona, cond_id, rep = sid.split("|")
        cell_key = (persona, cond_id, int(rep[1:]))

        def cell_keys(report):
            return {(c["persona"], c["condition"], c["rep"]) for c in report["cells"]}

        assert cell_key in cell_keys(full)
        report = analyze(_mark_incomplete(root, tmp_path / "c", {sid}))
        assert cell_key not in cell_keys(report)
        assert [r["session"] for r in report["attrition"]] == [
            r["session"] for r in full["attrition"] if r["session"] != sid
        ]

    def test_incomplete_clean_session_is_a_missing_clean_profile(
        self, corpus_dir, tmp_path, capsys
    ):
        root, _ = corpus_dir
        clone = _mark_incomplete(
            root, tmp_path / "c", {session_label(CLEAN_ID, "ES", 0)}
        )
        with pytest.raises(CorpusDataError, match="needs a clean-profile impression corpus"):
            analyze(clone)
        assert main(["analyze", str(clone)]) == 3
        assert "corpus error" in capsys.readouterr().err


class TestRecordOrder:
    """Metamorphic: reordering corpus records changes nothing analyze reports
    except the order of its per-session rows."""

    @pytest.fixture(scope="class")
    def four_personas(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("four-personas")
        simulate(ExperimentManifest.from_dict(dict(TINY, n_personas=4)), root)
        analyze(root)
        return root

    @staticmethod
    def _shuffled(items, rng):
        out = rng.sample(items, len(items))
        assert out != items
        return out

    def test_record_order_leaves_the_report_unchanged(self, four_personas, tmp_path):
        rng = random.Random(7)
        store = ExperimentStore(_copy_corpus(four_personas, tmp_path / "c"))
        for name in ("impressions.jsonl", "visits.jsonl", "tags.sim-b.jsonl"):
            lines = store.path(name).read_text(encoding="utf-8").splitlines(True)
            store.path(name).write_text("".join(self._shuffled(lines, rng)), "utf-8")
        doc = store.load_doc("personas.json")
        doc["personas"] = self._shuffled(doc["personas"], rng)
        store.write_doc("personas.json", doc)
        analyze(store.root)
        assert (store.path("report.json").read_bytes()
                == (four_personas / "report.json").read_bytes())

    def test_session_order_changes_only_row_order(self, four_personas, tmp_path):
        store = ExperimentStore(_copy_corpus(four_personas, tmp_path / "c"))
        doc = store.load_doc("sessions.json")
        doc["sessions"] = self._shuffled(doc["sessions"], random.Random(7))
        store.write_doc("sessions.json", doc)
        analyze(store.root)
        base = json.loads((four_personas / "report.json").read_text(encoding="utf-8"))
        report = store.load_doc("report.json")
        for key in ("cells", "attrition"):
            assert report[key] != base[key]
            rows, base_rows = (
                sorted(json.dumps(row, sort_keys=True) for row in side.pop(key))
                for side in (report, base)
            )
            assert rows == base_rows
        assert report == base


def _non_canonical(url):
    """An equivalent URL that is not canonical: upper-case scheme and host,
    the explicit default port and a trailing slash."""
    parts = urlsplit(url)
    port = {"http": 80, "https": 443}[parts.scheme]
    return urlunsplit((parts.scheme.upper(), f"{parts.hostname.upper()}:{port}",
                       parts.path + "/", parts.query, parts.fragment))


class TestUrlKeys:
    """Readers canonicalise every URL they load, tag tables included, and one
    analyze parses each distinct one once."""

    @pytest.fixture(scope="class")
    def analysed(self, corpus_dir, tmp_path_factory):
        root = _copy_corpus(corpus_dir[0], tmp_path_factory.mktemp("keys") / "c",
                            skip=("report.json", "report.csv", "performance.json"))
        analyze(root)
        validate(root, spurious_levels=[0.0, 0.1])
        return root

    def test_non_canonical_urls_give_the_same_outputs(self, analysed, tmp_path):
        store = ExperimentStore(_copy_corpus(
            analysed, tmp_path / "c",
            skip=("report.json", "report.csv", "performance.json"),
        ))
        tag_files = [(f"tags.{src}.jsonl", ("url",)) for src in store.tag_sources()]
        assert tag_files
        for name, fields in (("impressions.jsonl", ("control", "landing")),
                             ("visits.jsonl", ("url",)), *tag_files):
            recs = [json.loads(line) for line in
                    store.path(name).read_text(encoding="utf-8").splitlines()]
            for rec in recs:
                for f in fields:
                    rec[f] = _non_canonical(rec[f])
                    assert rec[f] != normalize_url(rec[f])
            store.path(name).write_text(
                "".join(json.dumps(rec) + "\n" for rec in recs), encoding="utf-8"
            )
        analyze(store.root)
        validate(store.root, spurious_levels=[0.0, 0.1])
        for name in ("report.json", "report.csv", "performance.json"):
            assert store.path(name).read_bytes() == (analysed / name).read_bytes()

    def test_analyze_keys_each_distinct_url_once(self, analysed):
        def distinct(name, *fields):
            lines = (analysed / name).read_text(encoding="utf-8").splitlines()
            return {json.loads(line)[f] for line in lines for f in fields}

        store = ExperimentStore(analysed)
        read = (distinct("impressions.jsonl", "control", "landing")
                | distinct("visits.jsonl", "url"))
        for src in store.tag_sources():
            read |= distinct(f"tags.{src}.jsonl", "url")
        read |= {url for rec in store.load_doc("personas.json")["personas"]
                 for url in rec["training_pages"]}

        # every reader, page and impression parses through the one cache
        corpus._parse.cache_clear()
        analyze(analysed)
        assert corpus._parse.cache_info().misses == len(read)


def _respelt_keyword(keyword):
    """An equivalent keyword that is not canonical: upper case, `_` for
    each space, padded with spaces."""
    return f"  {keyword.upper().replace(' ', '_')} "


class TestKeywordForm:
    """Metamorphic: tag files that spell every keyword another way, and
    carry empty ones, give the same report; load_tags canonicalises them,
    and one analyze normalizes each spelling once."""

    def test_one_cold_analyze_normalizes_each_spelling_once(self, corpus_dir, tmp_path,
                                                             monkeypatch):
        root = _copy_corpus(corpus_dir[0], tmp_path / "c")
        store = ExperimentStore(root)
        tagged = {kw for src in store.tag_sources()
                  for line in store.path(f"tags.{src}.jsonl").read_text("utf-8").splitlines()
                  for kw in json.loads(line)["keywords"]}
        spellings = collections.Counter()
        cached = taxonomy_module._normalize

        def counted(text):
            spellings[text] += 1
            return cached(text)
        monkeypatch.setattr(taxonomy_module, "_normalize", counted)
        # as a fresh process starts, so no earlier command's entries count
        cached.cache_clear()
        corpus._parse.cache_clear()
        analyze(root)
        info = cached.cache_info()
        assert tagged and tagged <= set(spellings)
        assert info.misses == len(spellings) < info.hits
        assert info.hits + info.misses == spellings.total()

    def test_respelt_tag_keywords_give_the_same_report(self, corpus_dir, tmp_path):
        outputs = ("report.json", "report.csv", "performance.json")
        base = _copy_corpus(corpus_dir[0], tmp_path / "base", skip=outputs)
        analyze(base)
        store = ExperimentStore(_copy_corpus(base, tmp_path / "c", skip=outputs))
        respelt = 0
        for src in store.tag_sources():
            path = store.tags_path(src)
            recs = [json.loads(line)
                    for line in path.read_text(encoding="utf-8").splitlines()]
            for rec in recs:
                keywords = [_respelt_keyword(k) for k in rec["keywords"]]
                assert all(k != normalize_keyword(k) for k in keywords)
                respelt += len(keywords)
                rec["keywords"] = keywords + ["", "  "]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in recs),
                            encoding="utf-8")
        assert respelt
        analyze(store.root)
        for name in ("report.json", "report.csv"):
            assert store.path(name).read_bytes() == (base / name).read_bytes()


class TestStoredRecords:
    """One declaration per stored record: every record simulate writes holds
    exactly the stored keys of its class, and the readers give back records
    that write the same lines."""

    def test_writers_and_readers_agree_on_every_record(self, tmp_path):
        simulate(ExperimentManifest.from_dict(GOLDEN_MANIFEST), tmp_path)
        store = ExperimentStore(tmp_path)
        rows = store.load_doc("sessions.json")["sessions"]
        read = {
            "pages.jsonl": (corpus.WebPage, store.load_pages()),
            "impressions.jsonl": (corpus.AdImpression, store.load_impressions()),
            "visits.jsonl": (corpus.VisitRecord, store.load_visits()),
            "sessions.json": (SessionRow, [SessionRow(*corpus._record_fields(SessionRow, r))
                                           for r in rows]),
        }
        for src in store.tag_sources():
            tags = [corpus.TagRecord(url, src, sorted(kws))
                    for url, kws in store.load_tags(src).items()]
            read[f"tags.{src}.jsonl"] = (corpus.TagRecord, tags)
        assert set(read) == {p.name for p in tmp_path.glob("*.jsonl")} | {"sessions.json"}
        for name, (cls, records) in read.items():
            stored = rows if name == "sessions.json" else [
                json.loads(line)
                for line in store.path(name).read_text(encoding="utf-8").split("\n") if line
            ]
            keys = set(corpus._stored_fields(cls)[0])
            assert stored and all(set(rec) == keys for rec in stored), name
            assert [corpus._to_record(r) for r in records] == stored, name
        # the documents: every nested record too, and each reads back into
        # objects that write the same document
        documents = {
            "manifest.json": (ExperimentManifest, store.load_doc("manifest.json")),
            "world.json": (World, store.load_doc("world.json")),
            **{f"personas.json: personas[{i}]": (Persona, rec) for i, rec
               in enumerate(store.load_doc("personas.json")["personas"])},
        }
        for name, (cls, doc) in documents.items():
            _assert_declared_keys(cls, doc, name)
            assert cls.from_dict(doc).to_dict() == doc, name
        personas = store.load_records("personas.json", Persona)
        assert {"personas": [p.to_dict() for p in personas]} == store.load_doc("personas.json")

    def test_a_written_record_shares_no_list_or_dict_with_its_object(self):
        manifest = ExperimentManifest.from_dict({
            **GOLDEN_MANIFEST, "personas": [{"id": "one", "category": "banking"},
                                            {"id": "two", "category": "movies"}],
        })
        world = build_world(manifest.sim, manifest.persona_specs(),
                            resolve_taxonomy(manifest.taxonomy), seed=manifest.seed)
        for obj in (manifest, world, world.personas[0]):
            before = json.dumps(obj.to_dict(), sort_keys=True)
            _mutate_every_container(obj.to_dict())
            assert json.dumps(obj.to_dict(), sort_keys=True) == before, type(obj).__name__
        _assert_declared_keys(ExperimentManifest, manifest.to_dict(), "manifest")


def _assert_declared_keys(cls, record, at):
    """The keys of stored `record` are the stored keys dataclass `cls`
    declares, and so are those of every record nested in it; a nested page
    is its URL."""
    if cls is corpus.WebPage:
        assert isinstance(record, str), at
        return
    init = [f for f in dataclasses.fields(cls) if f.init]
    hints = typing.get_type_hints(cls)
    assert set(record) == {f.metadata.get("key", f.name) for f in init}, at
    for f in init:
        key, hint = f.metadata.get("key", f.name), hints[f.name]
        if dataclasses.is_dataclass(hint):
            _assert_declared_keys(hint, record[key], f"{at}.{key}")
        elif typing.get_origin(hint) is list and dataclasses.is_dataclass(typing.get_args(hint)[0]):
            for i, item in enumerate(record[key]):
                _assert_declared_keys(typing.get_args(hint)[0], item, f"{at}.{key}[{i}]")


def _mutate_every_container(value):
    """Add an entry to every list and dict inside `value`, at every depth."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _mutate_every_container(item)
        value["__added__"] = ["__added__"]
    elif isinstance(value, list):
        for item in list(value):
            _mutate_every_container(item)
        value.append({"__added__": 1})


class TestLineBreaks:
    """Only "\\n" ends a stored line: U+2028, U+2029 and U+0085, which the
    writers leave raw inside JSON strings, are read back as written."""

    def test_persona_id_with_unicode_line_breaks_round_trips(self, tmp_path):
        pid = "motor\u2028sports\u2029\x85x"
        small = {**TINY, "n_personas": 2, "repetitions": 1, "conditions": [{"geo": "ES"}],
                 "personas": [{"id": pid, "category": "motor sports"},
                              {"id": "banking", "category": "banking"}]}
        simulate(ExperimentManifest.from_dict(small), tmp_path)
        for name in ("impressions.jsonl", "visits.jsonl"):
            assert pid in (tmp_path / name).read_text(encoding="utf-8")
        report = analyze(tmp_path)
        assert pid in report["personas"]
        assert any(cell["persona"] == pid for cell in report["cells"])

    def test_url_path_with_a_next_line_gives_the_same_outputs(self, corpus_dir, tmp_path):
        outputs = ("report.json", "report.csv", "performance.json")
        base = _copy_corpus(corpus_dir[0], tmp_path / "base", skip=outputs)
        analyze(base)
        validate(base, spurious_levels=[0.0, 0.1])
        root = _copy_corpus(base, tmp_path / "c", skip=outputs)
        for path in root.iterdir():
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(".example/forecast", ".example/fore\x85cast"),
                            encoding="utf-8")
        assert "\x85" in (root / "visits.jsonl").read_text(encoding="utf-8")
        analyze(root)
        validate(root, spurious_levels=[0.0, 0.1])
        for name in outputs:
            assert (root / name).read_bytes() == (base / name).read_bytes()


class TestAnalyze:
    def test_report_shape(self, corpus_dir):
        root, _ = corpus_dir
        report = analyze(root)
        assert report["experiment_id"] == "tiny"
        assert report["conditions"] == ["ES", "US+dnt"]
        assert report["sources"] == ["sim-a", "sim-b", "sim-c"]
        assert len(report["personas"]) == 3
        # cells: per condition, session, cumulative filter set, source
        assert len(report["cells"]) == 2 * (3 * 2) * 3 * 3
        assert len(report["summary"]) == 2 * 3 * 3 * 3
        assert len(report["attrition"]) == 2 * 3 * 2
        for entry in report["attrition"]:
            assert set(entry["attrition"]) == {
                "input", "after_retargeting", "after_static_contextual",
                "after_demo_geo",
            }
        assert len(report["comparisons"]) == 1
        comp = report["comparisons"][0]
        assert (comp["a"], comp["b"]) == ("ES", "US+dnt")
        assert "diff" in comp and comp["diff"]["n"] == 3
        assert report["correlation"] is None

    def test_report_files_written(self, corpus_dir):
        root, _ = corpus_dir
        analyze(root)
        report = json.loads((root / "report.json").read_text(encoding="utf-8"))
        csv_lines = (root / "report.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("condition,persona,source,filters")
        assert len(csv_lines) == 1 + len(report["summary"])

    def test_filters_override_restricts_stages(self, corpus_dir):
        root, _ = corpus_dir
        report = analyze(root, filters=FilterConfig(filters="r"))
        assert {c["filters"] for c in report["cells"]} == {"r"}
        for entry in report["attrition"]:
            assert "after_demo_geo" not in entry["attrition"]
        # restore the full-pipeline report for neighbouring tests
        analyze(root)

    def test_attrition_helper_matches_report(self, corpus_dir):
        root, _ = corpus_dir
        report = analyze(root)
        assert filter_attrition(root) == report["attrition"]

    def test_price_correlation_entries(self, corpus_dir, tmp_path):
        root, _ = corpus_dir
        report = analyze(root)
        prices = {pid: 1.0 + i for i, pid in enumerate(report["personas"])}
        cpc = tmp_path / "cpc.json"
        cpc.write_text(json.dumps(prices), encoding="utf-8")
        report = analyze(root, cpc_path=cpc)
        assert len(report["correlation"]) == 2
        for entry in report["correlation"]:
            assert "correlation" in entry or "error" in entry

    def test_price_file_missing_persona(self, corpus_dir, tmp_path):
        root, _ = corpus_dir
        cpc = tmp_path / "cpc.json"
        cpc.write_text(json.dumps({"nobody": 1.0}), encoding="utf-8")
        report = analyze(root, cpc_path=cpc)
        assert all("error" in entry for entry in report["correlation"])

    @pytest.mark.parametrize("price, match", [
        (True, "persona 'p'"),
        # the reader refuses the non-standard tokens json writes for these
        (float("nan"), "NaN is not a JSON value"),
        (float("inf"), "Infinity is not a JSON value"),
        (10**400, "persona 'p'"),
    ], ids=["bool", "nan", "inf", "huge-int"])
    def test_bad_price_rejected_before_the_corpus_is_read(self, tmp_path, price, match):
        cpc = tmp_path / "cpc.json"
        cpc.write_text(json.dumps({"p": price}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=match):
            analyze(tmp_path / "empty", cpc_path=cpc)

    def test_failed_csv_write_keeps_the_old_report_csv(
        self, corpus_dir, tmp_path, torn_writes
    ):
        root = _copy_corpus(corpus_dir[0], tmp_path / "c")
        analyze(root)
        before = (root / "report.csv").read_bytes()
        names = sorted(p.name for p in root.iterdir())
        torn_writes("report.csv")
        with pytest.raises(OSError, match="no space"):
            analyze(root, filters=FilterConfig(filters="r"))
        assert (root / "report.csv").read_bytes() == before
        assert sorted(p.name for p in root.iterdir()) == names

    def test_analyze_missing_corpus(self, tmp_path):
        with pytest.raises(CorpusDataError, match="missing manifest.json"):
            analyze(tmp_path / "empty")


class TestGivenSections:
    """A config object replaces its stored section whole; a mapping replaces
    only the fields it names."""

    @pytest.fixture
    def stored_rsc(self, corpus_dir, tmp_path):
        store = ExperimentStore(_copy_corpus(corpus_dir[0], tmp_path / "c"))
        doc = store.load_doc("manifest.json")
        doc["filters"] = {"enabled": "rsc", "t_prime": 2.0}
        doc["consensus"] = {"n": 1, "threshold": 2.0}
        store.write_doc("manifest.json", doc)
        return store.root

    def test_mapping_keeps_the_stored_fields_it_does_not_name(self, stored_rsc):
        report = analyze(stored_rsc, filters={"t_prime": 3.0})
        assert report["filters"] == {"enabled": "rsc", "t_prime": 3.0}
        assert report["consensus"] == {"n": 1, "threshold": 2.0}
        report = analyze(stored_rsc, consensus={"threshold": 1.5})
        assert report["consensus"] == {"n": 1, "threshold": 1.5}
        assert report["filters"] == {"enabled": "rsc", "t_prime": 2.0}
        rows = filter_attrition(stored_rsc, filters={"enabled": "r"})
        assert {stage for row in rows for stage in row["attrition"]} == {
            "input", "after_retargeting",
        }

    def test_mapping_keys_are_the_manifest_keys(self, stored_rsc):
        with pytest.raises(ConfigurationError, match=r"unknown filters keys: \['filters'\]"):
            filter_attrition(stored_rsc, filters={"filters": "r"})

    def test_config_object_replaces_the_whole_section(self, stored_rsc):
        report = analyze(stored_rsc, filters=FilterConfig(t_prime=3.0))
        assert report["filters"] == {"enabled": "rscdg", "t_prime": 3.0}

    @pytest.mark.parametrize("given, error", [
        ({"filters": {"bogus": 1}}, "unknown filters keys"),
        ({"consensus": {"n": 1.5}}, "bad consensus section: n "),
        ({"consensus": {"threshold": float("nan")}}, "consensus threshold must be finite"),
    ], ids=["unknown-key", "float-n", "nan-threshold"])
    def test_bad_mapping_is_a_config_error(self, stored_rsc, given, error):
        with pytest.raises(ConfigurationError, match=error):
            analyze(stored_rsc, **given)


class TestTagReads:
    """analyze alone reads tags.<source>.jsonl; validate re-tags from world.json."""

    def test_only_analyze_reads_tag_files(self, corpus_dir, monkeypatch):
        root, _ = corpus_dir
        calls = []
        original = ExperimentStore.load_tags

        def counted(store, source):
            calls.append(source)
            return original(store, source)

        monkeypatch.setattr(ExperimentStore, "load_tags", counted)
        filter_attrition(root)
        assert calls == []
        validate(root, spurious_levels=[0.0])
        assert calls == []
        analyze(root)
        assert calls == ["sim-a", "sim-b", "sim-c"]



class TestConsensusMemory:
    def test_disjoint_vocabularies_cost_memory_per_persona(self):
        # 50 personas with 120 taxonomy keywords each and none in common:
        # what consensus keeps across personas must grow with the keywords,
        # not with every pair tested (50 * 7,260) or with the square of
        # every persona's keywords (6,000^2 bytes = 36 MB); at threshold 1
        # a leaf is similar to itself (ln 6) and not to a sibling (ln 2)
        edges = [("root", "-")]
        for i in range(50):
            edges.append((f"c{i}", "root"))
            edges += [(f"k{i} {j}", f"c{i}") for j in range(120)]
        taxonomy = KeywordTaxonomy.from_edges(edges)
        personas, tags = {}, {src: {} for src in ("s0", "s1", "s2")}
        for i in range(50):
            page = WebPage(url=f"http://p{i}.example/", role="training")
            personas[f"p{i}"] = Persona(id=f"p{i}", category="banking", training_pages=[page])
            for table in tags.values():
                table[page.url] = {f"k{i} {j}" for j in range(120)}
        corpus = types.SimpleNamespace(personas=personas, taxonomy=taxonomy)
        tracemalloc.start()
        try:
            kept = experiment._consensus_keywords(
                corpus, ConsensusConfig(n=2, threshold=1.0), tags
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(kept[f"p{i}"][src] == {f"k{i} {j}" for j in range(120)}
                   for i in range(50) for src in tags)
        assert peak < 3_000_000


class TestConsensusWork:
    def test_each_form_is_walked_once_per_reach(self, corpus_dir, monkeypatch):
        # at a noisy level the personas share spurious keywords; one
        # consensus pass walks each distinct (form, reach) once, where a walk
        # per persona would repeat the shared forms
        root, _ = corpus_dir
        corpus = experiment._load_corpus(root)
        world = World.from_dict(corpus.store.load_doc("world.json"))
        noise = TagNoise(dropout=0.1, spurious=0.3)
        tags = {src.name: tag_pages(world.all_pages(), src) for src in world.tag_sources(noise)}
        taxonomy, config = corpus.taxonomy, corpus.manifest.consensus
        walks, lengths = [], taxonomy._lengths

        def walk(nodes, reach):
            walks.append((taxonomy._text[nodes[0]], reach))
            return lengths(nodes, reach)

        monkeypatch.setattr(taxonomy, "_lengths", walk)
        experiment._consensus_keywords(corpus, config, tags)
        forms = [
            {kw for table in tags.values() for url in persona.visited_urls
             for kw in table.get(url, ()) if kw in taxonomy}
            for persona in corpus.personas.values()
        ]
        two_d = 2 * taxonomy.max_depth
        reach = max((p for p in range(1, two_d + 1)
                     if -math.log(p / two_d) > config.threshold), default=0)
        assert sorted(walks) == sorted({(form, reach) for each in forms for form in each})
        assert len(walks) < sum(map(len, forms))


class TestValidate:
    def test_zero_noise_detection_is_exact(self, corpus_dir):
        root, _ = corpus_dir
        result = validate(root, spurious_levels=[0.0], dropout=0.0)
        assert result["clean_profile_pure"] is True
        assert result["spurious_levels"] == [0.0]
        level = result["levels"][0]
        agg = level["aggregate"]
        assert agg["recall"] == 1.0
        assert agg["fpr"] == 0.0
        assert agg["accuracy"] == 1.0
        assert agg["tp"] > 0 and agg["tn"] > 0
        # one detail row per condition, persona, source
        assert len(level["detail"]) == 2 * 3 * 3
        assert (root / "performance.json").exists()

    @pytest.mark.parametrize("levels, dropout", [
        ([0.1, 0.0, 0.1], None), ([0.3, 0.02, 0.0, 0.3], 0.2),
    ])
    def test_each_level_is_tagged_as_tag_pages_tags_it(
        self, corpus_dir, monkeypatch, levels, dropout
    ):
        # the one sweep keeps the caller's level order, repeats included, and
        # tags only the pages read: the personas' training pages and the
        # landing pages of the rscdg survivors
        root, _ = corpus_dir
        seen = []
        consensus = experiment._consensus_keywords

        def record(corpus, config, tags):
            seen.append(tags)
            return consensus(corpus, config, tags)

        monkeypatch.setattr(experiment, "_consensus_keywords", record)
        result = validate(root, spurious_levels=levels, dropout=dropout)
        world = World.from_dict(ExperimentStore(root).load_doc("world.json"))
        rate = world.config.tag_noise.dropout if dropout is None else dropout
        loaded = experiment._load_corpus(root)
        read = {url for persona in loaded.personas.values() for url in persona.visited_urls}
        read |= {imp.landing_page for _, _, stages in reference.filtered(
            loaded, "rscdg", loaded.manifest.filters.t_prime) for imp in stages["rscdg"]}
        pages = [page for page in world.all_pages() if page.url in read]
        unread = {page.url for page in world.all_pages()} - read
        assert unread
        assert [level["spurious"] for level in result["levels"]] == levels
        assert len(seen) == len(levels)
        for level, tags in zip(levels, seen):
            noise = TagNoise(dropout=rate, spurious=level)
            assert tags == {src.name: tag_pages(pages, src) for src in world.tag_sources(noise)}
            assert all(unread.isdisjoint(table) for table in tags.values())
        assert result["levels"][0]["detail"] == result["levels"][-1]["detail"]

    def test_impression_sharing_a_survivors_landing_key_is_scored_by_its_own_page(
        self, corpus_dir, tmp_path
    ):
        # a static ad landing on another page under the same host and path
        # as a predicted OBA ad, shown on another URL of the same control
        # page: it survives every filter with that ad, but its own landing
        # page holds no tag, so it is a true negative, not a false positive
        root = _copy_corpus(corpus_dir[0], tmp_path / "corpus")
        before = validate(root, spurious_levels=[0.0])["levels"][0]
        assert before["aggregate"]["recall"] == 1.0  # every OBA ad is predicted
        path = root / "impressions.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = next(json.loads(line) for line in lines
                      if json.loads(line)["ground_truth"] == "oba")
        record.update(
            control=urlunsplit(urlsplit(record["control"])._replace(query="x=1")),
            landing=urlunsplit(urlsplit(record["landing"])._replace(query="b")),
            ground_truth="static",
        )
        path.write_text("".join(lines) + json.dumps(record) + "\n", encoding="utf-8")

        after = validate(root, spurious_levels=[0.0])["levels"][0]
        condition = next(row["condition"] for row in ExperimentStore(root).load_doc(
            "sessions.json")["sessions"] if row["session"] == record["session"])
        for old, new in zip(before["detail"], after["detail"]):
            shift = record["ntimes"] * (
                (new["condition"], new["persona"]) == (condition, record["persona"]))
            assert (new["tp"], new["fp"], new["fn"]) == (old["tp"], old["fp"], old["fn"])
            assert new["tn"] == old["tn"] + shift

    def test_needs_world_state(self, corpus_dir, tmp_path):
        root, _ = corpus_dir
        clone = _copy_corpus(root, tmp_path / "no-world",
                             skip=("world.json", "performance.json"))
        with pytest.raises(CorpusDataError, match="missing world.json"):
            validate(clone, spurious_levels=[0.0])

    @pytest.mark.parametrize(
        "levels, dropout",
        [([], None), ([0.0, 1.5], None), ([0.0, -0.1], 0.0), ([0.0], 1.5)],
        ids=["no-level", "level-above-1", "level-below-0", "dropout-above-1"],
    )
    def test_bad_rates_rejected_before_the_corpus_is_read(
        self, corpus_dir, tmp_path, levels, dropout
    ):
        # without world.json, any corpus work would raise CorpusDataError
        root, _ = corpus_dir
        clone = _copy_corpus(root, tmp_path / "no-world", skip=("world.json",))
        with pytest.raises(ConfigurationError, match=r"spurious level|rate must be in \["):
            validate(clone, spurious_levels=levels, dropout=dropout)

    def test_needs_a_level(self, corpus_dir):
        root, _ = corpus_dir
        with pytest.raises(ConfigurationError, match="at least one spurious level"):
            validate(root, spurious_levels=[])


# a short budget lets contextual, static and geo_demo ads survive `rscdg`
SHORT_BUDGET = {
    "experiment_id": "short",
    "seed": 23,
    "n_personas": 4,
    "repetitions": 1,
    "session": {"visit_budget": 100},
    "sim": {"n_ads": 300},
}

_CONDITIONS = [{"geo": "ES"}, {"geo": "US", "dnt": True}, {"geo": "ES", "dnt": True},
               {"geo": "US"}]


@st.composite
def _manifests(draw):
    """Small manifests: up to 4 personas, 1 or 2 conditions with DNT on or
    off, the DNT and profile-sharing rules drawn, short budgets, and
    `t_prime` the default or the score of two personas' categories, which
    `dg` must not call distant."""
    n_personas = draw(st.integers(1, 4))
    categories = [spec.category for spec in default_persona_specs(n_personas)]
    taxonomy = resolve_taxonomy("demo")
    t_prime = draw(st.sampled_from([2.5, *(reference.score(taxonomy, a, b)
                                           for a in categories for b in categories if a < b)]))
    # a tenth of the ads retarget, one publisher page each: 12 training
    # pages per persona and 5 control pages
    n_ads = draw(st.integers(100, min(300, 10 * (12 * n_personas + 5))))
    return {
        "experiment_id": "generated",
        "seed": draw(st.integers(0, 2**32)),
        "n_personas": n_personas,
        "repetitions": 1,
        "session": {"visit_budget": draw(st.integers(30, 100))},
        "conditions": draw(st.lists(st.sampled_from(_CONDITIONS), min_size=1, max_size=2,
                                    unique_by=lambda c: (c["geo"], c.get("dnt", False)))),
        "sim": {"n_ads": n_ads, "honor_dnt": draw(st.booleans()),
                "share_profiles": draw(st.booleans())},
        "filters": {"t_prime": t_prime},
    }


class TestReferenceScores:
    """report.json cells and attrition rows and performance.json detail rows
    equal the reference chain: its tag draws, consensus and filters, one
    impression at a time."""

    @settings(max_examples=30, deadline=None)
    @given(manifest=_manifests())
    @example(manifest=GOLDEN_MANIFEST)
    @example(manifest=SHORT_BUDGET)
    def test_cells_and_confusion_counts_match_the_reference(self, tmp_path_factory, manifest):
        root = tmp_path_factory.mktemp("generated")
        simulate(ExperimentManifest.from_dict(manifest), root)
        levels = [0.0, 0.1]
        report = analyze(root)
        performance = validate(root, spurious_levels=levels)

        cells = {
            (c["persona"], c["source"], c["filters"], c["condition"], c["rep"]):
                {k: c[k] for k in ("ttk", "bailp", "n_impressions", "ntimes")}
            for c in report["cells"]
        }
        assert len(cells) == len(report["cells"])
        assert cells == reference.cells(root)
        assert {row["session"]: row["attrition"] for row in report["attrition"]} \
            == reference.attrition(root)

        for level, expected in zip(performance["levels"], reference.detail(root, levels)):
            detail = {(r["condition"], r["persona"], r["source"]):
                      {k: v for k, v in r.items()
                       if k not in ("condition", "persona", "source")}
                      for r in level["detail"]}
            assert len(detail) == len(level["detail"])
            assert detail == expected
        if manifest == SHORT_BUDGET:
            # non-OBA survivors do get predicted once the tags are noisy
            assert performance["levels"][1]["aggregate"]["fp"] > 0
