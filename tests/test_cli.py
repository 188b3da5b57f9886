"""Command line behaviour: exit codes, overrides, output files."""

import dataclasses
import json
import shutil

import pytest

from obameter import ExperimentManifest
from obameter.cli import main


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    code = main([
        "simulate", "--out", str(root),
        "--personas", "2", "--repetitions", "1",
        "--budget", "25", "--seed", "9",
    ])
    assert code == 0
    return root


def _edit_doc(src, dest, name, edit):
    """Copy the corpus at `src` to `dest` with `edit` applied to document `name`."""
    shutil.copytree(src, dest)
    path = dest / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return dest


class TestSimulate:
    def test_writes_corpus_and_prints_summary(self, cli_corpus, capsys):
        out = capsys.readouterr().out
        assert (cli_corpus / "world.json").exists()
        code = main([
            "simulate", "--out", str(cli_corpus),
            "--personas", "2", "--repetitions", "1",
            "--budget", "25", "--seed", "9",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sessions"] == 2 * 1 * 1 + 1
        assert summary["personas"] == 2

    def test_bad_manifest_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"buget": 1}), encoding="utf-8")
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--manifest", str(bad)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_personas_flag_conflicts_with_explicit_roster(self, tmp_path, capsys):
        manifest = tmp_path / "roster.json"
        manifest.write_text(json.dumps(
            {"personas": [{"id": "one", "category": "banking"}]}
        ), encoding="utf-8")
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--manifest", str(manifest), "--personas", "2"])
        assert code == 2
        assert "--personas" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("interval", ["nan", "inf", "0"])
    def test_mean_interval_not_positive_and_finite_is_a_config_error(
        self, tmp_path, capsys, interval
    ):
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--personas", "2", "--mean-interval", interval])
        assert code == 2
        assert "mean_interval" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_harvester_failure_is_a_tool_error(self, tmp_path, capsys, fail_on_visit):
        fail_on_visit(10)
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--personas", "2", "--repetitions", "1", "--budget", "25"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: harvester failed")
        assert not (tmp_path / "x" / "sessions.json").exists()


class TestAnalyze:
    def test_default_run(self, cli_corpus, capsys):
        assert main(["analyze", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert "scored" in out
        report = json.loads((cli_corpus / "report.json").read_text(encoding="utf-8"))
        assert report["filters"]["enabled"] == "rscdg"

    def test_filter_set_override(self, cli_corpus):
        assert main(["analyze", str(cli_corpus), "--filters", "r",
                     "--tprime", "2.0"]) == 0
        report = json.loads((cli_corpus / "report.json").read_text(encoding="utf-8"))
        assert report["filters"] == {"enabled": "r", "t_prime": 2.0}
        assert {c["filters"] for c in report["cells"]} == {"r"}

    def test_nan_tprime_is_a_config_error(self, cli_corpus, capsys):
        before = (cli_corpus / "report.json").read_bytes()
        assert main(["analyze", str(cli_corpus), "--tprime", "nan"]) == 2
        assert "t_prime" in capsys.readouterr().err
        assert (cli_corpus / "report.json").read_bytes() == before

    def test_unknown_filter_set_rejected_by_parser(self, cli_corpus):
        with pytest.raises(SystemExit):
            main(["analyze", str(cli_corpus), "--filters", "xyz"])

    @classmethod
    def _with_landing(cls, cli_corpus, dest, landing):
        """Copy the corpus with the first impression landing on `landing`."""
        return cls._edit_first_record(cli_corpus, dest, "impressions.jsonl",
                                      lambda rec: rec.update(landing=landing))

    def test_ipv6_landing_page_is_analysed(self, cli_corpus, tmp_path):
        clone = self._with_landing(cli_corpus, tmp_path / "v6", "http://[::1]:8080/a")
        assert main(["analyze", str(clone)]) == 0

    def test_bad_port_impression_is_a_data_error(self, cli_corpus, tmp_path, capsys):
        clone = self._with_landing(
            cli_corpus, tmp_path / "port", "https://ads.example:99999/x"
        )
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and "ads.example:99999" in err

    def test_tag_file_naming_a_page_twice_is_a_data_error(
        self, cli_corpus, tmp_path, capsys
    ):
        name = "tags.sim-a.jsonl"
        second = (cli_corpus / name).read_text(encoding="utf-8").splitlines()[1]
        url = json.loads(second)["url"]
        host, path = url.removeprefix("https://").split("/", 1)
        respelt = f"HTTPS://{host.upper()}:443/{path}/"
        clone = self._edit_first_record(cli_corpus, tmp_path / "c", name,
                                        lambda rec: rec.update(url=respelt))
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and "record 2 " in err and repr(url) in err

    def test_missing_corpus_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["analyze", str(tmp_path / "empty")]) == 3
        assert "corpus error" in capsys.readouterr().err

    @staticmethod
    def _edit_first_record(cli_corpus, dest, name, edit):
        """Copy the corpus with `edit` applied to the first record of `name`."""
        shutil.copytree(cli_corpus, dest)
        path = dest / name
        text = path.read_text(encoding="utf-8")
        if name.endswith(".jsonl"):
            first, *rest = text.splitlines()
            rec = json.loads(first)
            edit(rec)
            path.write_text("\n".join([json.dumps(rec), *rest]) + "\n",
                            encoding="utf-8")
        else:
            doc = json.loads(text)
            edit(doc[name.split(".")[0]][0])
            path.write_text(json.dumps(doc), encoding="utf-8")
        return dest

    @classmethod
    def _without_key(cls, cli_corpus, dest, name, key):
        """Copy the corpus with `key` deleted from the first record of `name`."""
        return cls._edit_first_record(cli_corpus, dest, name, lambda rec: rec.pop(key))

    @pytest.mark.parametrize("name, key", [
        ("personas.json", "attrition"),
        ("sessions.json", "complete"),
        ("tags.sim-a.jsonl", "keywords"),
    ])
    def test_record_without_a_key_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, key
    ):
        clone = self._without_key(cli_corpus, tmp_path / "c", name, key)
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and repr(key) in err

    @pytest.mark.parametrize("name, key, value", [
        ("impressions.jsonl", "ntimes", "3"),
        ("impressions.jsonl", "landing", 7),
        ("visits.jsonl", "url", None),
        ("tags.sim-a.jsonl", "url", 3),
        ("personas.json", "training_pages", 5),
        ("sessions.json", "condition", ["ES"]),
        ("impressions.jsonl", "session", ["x"]),
        ("impressions.jsonl", "persona", ["x"]),
    ], ids=["string-ntimes", "number-landing", "null-visit-url", "number-tag-url",
            "number-training-pages", "list-condition", "list-session", "list-persona"])
    def test_record_value_of_the_wrong_type_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, key, value
    ):
        clone = self._edit_first_record(
            cli_corpus, tmp_path / "c", name, lambda rec: rec.update({key: value})
        )
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and "record 1 " in err

    @pytest.mark.parametrize("keywords", [5, "motor sports", ["motor sports", 5]],
                             ids=["number", "string", "non-string-item"])
    def test_tag_keywords_not_a_list_of_strings_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, keywords
    ):
        name = "tags.sim-a.jsonl"
        clone = self._edit_first_record(
            cli_corpus, tmp_path / "c", name, lambda rec: rec.update(keywords=keywords)
        )
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and "record 1 " in err and repr("keywords") in err

    @pytest.mark.parametrize("prices, named", [
        (["a"], "list"),
        ({"p1": "1.5"}, repr("p1")),
        ({"p1": None}, repr("p1")),
    ], ids=["list", "string-price", "null-price"])
    def test_bad_price_file_is_a_config_error(
        self, cli_corpus, tmp_path, capsys, prices, named
    ):
        cpc = tmp_path / "cpc.json"
        cpc.write_text(json.dumps(prices), encoding="utf-8")
        # the price file is checked before any corpus file is read
        empty = tmp_path / "empty"
        empty.mkdir()
        for corpus in (cli_corpus, empty):
            assert main(["analyze", str(corpus), "--cpc", str(cpc)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error")
            assert str(cpc) in err and named in err

    @pytest.mark.parametrize("name, key, value", [
        ("sessions.json", "condition", "FR"),
        ("sessions.json", "persona", "nobody"),
        ("impressions.jsonl", "session", "ghost|ES|r0"),
    ], ids=["unknown-condition", "unknown-persona", "unknown-session"])
    def test_record_naming_an_unknown_id_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, key, value
    ):
        clone = self._edit_first_record(
            cli_corpus, tmp_path / "c", name, lambda rec: rec.update({key: value})
        )
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and "record 1 " in err and repr(value) in err


class TestOverrides:
    """A flag that was given replaces its stored field; the rest stay."""

    STORED = {
        "experiment_id": "stored",
        "seed": 3,
        "n_personas": 2,
        "repetitions": 1,
        "session": {"visit_budget": 25, "mean_interval": 90.0},
        "consensus": {"n": 1, "threshold": 2.0},
        "filters": {"enabled": "rsc", "t_prime": 2.0},
    }

    @pytest.fixture(scope="class")
    def stored_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stored")
        manifest = root / "stored.json"
        manifest.write_text(json.dumps(self.STORED), encoding="utf-8")
        assert main(["simulate", "--out", str(root / "corpus"),
                     "--manifest", str(manifest), "--seed", "5"]) == 0
        return root / "corpus"

    @staticmethod
    def _report(root):
        return json.loads((root / "report.json").read_text(encoding="utf-8"))

    def test_simulate_seed_alone_keeps_every_other_field(self, stored_corpus):
        written = json.loads((stored_corpus / "manifest.json").read_text(encoding="utf-8"))
        expected = dataclasses.replace(ExperimentManifest.from_dict(self.STORED), seed=5)
        assert written == expected.to_dict()

    def test_consensus_t_alone_keeps_the_stored_n(self, stored_corpus):
        assert main(["analyze", str(stored_corpus), "--consensus-t", "1.5"]) == 0
        report = self._report(stored_corpus)
        assert report["consensus"] == {"n": 1, "threshold": 1.5}
        assert report["filters"] == {"enabled": "rsc", "t_prime": 2.0}

    def test_tprime_alone_keeps_the_stored_filter_set(self, stored_corpus, capsys):
        assert main(["analyze", str(stored_corpus), "--tprime", "3.0"]) == 0
        report = self._report(stored_corpus)
        assert report["filters"] == {"enabled": "rsc", "t_prime": 3.0}
        assert report["consensus"] == {"n": 1, "threshold": 2.0}
        capsys.readouterr()
        assert main(["filter", str(stored_corpus), "--tprime", "3.0"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {stage for row in rows for stage in row["attrition"]} == {
            "input", "after_retargeting", "after_static_contextual",
        }


class TestFilter:
    def test_prints_attrition_rows(self, cli_corpus, capsys):
        assert main(["filter", str(cli_corpus), "--filters", "rsc"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        for row in rows:
            assert set(row["attrition"]) == {
                "input", "after_retargeting", "after_static_contextual",
            }


class TestValidate:
    def test_zero_noise_sweep(self, cli_corpus, capsys):
        assert main(["validate", str(cli_corpus),
                     "--spurious-levels", "0.0", "--dropout", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "clean profile pure: yes" in out
        assert "recall 1.0000" in out
        assert (cli_corpus / "performance.json").exists()

    def test_missing_world_state_is_a_data_error(self, cli_corpus, tmp_path, capsys):
        clone = tmp_path / "no-world"
        clone.mkdir()
        for p in cli_corpus.iterdir():
            if p.name != "world.json":
                (clone / p.name).write_bytes(p.read_bytes())
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 3
        assert "corpus error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key, where", [
        (lambda world: world.pop("trackers"), "trackers", ""),
        (lambda world: world["personas"][1].pop("attrition"), "attrition", " (personas[1])"),
        (lambda world: world["ads"][3].pop("kind"), "kind", " (ads[3])"),
    ], ids=["world", "persona", "ad"])
    def test_world_record_without_a_key_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, edit, key, where
    ):
        clone = _edit_doc(cli_corpus, tmp_path / "c", "world.json", edit)
        capsys.readouterr()
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and repr(key) in err
        assert "world.json" in err and f"record has no {key!r}{where}" in err

    def test_world_ad_of_an_unknown_kind_is_a_data_error(self, cli_corpus, tmp_path, capsys):
        clone = _edit_doc(cli_corpus, tmp_path / "c", "world.json",
                          lambda world: world["ads"][0].update(kind=5))
        capsys.readouterr()
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and "world.json" in err
        assert "ad record kind must be one of" in err and "got 5 (ads[0])" in err

    def test_world_ad_with_an_unknown_key_is_read(self, cli_corpus, tmp_path):
        clone = _edit_doc(cli_corpus, tmp_path / "c", "world.json",
                          lambda world: world["ads"][0].update(note="kept"))
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 0


class TestReport:
    @pytest.fixture(scope="class")
    def scored_corpus(self, cli_corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("scored") / "corpus"
        shutil.copytree(cli_corpus, root)
        assert main(["analyze", str(root)]) == 0
        assert main(["validate", str(root), "--spurious-levels", "0.0"]) == 0
        return root

    @pytest.mark.parametrize("name, edit, key", [
        pytest.param("report.json", lambda doc: doc.pop("summary"), "summary",
                     id="report.json-summary"),
        pytest.param("performance.json", lambda doc: doc.pop("levels"), "levels",
                     id="performance.json-levels"),
        pytest.param("report.json", lambda doc: doc["filters"].pop("enabled"),
                     "enabled", id="report.json-filters-enabled"),
        pytest.param("report.json", lambda doc: doc["summary"][0].pop("bailp_mean"),
                     "bailp_mean", id="report.json-summary-bailp_mean"),
        pytest.param("performance.json",
                     lambda doc: doc["levels"][0]["aggregate"].pop("recall"),
                     "recall", id="performance.json-aggregate-recall"),
    ])
    def test_document_without_a_key_is_a_data_error(
        self, scored_corpus, tmp_path, capsys, name, edit, key
    ):
        clone = _edit_doc(scored_corpus, tmp_path / "c", name, edit)
        capsys.readouterr()
        assert main(["report", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and repr(key) in err

    @pytest.mark.parametrize("name, text", [
        ("report.json", "[1, 2]"),
        ("performance.json", "[1, 2]"),
        ("performance.json", json.dumps({
            "dropout": 0.0, "clean_profile_pure": True, "levels": [{
                "spurious": 0.0,
                "aggregate": {"recall": "high", "accuracy": 1.0, "fpr": 0.0},
            }],
        })),
    ], ids=["report-list", "performance-list", "performance-string-recall"])
    def test_document_of_the_wrong_shape_is_a_data_error(
        self, scored_corpus, tmp_path, capsys, name, text
    ):
        clone = tmp_path / "c"
        shutil.copytree(scored_corpus, clone)
        (clone / name).write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and name in err

    def test_digest_after_analyze_and_validate(self, cli_corpus, capsys):
        assert main(["analyze", str(cli_corpus)]) == 0
        assert main(["validate", str(cli_corpus),
                     "--spurious-levels", "0.0", "--dropout", "0.0"]) == 0
        capsys.readouterr()
        assert main(["report", str(cli_corpus)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment ")
        assert "validation (dropout 0.0)" in out
        assert "clean profile pure: yes" in out

    def test_report_without_analysis_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "fresh").mkdir()
        assert main(["report", str(tmp_path / "fresh")]) == 3
        assert "corpus error" in capsys.readouterr().err
