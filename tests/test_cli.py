"""Command line behaviour: exit codes, overrides, output files."""

import collections
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

import obameter
from obameter import ExperimentManifest, experiment
from obameter.adsim import DEFAULT_KIND_WEIGHTS
from obameter.cli import main


def test_import_loads_no_third_party_package():
    # a fresh interpreter that imports the package from where this process
    # found it: `src` in a checkout, site-packages when installed
    code = (
        "import sys; before = set(sys.modules); import obameter, obameter.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(obameter.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "obameter.cli" in out
    assert [m for m in out if m.split(".")[0] in ("scipy", "numpy")] == []
    third_party = {m.split(".")[0] for m in out} - set(sys.stdlib_module_names)
    assert third_party == {"obameter"}


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


def _first_and_last(cases, ids):
    """Parameters for each case at the first record (index 0, under its id)
    and again at the last (index -1, under its id and "-last")."""
    return ([pytest.param(*case, 0, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, -1, id=f"{i}-last") for case, i in zip(cases, ids)])


# how a read of an input file fails, and the word its error message starts with
READ_FAILURES = {"missing": "missing", "directory": "unreadable", "not-utf8": "unreadable"}


def _unreadable(path, kind):
    """`path`, left so that reading it fails as READ_FAILURES `kind` says."""
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    return path


@pytest.fixture
def file_reads(monkeypatch):
    """Counts the Path.read_text calls made from now on, by file name."""
    reads = collections.Counter()
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        reads[path.name] += 1
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    return reads


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

    def test_two_sessions_with_one_label_is_a_config_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "personas": [{"id": "x|ES", "category": "banking"},
                         {"id": "x", "category": "movies"}],
            "conditions": [{"geo": "US"}, {"geo": "ES|US"}],
            "repetitions": 1, "session": {"visit_budget": 30},
        }), encoding="utf-8")
        code = main(["simulate", "--out", str(tmp_path / "x"), "--manifest", str(manifest)])
        assert code == 2
        assert "'x|ES|US|r0'" in capsys.readouterr().err
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

    @pytest.mark.parametrize("doc, section, key", [
        ({"repetitions": 1.5}, "manifest", "repetitions"),
        ({"repetitions": True}, "manifest", "repetitions"),
        ({"seed": 1.5}, "manifest", "seed"),
        ({"n_personas": 2.0}, "manifest", "n_personas"),
        ({"session": {"visit_budget": 20.5}}, "session", "visit_budget"),
        ({"filters": {"enabled": 5}}, "filters", "enabled"),
        ({"sim": {"n_ads": 50.5}}, "sim", "n_ads"),
        ({"sim": {"honor_dnt": "no"}}, "sim", "honor_dnt"),
        ({"sim": {"sources": ["a", "b", 3]}}, "sim", "sources"),
        ({"conditions": [{"geo": "ES", "dnt": "false"}]}, "conditions", "dnt"),
        ({"personas": [{"id": "one", "category": "banking", "sensitive": "false"}]},
         "personas", "sensitive"),
    ], ids=["float-repetitions", "bool-repetitions", "float-seed", "float-n_personas",
            "float-visit_budget", "number-enabled", "float-n_ads", "string-honor_dnt", "number-source",
            "string-dnt", "string-sensitive"])
    def test_value_of_the_wrong_type_is_a_config_error(
        self, tmp_path, capsys, doc, section, key
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["simulate", "--out", str(tmp_path / "x"), "--manifest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: bad {section} section: {key} ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
    def test_out_at_or_under_a_file_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, under
    ):
        blocker = tmp_path / "f"
        blocker.write_text("kept", encoding="utf-8")
        built = []
        monkeypatch.setattr(experiment, "build_world", lambda *args, **kw: built.append(1))
        code = main(["simulate", "--out", str(blocker / under),
                     "--personas", "2", "--repetitions", "1", "--budget", "25"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and f"{blocker} is not a directory" in err
        assert built == []  # checked before the world is built
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("sources, named", [
        (["a/b", "c", "d"], "a/b"),
        (["a", "a", "b"], "a"),
    ], ids=["unusable-name", "listed-twice"])
    def test_source_that_names_no_tag_file_of_its_own_is_a_config_error(
        self, cli_corpus, tmp_path, capsys, monkeypatch, sources, named
    ):
        out = tmp_path / "corpus"
        shutil.copytree(cli_corpus, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "n_personas": 2, "repetitions": 1, "session": {"visit_budget": 20},
            "sim": {"sources": sources},
        }), encoding="utf-8")
        built = []
        monkeypatch.setattr(experiment, "build_world", lambda *args, **kw: built.append(1))
        capsys.readouterr()
        code = main(["simulate", "--out", str(out), "--manifest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and repr(named) in err
        assert built == []  # checked before the world is built
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("weight, token", [(math.inf, "Infinity"), (math.nan, "NaN")],
                             ids=["inf", "nan"])
    def test_kind_weight_not_positive_and_finite_is_a_config_error(
        self, cli_corpus, tmp_path, capsys, weight, token
    ):
        out = tmp_path / "corpus"
        shutil.copytree(cli_corpus, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = tmp_path / "m.json"
        # json writes the non-standard tokens Infinity and NaN; the manifest
        # reader refuses them before any range check sees the value
        manifest.write_text(json.dumps({
            "n_personas": 2, "repetitions": 1, "session": {"visit_budget": 20},
            "sim": {"kind_weights": {**DEFAULT_KIND_WEIGHTS, "oba": weight}},
        }), encoding="utf-8")
        capsys.readouterr()
        code = main(["simulate", "--out", str(out), "--manifest", str(manifest)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot read manifest {manifest}: "
            f"{token} is not a JSON value\n"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("section, named", [
        # the manifest reader refuses the Infinity json writes for math.inf
        ({"filters": {"t_prime": math.inf}}, "Infinity is not a JSON value"),
        ({"sim": {"activation_threshold": math.inf}}, "Infinity is not a JSON value"),
        ({"sim": {"profile_decay_halflife": math.inf}}, "Infinity is not a JSON value"),
        ({"filters": {"t_prime": 10**400}}, "t_prime"),
        ({"sim": {"activation_threshold": 10**400}}, "activation_threshold"),
        ({"sim": {"profile_decay_halflife": 10**400}}, "profile_decay_halflife"),
        ({"sim": {"n_ads": 10**400}}, "n_ads"),
        ({"consensus": {"threshold": 10**400}}, "consensus threshold"),
        ({"session": {"mean_interval": 10**400}}, "mean_interval"),
        ({"sim": {"kind_weights": {**DEFAULT_KIND_WEIGHTS, "geo_demo": 10**400}}},
         "wrong for ['geo_demo']"),
        ({"sim": {"mix": {"oba": 10**400}}}, "mix proportions"),
        ({"sim": {"kind_weights": {**DEFAULT_KIND_WEIGHTS, "static": 10**308, "oba": 10**308}}},
         "finite sum"),
    ], ids=["inf-t_prime", "inf-activation", "inf-halflife", "huge-int-t_prime",
            "huge-int-activation", "huge-int-halflife", "huge-int-n_ads", "huge-int-consensus",
            "huge-int-interval", "huge-int-weight", "huge-int-mix", "huge-int-total"])
    def test_float_beyond_float_range_is_a_config_error(
        self, cli_corpus, tmp_path, capsys, section, named
    ):
        # json reads an integer too large for a float as given
        out = tmp_path / "corpus"
        shutil.copytree(cli_corpus, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"n_personas": 2, "repetitions": 1, **section}),
                            encoding="utf-8")
        capsys.readouterr()
        code = main(["simulate", "--out", str(out), "--manifest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("weights, named", [
        ({**DEFAULT_KIND_WEIGHTS, "bogus": -1}, "wrong for ['bogus']"),
        ({**DEFAULT_KIND_WEIGHTS, "oba": 1e308, "static": 1e308}, "finite sum"),
    ], ids=["unknown-kind", "overflowing-total"])
    def test_kind_weights_serving_cannot_use_are_a_config_error(
        self, cli_corpus, tmp_path, capsys, weights, named
    ):
        out = tmp_path / "corpus"
        shutil.copytree(cli_corpus, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "n_personas": 2, "repetitions": 1, "session": {"visit_budget": 20},
            "sim": {"kind_weights": weights},
        }), encoding="utf-8")
        capsys.readouterr()
        code = main(["simulate", "--out", str(out), "--manifest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("kind", READ_FAILURES)
    @pytest.mark.parametrize("name", ["manifest", "taxonomy"])
    def test_unreadable_input_file_is_a_config_error(self, tmp_path, capsys, name, kind):
        bad = _unreadable(tmp_path / "input", kind)
        manifest = bad
        if name == "taxonomy":
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"taxonomy": str(bad)}), encoding="utf-8")
        code = main(["simulate", "--out", str(tmp_path / "x"), "--manifest", str(manifest)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot read {name} {bad}: "
        )
        assert not (tmp_path / "x").exists()

    def test_malformed_taxonomy_file_is_a_config_error(self, tmp_path, capsys):
        tree = tmp_path / "tree.tsv"
        tree.write_text("root\t-\nfoo\tbar\n", encoding="utf-8")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"taxonomy": str(tree)}), encoding="utf-8")
        code = main(["simulate", "--out", str(tmp_path / "x"), "--manifest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: node 'foo' names unknown parent 'bar'")
        assert err.endswith(f" in taxonomy {tree}\n")
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

    def test_consensus_threshold_above_every_score_keeps_no_keyword(self, cli_corpus):
        # every tag keyword is in the taxonomy, where no pair scores
        # above ln 38 = 3.638
        assert main(["analyze", str(cli_corpus), "--consensus-t", "3.7"]) == 0
        report = json.loads((cli_corpus / "report.json").read_text(encoding="utf-8"))
        assert report["cells"]
        for cell in report["cells"]:
            assert cell["ttk"] is None and cell["note"] == "empty training keyword set"

    def test_tprime_zero_removes_nothing_in_dg(self, tmp_path):
        # no two persona categories score below 0; among three personas dg
        # removes some impressions at the stored t' (2.5), so this can fail
        root = tmp_path / "three"
        assert main(["simulate", "--out", str(root), "--personas", "3",
                     "--repetitions", "1", "--budget", "25", "--seed", "9"]) == 0

        def removed_by_dg():
            rows = json.loads((root / "report.json").read_text(encoding="utf-8"))["attrition"]
            assert rows
            return [row["attrition"]["after_static_contextual"]
                    - row["attrition"]["after_demo_geo"] for row in rows]

        assert main(["analyze", str(root)]) == 0
        assert any(removed_by_dg())
        assert main(["analyze", str(root), "--tprime", "0"]) == 0
        assert not any(removed_by_dg())

    def test_nan_tprime_is_a_config_error(self, cli_corpus, capsys):
        assert main(["analyze", str(cli_corpus)]) == 0
        before = (cli_corpus / "report.json").read_bytes()
        assert main(["analyze", str(cli_corpus), "--tprime", "nan"]) == 2
        assert "t_prime" in capsys.readouterr().err
        assert (cli_corpus / "report.json").read_bytes() == before

    @pytest.mark.parametrize("tprime", ["inf", "1e400"])
    def test_infinite_tprime_is_a_config_error(self, cli_corpus, tmp_path, capsys, tprime):
        clone = tmp_path / "c"
        shutil.copytree(cli_corpus, clone)
        assert main(["analyze", str(clone)]) == 0
        before = {p.name: p.read_bytes() for p in clone.iterdir()}
        capsys.readouterr()
        assert main(["analyze", str(clone), "--tprime", tprime]) == 2
        assert "t_prime must be finite" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in clone.iterdir()} == before

    def test_nan_tprime_is_a_config_error_before_the_corpus_records(
        self, cli_corpus, tmp_path, capsys
    ):
        clone = tmp_path / "c"
        shutil.copytree(cli_corpus, clone)
        (clone / "impressions.jsonl").write_text("{not json\n", encoding="utf-8")
        assert main(["analyze", str(clone), "--tprime", "nan"]) == 2
        assert "t_prime" in capsys.readouterr().err
        # the stored manifest is read first, so a missing one is still a corpus error
        (tmp_path / "empty").mkdir()
        assert main(["analyze", str(tmp_path / "empty"), "--consensus-t", "nan"]) == 3
        assert capsys.readouterr().err.startswith("corpus error")

    def test_stored_value_of_the_wrong_type_is_a_config_error(
        self, cli_corpus, tmp_path, capsys
    ):
        clone = _edit_doc(cli_corpus, tmp_path / "m", "manifest.json",
                          lambda doc: doc["sim"].update(n_ads=50.5))
        assert main(["analyze", str(clone)]) == 2
        assert "bad sim section: n_ads " in capsys.readouterr().err
        clone = _edit_doc(cli_corpus, tmp_path / "w", "world.json",
                          lambda world: world["config"].update(honor_dnt="no"))
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 2
        assert "bad sim section: honor_dnt " in capsys.readouterr().err

    def test_consensus_n_above_the_corpus_sources_is_a_config_error(
        self, cli_corpus, capsys
    ):
        # the stored manifest's check against sim.sources is not rerun on a flag
        assert main(["analyze", str(cli_corpus), "--consensus-n", "3"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: consensus needs at least 4 sources, got 3\n"
        )

    def test_incomplete_only_clean_session_is_a_data_error(
        self, cli_corpus, tmp_path, capsys
    ):
        def mark_clean_incomplete(doc):
            for row in doc["sessions"]:
                row["complete"] = row["complete"] and not row["clean"]
        clone = _edit_doc(cli_corpus, tmp_path / "c", "sessions.json",
                          mark_clean_incomplete)
        assert main(["analyze", str(clone)]) == 3
        assert capsys.readouterr().err.startswith(
            "corpus error: static & contextual filter needs a clean-profile"
        )

    @pytest.mark.parametrize("kind", READ_FAILURES)
    @pytest.mark.parametrize("name", ["sessions.json", "visits.jsonl"])
    def test_unreadable_corpus_file_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, kind
    ):
        clone = tmp_path / "c"
        shutil.copytree(cli_corpus, clone)
        (clone / name).unlink()
        _unreadable(clone / name, kind)
        assert main(["analyze", str(clone)]) == 3
        assert capsys.readouterr().err.startswith(
            f"corpus error: {READ_FAILURES[kind]} {name} in {clone}"
        )

    @pytest.mark.parametrize("kind", READ_FAILURES)
    def test_unreadable_price_file_is_a_config_error(
        self, cli_corpus, tmp_path, capsys, kind
    ):
        cpc = _unreadable(tmp_path / "cpc.json", kind)
        assert main(["analyze", str(cli_corpus), "--cpc", str(cpc)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot read price file {cpc}: "
        )

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

    @classmethod
    def _edit_first_record(cls, cli_corpus, dest, name, edit):
        """Copy the corpus with `edit` applied to the first record of `name`."""
        return cls._edit_records(cli_corpus, dest, name, {0: edit})

    @staticmethod
    def _edit_records(cli_corpus, dest, name, edits):
        """Copy the corpus with `edits[i]` applied to record i of `name` (-1
        the last), for each i; the other lines of a JSONL file keep their bytes."""
        shutil.copytree(cli_corpus, dest)
        path = dest / name
        text = path.read_text(encoding="utf-8")
        if name.endswith(".jsonl"):
            lines = text.splitlines()
            for i, edit in edits.items():
                rec = json.loads(lines[i])
                edit(rec)
                lines[i] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            doc = json.loads(text)
            for i, edit in edits.items():
                edit(doc[name.split(".")[0]][i])
            path.write_text(json.dumps(doc), encoding="utf-8")
        return dest

    @staticmethod
    def _record_number(root, name, i):
        """The number, from 1, of record i of `name` (-1 the last)."""
        text = (root / name).read_text(encoding="utf-8")
        records = (text.splitlines() if name.endswith(".jsonl")
                   else json.loads(text)[name.split(".")[0]])
        return range(1, len(records) + 1)[i]

    @classmethod
    def _without_key(cls, cli_corpus, dest, name, key):
        """Copy the corpus with `key` deleted from the first record of `name`."""
        return cls._edit_first_record(cli_corpus, dest, name, lambda rec: rec.pop(key))

    @pytest.mark.parametrize("name, key", [
        ("personas.json", "attrition"),
        ("sessions.json", "complete"),
        ("tags.sim-a.jsonl", "keywords"),
        ("tags.sim-a.jsonl", "source"),
    ])
    def test_record_without_a_key_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, key
    ):
        clone = self._without_key(cli_corpus, tmp_path / "c", name, key)
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and repr(key) in err

    # each field is tested over every record at once, so the last one counts too
    @pytest.mark.parametrize("name, key, value, at", _first_and_last([
        ("impressions.jsonl", "ntimes", "3"),
        ("impressions.jsonl", "landing", 7),
        ("visits.jsonl", "url", None),
        ("tags.sim-a.jsonl", "url", 3),
        ("personas.json", "training_pages", 5),
        ("sessions.json", "condition", ["ES"]),
        ("impressions.jsonl", "session", ["x"]),
        ("impressions.jsonl", "persona", ["x"]),
        ("sessions.json", "clean", "false"),
        ("sessions.json", "complete", "false"),
        ("sessions.json", "rep", "0"),
        ("impressions.jsonl", "ground_truth", "OBA"),
        ("impressions.jsonl", "ground_truth", 5),
        ("tags.sim-a.jsonl", "source", "sim-b"),
        ("visits.jsonl", "kind", "banner"),
        ("visits.jsonl", "seq", "x"),
        ("visits.jsonl", "t", "late"),
        ("sessions.json", "geo", 5),
        ("sessions.json", "dnt", "no"),
        ("sessions.json", "visit_mix", {"control": "3"}),
        ("sessions.json", "raw_served", "7"),
        ("sessions.json", "n_impressions", 1.5),
    ], ids=["string-ntimes", "number-landing", "null-visit-url", "number-tag-url",
            "number-training-pages", "list-condition", "list-session", "list-persona",
            "string-clean", "string-complete", "string-rep", "unknown-ground-truth",
            "number-ground-truth", "other-tag-source", "unknown-visit-kind", "string-seq",
            "string-t", "number-geo", "string-dnt", "string-visit-mix-count",
            "string-raw-served", "float-n-impressions"]))
    def test_record_value_of_the_wrong_type_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, key, value, at
    ):
        clone = self._edit_records(
            cli_corpus, tmp_path / "c", name, {at: lambda rec: rec.update({key: value})}
        )
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error")
        assert name in err and f"record {self._record_number(clone, name, at)} " in err

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
        assert name in err and "record 1 keywords must be of type list[str]" in err

    def test_price_correlation_matches_scipy(self, tmp_path):
        root = tmp_path / "six"
        assert main(["simulate", "--out", str(root), "--personas", "6",
                     "--repetitions", "1", "--budget", "25", "--seed", "9"]) == 0
        personas = json.loads((root / "personas.json").read_text(encoding="utf-8"))
        pids = sorted(p["id"] for p in personas["personas"])
        # the last persona's price lies far outside the Tukey fences
        prices = {pid: 1.0 + 0.5 * i for i, pid in enumerate(pids[:-1])}
        prices[pids[-1]] = 100.0
        cpc = tmp_path / "cpc.json"
        cpc.write_text(json.dumps(prices), encoding="utf-8")
        assert main(["analyze", str(root), "--cpc", str(cpc)]) == 0

        report = json.loads((root / "report.json").read_text(encoding="utf-8"))
        assert [e["condition"] for e in report["correlation"]] == report["conditions"]
        for entry in report["correlation"]:
            by_pid = collections.defaultdict(list)
            for cell in report["cells"]:
                if (cell["filters"], cell["condition"]) == (
                    entry["filters"], entry["condition"]
                ) and cell["bailp"] is not None:
                    by_pid[cell["persona"]].append(cell["bailp"])
            assert sorted(by_pid) == pids
            used = pids[:-1]
            xs = [statistics.fmean(by_pid[pid]) for pid in used]
            ys = [prices[pid] for pid in used]
            assert len(set(xs)) < len(xs)  # tied BAiLP values
            pearson = scipy_stats.pearsonr(xs, ys)
            spearman = scipy_stats.spearmanr(xs, ys)
            z = abs(spearman.statistic) * math.sqrt(len(used) - 1)
            got = entry["correlation"]
            assert got["removed_keys"] == pids[-1:] and got["n_used"] == len(used)
            assert got["pearson"] == pytest.approx(float(pearson.statistic), abs=1e-12)
            assert got["spearman"] == pytest.approx(float(spearman.statistic), abs=1e-12)
            assert got["pearson_p"] == pytest.approx(float(pearson.pvalue), abs=1e-10)
            assert got["spearman_p"] == pytest.approx(math.erfc(z / math.sqrt(2)), abs=1e-10)

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
        ("visits.jsonl", "session", "ghost|ES|r0"),
    ], ids=["unknown-condition", "unknown-persona", "unknown-session",
            "unknown-visit-session"])
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

    @pytest.mark.parametrize("name, key, value", [
        ("visits.jsonl", "seq", "x"),
        ("impressions.jsonl", "persona", ["x"]),
    ], ids=["visits", "impressions"])
    def test_an_unknown_session_is_reported_before_a_later_wrong_type(
        self, cli_corpus, tmp_path, capsys, name, key, value
    ):
        # records are checked and built in file order, so the first bad one
        # is named even when a field test over the whole file fails
        clone = self._edit_records(cli_corpus, tmp_path / "c", name, {
            0: lambda rec: rec.update(session="ghost|ES|r0"),
            -1: lambda rec: rec.update({key: value}),
        })
        assert main(["analyze", str(clone)]) == 3
        assert capsys.readouterr().err == (
            f"corpus error: {name} in {clone}: record 1 names session "
            "'ghost|ES|r0', not in sessions.json\n"
        )

    @pytest.mark.parametrize("name, key", [
        ("sessions.json", "session"),
        ("personas.json", "id"),
    ])
    def test_record_naming_an_id_again_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, name, key
    ):
        stem = name.split(".")[0]
        records = json.loads((cli_corpus / name).read_text(encoding="utf-8"))[stem]
        clone = _edit_doc(cli_corpus, tmp_path / "c", name,
                          lambda doc: doc[stem].append(records[0]))
        assert main(["analyze", str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and name in err
        assert f"record {len(records) + 1} " in err
        assert f"{records[0][key]!r} again" in err


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

    def test_manifest_and_price_file_are_read_once(
        self, stored_corpus, tmp_path, capsys, file_reads
    ):
        cpc = tmp_path / "cpc.json"
        cpc.write_text(json.dumps({"p": 1.0}), encoding="utf-8")
        assert main(["analyze", str(stored_corpus), "--tprime", "3.0",
                     "--cpc", str(cpc)]) == 0
        assert file_reads["manifest.json"] == 1 and file_reads["cpc.json"] == 1
        assert self._report(stored_corpus)["filters"] == {"enabled": "rsc", "t_prime": 3.0}
        file_reads.clear()
        assert main(["filter", str(stored_corpus), "--tprime", "3.0"]) == 0
        assert file_reads["manifest.json"] == 1

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
        # analyze reads no world.json
        assert main(["analyze", str(clone)]) == 0

    def test_world_ad_of_an_unknown_kind_is_a_data_error(self, cli_corpus, tmp_path, capsys):
        clone = _edit_doc(cli_corpus, tmp_path / "c", "world.json",
                          lambda world: world["ads"][0].update(kind=5))
        capsys.readouterr()
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and "world.json" in err
        assert "ad record kind must be one of" in err and "got 5 (ads[0])" in err

    # where each record whose fields are checked against their type hints lies
    # in its file, and how an error message names it
    RECORDS = {
        "personas": ("personas.json", ["personas", 0], "record 1 ", ""),
        "sessions": ("sessions.json", ["sessions", 0], "record 1 ", ""),
        "world": ("world.json", [], "world record ", ""),
        "world-persona": ("world.json", ["personas", 1], "persona record ", " (personas[1])"),
        "world-ad": ("world.json", ["ads", 2], "ad record ", " (ads[2])"),
    }

    @pytest.mark.parametrize("record, key, value", [
        ("personas", "id", 5),
        ("personas", "category", ["banking"]),
        ("personas", "sensitive", "false"),
        ("personas", "attrition", "x"),
        ("sessions", "session", ["x"]),
        ("sessions", "persona", 5),
        ("sessions", "condition", None),
        ("sessions", "rep", True),
        ("sessions", "clean", 0),
        ("sessions", "complete", None),
        ("world", "seed", "1"),
        ("world", "page_categories", "x"),
        ("world", "page_themes", {"http://x.example": 1}),
        ("world", "trackers", [1]),
        ("world", "aggregators", "x"),
        ("world-persona", "id", None),
        ("world-persona", "category", 5),
        ("world-persona", "sensitive", "no"),
        ("world-persona", "attrition", {"step1": "3"}),
        ("world-ad", "ad_id", 5),
        ("world-ad", "kind", ["oba"]),
        ("world-ad", "landing_url", 5),
        ("world-ad", "base_weight", "1"),
        ("world-ad", "target_category", 5),
        ("world-ad", "theme", ["x"]),
        ("world-ad", "geo", False),
    ], ids=lambda v: str(v) if isinstance(v, str) else type(v).__name__)
    def test_record_value_of_another_type_is_a_data_error(
        self, cli_corpus, tmp_path, capsys, record, key, value
    ):
        name, path, named, where = self.RECORDS[record]

        def edit(doc):
            for step in path:
                doc = doc[step]
            doc[key] = value
        clone = _edit_doc(cli_corpus, tmp_path / "c", name, edit)
        capsys.readouterr()
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error") and name in err
        assert f"{named}{key} must be " in err and f"got {value!r}{where}" in err

    @pytest.mark.parametrize("key, entry", [
        ("page_categories", -1),
        ("aggregators", 5),
    ])
    def test_bad_entry_of_a_world_field_is_named(
        self, cli_corpus, tmp_path, capsys, key, entry
    ):
        world = json.loads((cli_corpus / "world.json").read_text(encoding="utf-8"))
        at = sorted(world[key])[entry] if key == "page_categories" else entry
        clone = _edit_doc(cli_corpus, tmp_path / "c", "world.json",
                          lambda doc: doc[key].__setitem__(at, 7))
        capsys.readouterr()
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"corpus error: world.json in {clone}: world record {key} ")
        assert f"({key}[{at!r}] is 7)" in err

    def test_world_ad_with_an_unknown_key_is_read(self, cli_corpus, tmp_path):
        clone = _edit_doc(cli_corpus, tmp_path / "c", "world.json",
                          lambda world: world["ads"][0].update(note="kept"))
        assert main(["validate", str(clone), "--spurious-levels", "0.0"]) == 0

    def test_tag_file_is_not_read(self, cli_corpus, tmp_path):
        # validate re-tags every page from world.json
        clone = TestAnalyze._without_key(cli_corpus, tmp_path / "c",
                                         "tags.sim-a.jsonl", "keywords")
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
        pytest.param("report.json", lambda doc: doc.pop("comparisons"), "comparisons",
                     id="report.json-comparisons"),
        pytest.param("report.json", lambda doc: doc.pop("correlation"), "correlation",
                     id="report.json-correlation"),
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

    def test_comparison_and_price_lines_show_the_stored_entries(self, tmp_path, capsys):
        root, manifest, cpc = tmp_path / "two", tmp_path / "m.json", tmp_path / "cpc.json"
        manifest.write_text(json.dumps({
            "seed": 9, "n_personas": 6, "repetitions": 1, "session": {"visit_budget": 25},
            "conditions": [{"geo": "ES"}, {"geo": "US"}],
        }), encoding="utf-8")
        assert main(["simulate", "--out", str(root), "--manifest", str(manifest)]) == 0
        personas = json.loads((root / "personas.json").read_text(encoding="utf-8"))
        pids = sorted(p["id"] for p in personas["personas"])
        fmt, forms = experiment.fmt, set()
        # a price for every persona, then a file that misses a persona
        for prices in ({pid: 1.0 + 0.5 * i for i, pid in enumerate(pids)}, {pids[0]: 1.0}):
            cpc.write_text(json.dumps(prices), encoding="utf-8")
            assert main(["analyze", str(root), "--cpc", str(cpc)]) == 0
            report = json.loads((root / "report.json").read_text(encoding="utf-8"))
            capsys.readouterr()
            assert main(["report", str(root)]) == 0
            out = capsys.readouterr().out.splitlines()
            comparisons = [line for line in out if " vs " in line]
            correlations = [line for line in out if line.startswith("price correlation [")]
            assert len(comparisons) == len(report["comparisons"]) == 1
            assert len(correlations) == len(report["correlation"]) == 2
            for line, comp in zip(comparisons, report["comparisons"]):
                shown = comp.get("error")
                if "diff" in comp:
                    d = comp["diff"]
                    shown = (f"median BAiLP diff {fmt(d['median'])} "
                             f"(IQR {fmt(d['iqr'])}, n={d['n']})")
                assert line == f"{comp['a']} vs {comp['b']}: {shown}"
            for line, corr in zip(correlations, report["correlation"]):
                shown = corr.get("error")
                if "correlation" in corr:
                    c = corr["correlation"]
                    shown = (f"spearman {fmt(c['spearman'])} (p={fmt(c['spearman_p'])}), "
                             f"pearson {fmt(c['pearson'])} (p={fmt(c['pearson_p'])})")
                assert line == f"price correlation [{corr['condition']}]: {shown}"
            forms.update("correlation" in corr for corr in report["correlation"])
        assert forms == {True, False}  # numbers and an error were both printed

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


def _nan_at(path, key, pad=""):
    """Give `key` of the first record of JSONL file `path` the value NaN,
    with the line prefixed by `pad`."""
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    record = json.loads(first)
    record[key] = math.nan
    path.write_text(pad + json.dumps(record) + "\n" + rest, encoding="utf-8")


class TestStrictJson:
    """Every file is standard JSON: NaN and Infinity are refused on reading."""

    @pytest.mark.parametrize("name, key, pad, where", [
        ("visits.jsonl", "t", "", "visits.jsonl:1: "),
        # a padded line goes to the second decoder
        ("impressions.jsonl", "ntimes", " ", "impressions.jsonl:1: "),
    ], ids=["visits", "impressions-padded"])
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_nan_in_a_corpus_log_is_a_data_error_naming_the_line(
        self, cli_corpus, tmp_path, capsys, command, name, key, pad, where
    ):
        clone = tmp_path / "c"
        shutil.copytree(cli_corpus, clone)
        _nan_at(clone / name, key, pad)
        capsys.readouterr()
        assert main([command, str(clone)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corpus error: ") and where in err
        assert err.endswith("NaN is not a JSON value\n")

    @pytest.mark.parametrize("number, shown, at", _first_and_last([
        ("1e400", "inf"), ("-1e400", "-inf"), ("1" + "0" * 400, "100000000000000000...0000000000000000000"),
    ], ids=["exponent", "negative", "integer"]))
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_a_number_beyond_float_range_in_a_record_is_a_data_error_naming_it(
        self, cli_corpus, tmp_path, capsys, command, number, shown, at
    ):
        # standard JSON, which the decoder reads as infinity or a huge integer
        clone = tmp_path / "c"
        shutil.copytree(cli_corpus, clone)
        path = clone / "visits.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[at] = json.dumps(dict(json.loads(lines[at]), t="T")).replace('"T"', number)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([command, str(clone)]) == 3
        record = TestAnalyze._record_number(clone, "visits.jsonl", at)
        assert capsys.readouterr().err == (
            f"corpus error: visits.jsonl in {clone}: record {record} t must be finite, got {shown}\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_nan_in_a_corpus_document_is_a_data_error_naming_the_file(
        self, cli_corpus, tmp_path, capsys, command
    ):
        clone = _edit_doc(cli_corpus, tmp_path / "c", "sessions.json",
                          lambda doc: doc["sessions"][0].update(raw_served=math.nan))
        capsys.readouterr()
        assert main([command, str(clone)]) == 3
        assert capsys.readouterr().err == (
            f"corpus error: unreadable sessions.json in {clone}: NaN is not a JSON value\n"
        )

    def test_nan_in_the_price_file_is_a_config_error(self, cli_corpus, tmp_path, capsys):
        clone = tmp_path / "c"
        shutil.copytree(cli_corpus, clone)
        before = {p.name: p.read_bytes() for p in clone.iterdir()}
        cpc = tmp_path / "cpc.json"
        cpc.write_text('{"p": NaN}', encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(clone), "--cpc", str(cpc)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot read price file {cpc}: NaN is not a JSON value\n"
        )
        assert {p.name: p.read_bytes() for p in clone.iterdir()} == before
