"""Keyword normalization, tree loading, and similarity scoring."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from obameter import KeywordTaxonomy, normalize_keyword
from obameter import taxonomy as taxonomy_module
from obameter.demo import demo_taxonomy
from obameter.errors import ConfigurationError, ObameterError

import reference


class TestNormalization:
    def test_case_and_separators(self):
        assert normalize_keyword("  Swimming_Pools &  Spas ") == "swimming pools & spas"

    def test_idempotent(self):
        once = normalize_keyword("Gems_&_Jewellery")
        assert normalize_keyword(once) == once

    def test_tabs_and_newlines_collapse(self):
        assert normalize_keyword("a\t\nb") == "a b"


class TestLoading:
    def test_round_trip_text(self, taxonomy):
        from obameter.demo import demo_taxonomy_text
        again = KeywordTaxonomy.loads(demo_taxonomy_text())
        assert len(again) == len(taxonomy)
        assert again.max_depth == taxonomy.max_depth

    def test_duplicate_node_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            KeywordTaxonomy.from_edges([("a", "-"), ("b", "a"), ("b", "a")])

    def test_multiple_roots_named(self):
        with pytest.raises(ConfigurationError, match="multiple roots") as err:
            KeywordTaxonomy.from_edges([("a", "-"), ("b", "-")])
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_unknown_parent_rejected(self):
        with pytest.raises(ConfigurationError, match="ghost"):
            KeywordTaxonomy.from_edges([("a", "-"), ("b", "ghost")])

    def test_cycle_names_a_node(self):
        with pytest.raises(ConfigurationError, match="cycle through node"):
            KeywordTaxonomy.from_edges([("a", "-"), ("b", "c"), ("c", "b")])

    def test_empty_text_rejected(self):
        with pytest.raises(ConfigurationError, match="empty keyword text"):
            KeywordTaxonomy.from_edges([("a", "-"), ("  ", "a")])

    def test_loads_reports_line_numbers(self):
        text = "a\t-\nb\n"
        with pytest.raises(ConfigurationError, match="line 2"):
            KeywordTaxonomy.loads(text)

    def test_loads_ends_a_line_at_newline_only(self):
        tree = KeywordTaxonomy.loads("root\t-\r\nfoo\x85bar\troot\nbaz\u2028qux\troot\n")
        assert len(tree) == 3
        assert "foo\x85bar" in tree and "baz\u2028qux" in tree
        with pytest.raises(ConfigurationError, match="line 4: .* got 'bad'"):
            KeywordTaxonomy.loads("root\t-\nfoo\x85bar\troot\nbaz\u2028qux\troot\nbad\n")

    def test_loads_skips_blanks_and_comments(self):
        tree = KeywordTaxonomy.loads("# comment\na\t-\n\nb\ta\n")
        assert len(tree) == 2

    def test_load_file(self, tmp_path):
        p = tmp_path / "tree.tsv"
        p.write_text("a\t-\nb\ta\n", encoding="utf-8")
        assert len(KeywordTaxonomy.load(p)) == 2


class TestSimilarity:
    def test_tiny_tree_depth(self, tiny_taxonomy):
        assert tiny_taxonomy.max_depth == 3
        assert reference.scores(tiny_taxonomy)[0] == pytest.approx(math.log(6))

    def test_tiny_tree_sibling_score(self, tiny_taxonomy):
        # siblings: path of 3 nodes, -ln(3/6)
        assert reference.pathlen(tiny_taxonomy, "dogs", "cats") == 3
        assert tiny_taxonomy.lc_similarity("dogs", "cats") == pytest.approx(
            0.6931, abs=5e-5
        )
        assert tiny_taxonomy.score("dogs", "cats") == reference.score(tiny_taxonomy, "dogs", "cats")

    def test_tiny_tree_cross_branch_score(self, tiny_taxonomy):
        # dogs -> animals -> top -> plants: 4 nodes, -ln(4/6)
        assert reference.pathlen(tiny_taxonomy, "dogs", "plants") == 4
        assert tiny_taxonomy.lc_similarity("dogs", "plants") == pytest.approx(
            0.4055, abs=5e-5
        )
        assert (tiny_taxonomy.score("dogs", "plants")
                == reference.score(tiny_taxonomy, "dogs", "plants"))

    def test_identity_is_max_score(self, tiny_taxonomy):
        assert reference.pathlen(tiny_taxonomy, "dogs", "dogs") == 1
        assert tiny_taxonomy.lc_similarity("dogs", "dogs") == reference.scores(tiny_taxonomy)[0]

    def test_unknown_keyword_raises(self, tiny_taxonomy):
        with pytest.raises(ObameterError, match="keyword not in taxonomy: 'sharks'"):
            tiny_taxonomy.lc_similarity("dogs", "sharks")

    def test_demo_tree_shape(self, taxonomy):
        assert len(taxonomy) == 205
        assert taxonomy.max_depth == 19
        assert taxonomy.score("banking", "banking") == math.log(38)

    def test_threshold_separates_siblings_from_cousins(self, taxonomy):
        # 3-node paths score above 2.5, 4-node paths below
        assert taxonomy.lc_similarity("motor sports", "motorcycles") > 2.5
        assert reference.pathlen(taxonomy, "inground pools", "hot tubs & spas") == 4
        assert taxonomy.lc_similarity("inground pools", "hot tubs & spas") < 2.5

    def test_similar_is_strict(self, taxonomy):
        score = taxonomy.lc_similarity("motor sports", "motorcycles")
        assert taxonomy.similar_or_exact("motor sports", "motorcycles", score) is False
        assert taxonomy.similar_or_exact("motor sports", "motorcycles", score - 1e-9)

    def test_exact_fallback_outside_tree(self, taxonomy):
        assert taxonomy.similar_or_exact("blockchain", "Blockchain", 99.0)
        assert not taxonomy.similar_or_exact("blockchain", "podcasts", 0.1)

    def test_fallback_only_when_either_side_unknown(self, taxonomy):
        # both in tree: the threshold decides, not string equality
        assert taxonomy.similar_or_exact("motor sports", "motorcycles", 2.5)
        assert not taxonomy.similar_or_exact("banking", "dating", 2.5)


# spellings that normalize_keyword maps back to the word itself
_RESPELLINGS = (
    lambda w: w,
    str.upper,
    lambda w: w.replace(" ", "_"),
    lambda w: f"  {w.title()}\t",
    lambda w: w.replace(" ", " _\n "),
)


class TestSimilarOrExactOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_the_oracle(self, taxonomy, data):
        words = st.sampled_from(
            taxonomy.keywords() + ["blockchain", "web3", "zzz unknown", ""]
        )
        spell = st.sampled_from(_RESPELLINGS)
        word_k = data.draw(words)
        word_l = data.draw(st.one_of(st.just(word_k), words))
        k, l = data.draw(spell)(word_k), data.draw(spell)(word_l)
        scores = reference.scores(taxonomy)
        threshold = data.draw(st.one_of(
            st.floats(0.0, scores[0] + 0.5), st.sampled_from(scores)
        ))
        score = reference.score(taxonomy, k, l)
        assert taxonomy.similar_or_exact(k, l, threshold) == (score > threshold)
        assert taxonomy.score(k, l) == taxonomy.score(l, k) == score
        if k in taxonomy and l in taxonomy:
            assert taxonomy.lc_similarity(k, l) == score

    def test_score_outside_the_tree(self, taxonomy):
        assert taxonomy.score("blockchain", "  BLOCKCHAIN ") == math.inf
        assert taxonomy.score("blockchain", "web3") == 0.0
        assert taxonomy.score("blockchain", "banking") == 0.0
        assert taxonomy.score("banking", "banking") == math.log(38)

    def test_normalizes_each_argument_once(self, taxonomy, monkeypatch):
        seen = []

        def counted(text):
            seen.append(text)
            return normalize_keyword(text)

        monkeypatch.setattr(taxonomy_module, "normalize_keyword", counted)
        assert taxonomy.similar_or_exact("Motor_Sports", "motorcycles", 2.5)
        assert taxonomy.similar_or_exact("ZZZ   Unknown", "zzz unknown", 2.5)
        assert seen == ["Motor_Sports", "motorcycles", "ZZZ   Unknown", "zzz unknown"]
        seen.clear()
        assert taxonomy.score("Motor_Sports", "motorcycles") > 2.5
        assert taxonomy.score("ZZZ   Unknown", "web3") == 0.0
        assert seen == ["Motor_Sports", "motorcycles", "ZZZ   Unknown", "web3"]


class TestSenses:
    def test_sense_suffix_merges_text(self):
        tree = KeywordTaxonomy.from_edges([
            ("top", "-"),
            ("cars", "top"),
            ("cats", "top"),
            ("jaguar#1", "cars"),
            ("jaguar#2", "cats"),
        ])
        assert len(tree) == 5
        # min over sense pairs: jaguar#1 is a direct child of cars
        assert reference.pathlen(tree, "jaguar", "cars") == 2
        assert reference.pathlen(tree, "jaguar", "cats") == 2
        assert reference.pathlen(tree, "jaguar", "jaguar") == 1
        for other in ("cars", "cats", "jaguar", "top"):
            assert tree.score("jaguar", other) == reference.score(tree, "jaguar", other)

    def test_sense_ids_must_differ(self):
        with pytest.raises(ConfigurationError, match="duplicate node declaration: 'jaguar#1'"):
            KeywordTaxonomy.from_edges([
                ("top", "-"), ("a", "top"), ("jaguar#1", "top"), ("jaguar#1", "a"),
            ])


class TestRandomTreeProperties:
    def test_symmetry_and_bounds(self):
        rng = random.Random(424)
        nodes = ["top"]
        edges = [("top", "-")]
        for i in range(1, 200):
            name = f"node {i}"
            edges.append((name, rng.choice(nodes)))
            nodes.append(name)
        tree = KeywordTaxonomy.from_edges(edges)
        top = reference.scores(tree)[0]
        for _ in range(300):
            a, b = rng.choice(nodes), rng.choice(nodes)
            score = tree.lc_similarity(a, b)
            assert score == tree.lc_similarity(b, a) == reference.score(tree, a, b)
            assert 0.0 < score <= top
            if a == b:
                assert score == top


# two multi-sense keywords, the nearer sense of each not the first, and a
# chain four deep under one of them; D = 6
_SENSES = KeywordTaxonomy.from_edges([
    ("root", "-"),
    ("vehicles", "root"), ("cars", "vehicles"), ("jaguar#1", "cars"),
    ("sedan", "cars"), ("compact sedan", "sedan"), ("city car", "compact sedan"),
    ("boats", "vehicles"), ("bass#1", "boats"),
    ("animals", "root"), ("cats", "animals"), ("jaguar#2", "cats"), ("lion", "cats"),
    ("fish", "animals"), ("bass#2", "fish"), ("trout", "fish"),
    ("music", "root"), ("bass#3", "music"), ("guitar", "music"),
])
# every form, some spelt other than canonically, and two outside the tree
_ASKED = [*_SENSES.keywords(), "Jaguar", "compact_sedan", "  Lion ", "web3", "Web 3", "WEB3"]


def _thresholds(taxonomy):
    """Every attainable score, its float neighbours, and ln(2D) and above,
    where no keyword of the tree is similar to itself."""
    scores = reference.scores(taxonomy)
    return sorted({
        t for s in scores for t in (s, math.nextafter(s, -1.0), math.nextafter(s, math.inf))
        if t >= 0
    } | {scores[0] + 0.5})


class TestNeighbours:
    @pytest.mark.parametrize("threshold", _thresholds(_SENSES))
    def test_neighbours_are_the_pairs_similar_or_exact_admits(self, threshold):
        near = _SENSES.neighbours(_ASKED, threshold)
        assert near == {
            k: {l for l in _ASKED if _SENSES.similar_or_exact(k, l, threshold)}
            for k in _ASKED
        }

    def test_on_the_demo_tree(self, taxonomy):
        asked = random.Random(3).sample(taxonomy.keywords(), 60) + ["web3", "Pools"]
        for threshold in _thresholds(taxonomy):
            near = taxonomy.neighbours(asked, threshold)
            assert near == {
                k: {l for l in asked if taxonomy.similar_or_exact(k, l, threshold)}
                for k in asked
            }, threshold

    def test_at_ln_2d_and_above_only_outside_keywords_are_their_own_neighbours(self):
        top = reference.scores(_SENSES)[0]
        for threshold in (top, top + 0.5):
            near = _SENSES.neighbours(_ASKED, threshold)
            assert near["jaguar"] == near["Jaguar"] == set()
            assert near["web3"] == {"web3", "WEB3"} and near["Web 3"] == {"Web 3"}

    @pytest.mark.parametrize("threshold", _thresholds(_SENSES))
    def test_the_walk_reaches_each_form_within_the_largest_admissible_length(self, threshold):
        reach = max((p for p in range(1, 2 * _SENSES.max_depth + 1)
                     if -math.log(p / (2 * _SENSES.max_depth)) > threshold), default=0)
        for form, nodes in _SENSES.senses.items():
            lengths = {other: reference.pathlen(_SENSES, form, other) for other in _SENSES.senses}
            assert _SENSES._lengths(nodes, reach) == {
                other: p for other, p in lengths.items() if p <= reach
            }, form

    @pytest.mark.parametrize("thresholds", [(2.5, 1.0), (1.0, 2.5)])
    def test_a_kept_walk_answers_only_its_own_reach(self, thresholds):
        # on the demo tree the reach is 3 nodes at 2.5 and 13 at 1.0, so a
        # walk kept from the first call must not answer the second
        tree = demo_taxonomy()
        asked = random.Random(5).sample(tree.keywords(), 60)
        near = [tree.neighbours(asked, threshold) for threshold in thresholds]
        assert near == [demo_taxonomy().neighbours(asked, threshold) for threshold in thresholds]
        assert near[0] != near[1]

    def test_the_nearer_sense_decides(self):
        # jaguar#2 is a sibling of lion, jaguar#1 three nodes further
        assert reference.pathlen(_SENSES, "jaguar", "lion") == 3
        near = _SENSES.neighbours(["jaguar", "lion", "sedan"], -math.log(4 / 12))
        assert near == {"jaguar": {"jaguar", "lion", "sedan"}, "lion": {"jaguar", "lion"},
                        "sedan": {"jaguar", "sedan"}}

    def test_the_spellings_of_one_form_share_one_set(self, taxonomy):
        # a sense key beside its non-canonical spellings, and a form outside
        # the tree spelt both ways; the sense key skips normalization
        asked = ["pools", "Pools", " POOLS", "inground pools", "web3", "Web3"]
        near = taxonomy.neighbours(asked, taxonomy.score("pools", "inground pools") - 0.01)
        assert near["pools"] is near["Pools"] is near[" POOLS"]
        assert near["web3"] is near["Web3"]
        assert near["pools"] == {"pools", "Pools", " POOLS", "inground pools"}
        assert near["inground pools"] == {"pools", "Pools", " POOLS", "inground pools"}
        assert near["web3"] == {"web3", "Web3"}

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan, -0.1, 10**400])
    def test_threshold_must_be_finite_and_non_negative(self, taxonomy, threshold):
        with pytest.raises(ConfigurationError, match="threshold must be finite and >= 0"):
            taxonomy.neighbours(["pools"], threshold)
