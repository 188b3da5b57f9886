"""Keyword normalization, tree loading, and similarity scoring."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from obameter import KeywordTaxonomy, normalize_keyword
from obameter import taxonomy as taxonomy_module
from obameter.errors import ConfigurationError, ObameterError


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
        assert tiny_taxonomy.max_score == pytest.approx(math.log(6))

    def test_tiny_tree_sibling_score(self, tiny_taxonomy):
        # siblings: path of 3 nodes, -ln(3/6)
        assert tiny_taxonomy.pathlen("dogs", "cats") == 3
        assert tiny_taxonomy.lc_similarity("dogs", "cats") == pytest.approx(
            0.6931, abs=5e-5
        )

    def test_tiny_tree_cross_branch_score(self, tiny_taxonomy):
        # dogs -> animals -> top -> plants: 4 nodes, -ln(4/6)
        assert tiny_taxonomy.pathlen("dogs", "plants") == 4
        assert tiny_taxonomy.lc_similarity("dogs", "plants") == pytest.approx(
            0.4055, abs=5e-5
        )

    def test_identity_is_max_score(self, tiny_taxonomy):
        assert tiny_taxonomy.pathlen("dogs", "dogs") == 1
        assert tiny_taxonomy.lc_similarity("dogs", "dogs") == pytest.approx(
            tiny_taxonomy.max_score
        )

    def test_unknown_keyword_raises(self, tiny_taxonomy):
        with pytest.raises(ObameterError, match="keyword not in taxonomy: 'sharks'"):
            tiny_taxonomy.pathlen("dogs", "sharks")

    def test_demo_tree_shape(self, taxonomy):
        assert len(taxonomy) == 205
        assert taxonomy.max_depth == 19
        assert taxonomy.max_score == pytest.approx(math.log(38))

    def test_threshold_separates_siblings_from_cousins(self, taxonomy):
        # 3-node paths score above 2.5, 4-node paths below
        assert taxonomy.lc_similarity("motor sports", "motorcycles") > 2.5
        assert taxonomy.pathlen("inground pools", "hot tubs & spas") == 4
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


def _similar_or_exact_oracle(tax, k, l, threshold):
    if k in tax and l in tax:
        return tax.lc_similarity(k, l) > threshold
    return normalize_keyword(k) == normalize_keyword(l)


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
        scores = [-math.log(n / (2 * taxonomy.max_depth))
                  for n in range(1, 2 * taxonomy.max_depth + 1)]
        threshold = data.draw(st.one_of(
            st.floats(0.0, taxonomy.max_score + 0.5), st.sampled_from(scores)
        ))
        assert (taxonomy.similar_or_exact(k, l, threshold)
                == _similar_or_exact_oracle(taxonomy, k, l, threshold))
        score = taxonomy.score(k, l)
        assert score == taxonomy.score(l, k)
        assert taxonomy.similar_or_exact(k, l, threshold) == (score > threshold)
        if k in taxonomy and l in taxonomy:
            assert score == taxonomy.lc_similarity(k, l)
        else:
            assert score == (math.inf if normalize_keyword(k) == normalize_keyword(l)
                             else 0.0)

    def test_score_outside_the_tree(self, taxonomy):
        assert taxonomy.score("blockchain", "  BLOCKCHAIN ") == math.inf
        assert taxonomy.score("blockchain", "web3") == 0.0
        assert taxonomy.score("blockchain", "banking") == 0.0
        assert taxonomy.score("banking", "banking") == taxonomy.max_score

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
        assert tree.pathlen("jaguar", "cars") == 2
        assert tree.pathlen("jaguar", "cats") == 2
        assert tree.pathlen("jaguar", "jaguar") == 1

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
        for _ in range(300):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert tree.pathlen(a, b) == tree.pathlen(b, a)
            score = tree.lc_similarity(a, b)
            assert 0.0 < score <= tree.max_score + 1e-12
            if a == b:
                assert tree.pathlen(a, b) == 1
