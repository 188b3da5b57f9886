"""Metric formulas, order statistics, and correlation plumbing."""

import math
import random

import pytest
from scipy import stats as scipy_stats

from obameter import (
    AdImpression,
    bailp,
    comparison_stats,
    detection_performance,
    ttk,
    value_correlation,
)
from obameter.errors import (
    CorpusDataError,
    DegenerateSeries,
    EmptyTrainingSet,
    KeyMismatch,
    NoImpressions,
)
from obameter.metrics import PerformanceReport, _t_two_sided_p, iqr_bounds, quartiles


class TestTtk:
    def test_fraction_of_training_keywords(self):
        assert ttk({"a", "b", "c", "d"}, {"a", "c", "x"}) == 0.5

    def test_disjoint_sets_score_zero(self):
        assert ttk({"a"}, {"b"}) == 0.0

    def test_landing_extras_do_not_help(self):
        assert ttk({"a", "b"}, {"a", "b", "c", "d", "e"}) == 1.0

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            ttk(set(), {"a"})


class TestBailp:
    def test_weighted_by_ntimes(self):
        assert bailp([True, False], [3, 7]) == pytest.approx(0.3)

    def test_counts_unmatched_in_denominator_only(self):
        assert bailp([True, False, True], [1, 1, 2]) == pytest.approx(0.75)

    def test_no_impressions_rejected(self):
        with pytest.raises(NoImpressions):
            bailp([], [])


def _imp(pid, landing, ntimes, label):
    return AdImpression(persona_id=pid, session_id="s",
                        control_page="https://c.example/",
                        landing_page=landing, ntimes=ntimes,
                        ground_truth=label)


class TestDetectionPerformance:
    def test_ntimes_weighted_confusion(self):
        imps = [
            _imp("p", "https://a.example/1", 5, "oba"),
            _imp("p", "https://a.example/2", 2, "oba"),
            _imp("p", "https://a.example/3", 3, "contextual"),
            _imp("p", "https://a.example/4", 7, "static"),
        ]
        report = detection_performance(imps, [imps[0], imps[2]])
        assert (report.tp, report.fn, report.fp, report.tn) == (5, 2, 3, 7)
        assert report.recall == pytest.approx(5 / 7)
        assert report.fpr == pytest.approx(3 / 10)
        assert report.accuracy == pytest.approx(12 / 17)
        assert report.fnr == pytest.approx(2 / 7)

    def test_unlabeled_impression_rejected(self):
        imp = _imp("p", "https://a.example/1", 1, None)
        with pytest.raises(CorpusDataError, match="has no ground-truth label"):
            detection_performance([imp], [])

    def test_rates_are_none_on_zero_denominator(self):
        imps = [_imp("p", "https://a.example/1", 4, "static")]
        report = detection_performance(imps, [])
        assert report.recall is None
        assert report.fnr is None
        assert report.fpr == 0.0
        assert report.accuracy == 1.0

    def test_empty_report_has_no_rates(self):
        report = PerformanceReport(tp=0, fp=0, tn=0, fn=0)
        as_dict = report.to_dict()
        assert as_dict["recall"] is None
        assert as_dict["accuracy"] is None
        assert as_dict["fpr"] is None
        assert as_dict["fnr"] is None


class TestQuartiles:
    def test_odd_exclusive(self):
        assert quartiles([7, 1, 3, 2, 6, 5, 4]) == (2, 4, 6)

    def test_even(self):
        assert quartiles([8, 1, 5, 2, 6, 3, 7, 4]) == (2.5, 4.5, 6.5)

    def test_singleton_collapses(self):
        assert quartiles([42.0]) == (42.0, 42.0, 42.0)

    def test_pair(self):
        assert quartiles([1.0, 3.0]) == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSeries):
            quartiles([])

    def test_iqr_bounds(self):
        assert iqr_bounds([1, 2, 3, 4, 5, 6, 7]) == (-4.0, 12.0)


class TestValueCorrelation:
    def test_monotone_scores_perfect_spearman(self):
        keys = [f"p{i}" for i in range(10)]
        bailp_by = {k: i / 10 for i, k in enumerate(keys)}
        cpc_by = {k: (i + 1) ** 1.5 for i, k in enumerate(keys)}
        report = value_correlation(bailp_by, cpc_by)
        assert report.spearman == pytest.approx(1.0)
        assert 0.9 < report.pearson < 1.0
        assert report.n_used == 10
        assert report.removed_keys == []

    def test_constant_series_rejected(self):
        keys = ["a", "b", "c", "d"]
        flat = {k: 0.5 for k in keys}
        rising = {k: float(i) for i, k in enumerate(keys)}
        with pytest.raises(DegenerateSeries):
            value_correlation(flat, rising)
        with pytest.raises(DegenerateSeries):
            value_correlation(rising, flat)

    def test_key_mismatch_rejected(self):
        with pytest.raises(KeyMismatch, match="d"):
            value_correlation({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "d": 3})

    def test_too_few_pairs_rejected(self):
        with pytest.raises(DegenerateSeries):
            value_correlation({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0})
        with pytest.raises(DegenerateSeries):
            value_correlation({}, {})

    def test_cpc_outlier_removed_and_reported(self):
        bailp_by = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4, "e": 0.5, "f": 0.6}
        cpc_by = {"a": 0.9, "b": 0.95, "c": 1.0, "d": 1.05, "e": 1.1, "f": 100.0}
        report = value_correlation(bailp_by, cpc_by)
        assert report.removed_keys == ["f"]
        assert report.n_used == 5
        assert report.spearman == pytest.approx(1.0)

    def test_pearson_p_matches_t_distribution(self):
        rng = random.Random(7)
        keys = [f"k{i:02d}" for i in range(25)]
        xs = {k: rng.random() for k in keys}
        ys = {k: 2 * xs[k] + rng.gauss(0, 0.3) for k in keys}
        report = value_correlation(xs, ys)
        used = [k for k in sorted(keys) if k not in set(report.removed_keys)]
        ref = scipy_stats.pearsonr([xs[k] for k in used], [ys[k] for k in used])
        assert report.pearson == pytest.approx(float(ref.statistic), abs=1e-12)
        assert report.pearson_p == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_spearman_p_is_the_normal_approximation(self):
        rng = random.Random(11)
        keys = [f"k{i:02d}" for i in range(20)]
        xs = {k: rng.random() for k in keys}
        ys = {k: rng.random() for k in keys}
        report = value_correlation(xs, ys)
        z = abs(report.spearman) * math.sqrt(report.n_used - 1)
        assert report.spearman_p == pytest.approx(math.erfc(z / math.sqrt(2)))


    def test_spearman_of_tied_values_matches_scipy(self):
        rng = random.Random(5)
        for _ in range(50):
            keys = [f"k{i:02d}" for i in range(rng.randint(4, 30))]
            xs = {k: rng.choice([0.25, 0.5, 0.75, 1.0]) for k in keys}
            ys = {k: rng.choice([1.0, 1.5, 2.0]) + xs[k] for k in keys}
            report = value_correlation(xs, ys)
            used = [k for k in sorted(keys) if k not in set(report.removed_keys)]
            ref = scipy_stats.spearmanr([xs[k] for k in used], [ys[k] for k in used])
            assert report.spearman == pytest.approx(float(ref.statistic), abs=1e-12)

    def test_pearson_of_offset_series_matches_scipy(self):
        rng = random.Random(6)
        for _ in range(50):
            keys = [f"k{i:02d}" for i in range(rng.randint(3, 30))]
            xs = {k: 1e9 + rng.random() for k in keys}
            ys = {k: xs[k] + rng.gauss(0, 0.5) for k in keys}
            report = value_correlation(xs, ys)
            used = [k for k in sorted(keys) if k not in set(report.removed_keys)]
            ref = scipy_stats.pearsonr([xs[k] for k in used], [ys[k] for k in used])
            assert report.pearson == pytest.approx(float(ref.statistic), abs=1e-12)


class TestStudentTail:
    DFS = [*range(1, 301), 500, 1_000, 5_000, 100_000]

    @pytest.mark.parametrize("t", [0, 1e-3, 0.1, 0.5, 1, 2, 3, 5, 10, 30, 100, 1e4])
    def test_two_sided_p_matches_scipy(self, t):
        for df in self.DFS:
            ref = 2 * scipy_stats.t.sf(t, df)
            assert _t_two_sided_p(t, df) == pytest.approx(float(ref), abs=1e-10), df

    def test_closed_forms_at_a_tiny_t(self):
        # scipy rounds these to 1.0 (2 * t.sf(1e-9, 1) == 1.0), but
        # 1 - p is 6.4e-10 for df = 1
        t = 1e-9
        assert _t_two_sided_p(t, 1) == pytest.approx(
            1 - 2 / math.pi * math.atan(t), abs=1e-15
        )
        assert _t_two_sided_p(t, 2) == pytest.approx(1 - t / math.sqrt(2 + t * t), abs=1e-15)
        assert _t_two_sided_p(t, 1) < 1.0


class TestComparisonStats:
    def test_five_number_summary_of_diffs(self):
        keys = list("abcdefg")
        deltas = [5, 3, 8, 1, 9, 2, 7]
        a = {k: 10.0 + d for k, d in zip(keys, deltas)}
        b = {k: 10.0 for k in keys}
        stats = comparison_stats(a, b)
        assert stats.n == 7
        assert stats.mean == pytest.approx(5.0)
        assert (stats.q1, stats.median, stats.q3) == (2, 5, 8)
        assert stats.iqr == 6
        assert (stats.min, stats.max) == (1, 9)

    def test_key_mismatch_rejected(self):
        with pytest.raises(KeyMismatch):
            comparison_stats({"a": 1.0}, {"b": 1.0})

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSeries):
            comparison_stats({}, {})
