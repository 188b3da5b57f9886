"""Outcome metrics and statistics.

TTK (trained-to-landing keyword overlap) and BAiLP (behaviourally matched
ad share) quantify how strongly surviving ads reflect the training:

    ttk   = |K_T intersect K_L| / |K_T|
    bailp = sum(ntimes over matched impressions) / sum(ntimes over all)

An impression matches when its landing page shares a training keyword;
the caller decides that once per impression, and BAiLP and detection
performance sum the result. Detection performance weighs every displayed
ad (ntimes), not just distinct landing pages, so a frequently repeated
ad counts as often as it was shown.

Correlation against ad prices removes CPC outliers outside
[Q1 - 1.5 IQR, Q3 + 1.5 IQR] first. Quartiles use the median-exclusive
convention: with an odd count the median belongs to neither half. The
Pearson p-value is the two-sided Student-t tail with n - 2 degrees of
freedom, computed in the standard library from the regularised
incomplete beta function I_x(df/2, 1/2) at x = df / (df + t^2); the
Spearman p-value is the large-sample normal approximation. Both are
reported, never gated on.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from .corpus import AdImpression, _to_record
from .errors import (
    CorpusDataError,
    DegenerateSeries,
    EmptyTrainingSet,
    KeyMismatch,
    NoImpressions,
)

POSITIVE_LABEL = "oba"


def ttk(training_keywords: AbstractSet[str], landing_keywords: AbstractSet[str]) -> float:
    """Fraction of training keywords that reappear across landing pages."""
    if not training_keywords:
        raise EmptyTrainingSet("TTK needs a non-empty training keyword set")
    return len(training_keywords & landing_keywords) / len(training_keywords)


def bailp(matches: Iterable[bool], ntimes: Sequence[int]) -> float:
    """ntimes-weighted share of matched impressions.

    matches and ntimes hold one entry per impression, in one order.
    Raises NoImpressions when there is none (zero total).
    """
    total = sum(ntimes)
    if total <= 0:
        raise NoImpressions("BAiLP needs at least one impression")
    return sum(itertools.compress(ntimes, matches)) / total


@dataclass
class PerformanceReport:
    """Confusion counts (ntimes-weighted) and the derived rates.

    A rate whose denominator is zero is None, never a fake zero.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else None

    @property
    def accuracy(self) -> float | None:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else None

    @property
    def fpr(self) -> float | None:
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else None

    @property
    def fnr(self) -> float | None:
        return self.fn / (self.fn + self.tp) if (self.fn + self.tp) else None

    def __add__(self, other: "PerformanceReport") -> "PerformanceReport":
        return PerformanceReport(tp=self.tp + other.tp, fp=self.fp + other.fp,
                                 tn=self.tn + other.tn, fn=self.fn + other.fn)

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "recall": self.recall, "accuracy": self.accuracy,
            "fpr": self.fpr, "fnr": self.fnr,
        }


def detection_performance(
    impressions: Iterable[AdImpression],
    predicted: Iterable[AdImpression],
) -> PerformanceReport:
    """Score predicted-OBA impressions against ground-truth labels.

    predicted holds the impressions of the pool `impressions` that the
    tool classified as OBA (survived every filter and share a training
    keyword). TP and FP sum the predicted ones by label, FN and TN are
    the pool's sums less those. Raises CorpusDataError on any unlabeled
    impression.
    """
    pos, neg = _label_sums(impressions)
    tp, fp = _label_sums(predicted)
    return PerformanceReport(tp=tp, fp=fp, tn=neg - fp, fn=pos - tp)


def _label_sums(impressions: Iterable[AdImpression]) -> tuple[int, int]:
    """(ntimes labelled OBA, ntimes labelled otherwise)."""
    pos = neg = 0
    for imp in impressions:
        if imp.ground_truth == POSITIVE_LABEL:
            pos += imp.ntimes
        elif imp.ground_truth is None:
            raise CorpusDataError(f"impression of {imp.session_id} landing on "
                                  f"{imp.landing_page} has no ground-truth label")
        else:
            neg += imp.ntimes
    return pos, neg


# ---------------------------------------------------------------------------
# order statistics


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), each quartile the median of one half.

    With n odd the median is left out of both halves. With fewer than 3
    values the quartiles collapse toward the median.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise DegenerateSeries("quartiles of an empty series")
    med = statistics.median(data)
    if n == 1:
        return data[0], med, data[0]
    half = n // 2
    return statistics.median(data[:half]), med, statistics.median(data[n - half:])


def iqr_bounds(values: Sequence[float]) -> tuple[float, float]:
    """Tukey fences [Q1 - 1.5 IQR, Q3 + 1.5 IQR]."""
    q1, _, q3 = quartiles(values)
    iqr = q3 - q1
    return q1 - 1.5 * iqr, q3 + 1.5 * iqr


@dataclass
class CorrelationReport:
    spearman: float
    spearman_p: float
    pearson: float
    pearson_p: float
    n_used: int
    removed_keys: list

    def to_dict(self) -> dict:
        return _to_record(self)


def value_correlation(bailp_by_key: Mapping, cpc_by_key: Mapping) -> CorrelationReport:
    """Spearman and Pearson between BAiLP and ad price, outliers removed.

    Pairs align by key. CPC values outside the Tukey fences drop out
    before anything is computed. Raises KeyMismatch for differing key
    sets and DegenerateSeries when fewer than 3 pairs remain or either
    surviving series is constant.
    """
    if set(bailp_by_key) != set(cpc_by_key):
        raise KeyMismatch(
            f"series keys differ: {sorted(set(bailp_by_key) ^ set(cpc_by_key))!r}"
        )
    keys = sorted(bailp_by_key)
    if not keys:
        raise DegenerateSeries("correlation of empty series")
    lo, hi = iqr_bounds([cpc_by_key[k] for k in keys])
    used = [k for k in keys if lo <= cpc_by_key[k] <= hi]
    removed = [k for k in keys if k not in set(used)]
    if len(used) < 3:
        raise DegenerateSeries(
            f"only {len(used)} pairs left after outlier removal, need 3"
        )
    xs = [bailp_by_key[k] for k in used]
    ys = [cpc_by_key[k] for k in used]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise DegenerateSeries("constant series has no defined correlation")

    pearson = _pearson(xs, ys)
    spearman = _pearson(_average_ranks(xs), _average_ranks(ys))
    n = len(used)
    pearson_p = _pearson_p_t_approx(pearson, n)
    spearman_p = _spearman_p_normal_approx(spearman, n)
    return CorrelationReport(
        spearman=spearman, spearman_p=spearman_p,
        pearson=pearson, pearson_p=pearson_p,
        n_used=n, removed_keys=removed,
    )


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's r of two non-constant series, mean-centred in a second
    pass and clamped to [-1, 1] against rounding."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of `values`; tied values share their mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for i in order[start:end]:
            ranks[i] = (start + end + 1) / 2
        start = end
    return ranks


def _pearson_p_t_approx(r: float, n: int) -> float:
    """Two-sided p via the t distribution with n - 2 degrees of freedom."""
    if n <= 2:
        return 1.0
    denom = 1.0 - r * r
    if denom <= 0.0:
        return 0.0
    t = abs(r) * math.sqrt((n - 2) / denom)
    return _t_two_sided_p(t, n - 2)


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom, t >= 0.

    That is I_x(df/2, 1/2) with x = df / (df + t^2). The complement
    t^2 / (df + t^2) is computed as such, not as 1 - x, which would lose
    every digit of a small t^2 against df.
    """
    t2 = t * t
    return _regularized_beta(df / 2, 0.5, df / (df + t2), t2 / (df + t2))


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], given y = 1 - x."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    # the fraction converges fast below this point; above it, use
    # I_x(a, b) = 1 - I_y(b, a)
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


_FRACTION_EPS = sys.float_info.epsilon
_FRACTION_TINY = 1e-300
_FRACTION_MAX_TERMS = 10_000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method
    (Numerical Recipes `betacf`)."""

    def nonzero(v: float) -> float:
        return v if abs(v) >= _FRACTION_TINY else _FRACTION_TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, _FRACTION_MAX_TERMS + 1):
        # the even term d_2m, then the odd term d_2m+1
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < _FRACTION_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}"
    )


def _spearman_p_normal_approx(rho: float, n: int) -> float:
    """Two-sided p via z = rho * sqrt(n - 1), the large-sample normal."""
    z = abs(rho) * math.sqrt(n - 1)
    return math.erfc(z / math.sqrt(2.0))


@dataclass
class ComparisonStats:
    """Five-number summary of per-key differences a - b (boxplot food)."""

    n: int
    mean: float
    median: float
    q1: float
    q3: float
    iqr: float
    min: float
    max: float

    def to_dict(self) -> dict:
        return _to_record(self)


def comparison_stats(series_a: Mapping, series_b: Mapping) -> ComparisonStats:
    """Summarize paired differences a[k] - b[k] over the shared keys."""
    if set(series_a) != set(series_b):
        raise KeyMismatch(
            f"series keys differ: {sorted(set(series_a) ^ set(series_b))!r}"
        )
    keys = sorted(series_a)
    if not keys:
        raise DegenerateSeries("comparison of empty series")
    diffs = [series_a[k] - series_b[k] for k in keys]
    q1, med, q3 = quartiles(diffs)
    return ComparisonStats(
        n=len(diffs),
        mean=statistics.fmean(diffs),
        median=med,
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        min=min(diffs),
        max=max(diffs),
    )
