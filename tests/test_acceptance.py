"""Acceptance gate: nine checks at pinned tolerances.

conftest.py turns each test_criterion_NN result into one PASS/FAIL line
in the terminal summary. The oracles, in reference.py, recompute every
checked value by an independent route (ancestor walks, brute-force
counting, textbook covariance formulas) rather than calling back into the
implementation.
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

import pytest
from scipy import stats as scipy_stats

import pools_fixture
import reference
from obameter import (
    AdImpression,
    ExperimentManifest,
    FilterConfig,
    KeywordTaxonomy,
    Persona,
    SessionConfig,
    SimConfig,
    WebPage,
    apply_filters,
    bailp,
    build_audience,
    build_world,
    comparison_stats,
    consensus_training_keywords,
    demo_taxonomy,
    landing_key,
    run_session,
    simulate,
    ttk,
    validate,
    value_correlation,
)
from obameter.adsim import default_persona_specs
from obameter.experiment import _matches
from obameter.metrics import iqr_bounds, quartiles
from obameter.persona import ConsensusConfig
from obameter.session import schedule_visits

# ---------------------------------------------------------------------------
# random trees


def _random_tree(n_nodes: int, seed: int):
    """Random single-rooted tree; returns (taxonomy, edge list)."""
    rng = random.Random(seed)
    names = [f"n{i:03d}" for i in range(n_nodes)]
    edges = [(names[0], "-")]
    for i in range(1, n_nodes):
        edges.append((names[i], names[rng.randrange(i)]))
    return KeywordTaxonomy.from_edges(edges), edges


def _ntimes(imps):
    return sum(i.ntimes for i in imps)


# ---------------------------------------------------------------------------
# criterion 1: similarity, TTK and BAiLP against brute-force oracles


def test_criterion_01_formula_oracles():
    t0 = time.monotonic()
    tax, edges = _random_tree(500, seed=1001)
    # the parsed maps the reference walks: the edges, and each node's depth
    # its ancestor count, the root at 1
    assert tax.parent == {child: None if par == "-" else par for child, par in edges}
    assert tax.depth == {node: len(reference.ancestors(tax, node)) for node in tax.parent}
    assert tax.max_depth == max(tax.depth.values())
    names = sorted(tax.parent)
    rng = random.Random(2002)
    for _ in range(1000):
        a, b = rng.choice(names), rng.choice(names)
        expected = reference.score(tax, a, b)
        assert abs(tax.lc_similarity(a, b) - expected) <= 1e-12
        assert abs(tax.score(a, b) - expected) <= 1e-12

    universe = [f"k{j}" for j in range(40)]
    for _ in range(1000):
        k_t = set(rng.sample(universe, rng.randint(1, 12)))
        pages = [set(rng.sample(universe, rng.randint(0, 5))) for _ in range(rng.randint(1, 8))]
        assert ttk(k_t, set().union(*pages)) == reference.ttk(k_t, pages)

        url_tags = {f"https://l.example/{i}": kws for i, kws in enumerate(pages)}
        imps = [AdImpression(persona_id="p", session_id="s", control_page="https://c.example/",
                             landing_page=url, ntimes=rng.randint(1, 9)) for url in url_tags]
        landing, matches = _matches(imps, url_tags, k_t)
        assert landing == pages
        assert matches == [reference.matches(k_t, kws) for kws in pages]
        assert bailp(matches, [imp.ntimes for imp in imps]) == reference.bailp(k_t, imps, url_tags)
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 2: the worked single-persona replay, all three stages


def test_criterion_02_worked_example_replay():
    t0 = time.monotonic()
    case = pools_fixture.build()
    E = pools_fixture.EXPECTED

    consensus = pools_fixture.training_keywords(case)
    for src in pools_fixture.SOURCES:
        assert consensus[src] == E["training_keywords"]

    result = apply_filters(
        case.impressions, FilterConfig(), case.visited_keys,
        case.clean_impressions, "pools", case.categories,
        case.audience, case.taxonomy,
    )
    assert len(case.impressions) == E["input_pages"]
    assert _ntimes(case.impressions) == E["input_ntimes"]
    assert len(result.by_stage["r"]) == E["r_pages"]
    assert len(result.by_stage["sc"]) == E["rsc_pages"]
    assert len(result.by_stage["dg"]) == E["rscdg_pages"]
    assert len(result.by_stage["r"]) - len(result.by_stage["sc"]) == E["removed_by_sc"]
    assert len(result.by_stage["sc"]) - len(result.by_stage["dg"]) == E["removed_by_dg"]
    assert _ntimes(result.by_stage["r"]) == E["r_ntimes"]
    assert _ntimes(result.by_stage["sc"]) == E["rsc_ntimes"]
    assert _ntimes(result.by_stage["dg"]) == E["rscdg_ntimes"]

    expected_bailp = {"r": E["bailp_r"], "sc": E["bailp_rsc"], "dg": E["bailp_rscdg"]}
    for src in pools_fixture.SOURCES:
        k_t = consensus[src]
        for stage, survivors in result.by_stage.items():
            k_l: set = set()
            for imp in survivors:
                k_l |= case.tags.get(imp.landing_page, set())
            assert ttk(k_t, k_l) == 1.0
            _, matches = _matches(survivors, case.tags, k_t)
            assert bailp(matches, [imp.ntimes for imp in survivors]) == pytest.approx(
                expected_bailp[stage], abs=0.005
            )
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 3: multi-source consensus on disagreeing keyword vocabularies


def test_criterion_03_consensus_disagreement():
    t0 = time.monotonic()
    persona, tags = pools_fixture.consensus_case()
    retained = consensus_training_keywords(
        persona, tags, ConsensusConfig(n=2, threshold=2.5), demo_taxonomy()
    )
    expected = pools_fixture.CONSENSUS_EXPECTED
    assert len(expected["hier"]["input"]) == 6
    assert len(expected["hier"]["retained"]) == 4
    assert expected["hier"]["eliminated"] == {
        "gems & jewellery", "gyms & health clubs",
    }
    for src, exp in expected.items():
        assert retained[src] == exp["retained"], src
        assert retained[src] & exp["eliminated"] == set()
        assert exp["input"] - retained[src] == exp["eliminated"]
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 4: ground-truth detection, exact at zero noise, monotone FPR


LOCKED_SWEEP_MANIFEST = {
    "experiment_id": "noise-sweep",
    "seed": 23,
    "repetitions": 2,
    "session": {"visit_budget": 100},
    "sim": {"n_ads": 1000, "tag_noise": {"dropout": 0.02, "spurious": 0.02}},
}


@pytest.fixture(scope="session")
def sweep_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("noise-sweep")
    simulate(ExperimentManifest.from_dict(LOCKED_SWEEP_MANIFEST), root)
    return root


def test_criterion_04_simulator_validation(sweep_corpus):
    t0 = time.monotonic()
    exact = validate(sweep_corpus, spurious_levels=[0.0], dropout=0.0)
    agg = exact["levels"][0]["aggregate"]
    assert agg["recall"] == 1.0
    assert agg["fpr"] == 0.0
    assert agg["accuracy"] == 1.0
    assert agg["tp"] > 0 and agg["tn"] > 0

    sweep = validate(
        sweep_corpus,
        spurious_levels=[0.0, 0.02, 0.05, 0.1, 0.2, 0.5],
        dropout=0.02,
    )
    assert sweep["clean_profile_pure"] is True
    aggs = [level["aggregate"] for level in sweep["levels"]]
    preset = aggs[1]  # the manifest's own 2% dropout / 2% spurious point
    assert preset["recall"] >= 0.95
    assert preset["accuracy"] >= 0.94
    fprs = [a["fpr"] for a in aggs]
    assert fprs == sorted(fprs)
    assert fprs[-1] > fprs[0]
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 5: filter-stage properties on randomized corpora


def test_criterion_05_filter_properties(taxonomy):
    t0 = time.monotonic()
    cats = [
        "swimming pools & spas", "hot tubs & spas", "motor sports",
        "banking", "cryptozoology",
    ]
    rng = random.Random(5005)
    t_prime = 2.5

    for _ in range(500):
        pids = [f"p{i}" for i in range(rng.randint(2, 4))]
        categories = {pid: rng.choice(cats) for pid in pids}
        pool = [f"https://ad-{i:02d}.example/x" for i in range(rng.randint(4, 14))]
        visited = [f"https://site-{i}.example/a" for i in range(4)]
        visited_keys = {landing_key(u) for u in visited}
        imps_by = {}
        for pid in pids:
            imps = []
            for _ in range(rng.randint(0, 10)):
                landing = (rng.choice(visited) if rng.random() < 0.2
                           else rng.choice(pool))
                imps.append(AdImpression(
                    persona_id=pid, session_id=pid,
                    control_page="https://ctrl.example/front",
                    landing_page=landing, ntimes=rng.randint(1, 4),
                ))
            imps_by[pid] = imps
        clean = [
            AdImpression(persona_id="__clean__", session_id="__clean__",
                         control_page="https://ctrl.example/front",
                         landing_page=rng.choice(pool), ntimes=1)
            for _ in range(rng.randint(0, 5))
        ]
        audience = build_audience(imps_by)
        pid = pids[0]
        result = apply_filters(imps_by[pid], FilterConfig(t_prime=t_prime),
                               visited_keys, clean, pid, categories, audience,
                               taxonomy)

        assert result.by_stage["r"] == reference.r(imps_by[pid], visited_keys)
        assert result.by_stage["sc"] == reference.sc(result.by_stage["r"], clean)
        assert result.by_stage["dg"] == reference.dg(
            result.by_stage["sc"], pid, categories, reference.audience(imps_by),
            taxonomy, t_prime,
        )

        sizes = [len(imps_by[pid])] + [
            len(result.by_stage[s]) for s in ("r", "sc", "dg")
        ]
        assert sizes == sorted(sizes, reverse=True)
        again = apply_filters(result.by_stage["dg"], FilterConfig(t_prime=t_prime),
                              visited_keys, clean, pid, categories, audience,
                              taxonomy)
        assert again.by_stage["dg"] == result.by_stage["dg"]

    # simulated zero-noise corpus: targeted ads never fall to r or sc
    world = build_world(SimConfig(n_ads=80), default_persona_specs(3),
                        taxonomy, seed=77)
    imps_by = {}
    visited_by = {}
    for persona in world.personas:
        cfg = SessionConfig(session_id=persona.id, visit_budget=60, seed=101)
        res = run_session(persona, world.control_pages, cfg, world)
        imps_by[persona.id] = res.impressions
        visited_by[persona.id] = {landing_key(ev.page.url) for ev in res.visits}
    clean_cfg = SessionConfig(session_id="clean", visit_budget=60, seed=102,
                              clean_profile=True)
    clean_res = run_session(
        Persona(id="clean", category="weather", training_pages=[]),
        world.control_pages, clean_cfg, world,
    )
    audience = build_audience(imps_by)
    categories = {persona.id: persona.category for persona in world.personas}
    saw_oba = False
    for persona in world.personas:
        pid = persona.id
        result = apply_filters(imps_by[pid], FilterConfig(), visited_by[pid],
                               clean_res.impressions, pid, categories,
                               audience, taxonomy)
        oba = [i for i in imps_by[pid] if i.ground_truth == "oba"]
        saw_oba = saw_oba or bool(oba)
        for stage in ("r", "sc"):
            survived = [i for i in result.by_stage[stage] if i.ground_truth == "oba"]
            assert survived == oba
    assert saw_oba
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 6: similarity properties on a random 500-node taxonomy


def test_criterion_06_similarity_properties():
    t0 = time.monotonic()
    tax, _ = _random_tree(500, seed=6006)
    names = sorted(tax.parent)
    top = reference.scores(tax)[0]
    rng = random.Random(6007)
    sim_by_pathlen: dict[int, set[float]] = {}
    for _ in range(10000):
        a, b = rng.choice(names), rng.choice(names)
        s_ab = tax.lc_similarity(a, b)
        assert s_ab == tax.lc_similarity(b, a)
        assert 0.0 < s_ab <= top + 1e-12
        pl = reference.pathlen(tax, a, b)
        sim_by_pathlen.setdefault(pl, set()).add(s_ab)
        assert tax.similar_or_exact(a, b, s_ab) is False   # strictly above only
        assert tax.similar_or_exact(a, b, s_ab - 1e-9) is True

    node = rng.choice(names)
    assert tax.lc_similarity(node, node) == pytest.approx(top, abs=1e-12)
    assert max(sim_by_pathlen) > 2  # the sample really spans path lengths
    for scores in sim_by_pathlen.values():
        assert len(scores) == 1  # similarity is a function of pathlen alone
    ordered = sorted(sim_by_pathlen)
    for shorter, longer in zip(ordered, ordered[1:]):
        assert max(sim_by_pathlen[longer]) < min(sim_by_pathlen[shorter])

    # exact-string fallback when either side is out of the tree
    assert tax.similar_or_exact("zzz unknown", "ZZZ   Unknown", 99.0) is True
    assert tax.similar_or_exact("zzz unknown", names[0], 0.0) is False
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 7: visit scheduler statistics


def test_criterion_07_scheduler_statistics():
    t0 = time.monotonic()
    pages = [WebPage(url=f"https://page-{i}.example/p", role="training")
             for i in range(8)]

    def config(seed):
        return SessionConfig(session_id="p", visit_budget=10000,
                             mean_interval=180.0, seed=seed)

    events = schedule_visits(pages, config(4242))
    assert len(events) == 10000
    ts = [e.t for e in events]
    assert all(b > a for a, b in zip(ts, ts[1:]))

    gaps = [ts[0]] + [b - a for a, b in zip(ts, ts[1:])]
    assert abs(statistics.fmean(gaps) - 180.0) / 180.0 < 0.05

    counts = Counter(e.page.url for e in events)
    expected = len(events) / len(pages)
    chi2 = sum((counts[p.url] - expected) ** 2 / expected for p in pages)
    assert chi2 < scipy_stats.chi2.ppf(0.99, df=len(pages) - 1)

    replay = schedule_visits(pages, config(4242))
    assert [(e.t, e.page.url) for e in replay] == [(e.t, e.page.url) for e in events]
    other = schedule_visits(pages, config(4243))
    assert [(e.t, e.page.url) for e in other] != [(e.t, e.page.url) for e in events]
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 8: correlation and order statistics against textbook oracles


def test_criterion_08_statistics_oracles():
    t0 = time.monotonic()
    rng = random.Random(8008)
    for trial in range(100):
        n = rng.randint(10, 40)
        keys = [f"k{i:02d}" for i in range(n)]
        xs = {k: rng.random() for k in keys}
        ys = {k: 0.3 * xs[k] + rng.random() for k in keys}
        if trial % 2 == 0:
            ys[rng.choice(keys)] = 100.0 + rng.random()  # a clear CPC outlier

        lo, hi = reference.quartiles(ys.values())[0::2]
        iqr = hi - lo
        lo, hi = lo - 1.5 * iqr, hi + 1.5 * iqr
        used = [k for k in sorted(keys) if lo <= ys[k] <= hi]

        report = value_correlation(xs, ys)
        assert report.removed_keys == [k for k in sorted(keys)
                                       if k not in set(used)]
        assert report.n_used == len(used)
        if trial % 2 == 0:
            assert len(report.removed_keys) >= 1

        xs_u = [xs[k] for k in used]
        ys_u = [ys[k] for k in used]
        assert abs(report.pearson - reference.pearson(xs_u, ys_u)) <= 1e-9
        assert abs(
            report.spearman
            - reference.pearson(reference.ranks(xs_u), reference.ranks(ys_u))
        ) <= 1e-9
        ref = scipy_stats.pearsonr(xs_u, ys_u)
        assert report.pearson_p == pytest.approx(float(ref.pvalue), abs=1e-10)
        z = abs(report.spearman) * math.sqrt(len(used) - 1)
        assert report.spearman_p == math.erfc(z / math.sqrt(2))

    for _ in range(200):
        data = [rng.random() * 10 for _ in range(rng.randint(1, 30))]
        o1, om, o3 = reference.quartiles(data)
        assert quartiles(data) == (o1, om, o3)
        assert iqr_bounds(data) == (o1 - 1.5 * (o3 - o1), o3 + 1.5 * (o3 - o1))

    for _ in range(100):
        n = rng.randint(1, 25)
        keys = [f"c{i}" for i in range(n)]
        a = {k: rng.random() for k in keys}
        b = {k: rng.random() for k in keys}
        stats = comparison_stats(a, b)
        diffs = sorted(a[k] - b[k] for k in keys)
        o1, om, o3 = reference.quartiles(diffs)
        assert stats.n == n
        assert (stats.min, stats.max) == (diffs[0], diffs[-1])
        assert stats.mean == pytest.approx(sum(diffs) / n, abs=1e-12)
        assert (stats.q1, stats.median, stats.q3) == (o1, om, o3)
        assert stats.iqr == o3 - o1
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 9: byte-identical corpora and reports across interpreter runs


def test_criterion_09_end_to_end_determinism(tmp_path):
    t0 = time.monotonic()
    manifest = {
        "experiment_id": "determinism",
        "seed": 5,
        "n_personas": 3,
        "repetitions": 2,
        "session": {"visit_budget": 40},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")

    outs = []
    for name, hashseed in (("a", "1"), ("b", "2")):
        out = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        for argv in (
            ["simulate", "--out", str(out), "--manifest", str(mpath)],
            ["analyze", str(out)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "obameter.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
        outs.append(out)

    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "report.json" in names and "report.csv" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert time.monotonic() - t0 < 60.0
