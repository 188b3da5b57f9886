"""The paper's chain, each definition written once, to check obameter from outside.

Pytest collects no test here; test modules import it as they import
`pools_fixture`. Each function transcribes one definition literally, one
keyword pair, impression, ad or draw at a time. It imports and calls no
`pipeline` or `metrics` function and no consensus, tagging or similarity
query of obameter (`test_reference.py` checks that). It shares the parsed
taxonomy maps, `normalize_keyword`, `landing_key`, the seed derivation,
the stored records and `experiment._load_corpus`.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from obameter import World, landing_key, normalize_keyword
from obameter import experiment
from obameter.seeding import derive_seed
from obameter.session import ServedAd

# ---------------------------------------------------------------------------
# keyword similarity


def ancestors(taxonomy, node):
    """`node`, its parent, and so on up to the root."""
    chain = []
    while node is not None:
        chain.append(node)
        node = taxonomy.parent[node]
    return chain


def pathlen(taxonomy, k, l):
    """Nodes on the shortest path between a sense of keyword k and one of l:
    up one's ancestor chain to the first node of the other's, and down."""
    lengths = []
    for a in taxonomy.senses[normalize_keyword(k)]:
        for b in taxonomy.senses[normalize_keyword(l)]:
            up_b = set(ancestors(taxonomy, b))
            meet = next(node for node in ancestors(taxonomy, a) if node in up_b)
            lengths.append(taxonomy.depth[a] + taxonomy.depth[b] - 2 * taxonomy.depth[meet] + 1)
    return min(lengths)


def score(taxonomy, k, l):
    """Leacock-Chodorow similarity -ln(pathlen / 2D), D the tree's depth
    with the root at 1. When either keyword has no sense in the tree, equal
    normalized texts score infinity and different ones 0."""
    norm_k, norm_l = normalize_keyword(k), normalize_keyword(l)
    if norm_k in taxonomy.senses and norm_l in taxonomy.senses:
        return -math.log(pathlen(taxonomy, norm_k, norm_l) / (2 * taxonomy.max_depth))
    return math.inf if norm_k == norm_l else 0.0


def scores(taxonomy):
    """Every score two keywords of the tree can have, path lengths 1 to 2D:
    the highest, ln 2D, first."""
    two_d = 2 * taxonomy.max_depth
    return [-math.log(p / two_d) for p in range(1, two_d + 1)]


# ---------------------------------------------------------------------------
# keyword consensus


def consensus(persona, tags, config, taxonomy):
    """Source -> the keywords it gives the persona's training pages (`tags`:
    source -> URL -> keywords) that at least `config.n` other sources give
    them a keyword scoring above `config.threshold` against."""
    given = {src: {kw for url in persona.visited_urls for kw in table.get(url, ())}
             for src, table in tags.items()}
    return {
        src: {kw for kw in keywords
              if sum(any(score(taxonomy, kw, other_kw) > config.threshold
                         for other_kw in given[other])
                     for other in given if other != src) >= config.n}
        for src, keywords in given.items()
    }


# ---------------------------------------------------------------------------
# the r, sc and dg filters; landing pages compare by host + path


def r(impressions, visited_keys):
    """Retargeting: drop an impression landing on a page the session visited."""
    return [imp for imp in impressions if landing_key(imp.landing_page) not in visited_keys]


def sc(impressions, clean):
    """Static and contextual: drop an impression landing on a page that the
    clean profile was also shown an ad for, on any control page."""
    return [imp for imp in impressions
            if all(landing_key(imp.landing_page) != landing_key(c.landing_page) for c in clean)]


def audience(impressions_by_persona):
    """Landing key -> the personas shown an ad landing there."""
    shown = {}
    for pid, impressions in impressions_by_persona.items():
        for imp in impressions:
            shown.setdefault(landing_key(imp.landing_page), set()).add(pid)
    return shown


def dg(impressions, persona_id, categories, shown, taxonomy, t_prime):
    """Demographic and geographic: drop an impression whose ad was also
    shown to another persona whose category scores below `t_prime` against
    this persona's; `shown` is the condition's `audience`."""
    own = categories[persona_id]
    return [imp for imp in impressions
            if not any(score(taxonomy, own, categories[other]) < t_prime
                       for other in shown.get(landing_key(imp.landing_page), ())
                       if other != persona_id)]


# ---------------------------------------------------------------------------
# TTK and BAiLP


def matches(training, keywords):
    """An impression matches when its landing page holds a training keyword."""
    return any(kw in keywords for kw in training)


def ttk(training, landing):
    """The share of the training keywords found on any landing page
    (`landing`: one keyword set per page); None without a training keyword."""
    if not training:
        return None
    return sum(1 for kw in training if any(kw in keywords for keywords in landing)) / len(training)


def bailp(training, impressions, table):
    """The ntimes share of `impressions` that match by `table`'s keywords
    (URL -> keywords) for their landing pages; None without an impression."""
    total = sum(imp.ntimes for imp in impressions)
    matched = sum(imp.ntimes for imp in impressions
                  if matches(training, table.get(imp.landing_page, ())))
    return matched / total if total else None


# ---------------------------------------------------------------------------
# serving


def eligible(world, config, browser, url):
    """The ads of `world` a control visit to `url` may serve, in inventory
    order, the serving rule written out per ad: each oba unit takes its own
    max (or, with shared profiles, sum) over the aggregators' profiles."""
    sim = world.config
    suppressed = sim.honor_dnt and config.dnt
    present = world.trackers.get(url, ())

    def activated(category):
        if sim.share_profiles:
            weight = 0.0
            for prof in browser.profiles.values():  # left to right
                weight += prof.get(category, 0.0)
        else:
            weight = max((browser.profiles.get(agg, {}).get(category, 0.0) for agg in present),
                         default=0.0)
        return bool(present) and weight >= sim.activation_threshold

    rules = {
        "static": lambda ad: True,
        "contextual": lambda ad: ad.theme == world.page_themes.get(url),
        "geo_demo": lambda ad: ad.geo == config.geo,
        "retargeting": lambda ad: not suppressed and ad.landing_url in browser.history,
        "oba": lambda ad: not suppressed and activated(ad.target_category),
    }
    return [ad for ad in world.ads if rules[ad.kind](ad)]


class Harvester:
    """Serves each control visit from `eligible` with the slot draw written
    out, and builds profiles as the world's docstring says."""

    def __init__(self, world):
        self.world = world

    def begin(self, config):
        rng = random.Random(derive_seed(self.world.seed, "serve", config.session_id))
        return SimpleNamespace(config=config, rng=rng, profiles={}, history=set(),
                               clock=0.0)

    def visit(self, state, event):
        world, url = self.world, event.page.url
        served = []
        if event.kind == "control":
            pool = eligible(world, state.config, state, url)
            for _ in range(min(world.config.ads_per_visit, len(pool))):
                # the first unit whose running weight passes a uniform mark
                # on the pool's total, else the last one
                mark = state.rng.random() * sum(ad.base_weight for ad in pool)
                acc, pick = 0.0, len(pool) - 1
                for i, ad in enumerate(pool):
                    acc += ad.base_weight
                    if mark < acc:
                        pick = i
                        break
                ad = pool.pop(pick)
                served.append(ServedAd(landing_url=ad.landing_url, label=ad.kind))
        if not state.config.clean_profile:
            half = world.config.profile_decay_halflife
            if half is not None and event.t > state.clock:
                factor = 2.0 ** (-(event.t - state.clock) / half)
                for prof in state.profiles.values():
                    for cat in prof:
                        prof[cat] *= factor
            state.clock = max(state.clock, event.t)
            for agg in world.trackers.get(url, ()):
                prof = state.profiles.setdefault(agg, {})
                for cat in world.page_categories.get(url, ()):
                    prof[cat] = prof.get(cat, 0.0) + 1.0
            state.history.add(url)
        return served


# ---------------------------------------------------------------------------
# tagging


def tag_keywords(world, name, dropout, spurious, url):
    """The keywords the world's source `name` gives page `url`: each true
    keyword whose drop draw is not below `dropout`, and each keyword of any
    page whose spurious draw is below `spurious`; one `derive_seed` each."""
    salt = derive_seed(world.seed, "tags", name)

    def u(kind, k):
        return (derive_seed(salt, kind, url, k) >> 11) / 2**53
    pool = {c for cats in world.page_categories.values() for c in cats}
    kept = {k for k in world.page_categories.get(url, ()) if u("drop", k) >= dropout}
    if spurious > 0.0:
        kept |= {k for k in pool if u("spur", k) < spurious}
    return kept


def tag_tables(world, dropout, spurious):
    """Source -> URL -> normalized keywords, as a tag file stores them, for
    every page of the world."""
    return {
        name: {page.url: {normalize_keyword(k) for k in
                          tag_keywords(world, name, dropout, spurious, page.url)} - {""}
               for page in world.all_pages()}
        for name in world.config.sources
    }


# ---------------------------------------------------------------------------
# order statistics


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def quartiles(values):
    """(Q1, median, Q3), each quartile the median of the values below or
    above the median's position; with an odd count the median is in
    neither half, and a single value is all three."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    half = len(ordered) // 2
    return median(ordered[:half]), median(ordered), median(ordered[-half:])


def pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def ranks(values):
    """1-based rank of each value; tied values share their mean rank."""
    return [sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2
            for v in values]


# ---------------------------------------------------------------------------
# the chain over a simulated corpus


def filtered(corpus, filters, t_prime):
    """(condition id, session row, filter set -> survivors) for each complete
    persona session of `corpus`, for the sets that `filters` starts with;
    the audience is the condition's, over all its persona sessions."""
    categories = {pid: persona.category for pid, persona in corpus.personas.items()}
    for group in corpus.groups:
        shown = audience(group.pooled)
        for row in group.sessions:
            after_r = r(corpus.imps_by_session[row.session],
                        corpus.visited_by_session.get(row.session, set()))
            after_sc = sc(after_r, group.clean)
            stages = {"r": after_r, "rsc": after_sc, "rscdg": dg(
                after_sc, row.persona, categories, shown, corpus.taxonomy, t_prime)}
            yield group.cond_id, row, {name: survivors for name, survivors in stages.items()
                                       if filters.startswith(name)}


def _chain(root):
    corpus = experiment._load_corpus(root)
    return corpus, World.from_dict(corpus.store.load_doc("world.json"))


def cells(root):
    """(persona, source, filter set, condition, rep) -> TTK and BAiLP of the
    consensus keywords over the survivors, and their volume, for each report
    cell of the simulated corpus at `root`."""
    corpus, world = _chain(root)
    noise = world.config.tag_noise
    tags = tag_tables(world, noise.dropout, noise.spurious)
    k_t = {pid: consensus(persona, tags, corpus.manifest.consensus, corpus.taxonomy)
           for pid, persona in corpus.personas.items()}
    filters = corpus.manifest.filters
    out = {}
    for cond_id, row, stages in filtered(corpus, filters.filters, filters.t_prime):
        for name, survivors in stages.items():
            for src, table in tags.items():
                training = k_t[row.persona][src]
                out[(row.persona, src, name, cond_id, row.rep)] = {
                    "ttk": ttk(training, [table.get(imp.landing_page, ()) for imp in survivors]),
                    "bailp": bailp(training, survivors, table),
                    "n_impressions": len(survivors),
                    "ntimes": sum(imp.ntimes for imp in survivors),
                }
    return out


def attrition(root):
    """Session -> its impression count before and after each stage of the
    manifest's filter set, as report.json names them."""
    corpus, _ = _chain(root)
    names = {"r": "after_retargeting", "rsc": "after_static_contextual",
             "rscdg": "after_demo_geo"}
    filters = corpus.manifest.filters
    return {
        row.session: {"input": len(corpus.imps_by_session[row.session]),
                      **{names[name]: len(s) for name, s in stages.items()}}
        for _, row, stages in filtered(corpus, filters.filters, filters.t_prime)
    }


# (predicted oba, labelled oba) -> its count
_CONFUSION = {(True, True): "tp", (True, False): "fp", (False, False): "tn", (False, True): "fn"}


def detail(root, levels):
    """Per spurious level, (condition, persona, source) -> the confusion
    counts and rates of validate. An impression is predicted OBA when it
    survives `rscdg` and its landing page, tagged at that level with the
    manifest's dropout, holds a consensus keyword; counts weigh each
    impression by ntimes over the persona's sessions of the condition."""
    corpus, world = _chain(root)
    sessions = list(filtered(corpus, "rscdg", corpus.manifest.filters.t_prime))
    out = []
    for level in levels:
        tags = tag_tables(world, world.config.tag_noise.dropout, level)
        k_t = {pid: consensus(persona, tags, corpus.manifest.consensus, corpus.taxonomy)
               for pid, persona in corpus.personas.items()}
        rows = {}
        for cond_id, row, stages in sessions:
            survived = {id(imp) for imp in stages["rscdg"]}
            for src, table in tags.items():
                counts = rows.setdefault((cond_id, row.persona, src),
                                         {"tp": 0, "fp": 0, "tn": 0, "fn": 0})
                for imp in corpus.imps_by_session[row.session]:
                    predicted = id(imp) in survived and matches(
                        k_t[row.persona][src], table.get(imp.landing_page, ()))
                    counts[_CONFUSION[predicted, imp.ground_truth == "oba"]] += imp.ntimes
        for counts in rows.values():
            tp, fp, tn, fn = counts["tp"], counts["fp"], counts["tn"], counts["fn"]
            counts.update(
                recall=tp / (tp + fn) if tp + fn else None,
                accuracy=(tp + tn) / (tp + fp + tn + fn) if tp + fp + tn + fn else None,
                fpr=fp / (fp + tn) if fp + tn else None,
                fnr=fn / (fn + tp) if fn + tp else None,
            )
        out.append(rows)
    return out
