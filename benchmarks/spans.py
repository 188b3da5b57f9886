"""Layer spans for the traced benchmark run, installed from outside the package.

`install` replaces the public functions and methods listed in TIMED and
COUNTED with wrappers, and returns a function that puts the originals
back. A module-level function is replaced under every name that any
loaded `obameter` module holds for it, so a name imported with
`from .corpus import landing_key` is traced as well as the original;
methods are replaced on their class, which every importer shares.

A timed span records its busy time, its self time (busy time minus the
time of timed spans running inside it) and its call count. A counted name
records only its call count, because it runs millions of times per
command. Spans nest on one stack; the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# span name -> the (module, function or Class.method) targets it times
TIMED = {
    "adsim.build_world": [("adsim", "build_world")],
    "adsim.visit": [("adsim", "World.visit")],
    "adsim.world_io": [("adsim", "World.to_dict"), ("adsim", "World.from_dict")],
    "adsim.keywords_for": [("adsim", "WorldTagSource.keywords_for")],
    "session.run_session": [("session", "run_session")],
    "corpus.tag_pages": [("corpus", "tag_pages")],
    "corpus.write": [
        ("corpus", "ExperimentStore.write_pages"),
        ("corpus", "ExperimentStore.write_tags"),
        ("corpus", "ExperimentStore.append_visits"),
        ("corpus", "ExperimentStore.append_impressions"),
        ("corpus", "ExperimentStore.write_doc"),
    ],
    "corpus.read": [
        ("corpus", "ExperimentStore.load_pages"),
        ("corpus", "ExperimentStore.load_tags"),
        ("corpus", "ExperimentStore.load_visits"),
        ("corpus", "ExperimentStore.load_impressions"),
        ("corpus", "ExperimentStore.load_doc"),
    ],
    "persona.consensus": [("persona", "consensus_training_keywords")],
    "pipeline.apply_filters": [("pipeline", "apply_filters")],
    "pipeline.r": [("pipeline", "filter_retargeting")],
    "pipeline.sc": [("pipeline", "filter_static_contextual")],
    "pipeline.dg": [("pipeline", "filter_demo_geo")],
    "pipeline.build_audience": [("pipeline", "build_audience")],
    "metrics.ttk": [("metrics", "ttk")],
    "metrics.bailp": [("metrics", "bailp")],
    "metrics.detection": [("metrics", "detection_performance")],
    "experiment.simulate": [("experiment", "simulate")],
    "experiment.analyze": [("experiment", "analyze")],
    "experiment.validate": [("experiment", "validate")],
}

COUNTED = {
    "seeding.derive_seed": [("seeding", "derive_seed")],
    "corpus.landing_key": [("corpus", "landing_key")],
    "corpus.normalize_url": [("corpus", "normalize_url")],
    "taxonomy.similar_or_exact": [("taxonomy", "KeywordTaxonomy.similar_or_exact")],
    "taxonomy.lc_similarity": [("taxonomy", "KeywordTaxonomy.lc_similarity")],
}

# corpus file each ExperimentStore method reads or writes, from its arguments
_STORE_FILES = {
    "write_pages": lambda args: "pages.jsonl",
    "load_pages": lambda args: "pages.jsonl",
    "write_tags": lambda args: f"tags.{args[0]}.jsonl",
    "load_tags": lambda args: f"tags.{args[0]}.jsonl",
    "append_visits": lambda args: "visits.jsonl",
    "load_visits": lambda args: "visits.jsonl",
    "append_impressions": lambda args: "impressions.jsonl",
    "load_impressions": lambda args: "impressions.jsonl",
    "write_doc": lambda args: args[0],
    "load_doc": lambda args: args[0],
}


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


class Tracer:
    """Span and counter totals for one process."""

    def __init__(self) -> None:
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()   # work counted from results
        self._stack: list[int] = []        # child time of each open span

    def timed(self, name: str, fn):
        stack, busy, own, calls = self._stack, self.busy_ns, self.self_ns, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                child = stack.pop()
                busy[name] += elapsed
                own[name] += elapsed - child
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return span

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    def with_result(self, fn, record):
        """Call `record(result)` after each successful call."""

        @functools.wraps(fn)
        def observe(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result)
            return result

        return observe

    def with_bytes(self, method: str, fn):
        """Add the bytes a store method reads or writes to the counts."""
        target = _STORE_FILES[method]
        counts = self.counts

        @functools.wraps(fn)
        def io(store, *args, **kwargs):
            path = store.path(target(args))
            if method.startswith("load_"):
                counts["bytes_read"] += _size(path)
                return fn(store, *args, **kwargs)
            before = _size(path) if method.startswith("append_") else 0
            try:
                return fn(store, *args, **kwargs)
            finally:
                counts["bytes_written"] += _size(path) - before

        return io

    # -- work counted from return values --------------------------------------

    def _record_visit(self, served) -> None:
        self.counts["ads_served"] += len(served)

    def _record_session(self, result) -> None:
        self.counts["sessions"] += 1
        self.counts["visits"] += len(result.visits)
        self.counts["impressions"] += len(result.impressions)

    def _record_filters(self, result) -> None:
        for stage, n in result.attrition.items():
            self.counts["filters." + stage] += n
        last = list(result.by_stage.values())[-1] if result.by_stage else []
        self.counts["filters.survivors"] += len(last)


def _wrap(tracer: Tracer, span: str, qualname: str, fn, timed: bool):
    method = qualname.rpartition(".")[2]
    if not timed:
        return tracer.counted(span, fn)
    wrapped = tracer.timed(span, fn)
    if method in _STORE_FILES:
        wrapped = tracer.with_bytes(method, wrapped)
    elif span == "adsim.visit":
        wrapped = tracer.with_result(wrapped, tracer._record_visit)
    elif span == "session.run_session":
        wrapped = tracer.with_result(wrapped, tracer._record_session)
    elif span == "pipeline.apply_filters":
        wrapped = tracer.with_result(wrapped, tracer._record_filters)
    return wrapped


def install(tracer: Tracer):
    """Replace every target with its traced wrapper, under every binding.

    Returns a function that puts every original back.
    """
    package = sys.modules["obameter"]
    loaded = [
        mod for name, mod in sorted(sys.modules.items())
        if name == "obameter" or name.startswith("obameter.")
    ]
    replaced: list[tuple[object, str, object]] = []   # (owner, name, original)
    for timed, table in ((True, TIMED), (False, COUNTED)):
        for span, targets in table.items():
            for module_name, qualname in targets:
                module = getattr(package, module_name)
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            _wrap(tracer, span, qualname, raw.__func__, timed)
                        )
                    else:
                        wrapped = _wrap(tracer, span, qualname, raw, timed)
                    replaced.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = _wrap(tracer, span, qualname, original, timed)
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            replaced.append((mod, name, original))
                            setattr(mod, name, wrapped)

    def restore() -> None:
        for owner, name, original in reversed(replaced):
            setattr(owner, name, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced process, by benchmark name."""
    busy = {k: v / 1e9 for k, v in tracer.busy_ns.items()}
    own = {k: v / 1e9 for k, v in tracer.self_ns.items()}
    calls, counts = tracer.calls, tracer.counts
    impressions_in = counts["filters.input"]
    return {
        "adsim.visit_s": busy.get("adsim.visit", 0.0),
        "adsim.visit_calls": calls["adsim.visit"],
        "adsim.ads_served": counts["ads_served"],
        "adsim.build_world_s": busy.get("adsim.build_world", 0.0),
        "adsim.world_io_s": busy.get("adsim.world_io", 0.0),
        "adsim.keywords_for_s": busy.get("adsim.keywords_for", 0.0),
        "adsim.keywords_for_calls": calls["adsim.keywords_for"],
        "seeding.derive_seed_calls": calls["seeding.derive_seed"],
        "session.run_session_self_s": own.get("session.run_session", 0.0),
        "session.sessions": counts["sessions"],
        "session.visits": counts["visits"],
        "session.impressions": counts["impressions"],
        "corpus.write_s": busy.get("corpus.write", 0.0),
        "corpus.bytes_written": counts["bytes_written"],
        "corpus.tag_pages_s": busy.get("corpus.tag_pages", 0.0),
        "corpus.read_s": busy.get("corpus.read", 0.0),
        "corpus.bytes_read": counts["bytes_read"],
        "corpus.landing_key_calls": calls["corpus.landing_key"],
        "corpus.normalize_url_calls": calls["corpus.normalize_url"],
        "persona.consensus_s": busy.get("persona.consensus", 0.0),
        "persona.consensus_calls": calls["persona.consensus"],
        "taxonomy.similarity_tests": calls["taxonomy.similar_or_exact"],
        "taxonomy.lc_similarity_calls": calls["taxonomy.lc_similarity"],
        "pipeline.r_s": busy.get("pipeline.r", 0.0),
        "pipeline.sc_s": busy.get("pipeline.sc", 0.0),
        "pipeline.dg_s": busy.get("pipeline.dg", 0.0),
        "pipeline.build_audience_s": busy.get("pipeline.build_audience", 0.0),
        "pipeline.impressions_in": impressions_in,
        "pipeline.after_r": counts["filters.after_retargeting"],
        "pipeline.after_sc": counts["filters.after_static_contextual"],
        "pipeline.after_dg": counts["filters.after_demo_geo"],
        "pipeline.survival_ratio": (
            counts["filters.survivors"] / impressions_in if impressions_in else 0.0
        ),
        "metrics.score_s": busy.get("metrics.ttk", 0.0) + busy.get("metrics.bailp", 0.0),
        "metrics.cells": calls["metrics.ttk"],
        "metrics.detection_s": busy.get("metrics.detection", 0.0),
        "metrics.detection_calls": calls["metrics.detection"],
        "experiment.simulate_self_s": own.get("experiment.simulate", 0.0),
        "experiment.analyze_self_s": own.get("experiment.analyze", 0.0),
        "experiment.validate_self_s": own.get("experiment.validate", 0.0),
    }
