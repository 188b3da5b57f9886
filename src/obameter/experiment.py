"""End-to-end experiment orchestration.

simulate builds a synthetic ad world from a manifest and replays every
persona session against it, writing a corpus directory:

    manifest.json      the manifest with defaults resolved
    world.json         full simulator state (ground truth; simulated runs only)
    personas.json      persona roster, training pages, selection attrition
    pages.jsonl        every page: training, control, ad landing
    tags.<src>.jsonl   per-source keywords, one line per page
    visits.jsonl       the visit log of every session
    impressions.jsonl  ads observed on control pages, repeat-aggregated
    sessions.json      per-session metadata (condition, rep, mix, counts)

Every session runs to the end or the run fails. All sessions run before
the first file is written, so an error raised while replaying a session
propagates and leaves the output directory as it was.

analyze, filter_attrition and validate load manifest.json,
personas.json, sessions.json, impressions.jsonl and visits.jsonl once,
check them against each other and group the complete sessions by
condition. analyze also reads the tag files (world.json not required,
so corpora collected outside the simulator work too) and writes
report.json and report.csv: TTK and BAiLP per persona, source, filter
set, condition and repetition, repetition averages, condition
comparisons, and optionally a correlation against ad prices. validate
reads no tag file but needs world.json: it re-tags all pages in one
sweep over the spurious-noise levels (each draw made once, each level
keeping the draws below it), reruns consensus per level, and scores the
full filter pipeline's OBA detection against the ground-truth ad kinds
into performance.json.

Every random draw is seeded by hashing the manifest seed with stable
string labels, so rerunning a manifest reproduces each output file byte
for byte.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Collection, Iterable, Iterator, Mapping, Sequence

from . import demo
from .adsim import (
    PersonaSpec,
    SimConfig,
    TagNoise,
    World,
    build_world,
    default_persona_specs,
)
from .corpus import (
    AdImpression,
    ExperimentStore,
    _built,
    _loads,
    _to_record,
    _write_atomic,
    from_dict,
    landing_key,
    tag_pages,
)
from .errors import (
    ConfigurationError,
    CorpusDataError,
    DegenerateSeries,
    EmptyTrainingSet,
    KeyMismatch,
    NoImpressions,
)
from .metrics import (
    PerformanceReport,
    bailp,
    comparison_stats,
    detection_performance,
    ttk,
    value_correlation,
)
from .persona import ConsensusConfig, Persona, consensus_training_keywords
from .pipeline import FILTER_SETS, FilterConfig, PipelineResult, apply_filters, build_audience
from .seeding import derive_seed
from .session import SessionConfig, SessionPlan, SessionResult, run_session
from .taxonomy import KeywordTaxonomy

# the clean reference profile; not a real persona, excluded from analysis
CLEAN_ID = "__clean__"

# pipeline stage key -> the cumulative filter set it completes
_STAGE_TO_FILTERS = {stages[-1]: name for name, stages in FILTER_SETS.items()}

# spurious tag rates validate sweeps unless told otherwise
DEFAULT_SPURIOUS_LEVELS = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)


@dataclass
class Condition:
    """One experiment condition: the session-level context variables."""

    geo: str = "ES"
    dnt: bool = False

    @property
    def cond_id(self) -> str:
        return self.geo + ("+dnt" if self.dnt else "")


def session_label(persona_id: str, cond_id: str, rep: int) -> str:
    return f"{persona_id}|{cond_id}|r{rep}"


@dataclass
class ExperimentManifest:
    """Everything a run needs; its fields are the sections of manifest.json."""

    experiment_id: str = "experiment"
    seed: int = 0
    n_personas: int = 10
    personas: list[PersonaSpec] = field(default_factory=list)
    conditions: list[Condition] = field(default_factory=lambda: [Condition()])
    repetitions: int = 4
    session: SessionPlan = field(default_factory=SessionPlan)
    sim: SimConfig = field(default_factory=SimConfig)
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    taxonomy: str = "demo"

    def __post_init__(self) -> None:
        # each range check is a negated comparison, so NaN fails it too
        if not self.experiment_id:
            raise ConfigurationError("experiment_id must be non-empty")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.repetitions >= 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.conditions:
            raise ConfigurationError("need at least one condition")
        ids = [c.cond_id for c in self.conditions]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate condition ids: {ids}")
        if not self.personas and not self.n_personas >= 1:
            raise ConfigurationError("n_personas must be >= 1")
        for spec in self.personas:
            if spec.id == CLEAN_ID:
                raise ConfigurationError(f"persona id {CLEAN_ID!r} is reserved")
        if len(self.sim.sources) < self.consensus.n + 1:
            raise ConfigurationError(
                f"consensus n={self.consensus.n} needs at least "
                f"{self.consensus.n + 1} tag sources, sim.sources has "
                f"{len(self.sim.sources)}"
            )

    def persona_specs(self) -> list[PersonaSpec]:
        return list(self.personas) or default_persona_specs(self.n_personas)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentManifest":
        """Inverse of to_dict; unknown keys in any section raise ConfigurationError."""
        return from_dict(cls, data, "manifest")

    def to_dict(self) -> dict:
        return _to_record(self)


def load_manifest(path: str | Path) -> ExperimentManifest:
    try:
        data = _loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read manifest {path}: {exc}") from exc
    return ExperimentManifest.from_dict(data)


def resolve_taxonomy(spec: str) -> KeywordTaxonomy:
    """'demo' gives the bundled tree; anything else is a file path."""
    if spec == "demo":
        return demo.demo_taxonomy()
    return KeywordTaxonomy.load(spec)


# ---------------------------------------------------------------------------
# simulate


def simulate(manifest: ExperimentManifest, out_dir: str | Path) -> dict:
    """Build the world, run every session, write the corpus directory.

    Nothing is written until every session has run, so a failing session
    leaves an earlier corpus in out_dir untouched. An out_dir that is a
    file, or lies under one, and a manifest that would give two sessions
    one label raise ConfigurationError before any work.
    """
    out = Path(out_dir).absolute()
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ConfigurationError(f"cannot write to {out_dir}: {blocker} is not a directory")
    specs = manifest.persona_specs()
    # (persona id, condition, rep, clean) per session, one clean reference
    # session closing each condition
    plan = []
    for cond in manifest.conditions:
        plan += [(spec.id, cond, rep, False)
                 for rep in range(manifest.repetitions) for spec in specs]
        plan.append((CLEAN_ID, cond, 0, True))
    labels = collections.Counter(session_label(pid, c.cond_id, rep) for pid, c, rep, _ in plan)
    shared = [label for label, n in labels.items() if n > 1]
    if shared:
        raise ConfigurationError(f"two sessions would share the label {shared[0]!r}; "
                                 "a persona id or geo holds '|'")
    taxonomy = resolve_taxonomy(manifest.taxonomy)
    world = build_world(manifest.sim, specs, taxonomy, seed=manifest.seed)

    persona_by_id = {persona.id: persona for persona in world.personas}
    persona_by_id[CLEAN_ID] = Persona(id=CLEAN_ID, category="weather")
    runs = [_run_one(world, persona_by_id[pid], cond, rep, manifest, clean)
            for pid, cond, rep, clean in plan]

    store = ExperimentStore(out_dir).create()
    # the event logs are append-only, and analyze finds tag files by glob,
    # so nothing from an earlier run may survive a rerun
    store.clear()
    pages = world.all_pages()
    store.write_pages(pages)
    for source in world.tag_sources():
        store.write_tags(source.name, tag_pages(pages, source))
    for row, result in runs:
        store.append_visits(row.session, result.visits)
        store.append_impressions(result.impressions)
    session_rows = [row for row, _ in runs]
    store.write_doc("manifest.json", manifest.to_dict())
    store.write_doc("world.json", world.to_dict())
    store.write_doc("personas.json", {
        "personas": [persona.to_dict() for persona in world.personas],
    })
    store.write_doc("sessions.json", {"sessions": [_to_record(row) for row in session_rows]})
    return {
        "experiment_id": manifest.experiment_id,
        "out": str(store.root),
        "personas": len(specs),
        "conditions": [c.cond_id for c in manifest.conditions],
        "sessions": len(session_rows),
        "pages": len(pages),
        "impressions": sum(row.n_impressions for row in session_rows),
    }


def _run_one(
    world: World,
    persona: Persona,
    cond: Condition,
    rep: int,
    manifest: ExperimentManifest,
    clean: bool,
) -> tuple[SessionRow, SessionResult]:
    """Run one session; return its sessions.json row and its result."""
    sid = session_label(persona.id, cond.cond_id, rep)
    config = SessionConfig(
        session_id=sid,
        geo=cond.geo,
        dnt=cond.dnt,
        clean_profile=clean,
        visit_budget=manifest.session.visit_budget,
        mean_interval=manifest.session.mean_interval,
        seed=derive_seed(manifest.seed, "session", sid),
    )
    result = run_session(persona, world.control_pages, config, world)
    return SessionRow(
        session=sid, persona=persona.id, condition=cond.cond_id, geo=cond.geo,
        dnt=cond.dnt, rep=rep, clean=clean, complete=True, visit_mix=result.visit_mix,
        raw_served=result.raw_served, n_impressions=len(result.impressions),
    ), result


@dataclass(frozen=True)
class SessionRow:
    """One sessions.json row: `_run_one` writes it, `_load_corpus` reads it."""

    session: str
    persona: str
    condition: str
    geo: str
    dnt: bool
    rep: int
    clean: bool
    complete: bool
    visit_mix: dict[str, int]
    raw_served: int
    n_impressions: int


# ---------------------------------------------------------------------------
# shared corpus loading


@dataclass
class _ConditionGroup:
    """One manifest condition's complete sessions, grouped once at load."""

    cond_id: str
    sessions: list[SessionRow] = field(default_factory=list)  # persona-session rows
    clean: list[AdImpression] | None = None  # None: no clean session
    pooled: dict[str, list[AdImpression]] = field(default_factory=dict)  # over reps


@dataclass
class _Corpus:
    """Everything the analysis side needs, loaded once."""

    store: ExperimentStore
    manifest: ExperimentManifest
    taxonomy: KeywordTaxonomy
    personas: dict[str, Persona]            # persona id -> persona
    groups: list[_ConditionGroup]           # one per condition, manifest order
    imps_by_session: dict[str, list[AdImpression]]
    visited_by_session: dict[str, set[str]]  # session -> visited landing keys


def _load_corpus(root: str | Path, **given) -> _Corpus:
    """Read and cross-check the corpus; group its sessions by condition.

    Each manifest section `given` by name is set (not re-checked against
    `sim.sources`) before any other file is read: a config object whole, a
    mapping key by key, under the section's manifest keys and checked as
    stored; None keeps the stored one.

    Besides what each record's build cannot use, a record naming a condition,
    persona (not the clean one) or session that the manifest, personas.json
    or sessions.json lacks, or a persona or session that an earlier record
    of its file already named, raises CorpusDataError.
    """
    store = ExperimentStore(root)
    manifest = ExperimentManifest.from_dict(store.load_doc("manifest.json"))
    for section, value in given.items():
        stored = getattr(manifest, section)
        if isinstance(value, Mapping):
            value = from_dict(type(stored), {**_to_record(stored), **value}, section)
        setattr(manifest, section, stored if value is None else value)
    taxonomy = resolve_taxonomy(manifest.taxonomy)

    personas: dict[str, Persona] = {}

    def add_persona(persona: Persona) -> None:
        if persona.id in personas:
            raise CorpusDataError(f"names persona {persona.id!r} again")
        personas[persona.id] = persona
    store.load_records("personas.json", Persona, add_persona)

    groups = {c.cond_id: _ConditionGroup(c.cond_id) for c in manifest.conditions}
    imps_by_session: dict[str, list[AdImpression]] = {}

    def session_row(row: SessionRow) -> SessionRow:
        if row.session in imps_by_session:
            raise CorpusDataError(f"names session {row.session!r} again")
        if row.condition not in groups:
            raise CorpusDataError(f"names condition {row.condition!r}, not in the manifest")
        if not row.clean and row.persona not in personas:
            raise CorpusDataError(f"names persona {row.persona!r}, not in personas.json")
        imps_by_session[row.session] = []
        return row
    rows = store.load_records("sessions.json", SessionRow, session_row)

    def known(session: str) -> str:
        if session not in imps_by_session:
            raise CorpusDataError(f"names session {session!r}, not in sessions.json")
        return session
    store.load_impressions(lambda imp: imps_by_session[known(imp.session_id)].append(imp))

    for row in rows:
        # simulate writes only complete sessions, but a corpus from another
        # harvester may mark aborted ones; they are dropped here, once
        if not row.complete:
            continue
        group = groups[row.condition]
        imps = imps_by_session[row.session]
        if row.clean:
            group.clean = (group.clean or []) + imps
        else:
            group.sessions.append(row)
            group.pooled.setdefault(row.persona, []).extend(imps)

    visited_by_session: dict[str, set[str]] = {}
    store.load_visits(lambda visit: visited_by_session.setdefault(
        known(visit.session), set()).add(landing_key(visit.url)))

    return _Corpus(
        store=store,
        manifest=manifest,
        taxonomy=taxonomy,
        personas=personas,
        groups=list(groups.values()),
        imps_by_session=imps_by_session,
        visited_by_session=visited_by_session,
    )


def _consensus_keywords(
    corpus: _Corpus,
    config: ConsensusConfig,
    tags: Mapping[str, Mapping[str, set[str]]],
) -> dict[str, dict[str, set[str]]]:
    """Persona id -> source -> retained training keywords."""
    return {
        pid: consensus_training_keywords(corpus.personas[pid], tags, config, corpus.taxonomy)
        for pid in sorted(corpus.personas)
    }


def _filtered_sessions(
    corpus: _Corpus, filters: FilterConfig
) -> Iterator[tuple[str, SessionRow, PipelineResult]]:
    """(condition id, session row, pipeline result) per persona session.

    Sessions marked incomplete never get here: _load_corpus drops them.

    The audience map is built once per condition, over all of its
    persona sessions.
    """
    categories = {pid: persona.category for pid, persona in corpus.personas.items()}
    for group in corpus.groups:
        audience = build_audience(group.pooled)
        for row in group.sessions:
            sid = row.session
            yield group.cond_id, row, apply_filters(
                impressions=corpus.imps_by_session[sid],
                config=filters,
                visited_keys=corpus.visited_by_session.get(sid, set()),
                clean_impressions=group.clean,
                persona_id=row.persona,
                persona_categories=categories,
                audience=audience,
                taxonomy=corpus.taxonomy,
            )


def _attrition_row(cond_id: str, row: SessionRow, result: PipelineResult) -> dict:
    return {"session": row.session, "condition": cond_id, "attrition": result.attrition}


# ---------------------------------------------------------------------------
# analyze


def analyze(
    root: str | Path,
    consensus: ConsensusConfig | Mapping | None = None,
    filters: FilterConfig | Mapping | None = None,
    cpc_path: str | Path | None = None,
) -> dict:
    """Score the corpus; write report.json and report.csv, return the report.

    `consensus` and `filters` replace the stored sections, a mapping such
    as {"enabled": "r"} only the manifest keys it names. A price file at
    cpc_path is checked before the corpus is read.
    """
    prices = _load_prices(cpc_path)
    corpus = _load_corpus(root, consensus=consensus, filters=filters)
    consensus, filters = corpus.manifest.consensus, corpus.manifest.filters

    tags = {src: corpus.store.load_tags(src) for src in corpus.store.tag_sources()}

    keywords = _consensus_keywords(corpus, consensus, tags)
    cells: list[dict] = []
    attritions: list[dict] = []
    for cond_id, row, result in _filtered_sessions(corpus, filters):
        attritions.append(_attrition_row(cond_id, row, result))
        for stage, survivors in result.by_stage.items():
            for src, url_tags in tags.items():
                cells.append({
                    "persona": row.persona,
                    "source": src,
                    "filters": _STAGE_TO_FILTERS[stage],
                    "condition": cond_id,
                    "rep": row.rep,
                    **_cell_scores(keywords[row.persona].get(src, set()), survivors, url_tags),
                })

    summary = _summarize_cells(cells)
    series = _persona_bailp(corpus, cells, filters.filters)
    comparisons = _compare_conditions(series, filters.filters)
    correlation = _correlate_prices(series, filters.filters, prices)

    report = {
        "experiment_id": corpus.manifest.experiment_id,
        "consensus": _to_record(consensus),
        "filters": _to_record(filters),
        "conditions": [group.cond_id for group in corpus.groups],
        "sources": list(tags),
        "personas": sorted(corpus.personas),
        "cells": cells,
        "attrition": attritions,
        "summary": summary,
        "comparisons": comparisons,
        "correlation": correlation,
    }
    corpus.store.write_doc("report.json", report)
    _write_atomic(corpus.store.path("report.csv"), _summary_csv(summary))
    return report


def _matches(
    impressions: Sequence[AdImpression],
    url_tags: Mapping[str, Collection[str]],
    k_t: AbstractSet[str],
) -> tuple[list[Collection[str]], list[bool]]:
    """The match rule, for analyze and validate alike: per impression, the
    keywords one source's tag table holds for its landing page (none for a
    page it lacks), and whether they meet the persona's consensus keywords."""
    landing = [url_tags.get(imp.landing_page, ()) for imp in impressions]
    return landing, [not k_t.isdisjoint(kws) for kws in landing]


def _cell_scores(
    k_t: AbstractSet[str], survivors: list[AdImpression], url_tags: Mapping[str, set[str]]
) -> dict:
    """TTK over the survivors' landing keywords, BAiLP over their matches,
    and the cell's volume; an undefined score is None beside a note."""
    landing, matches = _matches(survivors, url_tags, k_t)
    ntimes = [imp.ntimes for imp in survivors]
    note = None
    try:
        ttk_value = ttk(k_t, set().union(*landing))
    except EmptyTrainingSet:
        ttk_value = None
        note = "empty training keyword set"
    try:
        bailp_value = bailp(matches, ntimes)
    except NoImpressions:
        bailp_value = None
        note = "no surviving impressions"
    return {
        "ttk": ttk_value,
        "bailp": bailp_value,
        "n_impressions": len(ntimes),
        "ntimes": sum(ntimes),
        "note": note,
    }


def _mean_sd(values: Iterable[float | None]) -> tuple[float | None, float | None, int]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None, 0
    mean = statistics.fmean(vals)
    sd = statistics.pstdev(vals) if len(vals) > 1 else 0.0
    return mean, sd, len(vals)


def _summarize_cells(cells: list[dict]) -> list[dict]:
    """Average each (condition, persona, source, filter set) over reps."""
    grouped: dict[tuple, list[dict]] = {}
    for cell in cells:
        key = (cell["condition"], cell["persona"], cell["source"], cell["filters"])
        grouped.setdefault(key, []).append(cell)
    rows = []
    for key in sorted(grouped):
        group = grouped[key]
        ttk_mean, ttk_sd, _ = _mean_sd(c["ttk"] for c in group)
        bailp_mean, bailp_sd, n = _mean_sd(c["bailp"] for c in group)
        rows.append({
            "condition": key[0],
            "persona": key[1],
            "source": key[2],
            "filters": key[3],
            "ttk_mean": ttk_mean,
            "ttk_sd": ttk_sd,
            "bailp_mean": bailp_mean,
            "bailp_sd": bailp_sd,
            "reps_used": n,
        })
    return rows


def _summary_csv(summary: list[dict]) -> str:
    columns = [
        "condition", "persona", "source", "filters",
        "ttk_mean", "ttk_sd", "bailp_mean", "bailp_sd", "reps_used",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in summary:
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in columns})
    return buf.getvalue()


def _persona_bailp(corpus: _Corpus, cells: list[dict], filter_set: str) -> dict[str, dict]:
    """Condition id -> persona id -> mean BAiLP over sources and reps at
    one filter set, conditions in manifest order."""
    by_cond: dict[str, dict[str, list[float]]] = {group.cond_id: {} for group in corpus.groups}
    for cell in cells:
        if cell["filters"] == filter_set and cell["bailp"] is not None:
            by_cond[cell["condition"]].setdefault(cell["persona"], []).append(cell["bailp"])
    return {
        cond_id: {pid: statistics.fmean(vals) for pid, vals in sorted(by_pid.items())}
        for cond_id, by_pid in by_cond.items()
    }


def _compare_conditions(series: Mapping[str, dict], filter_set: str) -> list[dict]:
    """Paired per-persona BAiLP differences for every condition pair."""
    out = []
    for a, b in itertools.combinations(series, 2):
        series_a, series_b = series[a], series[b]
        shared = sorted(set(series_a) & set(series_b))
        entry: dict = {"a": a, "b": b, "filters": filter_set, "n_personas": len(shared)}
        try:
            stats = comparison_stats(
                {k: series_a[k] for k in shared},
                {k: series_b[k] for k in shared},
            )
            entry["diff"] = stats.to_dict()
        except (KeyMismatch, DegenerateSeries) as exc:
            entry["error"] = str(exc)
        out.append(entry)
    return out


def _load_prices(cpc_path: str | Path | None) -> dict[str, float] | None:
    """The persona -> price mapping of a price file, each price a finite number."""
    if cpc_path is None:
        return None
    try:
        prices = _loads(Path(cpc_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read price file {cpc_path}: {exc}") from exc
    if not isinstance(prices, dict):
        raise ConfigurationError(
            f"price file {cpc_path} must map persona ids to prices, "
            f"got {type(prices).__name__}"
        )
    for pid, price in prices.items():
        # an integer beyond float range is no finite float either
        if (isinstance(price, bool) or not isinstance(price, (int, float))
                or not abs(price) <= sys.float_info.max):
            raise ConfigurationError(
                f"price file {cpc_path}: price of persona {pid!r} is not a "
                f"finite number: {price!r}"
            )
    return prices


def _correlate_prices(
    series: Mapping[str, dict],
    filter_set: str,
    prices: Mapping[str, float] | None,
) -> list[dict] | None:
    """BAiLP against a persona -> price mapping, one entry per condition."""
    if prices is None:
        return None
    out = []
    for cond_id, by_pid in series.items():
        entry: dict = {"condition": cond_id, "filters": filter_set}
        try:
            rep = value_correlation(by_pid, {k: prices[k] for k in by_pid})
            entry["correlation"] = rep.to_dict()
        except KeyError as exc:
            entry["error"] = f"price file misses persona {exc}"
        except (KeyMismatch, DegenerateSeries) as exc:
            entry["error"] = str(exc)
        out.append(entry)
    return out


def filter_attrition(
    root: str | Path, filters: FilterConfig | Mapping | None = None
) -> list[dict]:
    """Per-session stage attrition, no scoring; `filters` as in `analyze`."""
    corpus = _load_corpus(root, filters=filters)
    rows = _filtered_sessions(corpus, corpus.manifest.filters)
    return [_attrition_row(*entry) for entry in rows]


# ---------------------------------------------------------------------------
# validate


def validate(
    root: str | Path,
    spurious_levels: Sequence[float] = DEFAULT_SPURIOUS_LEVELS,
    dropout: float | None = None,
) -> dict:
    """Score ground-truth OBA detection across tag-noise levels.

    Serving, sessions and filter survivorship are fixed by the stored
    corpus. The pages read are tagged in one sweep: each source draws each
    (page, keyword) uniform once, and a spurious level's tables keep the
    draws below it (dropout held constant). Consensus and the keyword
    match are then recomputed per level, in the caller's order. The
    result lands in performance.json. Every rate is checked before the
    corpus is read.
    """
    if not spurious_levels:
        raise ConfigurationError("need at least one spurious level")
    # every given rate is checked here; dropout None takes the manifest's
    # rate, checked when the manifest loads
    for level in spurious_levels:
        TagNoise(dropout=dropout or 0.0, spurious=level)
    corpus = _load_corpus(root)
    world = _built(World.from_dict, corpus.store.load_doc("world.json"),
                   f"world.json in {corpus.store.root}:")
    if dropout is None:
        dropout = corpus.manifest.sim.tag_noise.dropout

    filter_config = FilterConfig(filters="rscdg", t_prime=corpus.manifest.filters.t_prime)

    # survivors never depend on tags, so filter once
    survivors: dict[tuple[str, str], list[AdImpression]] = {}
    for cond_id, row, result in _filtered_sessions(corpus, filter_config):
        survivors.setdefault((cond_id, row.persona), []).extend(
            result.by_stage["dg"]
        )

    # only the pages read are tagged: the training pages consensus reads and
    # the survivors' landing pages the match reads; a draw is keyed by its
    # page, so a page's tables do not depend on which others are tagged
    read = {url for persona in corpus.personas.values() for url in persona.visited_urls}
    read.update(imp.landing_page for pool in survivors.values() for imp in pool)
    pages = [page for page in world.all_pages() if page.url in read]

    # each level's tables are the one sweep's draws below that level
    sources = world.tag_sources(TagNoise(dropout=dropout))
    sweeps = [src.tag_levels(pages, spurious_levels) for src in sources]
    levels = []
    for level, tables in zip(spurious_levels, zip(*sweeps)):
        tags = {src.name: table for src, table in zip(sources, tables)}
        keywords = _consensus_keywords(corpus, corpus.manifest.consensus, tags)

        detail = []
        aggregate = PerformanceReport(tp=0, fp=0, tn=0, fn=0)
        for group in corpus.groups:
            for pid in sorted(group.pooled):
                for src in sorted(tags):
                    k_t = keywords[pid].get(src, set())
                    pool_survivors = survivors[(group.cond_id, pid)]
                    _, matches = _matches(pool_survivors, tags[src], k_t)
                    predicted = itertools.compress(pool_survivors, matches)
                    perf = detection_performance(group.pooled[pid], predicted)
                    aggregate += perf
                    detail.append({
                        "condition": group.cond_id,
                        "persona": pid,
                        "source": src,
                        **perf.to_dict(),
                    })
        levels.append({
            "spurious": level,
            "dropout": dropout,
            "aggregate": aggregate.to_dict(),
            "detail": detail,
        })

    result = {
        "experiment_id": corpus.manifest.experiment_id,
        "dropout": dropout,
        "spurious_levels": list(spurious_levels),
        "clean_profile_pure": _clean_profile_pure(corpus),
        "levels": levels,
    }
    corpus.store.write_doc("performance.json", result)
    return result


def _clean_profile_pure(corpus: _Corpus) -> bool:
    """True when no clean session ever received an oba or retargeting ad."""
    return not any(
        imp.ground_truth in ("oba", "retargeting")
        for group in corpus.groups for imp in group.clean or ()
    )


# ---------------------------------------------------------------------------
# report


def digest(root: str | Path) -> str:
    """Human-readable run summary from the stored report files.

    A report document that lacks a key this summary reads, at any depth,
    or holds a value it cannot print raises CorpusDataError naming the
    file.
    """
    store = ExperimentStore(root)
    lines = _built(_report_lines, store.load_doc("report.json"),
                   f"report.json in {store.root}:")
    if store.path("performance.json").exists():
        lines += ["", *_built(_performance_lines, store.load_doc("performance.json"),
                              f"performance.json in {store.root}:")]
    return "\n".join(lines).rstrip() + "\n"


def _report_lines(report: dict) -> list[str]:
    lines = [
        f"experiment {report['experiment_id']}",
        f"personas {len(report['personas'])}  sources {len(report['sources'])}  "
        f"conditions {', '.join(report['conditions'])}",
        f"filters {report['filters']['enabled']}  "
        f"consensus n={report['consensus']['n']} t={report['consensus']['threshold']}",
        "",
    ]
    for cond_id in report["conditions"]:
        lines.append(f"condition {cond_id}")
        for filter_set in sorted({r["filters"] for r in report["summary"]}):
            rows = [
                r for r in report["summary"]
                if r["condition"] == cond_id and r["filters"] == filter_set
            ]
            ttk_mean, _, _ = _mean_sd(r["ttk_mean"] for r in rows)
            bailp_mean, _, _ = _mean_sd(r["bailp_mean"] for r in rows)
            lines.append(
                f"  filters {filter_set:<5}  "
                f"TTK {fmt(ttk_mean)}  BAiLP {fmt(bailp_mean)}"
            )
        lines.append("")
    for comp in report["comparisons"]:
        if "diff" in comp:
            d = comp["diff"]
            lines.append(
                f"{comp['a']} vs {comp['b']}: median BAiLP diff {fmt(d['median'])} "
                f"(IQR {fmt(d['iqr'])}, n={d['n']})"
            )
        else:
            lines.append(f"{comp['a']} vs {comp['b']}: {comp['error']}")
    # null without --cpc
    for corr in report["correlation"] or []:
        if "correlation" in corr:
            c = corr["correlation"]
            lines.append(
                f"price correlation [{corr['condition']}]: "
                f"spearman {fmt(c['spearman'])} (p={fmt(c['spearman_p'])}), "
                f"pearson {fmt(c['pearson'])} (p={fmt(c['pearson_p'])})"
            )
        else:
            lines.append(
                f"price correlation [{corr['condition']}]: {corr['error']}"
            )
    return lines


def _performance_lines(perf: dict) -> list[str]:
    lines = [f"validation (dropout {perf['dropout']}):"]
    for level in perf["levels"]:
        agg = level["aggregate"]
        lines.append(
            f"  spurious {level['spurious']:<5}  "
            f"recall {fmt(agg['recall'])}  accuracy {fmt(agg['accuracy'])}  "
            f"fpr {fmt(agg['fpr'])}"
        )
    lines.append(
        "  clean profile pure: " + ("yes" if perf["clean_profile_pure"] else "NO")
    )
    return lines


def fmt(value: float | None, places: int = 3) -> str:
    """A metric for display; None (undefined) prints as n/a."""
    return "n/a" if value is None else f"{value:.{places}f}"
