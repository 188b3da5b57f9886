"""Experiment corpus: pages, tags, impressions, and their on-disk store.

URL identity. `normalize_url` lowercases scheme and host, strips default
ports and a trailing slash, and is idempotent. Landing-page equality is
coarser: `landing_key` keeps host + path only, dropping query strings and
fragments, and every filter and audience map compares pages by that key.

Store layout. An experiment directory holds

    pages.jsonl          one web page per line
    tags.<source>.jsonl  keyword assignments of one tagging source
    visits.jsonl         append-only visit event log
    impressions.jsonl    append-only ad impression log
    personas.json        persona definitions with selection attrition
    sessions.json        per-session metadata
    world.json           simulator inventory and ground truth (if simulated)
    manifest.json        the experiment manifest actually used
    report.json/.csv     analysis output
    performance.json     validation output

Writes go through a single writer (the CLI is single-process); readers
load snapshots, so a reader never observes a torn line.
"""

from __future__ import annotations

import functools
import json
import re
import typing
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol
from urllib.parse import urlsplit, urlunsplit

from .errors import CorpusDataError, IncompleteCorpus, InvalidConfig, SourceUnavailable
from .taxonomy import normalize_keyword

_DEFAULT_PORTS = {"http": "80", "https": "443"}
_SOURCE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

PAGE_ROLES = ("training", "control", "landing")


def normalize_url(url: str) -> str:
    """Canonical URL: lowercase scheme/host, no default port, no trailing slash."""
    raw = url.strip()
    if "://" not in raw:
        raw = "http://" + raw
    parts = urlsplit(raw)
    scheme = parts.scheme.lower()
    host = parts.hostname or ""
    port = parts.port
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme, ""):
        netloc = f"{host}:{port}"
    path = parts.path.rstrip("/")
    return urlunsplit((scheme, netloc, path, parts.query, parts.fragment))


def landing_key(url: str) -> str:
    """Equality key for landing and visited pages: host + path only."""
    parts = urlsplit(normalize_url(url))
    return (parts.hostname or "") + parts.path


@dataclass(frozen=True)
class WebPage:
    """A page in the corpus; url is stored normalized."""

    url: str
    role: str = "training"

    def __post_init__(self) -> None:
        object.__setattr__(self, "url", normalize_url(self.url))
        if self.role not in PAGE_ROLES:
            raise CorpusDataError(f"unknown page role: {self.role!r}")

    @property
    def key(self) -> str:
        return landing_key(self.url)


@dataclass(frozen=True)
class TagSource:
    """Descriptor of a tagging source."""

    name: str

    def __post_init__(self) -> None:
        if not _SOURCE_NAME.match(self.name):
            raise CorpusDataError(f"unusable source name: {self.name!r}")


@dataclass
class TagAssignment:
    """Keywords one source assigned to one page. Keywords are normalized."""

    url: str
    source: str
    keywords: set[str]

    def __post_init__(self) -> None:
        self.url = normalize_url(self.url)
        self.keywords = {normalize_keyword(k) for k in self.keywords}
        self.keywords.discard("")


@dataclass
class AdImpression:
    """An ad observed on a control page, aggregated over repeats.

    ground_truth is the simulator's ad-kind label and is present iff the
    impression came from the simulator.
    """

    persona_id: str
    session_id: str
    control_page: str
    landing_page: str
    ntimes: int = 1
    ground_truth: str | None = None

    def __post_init__(self) -> None:
        self.control_page = normalize_url(self.control_page)
        self.landing_page = normalize_url(self.landing_page)
        if self.ntimes < 1:
            raise CorpusDataError(f"ntimes must be >= 1, got {self.ntimes}")

    @property
    def key(self) -> tuple[str, str, str, str]:
        """Aggregation and prediction identity."""
        return (
            self.persona_id,
            self.session_id,
            landing_key(self.control_page),
            landing_key(self.landing_page),
        )


class TaggingSource(Protocol):
    """Anything that can assign keywords to pages."""

    name: str

    def keywords_for(self, page: WebPage) -> set[str]: ...


class FixtureTagSource:
    """File- or mapping-backed tagging source.

    Records map URL to a keyword list; pages without a record get the
    empty set. A missing or unreadable file raises SourceUnavailable at
    construction, deterministically.
    """

    def __init__(self, name: str, records: dict[str, Iterable[str]] | None = None,
                 path: str | Path | None = None):
        self.name = name
        mapping: dict[str, set[str]] = {}
        if records is not None:
            for url, kws in records.items():
                mapping[normalize_url(url)] = {normalize_keyword(k) for k in kws}
        if path is not None:
            p = Path(path)
            if not p.exists():
                raise SourceUnavailable(f"tag fixture missing: {p}")
            try:
                for line in p.read_text(encoding="utf-8").splitlines():
                    if not line.strip():
                        continue
                    rec = json.loads(line)
                    mapping[normalize_url(rec["url"])] = {
                        normalize_keyword(k) for k in rec["keywords"]
                    }
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise SourceUnavailable(f"tag fixture unreadable: {p}: {exc}") from exc
        self._records = mapping

    def keywords_for(self, page: WebPage) -> set[str]:
        return set(self._records.get(page.url, ()))


def tag_pages(pages: Iterable[WebPage], source: TaggingSource) -> list[TagAssignment]:
    """One assignment per page; pages the source misses get empty keywords."""
    return [
        TagAssignment(url=p.url, source=source.name, keywords=source.keywords_for(p))
        for p in pages
    ]


@dataclass
class Coverage:
    """Per-source fraction of pages that received at least one keyword."""

    by_source: dict[str, float]
    degenerate: bool = False


def coverage(assignments: Iterable[TagAssignment], pages: Iterable[WebPage]) -> Coverage:
    """Tagging coverage per source over a page set.

    An empty page set yields coverage 1.0 for every seen source, flagged
    degenerate.
    """
    urls = {p.url for p in pages}
    tagged: dict[str, set[str]] = {}
    for a in assignments:
        tagged.setdefault(a.source, set())
        if a.keywords and a.url in urls:
            tagged[a.source].add(a.url)
    if not urls:
        return Coverage({s: 1.0 for s in sorted(tagged)}, degenerate=True)
    return Coverage(
        {s: len(hits) / len(urls) for s, hits in sorted(tagged.items())}
    )


# ---------------------------------------------------------------------------
# on-disk store


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_json(path: Path, obj) -> None:
    """Canonical pretty JSON write; stable bytes for identical data."""
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def check_keys(data, known: Iterable[str], section: str) -> Mapping:
    """`data` itself, if it is a mapping whose keys all lie in `known`."""
    if not isinstance(data, Mapping):
        raise InvalidConfig(f"{section} must be an object, got {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise InvalidConfig(f"unknown {section} keys: {sorted(unknown)}")
    return data


@functools.cache
def _field_types(cls) -> dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_dict(cls, data, section: str):
    """Inverse of `dataclasses.asdict` for config dataclasses.

    Fields typed as a dataclass or `list[dataclass]` are built from their
    type hints, under the field name as section; other values pass as
    they are. A key that names no field raises InvalidConfig.
    """
    types = _field_types(cls)
    kwargs = {}
    for name, value in check_keys(data, types, section).items():
        kind, args = types[name], typing.get_args(types[name])
        if is_dataclass(kind):
            value = from_dict(kind, value, name)
        elif typing.get_origin(kind) is list and is_dataclass(args[0]):
            value = [from_dict(args[0], v, name) for v in value]
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InvalidConfig(f"bad {section} section: {exc}") from exc


class ExperimentStore:
    """JSONL-backed experiment directory."""

    # every file of the layout above except the per-source tag files
    FILES = (
        "pages.jsonl", "visits.jsonl", "impressions.jsonl", "personas.json",
        "sessions.json", "world.json", "manifest.json", "report.json",
        "report.csv", "performance.json",
    )

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def create(self) -> "ExperimentStore":
        self.root.mkdir(parents=True, exist_ok=True)
        return self

    def clear(self) -> None:
        """Delete every file the layout names; leave anything else alone."""
        for p in [*map(self.path, self.FILES), *self.root.glob("tags.*.jsonl")]:
            p.unlink(missing_ok=True)

    # path helpers

    def path(self, name: str) -> Path:
        return self.root / name

    def tags_path(self, source: str) -> Path:
        TagSource(name=source)  # validates the name
        return self.root / f"tags.{source}.jsonl"

    def _require(self, name: str) -> Path:
        p = self.root / name
        if not p.exists():
            raise IncompleteCorpus(f"missing {name} in {self.root}")
        return p

    # pages

    def write_pages(self, pages: Iterable[WebPage]) -> None:
        lines = [_dump_line({"role": p.role, "url": p.url}) for p in pages]
        self.path("pages.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def load_pages(self) -> list[WebPage]:
        out = []
        for rec in self._iter_jsonl(self._require("pages.jsonl")):
            out.append(WebPage(url=rec["url"], role=rec["role"]))
        return out

    # tags

    def write_tags(self, source: str, assignments: Iterable[TagAssignment]) -> None:
        lines = [
            _dump_line(
                {"keywords": sorted(a.keywords), "source": a.source, "url": a.url}
            )
            for a in assignments
        ]
        self.tags_path(source).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def load_tags(self, source: str) -> dict[str, set[str]]:
        """URL to keyword set for one source."""
        p = self.root / f"tags.{source}.jsonl"
        if not p.exists():
            raise IncompleteCorpus(f"missing tags for source {source!r} in {self.root}")
        return {
            rec["url"]: set(rec["keywords"]) for rec in self._iter_jsonl(p)
        }

    def tag_sources(self) -> list[str]:
        return sorted(
            p.name[len("tags."):-len(".jsonl")]
            for p in self.root.glob("tags.*.jsonl")
        )

    # visits and impressions are append-only event logs

    def append_visits(self, session_id: str, events) -> None:
        with self.path("visits.jsonl").open("a", encoding="utf-8") as fh:
            for seq, ev in enumerate(events):
                fh.write(_dump_line({
                    "kind": ev.kind,
                    "seq": seq,
                    "session": session_id,
                    "t": round(ev.t, 6),
                    "url": ev.page.url,
                }) + "\n")

    def load_visits(self) -> list[dict]:
        return list(self._iter_jsonl(self._require("visits.jsonl")))

    def append_impressions(self, impressions: Iterable[AdImpression]) -> None:
        with self.path("impressions.jsonl").open("a", encoding="utf-8") as fh:
            for imp in impressions:
                fh.write(_dump_line({
                    "control": imp.control_page,
                    "ground_truth": imp.ground_truth,
                    "landing": imp.landing_page,
                    "ntimes": imp.ntimes,
                    "persona": imp.persona_id,
                    "session": imp.session_id,
                }) + "\n")

    def load_impressions(self) -> list[AdImpression]:
        out = []
        for rec in self._iter_jsonl(self._require("impressions.jsonl")):
            out.append(AdImpression(
                persona_id=rec["persona"],
                session_id=rec["session"],
                control_page=rec["control"],
                landing_page=rec["landing"],
                ntimes=rec["ntimes"],
                ground_truth=rec["ground_truth"],
            ))
        return out

    # json documents

    def write_doc(self, name: str, obj) -> None:
        write_json(self.path(name), obj)

    def load_doc(self, name: str):
        p = self._require(name)
        try:
            return json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CorpusDataError(f"unreadable {name} in {self.root}: {exc}") from exc

    @staticmethod
    def _iter_jsonl(path: Path):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusDataError(f"{path}:{lineno}: bad JSON line: {exc}") from exc
