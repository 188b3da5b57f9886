"""Experiment corpus: pages, tags, impressions, and their on-disk store.

URL identity. `normalize_url` lowercases scheme and host, strips default
ports, userinfo and a trailing slash, keeps IPv6 brackets, and is
idempotent; a URL that does not parse, as given or in canonical form,
raises CorpusDataError. `landing_key` is coarser, host + path only, and
every filter and audience map compares pages by it. One parse gives both.

URLs are parsed where they enter memory: an AdImpression stores its
canonical URLs and keys when it is built, and a WebPage its canonical URL.
Every parse goes through one bounded module cache, so each distinct URL
string is parsed once, whichever reader, session or page it enters by;
evicting an entry only costs a re-parse. Tag tables are keyed by
canonical URL too; a tag file that names one page twice is an error.

Store layout. An experiment directory holds

    pages.jsonl          one web page per line
    tags.<source>.jsonl  one tagging source's keywords, one line per page
    visits.jsonl         append-only visit event log
    impressions.jsonl    append-only ad impression log
    personas.json        persona definitions with selection attrition
    sessions.json        per-session metadata
    world.json           simulator inventory and ground truth (if simulated)
    manifest.json        the experiment manifest actually used
    report.json/.csv     analysis output
    performance.json     validation output

Writes go through a single writer (the CLI is single-process); readers
load snapshots, so a reader never observes a torn line. A whole file is
written to a temporary sibling that then replaces it, so a write that
fails part-way leaves the previous file whole.
"""

from __future__ import annotations

import functools
import json
import os
import re
import reprlib
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol
from urllib.parse import urlsplit, urlunsplit

from .errors import CorpusDataError, IncompleteCorpus, InvalidConfig
from .taxonomy import normalize_keyword

_DEFAULT_PORTS = {"http": "80", "https": "443"}
_SOURCE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

PAGE_ROLES = ("training", "control", "landing")

AD_KINDS = ("oba", "contextual", "static", "retargeting", "geo_demo")

# what a record build raises on a missing key or a value of the wrong type or form
_BUILD_ERRORS = (KeyError, CorpusDataError, TypeError, ValueError, AttributeError)


def _split(url: str) -> tuple[str, str]:
    """`(canonical URL, landing key)` of `url`, parsed once per distinct string."""
    if not isinstance(url, str):  # ahead of the cache, which cannot hash a list
        raise CorpusDataError(f"unusable URL {url!r}: not a string")
    return _parse(url)


# far above the distinct URLs of one command (about 1,000 on a large corpus)
@functools.lru_cache(maxsize=1 << 14)
def _parse(url: str) -> tuple[str, str]:
    raw = url.strip()
    try:
        parts = urlsplit(raw if "://" in raw else "http://" + raw)
        port = parts.port
        scheme = parts.scheme.lower()
        host = parts.hostname or ""
        netloc = f"[{host}]" if ":" in host else host  # hostname strips IPv6 brackets
        if port is not None and str(port) != _DEFAULT_PORTS.get(scheme, ""):
            netloc = f"{netloc}:{port}"
        path = parts.path.rstrip("/")
        canonical = urlunsplit((scheme, netloc, path, parts.query, parts.fragment))
        # an empty, bracketed or non-ASCII host may read back otherwise
        if not netloc or "[" in netloc or "]" in netloc or not netloc.isascii():
            parts = urlsplit(canonical)
            host, path = parts.hostname or "", parts.path
    except ValueError as exc:
        raise CorpusDataError(f"unusable URL {url!r}: {exc}") from exc
    return canonical, host + path


def normalize_url(url: str) -> str:
    """Canonical URL: lowercase scheme/host, no default port, no trailing slash."""
    return _split(url)[0]


def landing_key(url: str) -> str:
    """Equality key for landing and visited pages: host + path only."""
    return _split(url)[1]


@dataclass(frozen=True)
class WebPage:
    """A page in the corpus; url is stored normalized."""

    url: str
    role: str = "training"

    def __post_init__(self) -> None:
        object.__setattr__(self, "url", normalize_url(self.url))
        if self.role not in PAGE_ROLES:
            raise CorpusDataError(f"unknown page role: {self.role!r}")


@dataclass
class AdImpression:
    """An ad observed on a control page, aggregated over repeats.

    ground_truth is the simulator's ad-kind label and is present iff the
    impression came from the simulator. Both URLs are stored normalized,
    with their landing keys in control_key and landing_key and the
    aggregation and prediction identity in key; all three are set once,
    when the impression is built. The two ids must be strings, and
    ground_truth None or one of AD_KINDS.
    """

    persona_id: str
    session_id: str
    control_page: str
    landing_page: str
    ntimes: int = 1
    ground_truth: str | None = None
    control_key: str = field(init=False, compare=False, repr=False)
    landing_key: str = field(init=False, compare=False, repr=False)
    key: tuple[str, str, str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("persona_id", "session_id"):
            if not isinstance(getattr(self, name), str):
                raise CorpusDataError(f"{name} must be a string, got {getattr(self, name)!r}")
        self.control_page, self.control_key = _split(self.control_page)
        self.landing_page, self.landing_key = _split(self.landing_page)
        self.key = (self.persona_id, self.session_id, self.control_key, self.landing_key)
        if type(self.ntimes) is not int or self.ntimes < 1:  # bool is not a count
            raise CorpusDataError(f"ntimes must be an integer >= 1, got {self.ntimes!r}")
        if self.ground_truth is not None and self.ground_truth not in AD_KINDS:
            raise CorpusDataError(f"ground_truth must be null or one of "
                                  f"{', '.join(AD_KINDS)}, got {self.ground_truth!r}")


class TaggingSource(Protocol):
    """Anything that can assign keywords to pages."""

    name: str

    def keywords_for(self, page: WebPage) -> set[str]: ...


def tag_pages(pages: Iterable[WebPage], source: TaggingSource) -> dict[str, set[str]]:
    """URL -> normalized keywords of one source, in page order.

    Pages the source misses get the empty set; an empty keyword is dropped.
    """
    return {p.url: _keyword_set(source.keywords_for(p)) for p in pages}


def _keyword_set(keywords: Iterable[str]) -> set[str]:
    return {normalize_keyword(k) for k in keywords} - {""}


# ---------------------------------------------------------------------------
# on-disk store


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def check_keys(data, known: Iterable[str], section: str) -> Mapping:
    """`data` itself, if it is a mapping whose keys all lie in `known`."""
    if not isinstance(data, Mapping):
        raise InvalidConfig(f"{section} must be an object, got {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise InvalidConfig(f"unknown {section} keys: {sorted(unknown)}")
    return data


def _unusable(exc: Exception, rec) -> str:
    """Why stored record `rec` is unusable, from the error its build raised."""
    if not isinstance(rec, dict):
        return "is not an object"
    if isinstance(exc, KeyError):
        return f"has no {exc.args[0]!r}"
    return str(exc) if isinstance(exc, CorpusDataError) else f"is malformed: {exc}"


def _record_fields(cls, rec) -> dict:
    """Field name -> value for each field of dataclass `cls`, from record `rec`,
    each value of its field's type hint; other keys are ignored."""
    for name, (hint, is_a) in _field_types(cls).items():
        if not is_a(rec[name]):
            raise CorpusDataError(_not_a(name, hint, rec[name]))
    return {name: rec[name] for name in _field_types(cls)}


def _built(build: Callable, rec, what: str, where: str = ""):
    """`build(rec)` for a record inside a stored document; anything the build
    cannot use raises CorpusDataError naming `what`, then `where` it lies."""
    try:
        return build(rec)
    except _BUILD_ERRORS as exc:
        at = f" ({where})" if where else ""
        raise CorpusDataError(f"{what} {_unusable(exc, rec)}{at}") from exc


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` whole or not at all.

    The text goes to a temporary sibling that `os.replace` then moves over
    `path`, so a write that fails part-way leaves the old file as it was
    and the temporary one removed.
    """
    tmp = _temporary(path)
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _temporary(path: Path) -> Path:
    """The hidden sibling `_write_atomic` writes before it replaces `path`."""
    return path.with_name(f".{path.name}.tmp")


@functools.cache
def _field_types(cls) -> dict[str, tuple[object, Callable]]:
    """Field name -> (type hint, `_is_a` test of it) for each field of `cls`."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], _is_a(hints[f.name])) for f in fields(cls)}


@functools.cache
def _is_a(hint) -> Callable[[object], bool]:
    """Test of decoded JSON against hint `hint`: a bool is no number, an int is a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        head, tail = _is_a(args[0]), _is_a(typing.Union[args[1:]])
        return lambda v: head(v) or tail(v)
    if origin is list:
        item = _is_a(args[0])
        return lambda v: isinstance(v, list) and all(map(item, v))
    if origin is dict:
        key, val = map(_is_a, args)
        return lambda v: isinstance(v, dict) and all(map(key, v)) and all(map(val, v.values()))
    if origin is typing.Literal:
        return lambda v: v in args
    if is_dataclass(hint):  # left to the build that makes it
        return lambda v: True
    kinds = (int, float) if hint is float else hint
    return lambda v: isinstance(v, kinds) and (hint is bool or not isinstance(v, bool))


def _not_a(name: str, hint, value) -> str:
    args = typing.get_args(hint)
    wanted = (f"one of {', '.join(args)}" if typing.get_origin(hint) is typing.Literal
              else f"of type {hint if args else hint.__name__}")
    return f"{name} must be {wanted}, got {reprlib.repr(value)}"


def check_type(cls, name: str, value, section: str, key: str | None = None) -> None:
    """Raise InvalidConfig unless decoded JSON `value` is of the type hint
    of field `name` of `cls`. The message names `key`, the field as the
    file spells it (`name` unless given), in `section`."""
    kind, is_a = _field_types(cls)[name]
    if not is_a(value):
        raise InvalidConfig(f"bad {section} section: {_not_a(key or name, kind, value)}")


def from_dict(cls, data, section: str):
    """Inverse of `dataclasses.asdict` for config dataclasses.

    Fields typed as a dataclass or `list[dataclass]` are built from their
    type hints, under the field name as section; every other value must
    be of its field's type already, and is kept as it is. A key that names
    no field or a value of the wrong type raises InvalidConfig.
    """
    hints = _field_types(cls)
    kwargs = {}
    for name, value in check_keys(data, hints, section).items():
        kind, args = hints[name][0], typing.get_args(hints[name][0])
        check_type(cls, name, value, section)
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
        """Delete every file the layout names, and the temporary sibling a
        killed write leaves of any of them; leave anything else alone."""
        layout = [*map(self.path, self.FILES), *self.root.glob("tags.*.jsonl")]
        stale = [*map(_temporary, layout), *self.root.glob(".tags.*.jsonl.tmp")]
        for p in layout + stale:
            p.unlink(missing_ok=True)

    # path helpers

    def path(self, name: str) -> Path:
        return self.root / name

    def tags_path(self, source: str) -> Path:
        if not _SOURCE_NAME.match(source):
            raise CorpusDataError(f"unusable source name: {source!r}")
        return self.root / f"tags.{source}.jsonl"

    def _require(self, name: str) -> Path:
        p = self.root / name
        if not p.exists():
            raise IncompleteCorpus(f"missing {name} in {self.root}")
        return p

    # pages

    def write_pages(self, pages: Iterable[WebPage]) -> None:
        lines = [_dump_line({"role": p.role, "url": p.url}) for p in pages]
        _write_atomic(self.path("pages.jsonl"), "\n".join(lines) + "\n")

    def load_pages(self) -> list[WebPage]:
        return self.load_records(
            "pages.jsonl", lambda rec: WebPage(url=rec["url"], role=rec["role"])
        )

    # tags

    def write_tags(self, source: str, table: Mapping[str, set[str]]) -> None:
        """One line per URL of `table` (url -> keywords), in its order."""
        lines = [
            _dump_line({"keywords": sorted(kws), "source": source, "url": url})
            for url, kws in table.items()
        ]
        _write_atomic(self.tags_path(source), "\n".join(lines) + "\n")

    def load_tags(self, source: str) -> dict[str, set[str]]:
        """Canonical URL to keywords as `tag_pages` makes them; each page once."""
        table: dict[str, set[str]] = {}
        is_keyword_list = _is_a(list[str])

        def add(rec: dict) -> None:
            url = normalize_url(rec["url"])
            if url in table:
                raise CorpusDataError(f"names page {url!r} again")
            if not is_keyword_list(rec["keywords"]):
                raise CorpusDataError("has 'keywords' that is not a list of strings")
            table[url] = _keyword_set(rec["keywords"])
        self.load_records(f"tags.{source}.jsonl", add)
        return table

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

    def load_visits(self, build: Callable[[dict], object] = dict.copy) -> list:
        """`build(record)` per visit, in log order; by default a copy of each."""
        return self.load_records("visits.jsonl", build)

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
        return self.load_records("impressions.jsonl", lambda rec: AdImpression(
            persona_id=rec["persona"],
            session_id=rec["session"],
            control_page=rec["control"],
            landing_page=rec["landing"],
            ntimes=rec["ntimes"],
            ground_truth=rec["ground_truth"],
        ))

    # record lists

    def load_records(self, name: str, build: Callable[[dict], object]) -> list:
        """`build(record)` for each record of `name`, in order.

        A JSONL file holds one record per line; a JSON document holds them
        in the list under its stem ("sessions" in sessions.json). Anything
        `build` cannot use raises CorpusDataError naming file and record.
        """
        if name.endswith(".jsonl"):
            records = list(self._iter_jsonl(self._require(name)))
        else:
            stem = name.split(".")[0]
            doc = self.load_doc(name)
            records = doc.get(stem) if isinstance(doc, dict) else None
            if not isinstance(records, list):
                raise CorpusDataError(f"{name} in {self.root} has no {stem!r} list")
        built = []
        try:
            for i, rec in enumerate(records, 1):
                built.append(build(rec))
        except _BUILD_ERRORS as exc:
            raise self.bad_record(name, i, _unusable(exc, rec)) from exc
        return built

    def bad_record(self, name: str, i: int, what: str) -> CorpusDataError:
        """The error for record `i` (from 1) of file `name`."""
        return CorpusDataError(f"{name} in {self.root}: record {i} {what}")

    # json documents

    def write_doc(self, name: str, obj) -> None:
        """Canonical pretty JSON; stable bytes for identical data."""
        _write_atomic(
            self.path(name),
            json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        )

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
