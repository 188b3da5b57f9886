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

One declaration per stored record: the fields of one dataclass are the
keys of each record of a file, of each record nested in a document and
of each configuration section (a field's "key" metadata may rename it),
and both its writer and its reader go through them. `_to_record` writes
them all, a nested page as its URL and each list or dict as a copy. A
record is checked once, as it is read: against its type hints, or by its
constructor. A config section (`from_dict`) may leave keys out but not
add any; a stored record must hold every key and may hold others.

Writes go through a single writer (the CLI is single-process); readers
load snapshots, so a reader never observes a torn line. A whole file is
written to a temporary sibling that then replaces it, so a write that
fails part-way leaves the previous file whole. A line ends at "\n" only.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import re
import reprlib
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Literal, Mapping, Protocol
from urllib.parse import urlsplit, urlunsplit

from .errors import ConfigurationError, CorpusDataError
from .taxonomy import normalize_keyword

_DEFAULT_PORTS = {"http": "80", "https": "443"}
_SOURCE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

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
    when the impression is built, and never stored. The two ids must be
    strings, and ground_truth None or one of AD_KINDS.
    """

    persona_id: str = field(metadata={"key": "persona"})
    session_id: str = field(metadata={"key": "session"})
    control_page: str = field(metadata={"key": "control"})
    landing_page: str = field(metadata={"key": "landing"})
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


@dataclass
class TagRecord:
    """One line of tags.<source>.jsonl: the keywords `source` gives a page."""

    url: str
    source: str
    keywords: list[str]


@dataclass
class VisitRecord:
    """One line of visits.jsonl: visit `seq` (from 0) of a session, at `t`."""

    session: str
    seq: int
    t: float
    kind: Literal["training", "control"]
    url: str


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


# one JSONL line: sorted keys, no spaces, non-ASCII text written raw; one
# encoder serves every line, as json.dumps would build one per call
_dump_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str):
    """`json.loads(line)`, by one raw decode (about half the time) when the line is
    one bare JSON value; any other line, padded or bad, goes to `json.loads`."""
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    return value if end == len(line) else json.loads(line)


def _unusable(exc: Exception, rec) -> str:
    """Why stored record `rec` is unusable, from the error its build raised."""
    if not isinstance(rec, dict):
        return "is not an object"
    if isinstance(exc, KeyError):
        return f"has no {exc.args[0]!r}"
    return str(exc) if isinstance(exc, CorpusDataError) else f"is malformed: {exc}"


def _to_record(obj) -> dict:
    """Stored key -> written value for each stored field of dataclass instance
    `obj`; it shares no list or dict with `obj`."""
    return _stored_fields(type(obj))[2](obj)


def _jsonl(records: Iterable) -> str:
    """One line per dataclass instance of `records`, holding its stored fields."""
    return "".join(_dump_line(_to_record(r)) + "\n" for r in records)


def _record_fields(cls, rec, check: bool = True) -> tuple:
    """The value of each stored field of dataclass `cls`, in order, from record
    `rec` under its stored key, so that `cls(*values)` builds the record;
    other keys are ignored. Each value must be of its field's type hint,
    unless `check` is false because the constructor checks every field."""
    _, checks, _, of_record = _stored_fields(cls)
    values = of_record(rec)
    if check:
        for (_, key, hint, is_a), value in zip(checks, values):
            if not is_a(value):
                raise CorpusDataError(_not_a(key, hint, value))
    return values


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
def _stored_fields(cls) -> tuple[tuple[str, ...], tuple, Callable, Callable]:
    """`(keys, checks, to_record, of_record)` for the fields of `cls` its
    constructor takes (two or more), in order: the key each is stored under
    (its "key" metadata, else its name), a `(name, key, type hint, _is_a
    test)` check of each, the writer of an instance (one call per field only
    where a field needs encoding), and the getter of their values from a record."""
    types_, init = _field_types(cls), [f for f in fields(cls) if f.init]
    keys = tuple(f.metadata.get("key", f.name) for f in init)
    values = operator.attrgetter(*(f.name for f in init))
    encoders = tuple(_encoder(types_[f.name][0]) for f in init)
    if any(encoders):
        def to_record(obj) -> dict:
            return {k: v if enc is None else enc(v)
                    for k, enc, v in zip(keys, encoders, values(obj))}
    else:
        def to_record(obj) -> dict:
            return dict(zip(keys, values(obj)))
    return (keys, tuple((f.name, k, *types_[f.name]) for k, f in zip(keys, init)),
            to_record, operator.itemgetter(*keys))


@functools.cache
def _encoder(hint) -> Callable | None:
    """How `_to_record` writes a value of type hint `hint`: a page as its URL,
    another dataclass as its record, a list or dict as a fresh copy of its
    written entries; None writes it as it is (a scalar, or a union of them)."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if hint is WebPage:
        return operator.attrgetter("url")
    if is_dataclass(hint):
        return _to_record
    if origin is list:
        item = _encoder(args[0]) if args else None
        return list if item is None else lambda v: list(map(item, v))
    if origin is dict:
        value = _encoder(args[1]) if args else None
        return dict if value is None else lambda v: {k: value(x) for k, x in v.items()}
    return None


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
    if hint in (int, float):
        kinds = (int, float) if hint is float else int
        return lambda v: isinstance(v, kinds) and not isinstance(v, bool)
    return lambda v: isinstance(v, hint)


def _not_a(name: str, hint, value) -> str:
    """Why `value` of field `name` fails `hint`, naming the innermost bad entry."""
    args = typing.get_args(hint)
    wanted = (f"one of {', '.join(args)}" if typing.get_origin(hint) is typing.Literal
              else f"of type {hint if args else hint.__name__}")
    at, part = _bad_part(name, hint, value)
    entry = f" ({at} is {reprlib.repr(part)})" if at != name else ""
    return f"{name} must be {wanted}{entry}, got {reprlib.repr(value)}"


def _bad_part(at: str, hint, value) -> tuple[str, object]:
    """`(path, part)` of the innermost entry of `value`, at path `at`, that
    fails `hint`; `value` itself when it is no list or dict the hint wants."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list and isinstance(value, list):
        entries = ((f"[{i}]", args[0], v) for i, v in enumerate(value))
    elif origin is dict and isinstance(value, dict):  # decoded JSON keys are strings
        entries = ((f"[{k!r}]", args[1], v) for k, v in value.items())
    else:
        return at, value
    for step, inner, v in entries:
        if not _is_a(inner)(v):
            return _bad_part(at + step, inner, v)
    return at, value


def from_dict(cls, data, section: str):
    """Config dataclass `cls` from section `data`, the inverse of `_to_record`:
    a key left out takes its default, a field typed as a dataclass or
    `list[dataclass]` is built under its key as section, and every other
    value must be of its field's type already. An unknown key or a value of
    the wrong type raises ConfigurationError naming the key as stored."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{section} must be an object, got {type(data).__name__}")
    by_key = {key: (name, hint, is_a) for name, key, hint, is_a in _stored_fields(cls)[1]}
    unknown = set(data) - set(by_key)
    if unknown:
        raise ConfigurationError(f"unknown {section} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        name, hint, is_a = by_key[key]
        if not is_a(value):
            raise ConfigurationError(f"bad {section} section: {_not_a(key, hint, value)}")
        args = typing.get_args(hint)
        if is_dataclass(hint):
            value = from_dict(hint, value, key)
        elif typing.get_origin(hint) is list and is_dataclass(args[0]):
            value = [from_dict(args[0], v, key) for v in value]
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad {section} section: {exc}") from exc


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
        if not _SOURCE_NAME.fullmatch(source):
            raise CorpusDataError(f"unusable source name: {source!r}")
        return self.root / f"tags.{source}.jsonl"

    def _read(self, name: str) -> str:
        """The text of file `name`; a missing, unreadable or non-UTF-8 file
        raises CorpusDataError naming it."""
        try:
            return self.path(name).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise CorpusDataError(f"missing {name} in {self.root}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusDataError(f"unreadable {name} in {self.root}: {exc}") from exc

    # pages

    def write_pages(self, pages: Iterable[WebPage]) -> None:
        _write_atomic(self.path("pages.jsonl"), _jsonl(pages))

    def load_pages(self) -> list[WebPage]:
        return self.load_records("pages.jsonl", lambda rec: WebPage(
            *_record_fields(WebPage, rec, check=False)
        ))

    # tags

    def write_tags(self, source: str, table: Mapping[str, set[str]]) -> None:
        """One line per URL of `table` (url -> keywords), in its order."""
        _write_atomic(self.tags_path(source), _jsonl(
            TagRecord(url, source, sorted(kws)) for url, kws in table.items()
        ))

    def load_tags(self, source: str) -> dict[str, set[str]]:
        """Canonical URL to keywords as `tag_pages` makes them; each page once.
        A record of another source than the file's is an error."""
        table: dict[str, set[str]] = {}

        def add(rec: dict) -> None:
            tag = TagRecord(*_record_fields(TagRecord, rec))
            if tag.source != source:
                raise CorpusDataError(f"has source {tag.source!r}, not {source!r}")
            url = normalize_url(tag.url)
            if url in table:
                raise CorpusDataError(f"names page {url!r} again")
            table[url] = _keyword_set(tag.keywords)
        self.load_records(f"tags.{source}.jsonl", add)
        return table

    def tag_sources(self) -> list[str]:
        return sorted(
            p.name[len("tags."):-len(".jsonl")]
            for p in self.root.glob("tags.*.jsonl")
        )

    # visits and impressions are append-only event logs

    def append_visits(self, session_id: str, events) -> None:
        self._append("visits.jsonl", (
            VisitRecord(session_id, seq, round(ev.t, 6), ev.kind, ev.page.url)
            for seq, ev in enumerate(events)
        ))

    def load_visits(self, build: Callable[[VisitRecord], object] = lambda visit: visit) -> list:
        """`build(visit)` per `VisitRecord`, in log order; by default the visit."""
        return self.load_records(
            "visits.jsonl", lambda rec: build(VisitRecord(*_record_fields(VisitRecord, rec)))
        )

    def append_impressions(self, impressions: Iterable[AdImpression]) -> None:
        self._append("impressions.jsonl", impressions)

    def load_impressions(self) -> list[AdImpression]:
        return self.load_records("impressions.jsonl", lambda rec: AdImpression(
            *_record_fields(AdImpression, rec, check=False)
        ))

    def _append(self, name: str, records: Iterable) -> None:
        with self.path(name).open("a", encoding="utf-8") as fh:
            fh.write(_jsonl(records))

    # record lists

    def load_records(self, name: str, build: Callable[[dict], object]) -> list:
        """`build(record)` for each record of `name`, in order.

        A JSONL file holds one record per line; a JSON document holds them
        in the list under its stem ("sessions" in sessions.json). Anything
        `build` cannot use raises CorpusDataError naming file and record.
        """
        if name.endswith(".jsonl"):
            records = list(self._iter_jsonl(name))
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
        text = self._read(name)
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusDataError(f"unreadable {name} in {self.root}: {exc}") from exc

    def _iter_jsonl(self, name: str):
        for lineno, line in enumerate(self._read(name).split("\n"), 1):
            if not line.strip():
                continue
            try:
                yield _decode_line(line)
            except json.JSONDecodeError as exc:
                raise CorpusDataError(
                    f"{self.path(name)}:{lineno}: bad JSON line: {exc}"
                ) from exc
