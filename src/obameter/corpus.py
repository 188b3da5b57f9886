"""Experiment corpus: pages, tags, impressions, and their on-disk store.

URL identity. `normalize_url` lowercases scheme and host, strips default
ports, userinfo and a trailing slash, keeps IPv6 brackets, and is
idempotent; a URL that does not parse, as given or in canonical form,
raises CorpusDataError. `landing_key` is coarser, host + path only, and
every filter and audience map compares pages by it. One parse gives both.

URLs are parsed where they enter memory: an AdImpression stores its
canonical URLs and landing key when it is built, and a WebPage its canonical URL.
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
them all, a nested page as its URL and each list or dict as a copy. The
records of a file are checked once, as they are read: against their type
hints a field at a time over all of them, or by their constructor. Only
where a field's test fails is each record checked alone, so the first bad
record is named as it would be by itself. A config section (`from_dict`)
may leave keys out but not add any; a stored record must hold every key
and may hold others.

Writes go through a single writer (the CLI is single-process); readers
load snapshots, so a reader never observes a torn line. A whole file is
written to a temporary sibling that then replaces it, so a write that
fails part-way leaves the previous file whole. A line ends at "\n" only;
a file with a blank or bad line is decoded line by line, so that a bad
one is named by its number.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import re
import reprlib
import sys
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
    and the landing page's landing key in landing_key, set once when the
    impression is built and never stored. The two ids must be strings,
    and ground_truth None or one of AD_KINDS.
    """

    persona_id: str = field(metadata={"key": "persona"})
    session_id: str = field(metadata={"key": "session"})
    control_page: str = field(metadata={"key": "control"})
    landing_page: str = field(metadata={"key": "landing"})
    ntimes: int = 1
    ground_truth: str | None = None
    landing_key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("persona_id", "session_id"):
            if not isinstance(getattr(self, name), str):
                raise CorpusDataError(f"{name} must be a string, got {getattr(self, name)!r}")
        self.control_page = _split(self.control_page)[0]
        self.landing_page, self.landing_key = _split(self.landing_page)
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


def _no_constant(token: str):
    raise ValueError(f"{token} is not a JSON value")


# every file is standard JSON (RFC 8259): no reader takes, and no writer
# emits, the NaN and Infinity that Python's json allows by default
_loads = functools.partial(json.loads, parse_constant=_no_constant)
_raw_decode = json.JSONDecoder(parse_constant=_no_constant).raw_decode
# a document: sorted keys, two-space indent; a JSONL line: sorted keys, no
# spaces; both with non-ASCII text written raw. A document is written by
# `_dump_doc`, which gives `_dump_indented`'s bytes; lines by `_jsonl`.
_dump_indented = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False,
                                  allow_nan=False).encode
_dump_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                              allow_nan=False).encode
# JSONL records as one list whose item separator is a line break
_dump_lines = json.JSONEncoder(sort_keys=True, separators=("\n", ":"), ensure_ascii=False,
                               allow_nan=False, check_circular=False).encode
_SCALARS = frozenset({str, int, float, bool, type(None)})

# Why the writers below may cut and splice the encoder's output: json
# escapes every control character inside a string, so a raw line break
# in its output is always a separator it wrote, and one that follows `}`
# or `]` ends a container.


@functools.cache
def _doc_encoder(depth: int) -> Callable[[object], str]:
    """The compact encoder whose item separator is a document's at indent
    level `depth`; with no `indent`, json takes its C encoder where it has
    one. It is only given scalars, flat containers and lists of these, none
    of which can hold a cycle, so it keeps no record of the containers it is in."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "),
                            ensure_ascii=False, allow_nan=False, check_circular=False).encode


def _flat(value) -> bool:
    """Whether `value` is a non-empty dict of str keys and scalar values, or
    a non-empty list of scalars, which one `_doc_encoder` call writes whole."""
    if type(value) is dict:
        return (bool(value) and set(map(type, value)) <= {str}
                and set(map(type, value.values())) <= _SCALARS)
    return type(value) is list and bool(value) and set(map(type, value)) <= _SCALARS


def _row(value) -> bool:
    """Whether `value` is a non-empty dict of str keys whose values are
    scalars or flat containers."""
    return (type(value) is dict and bool(value) and set(map(type, value)) <= {str}
            and all(type(v) in _SCALARS or _flat(v) for v in value.values()))


def _flat_text(value, depth: int) -> str:
    """The text of flat container `value` at indent level `depth`."""
    text = _doc_encoder(depth + 1)(value)
    return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"


def _dump_doc(value, end: str = "") -> str:
    """`value` as a document, exactly as `_dump_indented` writes it, then `end`."""
    parts: list[str] = []
    _doc_parts(value, 0, parts)
    parts.append(end)
    return "".join(parts)


def _doc_parts(value, depth: int, out: list[str]) -> None:
    """Append the text of `value` at indent level `depth` to `out`: a flat
    container, a list of rows (`_row`) or a dict of flat lists by a few
    encoder calls, any other dict or list an entry at a time, and anything
    else (a tuple, an empty or a subclassed container, a key that is no
    str) by `_dump_indented`, indented to `depth`. A cyclic value raises
    RecursionError."""
    kind = type(value)
    close = "\n" + "  " * depth
    inner = close + "  "
    if kind in _SCALARS:
        out.append(_doc_encoder(depth)(value))
    elif _flat(value):
        out.append(_flat_text(value, depth))
    elif kind is list and value:
        if all(type(item) is dict and _flat(item) for item in value):
            # the list's separators come out one level too deep, and its
            # dicts without their own line breaks
            rows = inner + "  "
            text = _doc_encoder(depth + 2)(value)[2:-2]
            text = text.replace("}," + rows + "{", inner + "}," + inner + "{" + rows)
            out += ("[", inner, "{", rows, text, inner, "}", close, "]")
            return
        if all(map(_row, value)):
            _rows_parts(value, depth, out)
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _doc_parts(item, depth + 1, out)
            sep = "," + inner
        out += (close, "]")
    elif kind is dict and value and set(map(type, value)) <= {str}:
        keys = sorted(value)
        if all(type(item) is list and _flat(item) for item in value.values()):
            # the keys and the lists, each by one call, cut at their separators
            rows = inner + "  "
            names = _doc_encoder(depth)(keys)[1:-1].split("," + close)
            lists = _doc_encoder(depth + 2)([value[k] for k in keys])[2:-2].split("]," + rows + "[")
            out += ("{", inner, ("," + inner).join(
                f"{name}: [{rows}{items}{inner}]" for name, items in zip(names, lists)), close, "}")
            return
        # one call for every entry, each container written as null and
        # then replaced by its own text
        shallow = {k: v if type(v) in _SCALARS else None for k, v in value.items()}
        entries = _doc_encoder(depth + 1)(shallow)[1:-1].split("," + inner)
        sep = "{" + inner
        for key, entry in zip(keys, entries):
            item = value[key]
            if type(item) in _SCALARS:
                out += (sep, entry)
            else:
                out += (sep, entry[:-len("null")])
                _doc_parts(item, depth + 1, out)
            sep = "," + inner
        out += (close, "}")
    else:
        out.append(_dump_indented(value).replace("\n", close))


def _rows_parts(rows: list[dict], depth: int, out: list[str]) -> None:
    """Append list `rows` of `_row` dicts at indent level `depth` to `out`.
    All their scalars come from one encoder call a level too deep, with each
    container written as null and then replaced by its own call's text."""
    close = "\n" + "  " * depth
    inner = close + "  "
    entry_sep = inner + "  "
    shallow = [{k: v if type(v) in _SCALARS else None for k, v in row.items()} for row in rows]
    texts = _doc_encoder(depth + 2)(shallow)[2:-2].split("}," + entry_sep + "{")
    sep = "[" + inner + "{" + entry_sep
    for row, text in zip(rows, texts):
        entries = text.split("," + entry_sep)
        for i, (_, item) in enumerate(sorted(row.items())):
            if type(item) not in _SCALARS:
                entries[i] = entries[i][:-len("null")] + _flat_text(item, depth + 2)
        out += (sep, ("," + entry_sep).join(entries))
        sep = inner + "}," + inner + "{" + entry_sep
    out += (inner, "}", close, "]")


def _decode_line(line: str):
    """`_loads(line)`, by one raw decode (about half the time) when the line is
    one bare JSON value; any other line, padded or bad, goes to `_loads`."""
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    return value if end == len(line) else _loads(line)


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
    """One line per dataclass instance of `records`, holding its stored
    fields, each line as `_dump_line` writes it. When every value is a
    scalar or a list of scalars, all lines come from one `_dump_lines` call:
    the line breaks after `}` end records, and every other one is a `,`.
    Otherwise each line is one `_dump_line` call."""
    rows = list(map(_to_record, records))
    if not _scalar_rows(rows):
        return "".join(_dump_line(row) + "\n" for row in rows)
    text = _dump_lines(rows)[1:-1].replace("}\n", "}\0").replace("\n", ",").replace("\0", "\n")
    return text + "\n" if rows else ""


def _scalar_rows(rows: list[dict]) -> bool:
    """Whether every value of every record of `rows` is a scalar or a list of scalars."""
    kinds = set(map(type, itertools.chain.from_iterable(map(dict.values, rows))))
    if kinds <= _SCALARS:
        return True
    lists = (v for row in rows for v in row.values() if type(v) is list)
    return kinds <= _SCALARS | {list} and set(map(type, itertools.chain.from_iterable(lists))) <= _SCALARS


def _record_fields(cls, rec, check: bool = True) -> tuple:
    """The value of each stored field of dataclass `cls`, in order, from record
    `rec` under its stored key, so that `cls(*values)` builds the record;
    other keys are ignored. Each value must be of its field's type hint, a
    float finite, unless `check` is false because the constructor checks each."""
    _, checks, _, of_record = _stored_fields(cls)
    values = of_record(rec)
    if check:
        for (_, key, hint, _, is_a), value in zip(checks, values):
            if not is_a(value):
                raise CorpusDataError(_not_a(key, hint, value))
    return values


def _build_records(cls, records: list, where: Callable[[int, str], str],
                   build: Callable = lambda record: record, check: bool = True) -> list:
    """`build(cls(*values))` for each record of `records`, in order, the values
    being its stored fields' (`_record_fields`, with `check`). Each field is
    tested over all the records at once; only where a test fails is each
    record checked alone, so the first bad one is reported as it would be by
    itself. The first record `build` cannot use raises
    CorpusDataError(where(i, why)), i being its index from 0."""
    of_record = _stored_fields(cls)[3]
    if check and not _columns_hold(cls, records):
        of_record = functools.partial(_record_fields, cls)
    built: list = []
    try:
        for rec in records:
            built.append(build(cls(*of_record(rec))))
    except _BUILD_ERRORS as exc:
        raise CorpusDataError(where(len(built), _unusable(exc, rec))) from exc
    return built


def _columns_hold(cls, records: list) -> bool:
    """Whether each record of `records` holds every stored field of dataclass
    `cls` with a value `_record_fields` accepts, tested a field at a time."""
    try:
        return all(_holds(hint)(list(map(operator.itemgetter(key), records)))
                   for _, key, hint, _, _ in _stored_fields(cls)[1])
    except (KeyError, TypeError):  # a record lacking a key, or no object
        return False


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
def _field_types(cls) -> dict[str, tuple[object, Callable, Callable]]:
    """Field name -> (type hint, `_is_a` test, stored value test) for each field of `cls`."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hint, _is_a(hint), _is_finite if hint is float else _is_a(hint))
            for f in fields(cls) for hint in [hints[f.name]]}


def _is_finite(v) -> bool:
    """A finite float, or an int within float range; JSON reads a number beyond it as inf."""
    return type(v) is float and math.isfinite(v) or type(v) is int and abs(v) <= sys.float_info.max


@functools.cache
def _stored_fields(cls) -> tuple[tuple[str, ...], tuple, Callable, Callable]:
    """`(keys, checks, to_record, of_record)` for the fields of `cls` its
    constructor takes (two or more), in order: the key each is stored under
    (its "key" metadata, else its name), a `(name, key, type hint, _is_a
    test, stored value test)` check of each, the writer of an instance (one
    call per field only where it needs encoding), and their getter from a record."""
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


@functools.cache
def _holds(hint) -> Callable[[list], bool]:
    """Whether every value of a column (one field's value in each record)
    passes the stored value test of hint `hint` (`_field_types`), tested
    over the whole column: by the set of its value types for a str, int or
    bool field, by `math.isfinite` for a float field that holds only floats
    (an int there is left to `_is_finite`, so the column fails), and by
    `_is_a` for any other hint."""
    if hint in (str, int, bool):
        kinds = {hint}
        return lambda col: set(map(type, col)) <= kinds
    if hint is float:
        return lambda col: set(map(type, col)) <= {float} and all(map(math.isfinite, col))
    is_a = _is_a(hint)
    return lambda col: all(map(is_a, col))


def _not_a(name: str, hint, value) -> str:
    """Why `value` of field `name` fails `hint`, naming the innermost bad entry."""
    if hint is float and _is_a(float)(value):  # a stored float beyond float range
        return f"{name} must be finite, got {reprlib.repr(value)}"
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
    by_key = {key: (name, hint, is_a) for name, key, hint, is_a, _ in _stored_fields(cls)[1]}
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
        return self.load_records("pages.jsonl", WebPage, check=False)

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

        def add(tag: TagRecord) -> None:
            if tag.source != source:
                raise CorpusDataError(f"has source {tag.source!r}, not {source!r}")
            url = normalize_url(tag.url)
            if url in table:
                raise CorpusDataError(f"names page {url!r} again")
            table[url] = _keyword_set(tag.keywords)
        self.load_records(f"tags.{source}.jsonl", TagRecord, add)
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
        return self.load_records("visits.jsonl", VisitRecord, build)

    def append_impressions(self, impressions: Iterable[AdImpression]) -> None:
        self._append("impressions.jsonl", impressions)

    def load_impressions(self, build: Callable[[AdImpression], object] = lambda imp: imp) -> list:
        """`build(impression)` per `AdImpression`, in log order; by default the impression."""
        return self.load_records("impressions.jsonl", AdImpression, build, check=False)

    def _append(self, name: str, records: Iterable) -> None:
        with self.path(name).open("a", encoding="utf-8") as fh:
            fh.write(_jsonl(records))

    # record lists

    def load_records(self, name: str, cls, build: Callable = lambda record: record,
                     check: bool = True) -> list:
        """`build(record)` for each record of `name`, in order, each record
        built as dataclass `cls` from its stored fields (`_build_records`;
        `check` false leaves their values to the constructor to check).

        A JSONL file holds one record per line; a JSON document holds them
        in the list under its stem ("sessions" in sessions.json). Anything
        `build` cannot use raises CorpusDataError naming file and record.
        """
        if name.endswith(".jsonl"):
            records = self._jsonl_records(name)
        else:
            stem = name.split(".")[0]
            doc = self.load_doc(name)
            records = doc.get(stem) if isinstance(doc, dict) else None
            if not isinstance(records, list):
                raise CorpusDataError(f"{name} in {self.root} has no {stem!r} list")
        return _build_records(cls, records, lambda i, why: (
            f"{name} in {self.root}: record {i + 1} {why}"), build, check)

    # json documents

    def write_doc(self, name: str, obj) -> None:
        """Canonical pretty JSON, ending in a line break: the bytes of
        `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`."""
        _write_atomic(self.path(name), _dump_doc(obj, "\n"))

    def load_doc(self, name: str):
        text = self._read(name)
        try:
            return _loads(text)
        except ValueError as exc:
            raise CorpusDataError(f"unreadable {name} in {self.root}: {exc}") from exc

    def _jsonl_records(self, name: str) -> list:
        """The value of each line of JSONL file `name`, by one `_decode_line`
        call per line over the whole file; only if one fails does the
        per-line pass run, which skips blank lines and names a bad one."""
        lines = self._read(name).split("\n")
        if not lines[-1]:
            lines.pop()  # after the break that ends the last line
        try:
            return list(map(_decode_line, lines))
        except ValueError:
            return list(self._iter_jsonl(name, lines))

    def _iter_jsonl(self, name: str, lines: list[str]):
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                yield _decode_line(line)
            except ValueError as exc:
                raise CorpusDataError(
                    f"{self.path(name)}:{lineno}: bad JSON line: {exc}"
                ) from exc
