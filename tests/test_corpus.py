"""URL handling, tagging sources, the experiment store, and standard JSON in
the golden runs."""

import dataclasses
import json
import math
import re
import tempfile
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

from obameter import (
    AdImpression,
    ExperimentStore,
    WebPage,
    landing_key,
    normalize_url,
    tag_pages,
)
from obameter import corpus
from obameter.errors import CorpusDataError
from test_golden import DECAY_SIM, DNT_SHARED_SIM, GOLDEN_MANIFEST, GOLDEN_SHA256, _run

_DEFAULT_PORT = {"http": 80, "https": 443}


def _mixed_case(text):
    """Strategy: `text` with each letter in either case."""
    return st.tuples(*(st.sampled_from(sorted({c.lower(), c.upper()})) for c in text)
                     ).map("".join)


@st.composite
def urls(draw):
    """URLs that normalize_url must canonicalise: mixed-case scheme and host,
    default and other ports, userinfo, bracketed IPv6 hosts, trailing
    slashes, queries and fragments."""
    scheme = draw(st.sampled_from(["http", "https"]))
    if draw(st.booleans()):
        host = "[" + draw(st.ip_addresses(v=6).map(str).flatmap(_mixed_case)) + "]"
    else:
        label = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6)
        host = ".".join(draw(st.lists(label, min_size=1, max_size=3))) + ".example"
        host = draw(_mixed_case(host))
    port = draw(st.sampled_from([None, _DEFAULT_PORT[scheme], 8080, 1]))
    userinfo = draw(st.sampled_from(["", "user@", "u:pw@"]))
    segment = st.text("aAbB09-_.~", min_size=1, max_size=4)
    path = "".join("/" + seg for seg in draw(st.lists(segment, max_size=3)))
    path += draw(st.sampled_from(["", "/", "//"]))
    query = draw(st.sampled_from(["", "?q=1", "?Q=1&r=/x/"]))
    fragment = draw(st.sampled_from(["", "#top", "#Top/"]))
    netloc = userinfo + host + ("" if port is None else f":{port}")
    return f"{draw(_mixed_case(scheme))}://{netloc}{path}{query}{fragment}"


class FakeSource:
    """A tagging source that answers from a url -> keywords mapping."""

    name = "fake"

    def __init__(self, records):
        self.records = records

    def keywords_for(self, page):
        return set(self.records.get(page.url, ()))


class TestUrlNormalization:
    def test_scheme_added(self):
        assert normalize_url("shop.example/a") == "http://shop.example/a"

    def test_case_and_default_ports(self):
        assert normalize_url("HTTPS://Shop.Example:443/A") == "https://shop.example/A"
        assert normalize_url("http://shop.example:80/x") == "http://shop.example/x"

    def test_custom_port_kept(self):
        assert normalize_url("http://shop.example:8080/x") == "http://shop.example:8080/x"

    def test_trailing_slash_stripped(self):
        assert normalize_url("http://shop.example/a/") == "http://shop.example/a"

    def test_idempotent(self):
        once = normalize_url("Shop.Example:80/a/")
        assert normalize_url(once) == once

    @pytest.mark.parametrize("url", [
        "http://[::1]:8080/a",
        "HTTP://[2001:DB8::1]/x/",
        "https://[2001:db8::1]:443/x?q=1#f",
        "http://user:pw@Shop.Example:8080/a/",
        "user@shop.example/a",
        "http://[::1]:80",
        "https://shop.example:8443",
    ])
    def test_idempotent_with_ipv6_userinfo_and_ports(self, url):
        once = normalize_url(url)
        assert normalize_url(once) == once

    def test_ipv6_host_keeps_its_brackets(self):
        assert normalize_url("http://[::1]:8080/a") == "http://[::1]:8080/a"
        assert normalize_url("HTTP://[2001:DB8::1]:80/x/") == "http://[2001:db8::1]/x"

    def test_distinct_ipv6_hosts_get_distinct_keys(self):
        a = landing_key("http://[2001:db8::1]/x")
        b = landing_key("http://[2001:db8::2]/x")
        assert a != b
        assert landing_key("https://[2001:db8::1]:8443/x?q") == a

    @pytest.mark.parametrize("url", ["http://shop.example:99999/x", "http://[::1/a"])
    def test_unparsable_url_is_a_corpus_error(self, url):
        with pytest.raises(CorpusDataError, match=re.escape(url)):
            normalize_url(url)

    @pytest.mark.parametrize("url", [None, 7, 3.5, True])
    def test_non_string_url_is_a_corpus_error(self, url):
        with pytest.raises(CorpusDataError, match=f"unusable URL {url!r}"):
            normalize_url(url)

    def test_landing_key_ignores_query_and_scheme(self):
        a = landing_key("https://shop.example/item?utm=1")
        b = landing_key("http://shop.example/item?ref=2")
        assert a == b == "shop.example/item"

    def test_landing_key_distinguishes_paths(self):
        assert landing_key("http://s.example/a") != landing_key("http://s.example/b")


# the parse behind the cache, so an oracle never reads a cached answer
_uncached = corpus._parse.__wrapped__


def _two_parse_key(url):
    """The landing key as host + path of the canonical URL parsed again."""
    parts = urlsplit(_uncached(url)[0])
    return (parts.hostname or "") + parts.path


def _outcome(f, url):
    """f(url), or "raises" for a URL that cannot be keyed."""
    try:
        return f(url)
    except (CorpusDataError, ValueError):
        return "raises"


class TestStoredKeys:
    """An AdImpression stores the keys of its URLs, as the uncached parse
    gives them."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(urls(), urls().map(str.swapcase), st.text(),
                     st.text(":/?#[]@.aA1 ")))
    # canonical forms that read back otherwise, or not at all
    @example("//a.example/x")
    @example("Https:://x")
    @example("http:////[")
    @example("[::]@]")
    @example("http://[::1]@[zz:q]/x")
    def test_one_parse_gives_the_two_parse_key(self, url):
        key = _outcome(landing_key, url)
        assert key == _outcome(_two_parse_key, url)
        if key != "raises":
            assert (normalize_url(url), key) == _uncached(url)

    @staticmethod
    def _check(imp, pid, sid, control, landing):
        (c_url, _), (l_url, l_key) = _uncached(control), _uncached(landing)
        assert (imp.persona_id, imp.session_id) == (pid, sid)
        assert imp.landing_key == l_key
        assert (imp.control_page, imp.landing_page) == (c_url, l_url)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(urls(), min_size=1, max_size=6))
    def test_keys_match_the_url_functions(self, drawn):
        # swapcase keeps scheme and host equal but not path, query or
        # fragment, so a cache keyed coarser than the raw string goes wrong
        batch = drawn + [u.swapcase() for u in drawn]
        pairs = [(f"p{i}", c, batch[(i + 1) % len(batch)]) for i, c in enumerate(batch)]
        for pid, control, landing in pairs:
            imp = AdImpression(persona_id=pid, session_id="s",
                               control_page=control, landing_page=landing)
            self._check(imp, pid, "s", control, landing)

        with tempfile.TemporaryDirectory() as tmp:
            store = ExperimentStore(tmp)
            store.path("impressions.jsonl").write_text("".join(
                json.dumps({"control": c, "ground_truth": None, "landing": l,
                            "ntimes": 1, "persona": pid, "session": "s"}) + "\n"
                for pid, c, l in pairs
            ), encoding="utf-8")
            for imp, (pid, control, landing) in zip(store.load_impressions(), pairs):
                self._check(imp, pid, "s", control, landing)


class TestPagesAndTags:
    def test_page_role_validated(self):
        with pytest.raises(CorpusDataError):
            WebPage(url="http://x.example", role="banner")

    def test_tag_pages_normalizes_keywords(self):
        page = WebPage(url="X.example/a/")
        tags = tag_pages([page], FakeSource({page.url: ["Pools ", "", "  "]}))
        assert tags == {"http://x.example/a": {"pools"}}

    def test_source_name_validated(self, tmp_path):
        with pytest.raises(CorpusDataError):
            ExperimentStore(tmp_path).tags_path("bad name!")

    def test_source_name_with_a_trailing_newline_is_unusable(self, tmp_path):
        with pytest.raises(CorpusDataError):
            ExperimentStore(tmp_path).tags_path("name\n")

    def test_impression_ntimes_positive(self):
        with pytest.raises(CorpusDataError):
            AdImpression(persona_id="p", session_id="s",
                         control_page="c.example", landing_page="l.example",
                         ntimes=0)

    @pytest.mark.parametrize("ntimes", ["3", 2.0, True, None])
    def test_impression_ntimes_an_integer(self, ntimes):
        with pytest.raises(CorpusDataError, match="ntimes must be an integer"):
            AdImpression(persona_id="p", session_id="s",
                         control_page="c.example", landing_page="l.example",
                         ntimes=ntimes)

    def test_tag_pages_covers_every_page(self):
        pages = [WebPage(url=f"http://p{i}.example") for i in (2, 0, 1)]
        tags = tag_pages(pages, FakeSource({pages[0].url: ["pools"]}))
        assert list(tags) == [p.url for p in pages]
        assert tags[pages[0].url] == {"pools"}
        assert tags[pages[1].url] == set()


# every character the writers cut or splice at, or that json escapes or not
_TEXT = st.text(st.sampled_from(
    ['"', "\\", "{", "}", "[", "]", ",", ":", "\n", "\r", "\0", "\x85", "\u2028", "é", "a", " "]),
    max_size=5)
_SCALAR = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats(allow_nan=False, allow_infinity=False) | _TEXT)
_FLAT_DICT = st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=4)
_FLAT_LIST = st.lists(_SCALAR, min_size=1, max_size=4)
_EMPTY = st.sampled_from([{}, []])
# the shapes the document writer takes by a few encoder calls, with the
# empty containers that must not take those paths mixed in
_SHAPES = st.one_of(
    _SCALAR, _FLAT_DICT, _FLAT_LIST, _EMPTY,
    st.lists(_FLAT_DICT | st.just({}), min_size=1, max_size=4),
    st.dictionaries(_TEXT, _FLAT_LIST | st.just([]), min_size=1, max_size=4),
    st.lists(st.dictionaries(_TEXT, _SCALAR | _FLAT_DICT | _FLAT_LIST, min_size=1, max_size=4),
             min_size=1, max_size=4),
    st.lists(st.dictionaries(_TEXT, _SCALAR | _FLAT_DICT | _FLAT_LIST | _EMPTY, max_size=4),
             min_size=1, max_size=4),
)
_DOCUMENTS = st.recursive(
    _SHAPES,
    lambda inner: (st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=8,
)
_reference_doc = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False,
                                  allow_nan=False).encode
_reference_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                                   allow_nan=False).encode


@dataclasses.dataclass
class _AnyRecord:
    """A stored record whose two fields hold any JSON value, under keys the
    JSONL writer must not take for record boundaries."""

    first: object = dataclasses.field(metadata={"key": '}\n{"'})
    second: object = dataclasses.field(metadata={"key": "a"})


_BATCHES = st.one_of(
    st.lists(st.builds(_AnyRecord, _SCALAR | _FLAT_LIST | _EMPTY, _SCALAR | _FLAT_LIST), max_size=5),
    # a nested dict or a list of dicts sends the batch line by line
    st.lists(st.builds(_AnyRecord, _SCALAR | _FLAT_DICT | st.lists(_FLAT_DICT, max_size=2),
                       _DOCUMENTS), max_size=5),
    st.lists(st.builds(corpus.VisitRecord, _TEXT, st.integers(), st.floats(allow_nan=False,
             allow_infinity=False), st.sampled_from(["training", "control"]), _TEXT), max_size=5),
    st.lists(st.builds(corpus.TagRecord, _TEXT, _TEXT, st.lists(_TEXT, max_size=3)), max_size=5),
)


class TestWriters:
    """The writers give exactly the bytes of json's own encoders: documents
    those of `indent=2`, JSONL files one compact line per record."""

    @settings(deadline=None)
    @given(_DOCUMENTS)
    @example([{"a": 2**64 + 1, "b": "}\n{"}, {}, {"c": [1]}])
    @example({"k": [[], {}, [{}]], "l": [{"a": {}}, {"b": []}]})
    @example({"a": ["x"], "b": ["}", "],\n    ["]})
    @example([{"a": [1, "]"], "b": {"c": "}"}, "d": 0}, {"e": None}])
    def test_documents_are_json_indent_2(self, value):
        assert corpus._dump_doc(value) == _reference_doc(value)
        assert corpus._dump_doc(value, "\n") == _reference_doc(value) + "\n"

    @settings(deadline=None)
    @given(_BATCHES)
    @example([_AnyRecord({"b": 1}, 2), _AnyRecord([{"c": {}}], "\n")])
    @example([_AnyRecord([1, "}\n{"], None), _AnyRecord(2**64, {})])
    def test_jsonl_is_one_compact_line_per_record(self, records):
        lines = "".join(_reference_line(corpus._to_record(r)) + "\n" for r in records)
        assert corpus._jsonl(records) == lines


class TestStore:
    def test_pages_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        pages = [WebPage(url="http://a.example", role="training"),
                 WebPage(url="http://b.example", role="control")]
        store.write_pages(pages)
        assert store.load_pages() == pages

    def test_tags_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.write_tags("alpha", {"http://a.example": {"x", "y"}})
        assert store.tag_sources() == ["alpha"]
        assert store.load_tags("alpha") == {"http://a.example": {"x", "y"}}

    def test_load_tags_canonicalises_keywords(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.tags_path("alpha").write_text(json.dumps({
            "keywords": [" Swimming__Pools ", "swimming pools", "", "  ", "X"],
            "source": "alpha", "url": "http://a.example",
        }) + "\n", encoding="utf-8")
        assert store.load_tags("alpha") == {"http://a.example": {"swimming pools", "x"}}

    def test_impressions_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        imps = [AdImpression(persona_id="p", session_id="s",
                             control_page="http://c.example",
                             landing_page="http://l.example",
                             ntimes=3, ground_truth="oba")]
        store.append_impressions(imps)
        again = store.load_impressions()
        assert len(again) == 1
        assert again[0].ntimes == 3
        assert again[0].ground_truth == "oba"
        assert again[0] == imps[0]

    def test_missing_file_raises(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        with pytest.raises(CorpusDataError, match="missing pages.jsonl"):
            store.load_pages()
        with pytest.raises(CorpusDataError, match="missing tags.alpha.jsonl"):
            store.load_tags("alpha")

    def test_page_without_a_role_is_a_data_error(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.path("pages.jsonl").write_text(
            '{"url": "http://a.example"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusDataError,
                           match=r"pages\.jsonl in .*: record 1 has no 'role'"):
            store.load_pages()

    @pytest.mark.parametrize("line, problem", [
        ('["http://a.example", "training"]', "is not an object"),
        ('{"url": 5, "role": "training"}', "unusable URL 5"),
        ('{"url": "http://a.example", "role": "hub"}', "unknown page role"),
    ], ids=["list", "number-url", "unknown-role"])
    def test_unusable_page_record_is_a_data_error(self, tmp_path, line, problem):
        store = ExperimentStore(tmp_path).create()
        store.path("pages.jsonl").write_text(
            '{"role": "training", "url": "http://b.example"}\n' + line + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusDataError,
                           match=rf"pages\.jsonl in .*: record 2 {problem}"):
            store.load_pages()

    def test_visits_are_read_as_stored_or_built(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.path("visits.jsonl").write_text(
            '{"kind": "control", "seq": 0, "session": "s", "t": 2, "url": "HTTP://A.example/"}\n',
            encoding="utf-8",
        )
        assert store.load_visits() == [
            corpus.VisitRecord(session="s", seq=0, t=2, kind="control", url="HTTP://A.example/")
        ]
        keys = store.load_visits(lambda visit: (normalize_url(visit.url), landing_key(visit.url)))
        assert keys == [("http://a.example", "a.example")]
        # a visit lacking kind, seq and t is no visit record
        store.path("visits.jsonl").write_text(
            '{"session": "s", "url": "http://a.example"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusDataError, match="record 1 has no 'seq'"):
            store.load_visits()
        store.path("visits.jsonl").write_text('"s"\n', encoding="utf-8")
        with pytest.raises(CorpusDataError, match="record 1 is not an object"):
            store.load_visits()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.text(st.sampled_from('{}[]",:019.e-tfnul \t\r\x0b\x85\ufeffNaIy\\x'), max_size=16),
        st.tuples(
            st.sampled_from(["", " ", "\r", "\ufeff", "\x85", " x", ","]),
            st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                         lambda c: st.lists(c) | st.dictionaries(st.text(), c),
                         max_leaves=6).map(json.dumps),
            st.sampled_from(["", " ", "\t", "\r", "\x85", "x", "{}"]),
        ).map("".join),
    ))
    @example("NaN")
    @example(' {"t": -Infinity}')
    @example("[1, NaN x")
    def test_lines_decode_as_json_loads_decodes_them(self, line):
        def outcome(decode):
            try:
                return repr(decode(line))
            except ValueError as exc:
                return f"error: {exc}"

        def strict_loads(text):  # json.loads refusing NaN and Infinity
            return json.loads(text, parse_constant=corpus._no_constant)

        assert outcome(corpus._decode_line) == outcome(strict_loads)

    @pytest.mark.parametrize("line", ["NaN", '{"t":Infinity}', "[1,-Infinity]", ' {"t":NaN}'])
    def test_non_standard_tokens_are_refused(self, line):
        with pytest.raises(ValueError, match="is not a JSON value"):
            corpus._decode_line(line)

    def test_writers_refuse_non_finite_floats(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                store.write_doc("doc.json", {"v": value})
            with pytest.raises(ValueError):
                corpus._dump_line({"v": value})
        assert not store.path("doc.json").exists()

    def test_corrupt_jsonl_names_the_line(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.path("pages.jsonl").write_text(
            '{"role": "training", "url": "http://a.example"}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusDataError, match=r"pages\.jsonl:2: bad JSON"):
            store.load_pages()

    def test_blank_and_crlf_lines_read_and_a_bad_line_is_named(self, tmp_path):
        # a line ends at "\n" only, so "\r" is the padding of its line
        store = ExperimentStore(tmp_path).create()
        visits = [corpus.VisitRecord("s", 0, 2.5, "control", "http://a.example"),
                  corpus.VisitRecord("s", 1, 4.0, "training", "http://b.example")]
        first, second = (json.dumps(corpus._to_record(v)) for v in visits)
        lines = [first + "\r", "", " \t", second]
        store.path("visits.jsonl").write_text("\n".join(lines), encoding="utf-8")
        assert store.load_visits() == visits
        store.path("visits.jsonl").write_text("\n".join([*lines, "{not json"]) + "\n",
                                              encoding="utf-8")
        with pytest.raises(CorpusDataError, match=r"visits\.jsonl:5: bad JSON line"):
            store.load_visits()

    def test_doc_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.write_doc("meta.json", {"b": 1, "a": [1, 2]})
        assert store.load_doc("meta.json") == {"a": [1, 2], "b": 1}

    def test_clear_removes_layout_files_and_their_temporary_siblings(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        layout = ["report.json", "visits.jsonl", "tags.sim-a.jsonl"]
        stale = [".report.json.tmp", ".performance.json.tmp",
                 ".tags.sim-a.jsonl.tmp", ".tags.sim-b.jsonl.tmp"]
        kept = ["notes.txt", ".notes.tmp", ".report.json.bak", "tags.txt"]
        for name in layout + stale + kept:
            (tmp_path / name).write_text("x", encoding="utf-8")
        store.clear()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept)

    def test_failed_write_keeps_the_old_document(self, tmp_path, torn_writes):
        store = ExperimentStore(tmp_path).create()
        store.write_doc("report.json", {"old": True})
        before = store.path("report.json").read_bytes()
        torn_writes("report.json")
        with pytest.raises(OSError, match="no space"):
            store.write_doc("report.json", {"new": list(range(100))})
        assert store.path("report.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def _refuse(token):
    raise ValueError(f"non-standard token {token}")


@pytest.mark.parametrize("sim", [{}, DNT_SHARED_SIM, DECAY_SIM],
                         ids=["default", "dnt-shared", "decay"])
def test_every_json_file_of_a_golden_run_is_standard_json(tmp_path, sim):
    # Python's json writes and reads NaN and Infinity, which RFC 8259 does not
    # allow; the variants write the files the default run writes
    _run(tmp_path, dict(GOLDEN_MANIFEST, sim=sim))
    for name in (name for name in GOLDEN_SHA256 if name.endswith((".json", ".jsonl"))):
        text = (tmp_path / name).read_text(encoding="utf-8")
        docs = [text] if name.endswith(".json") else text.splitlines()
        for lineno, doc in enumerate(docs, 1):
            try:
                json.loads(doc, parse_constant=_refuse)
            except ValueError as exc:
                pytest.fail(f"{name}:{lineno}: {exc}")
