"""URL handling, tagging sources, and the experiment store."""

import re

import pytest

from obameter import (
    AdImpression,
    ExperimentStore,
    WebPage,
    landing_key,
    normalize_url,
    tag_pages,
)
from obameter.errors import CorpusDataError, IncompleteCorpus


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

    def test_landing_key_ignores_query_and_scheme(self):
        a = landing_key("https://shop.example/item?utm=1")
        b = landing_key("http://shop.example/item?ref=2")
        assert a == b == "shop.example/item"

    def test_landing_key_distinguishes_paths(self):
        assert landing_key("http://s.example/a") != landing_key("http://s.example/b")


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

    def test_impression_ntimes_positive(self):
        with pytest.raises(CorpusDataError):
            AdImpression(persona_id="p", session_id="s",
                         control_page="c.example", landing_page="l.example",
                         ntimes=0)

    def test_tag_pages_covers_every_page(self):
        pages = [WebPage(url=f"http://p{i}.example") for i in (2, 0, 1)]
        tags = tag_pages(pages, FakeSource({pages[0].url: ["pools"]}))
        assert list(tags) == [p.url for p in pages]
        assert tags[pages[0].url] == {"pools"}
        assert tags[pages[1].url] == set()


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
        assert again[0].key == imps[0].key

    def test_missing_file_raises(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        with pytest.raises(IncompleteCorpus):
            store.load_pages()
        with pytest.raises(IncompleteCorpus):
            store.load_tags("alpha")

    def test_corrupt_jsonl_names_the_line(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.path("pages.jsonl").write_text(
            '{"role": "training", "url": "http://a.example"}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusDataError, match=r"pages\.jsonl:2: bad JSON"):
            store.load_pages()

    def test_doc_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path).create()
        store.write_doc("meta.json", {"b": 1, "a": [1, 2]})
        assert store.load_doc("meta.json") == {"a": [1, 2], "b": 1}
