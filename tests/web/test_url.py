"""Tests for the URL value object."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import InvalidURLError
from repro.web.url import URL


class TestParsing:
    def test_basic(self):
        url = URL.parse("https://example.com/path/to/x?a=1&b=2")
        assert url.scheme == "https"
        assert url.host == "example.com"
        assert url.path == "/path/to/x"
        assert url.query == (("a", "1"), ("b", "2"))

    def test_host_lowercased(self):
        assert URL.parse("https://EXAMPLE.com/").host == "example.com"

    def test_default_path(self):
        assert URL.parse("https://example.com").path == "/"

    def test_port(self):
        assert URL.parse("http://example.com:8080/").port == 8080

    def test_fragment_dropped(self):
        assert "frag" not in str(URL.parse("https://example.com/a#frag"))

    def test_websocket_scheme(self):
        assert URL.parse("wss://live.example.com/feed").scheme == "wss"

    @pytest.mark.parametrize(
        "bad", ["", "not a url", "/relative/path", "ftp://example.com/", "https://"]
    )
    def test_rejects_bad_urls(self, bad):
        with pytest.raises(InvalidURLError):
            URL.parse(bad)

    def test_bad_port(self):
        with pytest.raises(InvalidURLError):
            URL.parse("http://example.com:notaport/")

    def test_empty_query_value_kept(self):
        url = URL.parse("https://example.com/x?key=")
        assert url.query == (("key", ""),)


class TestPercentEncodedPaths:
    def test_encoded_slash_stays_distinct(self):
        # Regression: unquoting the path merged distinct resources into
        # one node (http://x.com/a%2Fb == http://x.com/a/b).
        encoded = URL.parse("http://x.com/a%2Fb")
        plain = URL.parse("http://x.com/a/b")
        assert encoded != plain
        assert encoded.path == "/a%2Fb"
        assert plain.path == "/a/b"

    def test_structural_escapes_preserved(self):
        url = URL.parse("http://x.com/a%2fb%3Fc%23d%25e")
        assert url.path == "/a%2Fb%3Fc%23d%25e"

    def test_cosmetic_escapes_still_decoded(self):
        assert URL.parse("http://x.com/a%20b").path == "/a b"
        assert URL.parse("http://x.com/%61bc").path == "/abc"

    def test_roundtrip_with_encoded_slash(self):
        url = URL.parse("http://x.com/a%2Fb?k=v")
        assert URL.parse(str(url)) == url
        assert "%2F" in str(url)

    def test_escape_case_normalized(self):
        lower = URL.parse("http://x.com/a%2fb")
        upper = URL.parse("http://x.com/a%2Fb")
        assert lower == upper

    def test_decoded_path_for_display(self):
        url = URL.parse("http://x.com/a%2Fb%20c")
        assert url.decoded_path == "/a/b c"

    def test_utf8_escapes_decode(self):
        url = URL.parse("http://x.com/caf%C3%A9")
        assert url.path == "/café"
        assert URL.parse(str(url)) == url


class TestProperties:
    def test_site(self):
        assert URL.parse("https://cdn.shop.example.co.uk/x").site == "example.co.uk"

    def test_origin_default_port_elided(self):
        assert URL.parse("https://example.com:443/x").origin == "https://example.com"

    def test_origin_explicit_port(self):
        assert URL.parse("https://example.com:8443/x").origin == "https://example.com:8443"

    def test_query_keys(self):
        url = URL.parse("https://e.com/?b=2&a=1")
        assert url.query_keys() == ("b", "a")

    def test_get_param(self):
        url = URL.parse("https://e.com/?a=1&a=2")
        assert url.get_param("a") == "1"
        assert url.get_param("missing") is None


class TestTransforms:
    def test_strip_query_values_keeps_keys(self):
        url = URL.parse("https://foo.com/scriptA.js?s_id=1234")
        stripped = url.strip_query_values()
        assert str(stripped) == "https://foo.com/scriptA.js?s_id="

    def test_strip_is_stable_identity(self):
        # The paper's motivating example: two session ids, one node.
        a = URL.parse("https://foo.com/scriptA.js?s_id=1234").strip_query_values()
        b = URL.parse("https://foo.com/scriptA.js?s_id=abcd").strip_query_values()
        assert a == b

    def test_with_param_appends(self):
        url = URL.parse("https://e.com/x").with_param("k", "v")
        assert url.get_param("k") == "v"

    def test_without_query(self):
        url = URL.parse("https://e.com/x?a=1").without_query()
        assert url.query == ()

    def test_is_same_site(self):
        a = URL.parse("https://a.example.com/")
        b = URL.parse("https://b.example.com/x")
        c = URL.parse("https://other.org/")
        assert a.is_same_site(b)
        assert not a.is_same_site(c)


class TestSerialization:
    def test_roundtrip(self):
        original = "https://example.com/path?a=1&b=2"
        assert str(URL.parse(original)) == original

    def test_hashable_and_ordered(self):
        a = URL.parse("https://a.com/")
        b = URL.parse("https://b.com/")
        assert len({a, b, URL.parse("https://a.com/")}) == 2
        assert sorted([b, a]) == [a, b]

    def test_str_parse_fixpoint(self):
        url = URL.parse("https://example.com/x%20y?q=hello%26world")
        assert URL.parse(str(url)) == url


class TestStringMemo:
    """``str(url)`` is memoized on first use; the memo is not a field."""

    RAW = "https://Example.com:8443/a%2Fb c/?q=1&s=&k=x y"

    def test_string_unchanged(self):
        url = URL.parse(self.RAW)
        expected = "https://example.com:8443/a%2Fb%20c/?q=1&s=&k=x%20y"
        assert str(url) == expected
        assert str(url) == expected
        assert str(URL.parse(expected)) == expected

    def test_memo_reused(self):
        url = URL.parse(self.RAW)
        assert str(url) is str(url)

    def test_identity_ignores_memo(self):
        fresh, used = URL.parse(self.RAW), URL.parse(self.RAW)
        str(used)
        assert fresh == used
        assert hash(fresh) == hash(used)
        assert not fresh < used and not used < fresh
        other = URL.parse("https://example.com/z")
        str(other)
        assert (fresh < other) == (used < other)

    def test_fields_unchanged(self):
        url = URL.parse(self.RAW)
        str(url)
        assert [f.name for f in dataclasses.fields(url)] == [
            "scheme", "host", "path", "query", "port"
        ]
        assert dataclasses.asdict(url) == dataclasses.asdict(URL.parse(self.RAW))
        with pytest.raises(dataclasses.FrozenInstanceError):
            url.host = "other.com"

    def test_pickle_ignores_memo(self):
        fresh, used = URL.parse(self.RAW), URL.parse(self.RAW)
        str(used)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used
        assert str(restored) == str(used)

    def test_derived_urls_do_not_inherit_memo(self):
        fresh, used = URL.parse(self.RAW), URL.parse(self.RAW)
        str(used)
        added = used.with_param("extra", "1")
        stripped = used.strip_query_values()
        assert added == fresh.with_param("extra", "1")
        assert str(added) == str(fresh.with_param("extra", "1"))
        assert str(added) == f"{used}&extra=1"
        assert stripped == fresh.strip_query_values()
        assert str(stripped) == "https://example.com:8443/a%2Fb%20c/?q=&s=&k="
        assert copy.copy(used) == used and str(copy.copy(used)) == str(used)
