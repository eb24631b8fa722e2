"""Tests for the filter-list matching engine."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocklist.matcher import FilterList, MatchContext
from repro.web.resources import ResourceType

LIST_TEXT = """[Adblock Plus 2.0]
! test list
||ads.com^
||analytics.com^$third-party
||media.com^$image
/pixel.gif?
@@||ads.com/allowed.js$script
"""


def make_list():
    return FilterList.from_text(LIST_TEXT)


class TestBlocking:
    def test_domain_rule_blocks(self):
        assert make_list().is_tracking("https://ads.com/x.js")

    def test_subdomain_blocked(self):
        assert make_list().is_tracking("https://cdn.ads.com/x.js")

    def test_unlisted_not_blocked(self):
        assert not make_list().is_tracking("https://benign.com/x.js")

    def test_generic_rule(self):
        assert make_list().is_tracking("https://anything.org/pixel.gif?uid=1")

    def test_match_result_carries_filter(self):
        result = make_list().match("https://ads.com/x.js")
        assert result.blocked
        assert result.matched_filter.pattern.startswith("||ads.com")


class TestExceptions:
    def test_exception_overrides_block(self):
        flt = make_list()
        result = flt.match(
            "https://ads.com/allowed.js",
            MatchContext(resource_type=ResourceType.SCRIPT),
        )
        assert not result.blocked
        assert result.exception_filter is not None

    def test_exception_type_specific(self):
        # Same URL as an image is still blocked: the exception is $script.
        flt = make_list()
        result = flt.match(
            "https://ads.com/allowed.js",
            MatchContext(resource_type=ResourceType.IMAGE),
        )
        assert result.blocked


class TestOptionsInContext:
    def test_third_party_option_respected(self):
        flt = make_list()
        # First-party context: analytics.com page loading analytics.com.
        assert not flt.is_tracking(
            "https://analytics.com/a.js", page_url="https://analytics.com/"
        )
        # Third-party context: some site embedding analytics.com.
        assert flt.is_tracking(
            "https://analytics.com/a.js", page_url="https://news.com/"
        )

    def test_third_party_option_without_page_context(self):
        # No page URL -> the third-party constraint cannot be evaluated
        # positively, so the filter does not fire.
        assert not make_list().is_tracking("https://analytics.com/a.js")

    def test_type_option_respected(self):
        flt = make_list()
        assert flt.is_tracking(
            "https://media.com/a.png", resource_type=ResourceType.IMAGE
        )
        assert not flt.is_tracking(
            "https://media.com/a.js", resource_type=ResourceType.SCRIPT
        )


class TestScale:
    def test_len(self):
        assert len(make_list()) == 5

    def test_many_urls_fast(self):
        flt = make_list()
        for i in range(500):
            flt.is_tracking(f"https://site{i}.com/asset.png")

    def test_empty_list_blocks_nothing(self):
        assert not FilterList([]).is_tracking("https://ads.com/x")


MEMO_LIST_TEXT = LIST_TEXT + """||cdn.com^$domain=news.com|~sub.news.com
||social.com^$~third-party
@@||analytics.com/ok.js$domain=shop.com
"""

_MEMO_URLS = [
    "https://ads.com/x.js",
    "https://ads.com/allowed.js",
    "https://analytics.com/a.js",
    "https://analytics.com/ok.js",
    "https://media.com/a.png",
    "https://cdn.com/lib.js",
    "https://social.com/btn.js",
    "https://benign.com/pixel.gif?u=1",
]
_MEMO_TYPES = [ResourceType.SCRIPT, ResourceType.IMAGE, ResourceType.OTHER]
_MEMO_PAGES = [
    None,
    "https://news.com/",
    "https://sub.news.com/",
    "https://shop.com/",
    "https://social.com/",
    "https://analytics.com/",
]

_queries = st.lists(
    st.tuples(
        st.sampled_from(_MEMO_URLS),
        st.sampled_from(_MEMO_TYPES),
        st.sampled_from(_MEMO_PAGES),
    ),
    max_size=40,
)


def _expected(url, resource_type, page_url):
    """The unmemoized verdict, from a list that has answered nothing yet."""
    return FilterList.from_text(MEMO_LIST_TEXT).match(
        url, MatchContext(resource_type=resource_type, page_url=page_url)
    ).blocked


class TestVerdictMemo:
    """``is_tracking`` remembers verdicts; they must equal ``match``'s."""

    @given(_queries)
    @settings(max_examples=60, deadline=None)
    def test_any_call_order_agrees_with_match(self, queries):
        flt = FilterList.from_text(MEMO_LIST_TEXT)
        for url, resource_type, page_url in queries:
            assert flt.is_tracking(
                url, resource_type=resource_type, page_url=page_url
            ) == _expected(url, resource_type, page_url)

    @pytest.mark.parametrize("order", [1, -1])
    def test_same_url_different_context(self, order):
        cases = [
            ("https://media.com/a.png", ResourceType.IMAGE, None, True),
            ("https://media.com/a.png", ResourceType.SCRIPT, None, False),
            ("https://analytics.com/a.js", ResourceType.SCRIPT, "https://news.com/", True),
            ("https://analytics.com/a.js", ResourceType.SCRIPT, "https://analytics.com/", False),
            ("https://social.com/btn.js", ResourceType.SCRIPT, "https://social.com/", True),
            ("https://social.com/btn.js", ResourceType.SCRIPT, "https://news.com/", False),
            ("https://cdn.com/lib.js", ResourceType.SCRIPT, "https://news.com/", True),
            ("https://cdn.com/lib.js", ResourceType.SCRIPT, "https://sub.news.com/", False),
            ("https://cdn.com/lib.js", ResourceType.SCRIPT, None, False),
        ]
        flt = FilterList.from_text(MEMO_LIST_TEXT)
        for _ in range(2):
            for url, resource_type, page_url, blocked in cases[::order]:
                assert flt.is_tracking(
                    url, resource_type=resource_type, page_url=page_url
                ) is blocked

    @given(_queries, _queries)
    @settings(max_examples=30, deadline=None)
    def test_pickled_after_memo_filled(self, warmup, queries):
        flt = FilterList.from_text(MEMO_LIST_TEXT)
        for url, resource_type, page_url in warmup:
            flt.is_tracking(url, resource_type=resource_type, page_url=page_url)
        payload = pickle.dumps(flt)
        assert payload == pickle.dumps(FilterList.from_text(MEMO_LIST_TEXT))
        restored = pickle.loads(payload)
        for url, resource_type, page_url in warmup + queries:
            assert restored.is_tracking(
                url, resource_type=resource_type, page_url=page_url
            ) == _expected(url, resource_type, page_url)
