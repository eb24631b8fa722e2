"""Tests for the horizontal (children) analysis."""

import pytest

from repro.analysis.comparison import PageComparison
from repro.analysis.horizontal import HorizontalAnalyzer, page_child_similarity
from repro.web.resources import ResourceType

from ..helpers import make_tree_set

PAGE = "https://site.com/"


def comparison_with(structures):
    return PageComparison(make_tree_set(PAGE, structures))


class TestDepthOneEntry:
    def test_static_leaves_excluded_by_default(self):
        # Depth-one sets differ only in images, which cannot load children;
        # after the paper's exclusion the remaining sets are identical.
        comp = comparison_with(
            {
                "A": {"https://site.com/a.js": None, "https://site.com/1.png": None},
                "B": {"https://site.com/a.js": None, "https://site.com/2.png": None},
            }
        )
        result = HorizontalAnalyzer().analyze_page(comp)
        assert result.depth_one_similarity == 1.0
        inclusive = HorizontalAnalyzer(include_static_leaves=True).analyze_page(comp)
        assert inclusive.depth_one_similarity == pytest.approx(1 / 3)


class TestRecursion:
    def structures(self):
        shared_child = {"https://cdn.com/lib.js": None}
        return {
            "A": {
                "https://site.com/a.js": {
                    "https://site.com/inner.js": shared_child,
                },
            },
            "B": {
                "https://site.com/a.js": {
                    "https://site.com/inner.js": shared_child,
                },
            },
        }

    def test_recurses_into_recurring_children(self):
        comp = comparison_with(self.structures())
        result = HorizontalAnalyzer().analyze_page(comp)
        keys = {record.key for record in result.records}
        assert "https://site.com/a.js" in keys
        assert "https://site.com/inner.js" in keys  # reached via recursion

    def test_non_recurring_nodes_not_compared(self):
        comp = comparison_with(
            {
                "A": {"https://site.com/only-a.js": {"https://x.com/c.js": None}},
                "B": {"https://site.com/only-b.js": {"https://x.com/c.js": None}},
            }
        )
        result = HorizontalAnalyzer().analyze_page(comp)
        assert result.records == ()

    def test_childless_recurring_nodes_skipped(self):
        comp = comparison_with(
            {
                "A": {"https://site.com/a.js": None},
                "B": {"https://site.com/a.js": None},
            }
        )
        result = HorizontalAnalyzer().analyze_page(comp)
        assert result.records == ()

    def test_no_duplicate_records_per_key(self):
        comp = comparison_with(self.structures())
        result = HorizontalAnalyzer().analyze_page(comp)
        keys = [record.key for record in result.records]
        assert len(keys) == len(set(keys))


class TestRecordContents:
    def test_similarity_value(self):
        comp = comparison_with(
            {
                "A": {"https://site.com/a.js": {"https://x.com/1.png": None,
                                                "https://x.com/2.png": None}},
                "B": {"https://site.com/a.js": {"https://x.com/1.png": None}},
            }
        )
        result = HorizontalAnalyzer().analyze_page(comp)
        record = next(r for r in result.records if r.key.endswith("a.js"))
        assert record.similarity == pytest.approx(0.5)
        assert record.mean_child_count == pytest.approx(1.5)
        assert record.resource_type is ResourceType.SCRIPT
        assert record.presence_count == 2

    def test_dataset_aggregation(self, dataset):
        analyzer = HorizontalAnalyzer()
        records = analyzer.all_records(dataset)
        assert records
        assert all(0.0 <= record.similarity <= 1.0 for record in records)

    def test_kept_records_cannot_be_changed_by_callers(self, dataset):
        analyzer = HorizontalAnalyzer()
        expected = analyzer.all_records(dataset)
        analyzer.all_records(dataset).clear()
        assert analyzer.all_records(dataset) == expected
        entry = next(iter(dataset))
        assert isinstance(analyzer.analyze_page(entry.comparison).records, tuple)


class TestPageChildSimilarity:
    def test_page_average(self):
        comp = comparison_with(
            {
                "A": {"https://site.com/a.js": {"https://x.com/1.png": None}},
                "B": {"https://site.com/a.js": {"https://x.com/1.png": None}},
            }
        )
        assert page_child_similarity(comp) == 1.0

    def test_none_when_no_recurring_children(self):
        comp = comparison_with(
            {
                "A": {"https://site.com/img.png": None},
                "B": {"https://site.com/img.png": None},
            }
        )
        assert page_child_similarity(comp) is None
