"""Tests for AnalysisDataset construction."""

import gc

import pytest

from repro.analysis.dataset import AnalysisDataset, _collector_paused
from repro.errors import AnalysisError
from repro.trees.builder import TreeBuilder

from ..helpers import make_tree_set


class TestFromStore:
    def test_vetting_keeps_only_complete_pages(self, store, filter_list):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        complete = store.pages_crawled_by_all(store.profiles())
        assert len(dataset) == len(complete)
        for entry in dataset:
            assert len(entry.comparison.trees) == len(dataset.profiles)

    def test_without_vetting_more_pages(self, store, filter_list):
        vetted = AnalysisDataset.from_store(store, filter_list=filter_list)
        unvetted = AnalysisDataset.from_store(
            store, filter_list=filter_list, require_all=False
        )
        assert len(unvetted) >= len(vetted)

    def test_site_ranks_populated(self, dataset):
        for entry in dataset:
            assert entry.site_rank >= 1
            assert entry.site

    def test_tracking_annotated(self, dataset):
        assert any(node.is_tracking for node in dataset.iter_nodes())

    def test_node_count(self, dataset):
        assert dataset.node_count() == sum(len(e.comparison) for e in dataset)

    def test_sites_mapping(self, dataset):
        sites = dataset.sites()
        assert sites
        for entry in dataset:
            assert sites[entry.site] == entry.site_rank


class TestFromTreeSets:
    def test_basic(self):
        trees = make_tree_set(
            "https://site.com/", {"A": {"https://site.com/a.js": None}}
        )
        dataset = AnalysisDataset.from_tree_sets([trees])
        assert len(dataset) == 1
        assert dataset.profiles == ["A"]
        assert dataset.entries[0].site == "site.com"

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisDataset.from_tree_sets([])

    def test_rank_override(self):
        trees = make_tree_set("https://site.com/", {"A": {}})
        dataset = AnalysisDataset.from_tree_sets([trees], site_ranks={"site.com": 77})
        assert dataset.entries[0].site_rank == 77


class TestCollectorPaused:
    """The bulk-build GC pause always hands the collector back as found."""

    @staticmethod
    def set_collector(enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        self.set_collector(enabled)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_restored_after(self, enabled):
        self.set_collector(enabled)
        with _collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_the_body_raises(self, enabled):
        self.set_collector(enabled)
        with pytest.raises(AnalysisError, match="boom"):
            with _collector_paused():
                raise AnalysisError("boom")
        assert gc.isenabled() is enabled

    def test_build_runs_paused_and_freezes_nothing(
        self, store, filter_list, monkeypatch
    ):
        collector_on = []
        build = TreeBuilder.build

        def spy(builder, *args, **kwargs):
            collector_on.append(gc.isenabled())
            return build(builder, *args, **kwargs)

        monkeypatch.setattr(TreeBuilder, "build", spy)
        self.set_collector(True)
        frozen = gc.get_freeze_count()
        AnalysisDataset.from_store(store, filter_list=filter_list)
        assert collector_on and not any(collector_on)
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()
