"""Tests for the inclusion graph and the networkx graph export."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

networkx = pytest.importorskip("networkx")

import repro
from repro.bundle import record_from_store
from repro.trees.graph import (
    InclusionGraph,
    aggregate_inclusions,
    inclusion_graph,
    to_networkx,
    tracker_centrality,
)
from repro.web import psl

from ..helpers import make_tree

PAGE = "https://site.com/"


def sample_tree(profile="A"):
    tree = make_tree(
        PAGE,
        {
            "https://site.com/a.js": {
                "https://trk.com/pixel.gif": None,
            },
            "https://ads.com/frame.html": {
                "https://trk.com/pixel.gif": None,
                "https://cdn.com/img.png": None,
            },
        },
        profile=profile,
    )
    tree.node("https://trk.com/pixel.gif").is_tracking = True
    return tree


class TestToNetworkx:
    def test_structure(self):
        graph = to_networkx(sample_tree())
        assert graph.number_of_nodes() == 5  # root + 4 (pixel merged)
        assert graph.has_edge(PAGE, "https://site.com/a.js")
        assert graph.has_edge("https://site.com/a.js", "https://trk.com/pixel.gif")

    def test_node_attributes(self):
        graph = to_networkx(sample_tree())
        pixel = graph.nodes["https://trk.com/pixel.gif"]
        assert pixel["tracking"] is True
        assert pixel["third_party"] is True
        assert pixel["depth"] == 2
        assert graph.nodes[PAGE]["depth"] == 0

    def test_is_dag(self):
        graph = to_networkx(sample_tree())
        assert networkx.is_directed_acyclic_graph(graph)


class TestInclusionGraph:
    def test_site_level_aggregation(self):
        graph = inclusion_graph([sample_tree("A"), sample_tree("B")])
        assert graph.has_edge("site.com", "ads.com")
        # The pixel merged under a.js (first-parent-wins), so its site-level
        # inclusion edge originates from site.com.
        assert graph.has_edge("site.com", "trk.com")
        assert graph.has_edge("ads.com", "cdn.com")
        # Two trees contribute weight 2 to each site-level edge.
        assert graph["site.com"]["ads.com"]["weight"] == 2

    def test_tracking_flag_propagates(self):
        graph = inclusion_graph([sample_tree()])
        assert graph.nodes["trk.com"]["tracking"] is True
        assert graph.nodes["cdn.com"].get("tracking") is False

    def test_url_level(self):
        graph = inclusion_graph([sample_tree()], by_site=False)
        assert graph.has_edge(PAGE, "https://ads.com/frame.html")

    def test_self_edges_skipped(self):
        graph = inclusion_graph([sample_tree()])
        assert not graph.has_edge("site.com", "site.com")


class TestTrackerCentrality:
    def test_trackers_ranked(self):
        graph = inclusion_graph([sample_tree()])
        ranked = tracker_centrality(graph)
        assert ranked
        assert ranked[0][0] == "trk.com"
        assert 0.0 < ranked[0][1] <= 1.0

    def test_top_limit(self):
        graph = inclusion_graph([sample_tree()])
        assert len(tracker_centrality(graph, top=0)) == 0

    def test_dataset_integration(self, dataset):
        trees = [
            tree for entry in dataset for tree in entry.comparison.tree_list()
        ]
        graph = inclusion_graph(trees)
        assert graph.number_of_nodes() > 5
        ranked = tracker_centrality(graph, top=3)
        assert len(ranked) <= 3


def reference_inclusion_graph(trees, by_site=True):
    """The networkx aggregation the plain-dict one replaced, kept verbatim."""
    graph = networkx.DiGraph()
    for tree in trees:
        page_site = tree.root.key
        if by_site:
            host = tree.page_url.split("://", 1)[-1].split("/", 1)[0]
            page_site = psl.registrable_domain(host) or host
        for node in tree.nodes():
            child = (node.site or node.host) if by_site else node.key
            parent_node = node.parent
            if parent_node is None or parent_node.is_root:
                parent = page_site if by_site else tree.page_url
            else:
                parent = (parent_node.site or parent_node.host) if by_site else parent_node.key
            if not child or not parent or child == parent:
                continue
            if graph.has_edge(parent, child):
                graph[parent][child]["weight"] += 1
            else:
                graph.add_edge(parent, child, weight=1)
            graph.nodes[child].setdefault("tracking", False)
            if node.is_tracking:
                graph.nodes[child]["tracking"] = True
    return graph


def reference_centrality(graph, top=None):
    total_weight = sum(data["weight"] for _, _, data in graph.edges(data=True)) or 1
    scores = []
    for node, attrs in graph.nodes(data=True):
        if not attrs.get("tracking"):
            continue
        fan_in = sum(data["weight"] for _, _, data in graph.in_edges(node, data=True))
        scores.append((node, fan_in / total_weight))
    scores.sort(key=lambda item: item[1], reverse=True)
    return scores[:top] if top is not None else scores


def tied_trees():
    """Three trackers with equal fan-in, first seen in a known order."""
    trees = []
    for profile, order in (("A", ["c", "a", "b"]), ("B", ["b", "c", "a"])):
        tree = make_tree(
            PAGE,
            {f"https://{name}-trk.com/p.gif": None for name in order},
            profile=profile,
        )
        for node in tree.nodes():
            node.is_tracking = True
        trees.append(tree)
    return trees


def same_graph(actual, expected):
    assert list(actual.nodes(data=True)) == list(expected.nodes(data=True))
    assert list(actual.edges(data=True)) == list(expected.edges(data=True))
    for node in expected:
        assert list(actual.successors(node)) == list(expected.successors(node))
        assert list(actual.predecessors(node)) == list(expected.predecessors(node))


class TestAggregationMatchesNetworkx:
    @pytest.fixture
    def dataset_trees(self, dataset):
        return [tree for entry in dataset for tree in entry.comparison.tree_list()]

    @pytest.mark.parametrize("by_site", [True, False])
    def test_counts_and_centrality(self, dataset_trees, by_site):
        graph = aggregate_inclusions(dataset_trees, by_site=by_site)
        reference = reference_inclusion_graph(dataset_trees, by_site=by_site)
        assert graph.number_of_nodes() == reference.number_of_nodes() > 5
        assert graph.number_of_edges() == reference.number_of_edges()
        expected = reference_centrality(reference, top=5)
        assert expected
        assert graph.tracker_centrality(top=5) == expected
        assert graph.tracker_centrality() == reference_centrality(reference)
        assert tracker_centrality(inclusion_graph(dataset_trees, by_site), top=5) == expected

    @pytest.mark.parametrize("by_site", [True, False])
    def test_export_equals_the_networkx_aggregation(self, dataset_trees, by_site):
        same_graph(
            inclusion_graph(dataset_trees, by_site=by_site),
            reference_inclusion_graph(dataset_trees, by_site=by_site),
        )

    def test_ties_keep_first_seen_order(self):
        trees = tied_trees()
        graph = aggregate_inclusions(trees)
        ranked = graph.tracker_centrality()
        assert [site for site, _ in ranked] == ["c-trk.com", "a-trk.com", "b-trk.com"]
        assert len({score for _, score in ranked}) == 1
        assert ranked == reference_centrality(reference_inclusion_graph(trees))
        assert tracker_centrality(inclusion_graph(trees)) == ranked

    def test_round_trip_through_networkx(self):
        graph = aggregate_inclusions([sample_tree("A"), sample_tree("B")])
        assert InclusionGraph.from_networkx(graph.to_networkx()) == graph
        assert graph.nodes["site.com"] is None  # only ever an includer
        assert graph.nodes["trk.com"] is True
        assert graph.nodes["cdn.com"] is False


PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: Runs the benchmark's ``analyze`` experiments on a replayed bundle and
#: prints the networkx modules they loaded.
ANALYZE_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, sys.argv[1])
    from worker import analyze_experiments
    from repro.experiments import run_pipeline

    ctx = run_pipeline(from_bundle=sys.argv[2])
    experiments = analyze_experiments()
    assert len(experiments) == 19, experiments
    for _experiment_id, module in experiments:
        assert module.render(module.run(ctx)).strip()
    print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
    """
)


def test_analyze_experiments_never_import_networkx(store, tmp_path):
    bundle_dir = tmp_path / "bundle"
    record_from_store(store, seed=99, path=bundle_dir)
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", ANALYZE_SCRIPT, str(PERFBENCH), str(bundle_dir)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
