"""Experiment: implicit trust chains and the tracker inclusion graph.

Extension experiment after Ikram et al. ("The Chain of Implicit Trust"),
which the paper uses as precedent for the tree representation: how much
of a page's third-party exposure is implicitly trusted, and which
entities occupy the center of the inclusion graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.trust import ImplicitTrustAnalyzer, TrustReport
from ..reporting import percent, render_kv
from ..trees.graph import aggregate_inclusions
from .runner import ExperimentContext


@dataclass(frozen=True)
class TrustResult:
    report: TrustReport
    graph_nodes: int
    graph_edges: int
    central_trackers: List[Tuple[str, float]]


def run(ctx: ExperimentContext) -> TrustResult:
    report = ImplicitTrustAnalyzer().analyze(ctx.dataset)
    trees = [
        tree
        for entry in ctx.dataset
        for tree in entry.comparison.tree_list()
    ]
    graph = aggregate_inclusions(trees)
    return TrustResult(
        report=report,
        graph_nodes=graph.number_of_nodes(),
        graph_edges=graph.number_of_edges(),
        central_trackers=graph.tracker_centrality(top=5),
    )


def render(result: TrustResult) -> str:
    report = result.report
    pairs = [
        ("explicitly trusted third-party loads (depth 1)", percent(report.explicit_third_party_share)),
        ("implicitly trusted (depth >= 2)", percent(report.implicit_third_party_share)),
        (
            "implicit chain depth",
            f"mean {report.chain_depth.mean:.1f} (max {report.chain_depth.maximum:.0f})",
        ),
        (
            "implicitly trusted sites per page",
            f"mean {report.implicit_sites_per_page.mean:.1f}",
        ),
        (
            "third-party exposure similarity across profiles",
            f"{report.exposure_similarity.mean:.2f}",
        ),
        (
            "implicit exposure similarity across profiles",
            f"{report.implicit_exposure_similarity.mean:.2f}",
        ),
        ("site-level inclusion graph", f"{result.graph_nodes} sites, {result.graph_edges} edges"),
    ]
    body = render_kv(pairs, title="Implicit trust (after Ikram et al.)")
    central = ", ".join(
        f"{site} ({score:.1%})" for site, score in result.central_trackers
    )
    top = ", ".join(
        f"{site} ({count})" for site, count in report.top_implicit_entities
    )
    return (
        f"{body}\n  most implicitly trusted entities: {top}"
        f"\n  most central trackers in the inclusion graph: {central}"
    )
