"""Graph views of dependency trees: the site-level inclusion graph.

Tree-based Web measurements are often post-processed as graphs (AdGraph,
the implicit-trust analyses the paper builds on).  :func:`aggregate_inclusions`
folds many trees into the *site-level inclusion graph* — which eTLD+1
causes which other eTLD+1 to load, with edge weights counting
observations — as plain dicts, which is all the analyses need.

:func:`to_networkx` and :func:`inclusion_graph` export the same data as
``networkx.DiGraph`` objects.  ``networkx`` is imported only by those
exports, so the core library keeps its zero-dependency property and the
analysis path never loads it; calling them without networkx raises an
informative ImportError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..web import psl
from .tree import DependencyTree


def _networkx():
    try:
        import networkx
    except ImportError as exc:  # pragma: no cover - environment-specific
        raise ImportError(  # repro: ok[ERR001] optional-dependency guards raise ImportError by convention
            "graph export needs the optional dependency networkx"
        ) from exc
    return networkx


@dataclass
class InclusionGraph:
    """A weighted inclusion digraph as plain dicts, in insertion order.

    ``nodes`` maps each node to its tracking flag: ``True`` if any
    inclusion of it was a tracking node, ``False`` if none was, and
    ``None`` for a node that only ever included others.  ``edges`` maps
    ``(parent, child)`` to the number of observed inclusions.
    """

    nodes: Dict[str, Optional[bool]] = field(default_factory=dict)
    edges: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return len(self.edges)

    def tracker_centrality(self, top: Optional[int] = None) -> List[Tuple[str, float]]:
        """In-degree-weighted centrality of the tracking nodes.

        A tracking node scores its inclusion weight over all inclusion
        weight.  Returns ``[(node, centrality), ...]`` sorted descending;
        ties keep node insertion order.
        """
        total_weight = sum(self.edges.values()) or 1
        fan_in: Dict[str, int] = {}
        for (_parent, child), weight in self.edges.items():
            fan_in[child] = fan_in.get(child, 0) + weight
        scores = [
            (node, fan_in.get(node, 0) / total_weight)
            for node, tracking in self.nodes.items()
            if tracking
        ]
        scores.sort(key=lambda item: item[1], reverse=True)
        return scores[:top] if top is not None else scores

    def to_networkx(self):
        """The same graph as a ``networkx.DiGraph`` (``weight`` on edges,
        ``tracking`` on every node that was ever included)."""
        networkx = _networkx()
        graph = networkx.DiGraph()
        for node, tracking in self.nodes.items():
            if tracking is None:
                graph.add_node(node)
            else:
                graph.add_node(node, tracking=tracking)
        for (parent, child), weight in self.edges.items():
            graph.add_edge(parent, child, weight=weight)
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "InclusionGraph":
        """Read back a digraph built by :func:`inclusion_graph`."""
        return cls(
            nodes={node: attrs.get("tracking") for node, attrs in graph.nodes(data=True)},
            edges={
                (parent, child): data["weight"]
                for parent, child, data in graph.edges(data=True)
            },
        )


def aggregate_inclusions(
    trees: Iterable[DependencyTree], by_site: bool = True
) -> InclusionGraph:
    """Aggregate trees into a weighted inclusion graph.

    With ``by_site`` (default) nodes are eTLD+1s and an edge A → B with
    weight w means resources of site A caused resources of site B to load
    w times across the input trees.  The visited page's own site is the
    root of each contribution.  With ``by_site=False`` nodes stay URLs.
    Self-inclusions are skipped.
    """
    graph = InclusionGraph()
    nodes, edges = graph.nodes, graph.edges
    for tree in trees:
        if by_site:
            host = tree.page_url.split("://", 1)[-1].split("/", 1)[0]
            page = psl.registrable_domain(host) or host
        else:
            page = tree.page_url
        for node in tree.nodes():
            child = (node.site or node.host) if by_site else node.key
            parent_node = node.parent
            if parent_node is None or parent_node.is_root:
                parent = page
            else:
                parent = (parent_node.site or parent_node.host) if by_site else parent_node.key
            if not child or not parent or child == parent:
                continue
            edge = (parent, child)
            edges[edge] = edges.get(edge, 0) + 1
            nodes.setdefault(parent, None)
            if not nodes.get(child):
                nodes[child] = node.is_tracking
    return graph


def to_networkx(tree: DependencyTree):
    """Convert one tree to a ``networkx.DiGraph``.

    Nodes carry ``depth``, ``resource_type``, ``third_party``, ``tracking``
    and ``site`` attributes; edges run parent → child.
    """
    networkx = _networkx()
    graph = networkx.DiGraph(page=tree.page_url, profile=tree.profile_name)
    graph.add_node(
        tree.page_url, depth=0, resource_type="main_frame",
        third_party=False, tracking=False, site=None,
    )
    for node in tree.nodes():
        graph.add_node(
            node.key,
            depth=node.depth,
            resource_type=node.resource_type.value,
            third_party=node.is_third_party,
            tracking=node.is_tracking,
            site=node.site,
        )
        parent_key = node.parent_key()
        if parent_key is not None:
            graph.add_edge(parent_key, node.key)
    return graph


def inclusion_graph(trees: Iterable[DependencyTree], by_site: bool = True):
    """:func:`aggregate_inclusions` as a weighted ``networkx.DiGraph``."""
    return aggregate_inclusions(trees, by_site=by_site).to_networkx()


def tracker_centrality(graph, top: Optional[int] = None):
    """In-degree-weighted centrality of tracking nodes in an inclusion graph.

    ``graph`` is an :class:`InclusionGraph` or a digraph from
    :func:`inclusion_graph`; see :meth:`InclusionGraph.tracker_centrality`.
    """
    if not isinstance(graph, InclusionGraph):
        graph = InclusionGraph.from_networkx(graph)
    return graph.tracker_centrality(top)
