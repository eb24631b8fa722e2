"""The dependency tree of one page visit."""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..blocklist.matcher import FilterList
from ..web import psl
from ..web.resources import ResourceType
from .node import TreeNode


class DependencyTree:
    """All first- and third-party elements of one page visit, as a tree.

    The root (depth 0) is the visited page itself; depth-one nodes are the
    elements the page loaded directly; deeper nodes were loaded by their
    parent element.  Node identity is the normalized URL, so the tree also
    acts as a key → node index.

    Structural queries read one lazily built index (preorder node list and
    per-depth lists).  :meth:`attach` is the only structural mutator and
    clears it; annotations change node flags, never the shape.
    """

    def __init__(self, page_url: str, profile_name: str, visit_id: int) -> None:
        self.page_url = page_url
        self.profile_name = profile_name
        self.visit_id = visit_id
        self.root = TreeNode(key=page_url, resource_type=ResourceType.MAIN_FRAME)
        self._page_host = self.root.host
        self._nodes: Dict[str, TreeNode] = {page_url: self.root}
        self._index: Optional[Tuple[List[TreeNode], Dict[int, List[TreeNode]]]] = None

    # -- construction ------------------------------------------------------

    def attach(
        self,
        key: str,
        resource_type: ResourceType,
        parent: TreeNode,
        raw_url: str,
        request_id: int,
        during_interaction: bool = False,
    ) -> TreeNode:
        """Attach (or merge into) the node ``key`` under ``parent``.

        If the key already exists anywhere in the tree, the existing node
        wins (first-parent-wins merge) and only bookkeeping is updated —
        the paper's trees give each URL a single position.
        """
        node = self._nodes.get(key)
        if node is None:
            node = TreeNode(key=key, resource_type=resource_type, parent=parent)
            node.is_third_party = not psl.same_site(node.host, self._page_host)
            node.during_interaction = during_interaction
            self._nodes[key] = node
            parent.add_child(node)
            self._index = None
        node.raw_urls.add(raw_url)
        node.request_ids.append(request_id)
        return node

    # -- lookup ------------------------------------------------------------

    def node(self, key: str) -> Optional[TreeNode]:
        return self._nodes.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def _indexed(self) -> Tuple[List[TreeNode], Dict[int, List[TreeNode]]]:
        """(preorder nodes with the root first, depth → nodes in preorder)."""
        if self._index is None:
            preorder = list(self.root.walk())
            by_depth: Dict[int, List[TreeNode]] = {}
            for node in preorder:
                by_depth.setdefault(node.depth, []).append(node)
            self._index = (preorder, by_depth)
        return self._index

    def nodes(self, include_root: bool = False) -> Iterator[TreeNode]:
        """All nodes (depth-first); the root is excluded by default."""
        return islice(self._indexed()[0], 0 if include_root else 1, None)

    def keys(self, include_root: bool = False) -> Set[str]:
        return {node.key for node in self.nodes(include_root=include_root)}

    def nodes_at_depth(self, depth: int) -> List[TreeNode]:
        return list(self._indexed()[1].get(depth, ()))

    def keys_at_depth(self, depth: int) -> Set[str]:
        return {node.key for node in self.nodes_at_depth(depth)}

    # -- measures ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes excluding the root (the paper's tree size)."""
        return len(self._nodes) - 1

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (0 for an empty tree)."""
        return max(self._indexed()[1])

    @property
    def breadth(self) -> int:
        """The widest level: max number of nodes at any single depth."""
        return max(self.depth_histogram().values(), default=0)

    def depth_histogram(self) -> Dict[int, int]:
        """Number of nodes per depth (excluding the root)."""
        return {depth: len(nodes) for depth, nodes in self._indexed()[1].items() if depth}

    def branches(self) -> List[Tuple[str, ...]]:
        """All root-to-leaf dependency chains."""
        return [node.chain() for node in self.nodes() if node.is_leaf]

    # -- annotations -------------------------------------------------------

    def annotate_tracking(self, filter_list: FilterList) -> int:
        """Mark tracking nodes via the filter list; returns how many matched.

        A node is a tracking node when any raw URL that mapped onto it is
        on the list (the paper classifies by observed URL).
        """
        count = 0
        for node in self.nodes():
            node.is_tracking = any(
                filter_list.is_tracking(
                    raw, resource_type=node.resource_type, page_url=self.page_url
                )
                for raw in sorted(node.raw_urls)
            )
            if node.is_tracking:
                count += 1
        return count

    # -- statistics helpers --------------------------------------------------

    def first_party_nodes(self) -> List[TreeNode]:
        return [node for node in self.nodes() if not node.is_third_party]

    def third_party_nodes(self) -> List[TreeNode]:
        return [node for node in self.nodes() if node.is_third_party]

    def tracking_nodes(self) -> List[TreeNode]:
        return [node for node in self.nodes() if node.is_tracking]

    def third_party_sites(self) -> Set[str]:
        """Distinct third-party eTLD+1s present in the tree."""
        return {
            node.site
            for node in self.third_party_nodes()
            if node.site is not None
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DependencyTree({self.page_url!r}, profile={self.profile_name!r}, "
            f"nodes={self.node_count}, depth={self.max_depth})"
        )
