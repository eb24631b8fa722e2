"""Cross-tree comparison of one page: the workhorse data structure.

:class:`PageComparison` aligns the five per-profile trees of a page by
node key and precomputes, for every node, the per-profile view (depth,
parent, children, type, party, tracking).  All higher-level analyses —
horizontal, vertical, depth, per-type, per-party — are expressed against
this structure, so the expensive alignment happens once per page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import AnalysisError
from ..trees.tree import DependencyTree
from ..web.resources import ResourceType
from .jaccard import jaccard, pairwise_mean_jaccard

if TYPE_CHECKING:
    from .horizontal import HorizontalResult


def _derived(default=None):
    """A field computed from the node's views, never passed or compared."""
    return field(default=default, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class NodeView:
    """One tree's view of a node."""

    depth: int
    parent_key: Optional[str]
    children: FrozenSet[str]
    resource_type: ResourceType
    is_third_party: bool
    is_tracking: bool
    chain: Tuple[str, ...]
    during_interaction: bool

    @property
    def can_load_children(self) -> bool:
        return self.resource_type.can_load_children

    @property
    def child_count(self) -> int:
        return len(self.children)


@dataclass(frozen=True, slots=True)
class NodeComparison:
    """A node's views across all profiles (``None`` where absent).

    The facts every analysis reads (present views, presence, tracking,
    children, minimum depth) are computed once, at construction; the two
    similarity measures on first call.  A node absent everywhere still
    constructs; only asking for its depth or a representative view fails.
    """

    key: str
    views: Tuple[Optional[NodeView], ...]
    presence_count: int = _derived(0)
    in_all_profiles: bool = _derived(False)
    is_tracking: bool = _derived(False)
    has_children: bool = _derived(False)
    _present: Tuple[NodeView, ...] = _derived(())
    _min_depth: Optional[int] = _derived()
    _child_similarity: Optional[float] = _derived()
    _parent_similarity: Optional[float] = _derived()

    def __post_init__(self) -> None:
        present = tuple(view for view in self.views if view is not None)
        set_fact = object.__setattr__
        set_fact(self, "_present", present)
        set_fact(self, "presence_count", len(present))
        set_fact(self, "in_all_profiles", len(present) == len(self.views))
        set_fact(self, "is_tracking", any(view.is_tracking for view in present))
        set_fact(self, "has_children", any(view.children for view in present))
        if present:
            set_fact(self, "_min_depth", min(view.depth for view in present))

    def __reduce__(self):
        # Pickle the inputs only: the facts are rebuilt and the memos start
        # empty, so the bytes never depend on which measures were asked for.
        return (type(self), (self.key, self.views))

    # -- presence ------------------------------------------------------------

    @property
    def in_one_profile(self) -> bool:
        return self.presence_count == 1

    def present_views(self) -> Tuple[NodeView, ...]:
        return self._present

    # -- representative attributes -------------------------------------------

    @property
    def any_view(self) -> NodeView:
        if not self._present:
            raise AnalysisError(f"node {self.key!r} has no views")
        return self._present[0]

    @property
    def resource_type(self) -> ResourceType:
        return self.any_view.resource_type

    @property
    def is_third_party(self) -> bool:
        return self.any_view.is_third_party

    @property
    def min_depth(self) -> int:
        if self._min_depth is None:
            raise ValueError(f"node {self.key!r} has no views, so no depth")
        return self._min_depth

    def depths(self) -> List[int]:
        return [view.depth for view in self._present]

    @property
    def same_depth_everywhere(self) -> bool:
        depths = self.depths()
        return len(set(depths)) == 1

    # -- similarity measures ---------------------------------------------------

    def child_similarity(self) -> float:
        """Pairwise-mean Jaccard of the node's child sets.

        Compared over the trees that contain the node (the paper compares
        children of reoccurring nodes); single-occurrence nodes score 1.
        """
        value = self._child_similarity
        if value is None:
            value = pairwise_mean_jaccard([view.children for view in self._present])
            object.__setattr__(self, "_child_similarity", value)
        return value

    def parent_similarity(self) -> float:
        """Pairwise-mean Jaccard of the node's parent across *all* trees.

        Trees missing the node contribute an empty parent set, exactly as
        in the paper's Appendix D example (node *e*: (1+0+0)/3 = .3).
        Pairs in which *both* trees miss the node carry no information
        about the parent and are skipped — otherwise a node observed in a
        single profile would score J(∅, ∅) = 1 against every other absent
        tree and look deceptively stable.

        Parent sets hold at most one key, so each informative pair scores
        exactly 1 (same parent) or 0, and the mean is a count ratio.
        """
        value = self._parent_similarity
        if value is None:
            parents = [view.parent_key if view is not None else None for view in self.views]
            equal = informative = 0
            for i, parent in enumerate(parents):
                for other in parents[i + 1 :]:
                    if parent is None and other is None:
                        continue
                    informative += 1
                    equal += parent == other
            value = equal / informative if informative else 1.0
            object.__setattr__(self, "_parent_similarity", value)
        return value

    def parent_similarity_present_only(self) -> float:
        """Parent similarity restricted to trees containing the node."""
        parent_sets = [
            frozenset([view.parent_key]) if view.parent_key is not None else frozenset()
            for view in self._present
        ]
        return pairwise_mean_jaccard(parent_sets)

    def same_parent_everywhere(self) -> bool:
        parents = {view.parent_key for view in self._present}
        return len(parents) == 1

    # -- dependency chains -------------------------------------------------------

    def chains(self) -> List[Tuple[str, ...]]:
        return [view.chain for view in self._present]

    def same_chain_everywhere(self) -> bool:
        """Identical dependency chain in every tree containing the node."""
        chains = self.chains()
        return len(set(chains)) == 1

    def unique_chain_count(self) -> int:
        """How many of the node's chains occur in exactly one tree."""
        chains = self.chains()
        return sum(1 for chain in set(chains) if chains.count(chain) == 1)


class PageComparison:
    """All five trees of one page, aligned by node key."""

    def __init__(self, trees: Mapping[str, DependencyTree]) -> None:
        if not trees:
            raise AnalysisError("PageComparison needs at least one tree")
        self.profiles: Tuple[str, ...] = tuple(sorted(trees))
        self.trees: Dict[str, DependencyTree] = {name: trees[name] for name in self.profiles}
        pages = {tree.page_url for tree in self.trees.values()}
        if len(pages) != 1:
            raise AnalysisError(f"trees belong to different pages: {sorted(pages)}")
        self.page_url = next(iter(pages))
        self._nodes: Dict[str, NodeComparison] = self._align()
        #: ``include_static_leaves`` → the page's horizontal pass, kept by
        #: :meth:`HorizontalAnalyzer.analyze_page` so every caller shares it.
        self.horizontal_passes: Dict[bool, "HorizontalResult"] = {}

    def __getstate__(self) -> dict:
        # Kept passes are recomputable: a pickle carries the aligned trees
        # only, whatever was analyzed before.
        return {**self.__dict__, "horizontal_passes": {}}

    # -- alignment -----------------------------------------------------------

    def _align(self) -> Dict[str, NodeComparison]:
        views_by_key: Dict[str, List[Optional[NodeView]]] = {}
        profile_count = len(self.profiles)
        for index, profile in enumerate(self.profiles):
            tree = self.trees[profile]
            # Preorder visits a parent before its children, so each chain
            # is its parent's chain plus one key (keys are unique per tree).
            chains = {tree.root.key: (tree.root.key,)}
            for node in tree.nodes():
                parent_key = node.parent.key
                chain = chains[parent_key] + (node.key,)
                chains[node.key] = chain
                slot = views_by_key.setdefault(node.key, [None] * profile_count)
                slot[index] = NodeView(
                    depth=node.depth,
                    parent_key=parent_key,
                    children=frozenset(node._children),
                    resource_type=node.resource_type,
                    is_third_party=node.is_third_party,
                    is_tracking=node.is_tracking,
                    chain=chain,
                    during_interaction=node.during_interaction,
                )
        return {
            key: NodeComparison(key=key, views=tuple(views))
            for key, views in views_by_key.items()
        }

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, key: str) -> Optional[NodeComparison]:
        return self._nodes.get(key)

    def nodes(self) -> List[NodeComparison]:
        return list(self._nodes.values())

    def keys(self) -> List[str]:
        return list(self._nodes)

    def tree_list(self) -> List[DependencyTree]:
        return [self.trees[profile] for profile in self.profiles]

    # -- page-level measures ---------------------------------------------------

    def depth_similarity(
        self,
        depth: int,
        keys_filter=None,
    ) -> Optional[float]:
        """Pairwise-mean Jaccard of the per-tree node sets at ``depth``.

        ``keys_filter(node_comparison) -> bool`` restricts the node
        universe (e.g. only first-party nodes).  Returns ``None`` when no
        tree has nodes at this depth after filtering.
        """
        sets: List[FrozenSet[str]] = []
        for profile in self.profiles:
            keys = set()
            for node in self.trees[profile].nodes_at_depth(depth):
                comparison = self._nodes[node.key]
                if keys_filter is not None and not keys_filter(comparison):
                    continue
                keys.add(node.key)
            sets.append(frozenset(keys))
        if all(not s for s in sets):
            return None
        return pairwise_mean_jaccard(sets)

    def max_depth(self) -> int:
        return max(tree.max_depth for tree in self.trees.values())

    def depth_one_similarity(self) -> float:
        """The horizontal entry point: similarity of depth-one node sets."""
        result = self.depth_similarity(1)
        return result if result is not None else 1.0

    def whole_tree_similarity(self) -> float:
        """Pairwise-mean Jaccard over *all* node keys per tree.

        Appendix D's "index for all nodes in all trees" — also the basis
        for the whole-tree ablation the paper argues against (§3.2).
        """
        return pairwise_mean_jaccard(
            [frozenset(tree.keys()) for tree in self.tree_list()]
        )

    def pairwise_tree_similarity(self, profile_a: str, profile_b: str) -> float:
        """Jaccard of all node keys between two specific profiles."""
        return jaccard(
            frozenset(self.trees[profile_a].keys()),
            frozenset(self.trees[profile_b].keys()),
        )
