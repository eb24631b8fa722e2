"""Whole-tree distance measures.

The paper *chooses not to* compare entire trees (e.g. with the Hamming
distance used by Yang & Yue) and argues node-level comparison is more
informative (§3.2).  To make that argument testable, this module provides
the whole-tree alternatives:

* :func:`hamming_distance` — symmetric-difference size over node keys,
  optionally normalized;
* :func:`depth_weighted_distance` — like Hamming, but a disagreement at
  depth d weighs ``decay**(d-1)``, emphasizing the stable upper levels;
* :func:`edit_distance` — a top-down ordered-insensitive tree edit
  distance (insert/delete cost 1, matching by node key), computed by
  top-down set alignment.  Exact for the key-identified trees used here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .tree import DependencyTree


def hamming_distance(
    tree_a: DependencyTree, tree_b: DependencyTree, normalized: bool = False
) -> float:
    """Symmetric difference of the trees' node-key sets.

    ``normalized=True`` divides by the union size (0 = identical,
    1 = disjoint), matching how whole-tree similarity scores are usually
    reported.
    """
    keys_a = tree_a.keys()
    keys_b = tree_b.keys()
    difference = len(keys_a ^ keys_b)
    if not normalized:
        return float(difference)
    union = len(keys_a | keys_b)
    return difference / union if union else 0.0


def depth_weighted_distance(
    tree_a: DependencyTree, tree_b: DependencyTree, decay: float = 0.5
) -> float:
    """Key disagreements weighted by ``decay**(depth-1)``.

    Deeper disagreements weigh less: a missing depth-one embed matters
    more to a page's identity than a missing depth-five sync hop.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    depths_a = _key_depths(tree_a)
    depths_b = _key_depths(tree_b)
    total = 0.0
    for key in set(depths_a) ^ set(depths_b):
        depth = depths_a.get(key, depths_b.get(key, 1))
        total += decay ** (max(depth, 1) - 1)
    return total


def edit_distance(tree_a: DependencyTree, tree_b: DependencyTree) -> int:
    """Tree edit distance with unit insert/delete cost, matching by key.

    Children are treated as sets (sibling order carries no meaning in a
    dependency tree): nodes present under the same parent key in both
    trees match and are compared in turn; unmatched subtrees cost their
    size.  Matched pairs wait on an explicit stack, so redirect chains
    deeper than the interpreter's recursion limit compare like any tree.
    """
    cost = 0
    pairs = [(tree_a.root, tree_b.root)]
    while pairs:
        node_a, node_b = pairs.pop()
        for child_a in node_a.children:
            child_b = node_b.child(child_a.key)
            if child_b is None:
                cost += _subtree_size(child_a)
            else:
                pairs.append((child_a, child_b))
        for child_b in node_b.children:
            if node_a.child(child_b.key) is None:
                cost += _subtree_size(child_b)
    return cost


def _subtree_size(node) -> int:
    return sum(1 for _ in node.walk())


def _key_depths(tree: DependencyTree) -> Dict[str, int]:
    return {node.key: node.depth for node in tree.nodes()}


def similarity_from_distance(
    tree_a: DependencyTree, tree_b: DependencyTree
) -> Tuple[float, float, float]:
    """Convenience: (1−normalized Hamming, 1−normalized weighted, 1−normalized edit)."""
    hamming = 1.0 - hamming_distance(tree_a, tree_b, normalized=True)
    union = len(tree_a.keys() | tree_b.keys())
    weighted_raw = depth_weighted_distance(tree_a, tree_b)
    weighted = 1.0 - (weighted_raw / union if union else 0.0)
    edit_raw = edit_distance(tree_a, tree_b)
    total_nodes = tree_a.node_count + tree_b.node_count
    edit = 1.0 - (edit_raw / total_nodes if total_nodes else 0.0)
    return hamming, weighted, edit
