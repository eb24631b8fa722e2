"""ASCII rendering of dependency trees (for the CLI and examples)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..trees.tree import DependencyTree
from ..trees.node import TreeNode


def _annotations(node: TreeNode) -> str:
    tags = [node.resource_type.value]
    tags.append("3p" if node.is_third_party else "1p")
    if node.is_tracking:
        tags.append("tracking")
    if node.during_interaction:
        tags.append("lazy")
    return f" [{', '.join(tags)}]"


def render_tree(
    tree: DependencyTree,
    max_depth: Optional[int] = None,
    max_children: int = 12,
    annotate: bool = True,
) -> str:
    """Render ``tree`` as an indented ASCII hierarchy.

    ``max_depth`` truncates deep branches; ``max_children`` elides long
    sibling lists (an ellipsis line shows how many were hidden).
    """
    lines: List[str] = [f"{tree.page_url}  ({tree.profile_name}, {tree.node_count} nodes)"]
    # An explicit stack (not recursion) so arbitrarily deep trees render:
    # (prefix, node) expands ``node``; (line, None) emits a finished line.
    pending: List[Tuple[str, Optional[TreeNode]]] = [("", tree.root)]
    while pending:
        prefix, node = pending.pop()
        if node is None:
            lines.append(prefix)
            continue
        children = node.children
        shown = children[:max_children]
        hidden = len(children) - len(shown)
        expanded: List[Tuple[str, Optional[TreeNode]]] = []
        for index, child in enumerate(shown):
            is_last = index == len(shown) - 1 and hidden == 0
            connector = "`-- " if is_last else "|-- "
            annotation = _annotations(child) if annotate else ""
            expanded.append((f"{prefix}{connector}{child.key}{annotation}", None))
            if max_depth is None or child.depth < max_depth:
                extension = "    " if is_last else "|   "
                expanded.append((prefix + extension, child))
        if hidden > 0:
            expanded.append((f"{prefix}`-- ... {hidden} more", None))
        pending.extend(reversed(expanded))
    return "\n".join(lines)


def render_tree_summary(tree: DependencyTree) -> str:
    """A one-line structural summary."""
    return (
        f"{tree.page_url}: {tree.node_count} nodes, depth {tree.max_depth}, "
        f"breadth {tree.breadth}, {len(tree.third_party_nodes())} third-party, "
        f"{len(tree.tracking_nodes())} tracking"
    )
