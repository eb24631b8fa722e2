"""Tests for ASCII tree rendering."""

from repro.reporting.treeview import render_tree, render_tree_summary
from repro.trees.tree import DependencyTree
from repro.web.resources import ResourceType

from ..helpers import make_tree

PAGE = "https://site.com/"


def sample_tree():
    return make_tree(
        PAGE,
        {
            "https://site.com/a.js": {
                "https://t.com/p.gif": None,
            },
            "https://site.com/b.png": None,
        },
        profile="Sim1",
    )


class TestRenderTree:
    def test_contains_all_nodes(self):
        text = render_tree(sample_tree())
        assert "a.js" in text and "p.gif" in text and "b.png" in text

    def test_annotations(self):
        text = render_tree(sample_tree())
        assert "[script, 1p]" in text
        assert "3p" in text

    def test_annotations_off(self):
        text = render_tree(sample_tree(), annotate=False)
        assert "[script" not in text

    def test_max_depth_truncates(self):
        text = render_tree(sample_tree(), max_depth=1)
        assert "a.js" in text
        assert "p.gif" not in text

    def test_max_children_elides(self):
        tree = make_tree(
            PAGE, {f"https://site.com/{i}.png": None for i in range(20)}
        )
        text = render_tree(tree, max_children=5)
        assert "... 15 more" in text

    def test_header_line(self):
        text = render_tree(sample_tree())
        assert text.splitlines()[0].startswith(PAGE)
        assert "Sim1" in text.splitlines()[0]


    def test_exact_layout(self):
        tree = make_tree(
            PAGE,
            {
                "https://site.com/a.js": {
                    "https://t.com/p.gif": None,
                    "https://t.com/s.js": {"https://u.com/q.gif": None},
                },
                "https://ads.com/f.html": {
                    f"https://ads.com/{i}.jpg": None for i in range(4)
                },
                "https://site.com/b.png": None,
            },
            profile="Sim1",
        )
        assert render_tree(tree, max_children=3) == "\n".join(
            [
                "https://site.com/  (Sim1, 10 nodes)",
                "|-- https://site.com/a.js [script, 1p]",
                "|   |-- https://t.com/p.gif [beacon, 3p]",
                "|   `-- https://t.com/s.js [script, 3p]",
                "|       `-- https://u.com/q.gif [beacon, 3p]",
                "|-- https://ads.com/f.html [sub_frame, 3p]",
                "|   |-- https://ads.com/0.jpg [image, 3p]",
                "|   |-- https://ads.com/1.jpg [image, 3p]",
                "|   |-- https://ads.com/2.jpg [image, 3p]",
                "|   `-- ... 1 more",
                "`-- https://site.com/b.png [image, 1p]",
            ]
        )

    def test_chain_deeper_than_recursion_limit(self):
        tree = DependencyTree(PAGE, "Sim1", 1)
        parent = tree.root
        for hop in range(1500):
            url = f"https://site.com/hop/{hop}"
            parent = tree.attach(url, ResourceType.SCRIPT, parent, url, hop + 1)
        lines = render_tree(tree, annotate=False).splitlines()
        assert len(lines) == 1501
        assert lines[-1] == " " * 4 * 1499 + "`-- https://site.com/hop/1499"


class TestSummary:
    def test_one_liner(self):
        text = render_tree_summary(sample_tree())
        assert "3 nodes" in text
        assert "depth 2" in text
