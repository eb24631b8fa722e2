"""Property-based tests on tree construction and the browser engine.

These generate random page blueprints and verify structural invariants of
the end-to-end path: blueprint → engine records → stored records → rebuilt
dependency tree.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.comparison import NodeComparison, NodeView, PageComparison
from repro.analysis.horizontal import HorizontalAnalyzer, page_child_similarity
from repro.analysis.jaccard import jaccard, pairwise_mean_jaccard
from repro.browser.engine import BrowserEngine
from repro.browser.profile import PAPER_PROFILES, PROFILE_SIM1
from repro.errors import AnalysisError
from repro.trees.builder import build_tree
from repro.trees.tree import DependencyTree
from repro.trees.treedist import edit_distance
from repro.web.blueprint import InclusionRule, InitiatorKind, PageBlueprint, ResourceSlot
from repro.web.resources import ResourceType
from repro.web.url import URL

_name = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

_LEAF_TYPES = [ResourceType.IMAGE, ResourceType.BEACON, ResourceType.FONT]
_NODE_TYPES = [ResourceType.SCRIPT, ResourceType.STYLESHEET, ResourceType.XHR]


@st.composite
def slot_trees(draw, counter, depth=0):
    """A random ResourceSlot subtree (bounded depth/fanout).

    ``counter`` is a single-element list providing globally unique ids.
    """
    counter[0] += 1
    slot_id = f"s-{counter[0]}"
    name = draw(_name)
    host = draw(st.sampled_from(["site.com", "cdn-x.net", "trk-y.io"]))
    probability = draw(st.floats(min_value=0.3, max_value=1.0))
    gated = draw(st.booleans()) if depth == 0 else False
    children = ()
    rtype = draw(st.sampled_from(_LEAF_TYPES + _NODE_TYPES))
    if rtype in _NODE_TYPES and depth < 2:
        children = tuple(
            draw(slot_trees(counter, depth=depth + 1))
            for _ in range(draw(st.integers(0, 2)))
        )
    return ResourceSlot(
        slot_id=slot_id,
        url=URL.parse(f"https://{host}/{name}-{slot_id}.{rtype.extension or 'bin'}"),
        resource_type=rtype,
        initiator=InitiatorKind.DOCUMENT if depth == 0 else InitiatorKind.SCRIPT,
        rule=InclusionRule(probability=probability, requires_interaction=gated),
        children=children,
    )


@st.composite
def pages(draw):
    counter = [0]
    slots = tuple(
        draw(slot_trees(counter)) for _ in range(draw(st.integers(1, 5)))
    )
    return PageBlueprint(url=URL.parse("https://site.com/"), slots=slots)


@given(pages(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_engine_records_well_formed(page, visit_id):
    engine = BrowserEngine(PROFILE_SIM1, seed=5)
    result = engine.visit(page, site="site.com", site_rank=1, visit_id=visit_id)
    if not result.success:
        assert result.requests == ()
        return
    ids = [r.request_id for r in result.requests]
    assert len(ids) == len(set(ids))
    assert result.requests[0].resource_type == "main_frame"
    timestamps = [r.timestamp for r in result.requests]
    assert timestamps == sorted(timestamps)
    for record in result.requests:
        if record.redirect_from is not None:
            assert record.redirect_from in ids


@given(pages(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_tree_invariants_from_any_visit(page, visit_id):
    engine = BrowserEngine(PROFILE_SIM1, seed=5)
    result = engine.visit(page, site="site.com", site_rank=1, visit_id=visit_id)
    if not result.success:
        return
    tree = build_tree(result.visit, result.requests)
    # Every node is reachable from the root with consistent depth.
    for node in tree.nodes():
        assert node.depth == node.parent.depth + 1
        assert node.parent.child(node.key) is node
    # Node count matches the key index.
    assert tree.node_count == len(set(tree.keys()))
    # Chains terminate at the root.
    for node in tree.nodes():
        assert node.chain()[0] == tree.page_url


@given(pages())
@settings(max_examples=20, deadline=None)
def test_gated_slots_excluded_without_interaction(page):
    from repro.browser.profile import PROFILE_NOACTION

    engine = BrowserEngine(PROFILE_NOACTION, seed=5)
    result = engine.visit(page, site="site.com", site_rank=1, visit_id=3)
    if not result.success:
        return
    gated_urls = {
        str(slot.url)
        for slot in page.walk_slots()
        if slot.rule.requires_interaction
    }
    for record in result.requests:
        assert record.url.split("?")[0] not in gated_urls
        assert not record.during_interaction


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=15, deadline=None)
def test_all_profiles_produce_buildable_trees(visit_id):
    from repro.web import WebGenerator

    page = WebGenerator(seed=77).site(1).landing_page
    for profile in PAPER_PROFILES:
        engine = BrowserEngine(profile, seed=77)
        result = engine.visit(page, site="x", site_rank=1, visit_id=visit_id)
        if result.success:
            tree = build_tree(result.visit, result.requests)
            assert tree.node_count > 0


# -- the tree index against an independent recursive walk --------------------

_TREE_KEYS = [f"https://{host}/{i}.js" for host in ("site.com", "cdn.net") for i in range(6)]

#: (key index, parent choice, query after this attach?)
_attach_steps = st.lists(
    st.tuples(
        st.integers(0, len(_TREE_KEYS) - 1), st.integers(0, 99), st.booleans()
    ),
    max_size=30,
)


def _reference_preorder(node):
    order = [node]
    for child in node.children:
        order.extend(_reference_preorder(child))
    return order


def _assert_index_matches_walk(tree):
    preorder = _reference_preorder(tree.root)
    rest = preorder[1:]
    assert list(tree.nodes(include_root=True)) == preorder
    assert list(tree.nodes()) == rest
    assert list(tree.nodes(include_root=False)) == rest
    histogram = {}
    for node in rest:
        histogram[node.depth] = histogram.get(node.depth, 0) + 1
    for depth in range(-1, max(histogram, default=0) + 2):
        expected = [node for node in preorder if node.depth == depth]
        tree.nodes_at_depth(depth).clear()  # callers get a copy
        assert tree.nodes_at_depth(depth) == expected
        assert tree.keys_at_depth(depth) == {node.key for node in expected}
    assert tree.max_depth == max((node.depth for node in rest), default=0)
    assert list(tree.depth_histogram().items()) == list(histogram.items())
    assert tree.breadth == max(histogram.values(), default=0)


@given(_attach_steps)
@settings(max_examples=80, deadline=None)
def test_tree_index_matches_recursive_walk(steps):
    tree = DependencyTree("https://site.com/", "P", 1)
    placed = [tree.root]
    _assert_index_matches_walk(tree)
    for request_id, (key_index, parent_choice, query) in enumerate(steps, start=1):
        key = _TREE_KEYS[key_index]
        node = tree.attach(
            key, ResourceType.SCRIPT, placed[parent_choice % len(placed)], key, request_id
        )
        if node not in placed:
            placed.append(node)
        if query:
            _assert_index_matches_walk(tree)
    _assert_index_matches_walk(tree)


# -- the rewritten comparison measures against their set definitions ---------

_views = st.lists(
    st.one_of(
        st.none(),
        st.builds(
            lambda depth, parent: NodeView(
                depth=depth,
                parent_key=parent,
                children=frozenset(),
                resource_type=ResourceType.SCRIPT,
                is_third_party=False,
                is_tracking=False,
                chain=(),
                during_interaction=False,
            ),
            st.integers(1, 6),
            st.sampled_from([None, "https://a.com/", "https://b.com/", "https://c.com/"]),
        ),
    ),
    min_size=1,
    max_size=6,
).map(tuple)


def _set_parent_similarity(views):
    """The pairwise-mean Jaccard of per-tree parent sets (Appendix D)."""
    parent_sets = [
        frozenset([view.parent_key]) if view is not None and view.parent_key is not None
        else frozenset()
        for view in views
    ]
    values = []
    for i in range(len(parent_sets)):
        for j in range(i + 1, len(parent_sets)):
            if not parent_sets[i] and not parent_sets[j]:
                continue
            values.append(jaccard(parent_sets[i], parent_sets[j]))
    if not values:
        return 1.0
    return sum(values) / len(values)


@given(_views)
@settings(max_examples=300, deadline=None)
def test_parent_similarity_equals_set_definition(views):
    node = NodeComparison(key="https://x.com/", views=views)
    assert node.parent_similarity() == _set_parent_similarity(views)


@given(_views)
@settings(max_examples=100, deadline=None)
def test_min_depth_matches_present_views(views):
    node = NodeComparison(key="https://x.com/", views=views)
    present = node.present_views()
    if present:
        assert node.min_depth == min(view.depth for view in present)
    else:
        with pytest.raises(ValueError):
            node.min_depth


@given(_views)
@settings(max_examples=100, deadline=None)
def test_all_absent_node_constructs_and_fails_lazily(views):
    node = NodeComparison(key="https://x.com/", views=(None,) * len(views))
    assert node.presence_count == 0
    assert node.present_views() == ()
    assert not node.is_tracking and not node.has_children
    with pytest.raises(AnalysisError):
        node.any_view


# -- memoized comparison measures against fresh computation ------------------

_PAGE = "https://site.com/"

#: Scripts can load children; images cannot (the horizontal default skips
#: them at depth one).
_PAGE_KEYS = [f"https://site.com/{i}.js" for i in range(4)] + [
    f"https://cdn.net/{i}.png" for i in range(3)
]


def _grown_tree(profile, steps):
    tree = DependencyTree(_PAGE, profile, 1)
    placed = [tree.root]
    for request_id, (key_index, parent_choice) in enumerate(steps, start=1):
        key = _PAGE_KEYS[key_index]
        rtype = ResourceType.SCRIPT if key.endswith(".js") else ResourceType.IMAGE
        node = tree.attach(key, rtype, placed[parent_choice % len(placed)], key, request_id)
        if node not in placed and rtype.can_load_children:
            placed.append(node)
    return tree


#: (key index, parent choice) per attach.
_grow_steps = st.lists(
    st.tuples(st.integers(0, len(_PAGE_KEYS) - 1), st.integers(0, 99)), max_size=12
)

_page_trees = st.lists(_grow_steps, min_size=2, max_size=5).map(
    lambda per_profile: {
        f"P{index}": _grown_tree(f"P{index}", steps)
        for index, steps in enumerate(per_profile)
    }
)

_CALLS = ("child", "parent", "page_child", "pass_default", "pass_static")


def _check_call(call, comparison, trees):
    """One memoized measure of ``comparison`` against a fresh computation."""
    fresh = PageComparison(trees)
    if call == "child":
        for node in comparison.nodes():
            child_sets = [view.children for view in node.views if view is not None]
            assert node.child_similarity() == pairwise_mean_jaccard(child_sets)
    elif call == "parent":
        for node in comparison.nodes():
            assert node.parent_similarity() == _set_parent_similarity(node.views)
    elif call == "page_child":
        assert page_child_similarity(comparison) == page_child_similarity(fresh)
    else:
        analyzer = HorizontalAnalyzer(include_static_leaves=call == "pass_static")
        result = analyzer.analyze_page(comparison)
        assert isinstance(result.records, tuple)
        assert result == analyzer.analyze_page(fresh)


@given(_page_trees, st.lists(st.sampled_from(_CALLS), max_size=10))
@settings(max_examples=60, deadline=None)
def test_memoized_measures_equal_fresh_in_any_call_order(trees, calls):
    comparison = PageComparison(trees)
    for call in [*calls, *_CALLS]:
        _check_call(call, comparison, trees)


# -- the iterative edit distance against its recursive definition ------------


def _recursive_edit(node_a, node_b):
    children_a = {child.key: child for child in node_a.children}
    children_b = {child.key: child for child in node_b.children}
    cost = 0
    for key in set(children_a) | set(children_b):
        child_a, child_b = children_a.get(key), children_b.get(key)
        if child_a is not None and child_b is not None:
            cost += _recursive_edit(child_a, child_b)
        else:
            cost += len(_reference_preorder(child_a or child_b))
    return cost


@given(_grow_steps, _grow_steps)
@settings(max_examples=150, deadline=None)
def test_edit_distance_matches_recursive_definition(steps_a, steps_b):
    tree_a, tree_b = _grown_tree("A", steps_a), _grown_tree("B", steps_b)
    assert edit_distance(tree_a, tree_b) == _recursive_edit(tree_a.root, tree_b.root)
