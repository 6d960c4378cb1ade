"""Category-tree structure and the closed-form path length against a BFS oracle."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowspan.corpus import Paper, parse_code
from knowspan.tree import (
    LEAF_LEVEL,
    ROOT,
    build_tree,
    lca_level,
    leaf_label,
    network_distance,
    path_length,
)


def codes(*texts):
    return [parse_code(t)[0] for t in texts]


def bfs_distance(tree, start: str, goal: str) -> int:
    """Oracle: breadth-first search over the materialized undirected edge list."""
    adjacency: dict[str, list[str]] = {ROOT: []}
    for child, parent, _level in tree.edges():
        adjacency.setdefault(child, []).append(parent)
        adjacency.setdefault(parent, []).append(child)
    frontier = deque([(start, 0)])
    seen = {start}
    while frontier:
        node, dist = frontier.popleft()
        if node == goal:
            return dist
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, dist + 1))
    raise AssertionError(f"no path from {start} to {goal}")


def make_paper(code_texts, paper_id="P", year=2000):
    return Paper(
        id=paper_id,
        year=year,
        journal="J",
        pacs_codes=tuple(parse_code(t)[0] for t in code_texts),
        author_count=1,
        n_pages=4,
        title_length=5,
        references=(),
    )


# ---------------------------------------------------------------- structure

def parents_and_levels(tree):
    """Each non-root node's parent and level, read from the exported edges."""
    return {child: (parent, level) for child, parent, level in tree.edges()}


def test_single_code_chain():
    tree = build_tree(codes("03.67.Ah"))
    # the root is on level 1, so its child is on level 2
    assert parents_and_levels(tree) == {
        "0": (ROOT, 2),
        "03": ("0", 3),
        "036": ("03", 4),
        "0367": ("036", 5),
        "0367Ah": ("0367", LEAF_LEVEL),
    }
    assert tree.leaves == {"0367Ah"}


def test_shared_prefixes_share_nodes():
    tree = build_tree(codes("03.67.Ah", "03.75.Fi"))
    nodes = parents_and_levels(tree)
    # both leaves hang under the shared "03" node
    assert nodes["0367"] == ("036", 5)
    assert nodes["0375"] == ("037", 5)
    assert nodes["036"] == ("03", 4)
    assert nodes["037"] == ("03", 4)
    assert len(tree.edges()) == len(nodes)  # each node has one parent


def test_empty_tree_is_error():
    with pytest.raises(ValueError):
        build_tree([])


def test_unknown_code_is_error():
    tree = build_tree(codes("03.67.Ah"))
    with pytest.raises(KeyError, match="05.45.Xt"):
        path_length(tree, *codes("03.67.Ah", "05.45.Xt"))


# ---------------------------------------------------------------- distances

def test_worked_example_level3_ancestor_gives_6():
    # codes that first diverge below their shared two-character node
    a, b = codes("03.67.Ah", "03.75.Fi")
    assert lca_level(a, b) == 3
    tree = build_tree([a, b])
    assert path_length(tree, a, b) == 6


def test_worked_example_level2_ancestor_gives_8():
    a, b = codes("03.67.Ah", "05.45.Xt")
    assert lca_level(a, b) == 2
    tree = build_tree([a, b])
    assert path_length(tree, a, b) == 8


def test_distance_extremes():
    a, b = codes("03.67.Ah", "42.50.Dv")  # nothing shared: through the root
    tree = build_tree([a, b])
    assert path_length(tree, a, b) == 10
    assert path_length(tree, a, a) == 0
    # divergence only in the trailing pair: shared level-5 node
    c, d = codes("03.67.Ah", "03.67.Bg")
    tree2 = build_tree([c, d])
    assert path_length(tree2, c, d) == 2


code_text = st.text(alphabet="0123456789ABab", min_size=6, max_size=6)


@settings(max_examples=120)
@given(code_text, code_text)
def test_metric_properties(a_text, b_text):
    a, b = parse_code(a_text)[0], parse_code(b_text)[0]
    tree = build_tree([a, b])
    d = path_length(tree, a, b)
    assert d == path_length(tree, b, a)
    assert d % 2 == 0
    assert 0 <= d <= 2 * (LEAF_LEVEL - 1)
    assert (d == 0) == (a == b)


@settings(max_examples=60)
@given(code_text, code_text, code_text)
def test_triangle_inequality(a_text, b_text, c_text):
    a, b, c = (parse_code(t)[0] for t in (a_text, b_text, c_text))
    tree = build_tree([a, b, c])
    assert path_length(tree, a, c) <= path_length(tree, a, b) + path_length(tree, b, c)


@settings(max_examples=40, deadline=None)
@given(code_text, code_text)
def test_closed_form_matches_bfs(a_text, b_text):
    a, b = parse_code(a_text)[0], parse_code(b_text)[0]
    tree = build_tree([a, b])
    assert path_length(tree, a, b) == bfs_distance(tree, leaf_label(a), leaf_label(b))


# ---------------------------------------------------------------- paper means

def test_network_distance_single_code_is_zero():
    tree = build_tree(codes("03.67.Ah"))
    assert network_distance(make_paper(["03.67.Ah"]), tree) == 0.0


def test_network_distance_averages_pairs():
    texts = ["03.67.Ah", "03.75.Fi", "05.45.Xt"]
    tree = build_tree(codes(*texts))
    paper = make_paper(texts)
    # pairs: (03.67, 03.75) -> 6, (03.67, 05.45) -> 8, (03.75, 05.45) -> 8
    assert network_distance(paper, tree) == pytest.approx((6 + 8 + 8) / 3)


def test_network_distance_matches_bfs_mean():
    rng = np.random.default_rng(4)
    alphabet = "0123456789"
    texts = list({
        "".join(rng.choice(list(alphabet)) for _ in range(6)) for _ in range(8)
    })[:5]
    tree = build_tree(codes(*texts))
    paper = make_paper(texts)
    m = len(texts)
    expected = np.mean([
        bfs_distance(tree, texts[i].replace(".", ""), texts[j].replace(".", ""))
        for i in range(m)
        for j in range(i + 1, m)
    ])
    assert network_distance(paper, tree) == pytest.approx(expected, rel=1e-12)


def test_edges_export_order_is_deterministic():
    tree = build_tree(codes("03.67.Ah", "05.45.Xt"))
    rows = tree.edges()
    assert rows == sorted(rows, key=lambda r: (r[2], r[0]))
    assert ("0", ROOT, 2) in rows


# ---------------------------------------------------------------- pair-loop oracle

def seed_lca_level(p, q):
    a, b = leaf_label(p), leaf_label(q)
    shared = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        shared += 1
    if shared == 6:
        return 6
    if shared >= 4:
        return 5
    return shared + 1


def seed_path_length(tree, p, q):
    for code in (p, q):
        if leaf_label(code) not in tree.leaves:
            raise KeyError(f"code {code!r} is not a leaf of this tree")
    return 2 * (LEAF_LEVEL - seed_lca_level(p, q))


def pair_loop_network_distance(paper, tree):
    """Oracle: the path_length loop over code pairs that network_distance
    replaced, copied as it was with the path_length and lca_level it used."""
    codes = paper.pacs_codes
    m = len(codes)
    if m == 0:
        raise ValueError(f"paper {paper.id!r} has no codes")
    if m == 1:
        return 0.0
    total = 0
    for i in range(m):
        for j in range(i + 1, m):
            total += seed_path_length(tree, codes[i], codes[j])
    return total / (m * (m - 1) // 2)


def outcome(fn, *args):
    try:
        return fn(*args)
    except KeyError as exc:
        return ("KeyError", str(exc))


@st.composite
def related_code_texts(draw, base):
    """A code sharing a prefix of any length, 0 to 6, with ``base``."""
    shared = draw(st.integers(0, 6))
    rest = draw(st.text(alphabet="0123456789ABab", min_size=6 - shared, max_size=6 - shared))
    return base[:shared] + rest


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_network_distance_equals_the_pair_loop_exactly(data):
    """Codes share prefixes of every length and may repeat; a tree built
    from only some of them makes both fail."""
    related = related_code_texts(data.draw(code_text, label="base"))
    paper_texts = data.draw(st.lists(related, min_size=1, max_size=8), label="paper")
    other_texts = data.draw(st.lists(related, max_size=3), label="others")
    leaves = data.draw(st.sets(st.sampled_from(paper_texts)), label="leaves")
    tree_codes = [parse_code(t)[0] for t in sorted(leaves) + other_texts]
    if not tree_codes:
        tree_codes = codes("99.99.zz")
    tree = build_tree(tree_codes)
    paper = make_paper(paper_texts)
    assert outcome(network_distance, paper, tree) == outcome(
        pair_loop_network_distance, paper, tree
    )
