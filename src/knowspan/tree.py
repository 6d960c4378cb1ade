"""Six-level category hierarchy and shortest-path distances between codes.

Every full code is a leaf on level 6 under a single root.  Because the tree
is built from character prefixes, the path length between two leaves has the
closed form 2 * (6 - level of the lowest common ancestor).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .corpus import Paper

ROOT = "physics"
ROOT_LEVEL = 1
LEAF_LEVEL = 6


@dataclass(frozen=True)
class KnowledgeTree:
    leaves: frozenset[str]  # six-character leaf labels; ancestry_labels gives their ancestors

    def edges(self) -> list[tuple[str, str, int]]:
        """(child, parent, child_level) rows, by child level, then child."""
        rows = {
            (child, parent, level)
            for leaf in self.leaves
            for level, (parent, child) in enumerate(
                itertools.pairwise((ROOT, *ancestry_labels(leaf))), start=ROOT_LEVEL + 1
            )
        }
        return sorted(rows, key=lambda row: (row[2], row[0]))


def leaf_label(code: str) -> str:
    """The six significant characters of a canonical ``dd.dd.cc`` code."""
    return code.replace(".", "")


def ancestry_labels(code: str) -> tuple[str, str, str, str, str]:
    """A code's five-step ancestry chain below the root, from the coarsest
    split down to the full code: its first one, two, three, four and six
    significant characters."""
    c = leaf_label(code)
    return (c[:1], c[:2], c[:3], c[:4], c)


def build_tree(codes: Iterable[str]) -> KnowledgeTree:
    leaves = frozenset(map(leaf_label, codes))
    if not leaves:
        raise ValueError("cannot build a tree from zero codes")
    return KnowledgeTree(leaves)


def _label_lca_level(a: str, b: str) -> int:
    """Level of the lowest common ancestor of two leaf labels."""
    shared = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        shared += 1
    if shared == 6:
        return 6
    if shared >= 4:
        return 5  # they agree through the fourth character
    return shared + 1


def lca_level(p: str, q: str) -> int:
    """Level of the lowest common ancestor of two leaf codes."""
    return _label_lca_level(leaf_label(p), leaf_label(q))


def _leaf_labels(tree: KnowledgeTree, codes: Iterable[str]) -> list[str]:
    """Leaf labels of codes; a code outside the tree is a KeyError."""
    labels = []
    for code in codes:
        label = leaf_label(code)
        if label not in tree.leaves:
            raise KeyError(f"code {code!r} is not a leaf of this tree")
        labels.append(label)
    return labels


def path_length(tree: KnowledgeTree, p: str, q: str) -> int:
    """Edge count of the unique tree path between two leaf codes."""
    a, b = _leaf_labels(tree, (p, q))
    return 2 * (LEAF_LEVEL - _label_lca_level(a, b))


def network_distance(paper: Paper, tree: KnowledgeTree) -> float:
    """Mean tree path length over all unordered code pairs; 0.0 for one code."""
    codes = paper.pacs_codes
    m = len(codes)
    if m == 0:
        raise ValueError(f"paper {paper.id!r} has no codes")
    if m == 1:
        return 0.0
    labels = _leaf_labels(tree, codes)
    total = 0
    for i in range(m - 1):
        for j in range(i + 1, m):
            total += 2 * (LEAF_LEVEL - _label_lca_level(labels[i], labels[j]))
    return total / (m * (m - 1) // 2)
