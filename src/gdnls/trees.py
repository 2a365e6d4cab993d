"""Ordered rooted trees whose internal nodes have exactly 3 or 5 children.

Each such tree indexes one multilinear term of the Picard expansion: a
3-ary node stands for the cubic Duhamel operator (slot 3 conjugated and
differentiated), a 5-ary node for the quintic one (slots 2 and 4
conjugated).  Trees are planar: child order matters because slots of
different kinds are not interchangeable.  Slots of the same kind are, so
distinct trees can index equal terms; picard evaluates each such class once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ConfigurationError, ResourceError

DEFAULT_DEPTH_CAP = 4

__all__ = [
    "Tree",
    "TreeStats",
    "LeafSignature",
    "LEAF",
    "SLOT_KINDS",
    "enumerate_trees",
    "count_trees",
    "compositions",
    "root_splits",
    "tree_stats",
    "leaf_signature",
    "fitted_growth_constant",
    "tree_to_json",
    "tree_from_json",
]


@dataclass(frozen=True)
class Tree:
    """Ordered tree node; a leaf has no children, internal nodes have 3 or 5."""

    children: tuple["Tree", ...] = ()

    def __post_init__(self):
        if len(self.children) not in (0, 3, 5):
            raise ValueError(f"node must have 0, 3 or 5 children, got {len(self.children)}")

    @property
    def kind(self) -> str:
        return {0: "leaf", 3: "node3", 5: "node5"}[len(self.children)]

    @property
    def is_leaf(self) -> bool:
        return not self.children


LEAF = Tree()


@dataclass(frozen=True)
class TreeStats:
    n3: int
    n5: int
    total: int
    internal: int
    terminal: int


@dataclass(frozen=True)
class LeafSignature:
    """Per-leaf flags, in left-to-right leaf order.

    ``conjugated[i]`` is True when the i-th leaf argument enters the
    multilinear term complex-conjugated; ``differentiated[i]`` is True when
    the leaf sits directly in the differentiated third slot of a 3-ary node.
    """

    conjugated: tuple[bool, ...]
    differentiated: tuple[bool, ...]


def tree_stats(tree: Tree) -> TreeStats:
    n3 = n5 = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if len(node.children) == 3:
            n3 += 1
        elif len(node.children) == 5:
            n5 += 1
        stack.extend(node.children)
    return TreeStats(
        n3=n3,
        n5=n5,
        total=3 * n3 + 5 * n5 + 1,
        internal=n3 + n5,
        terminal=2 * n3 + 4 * n5 + 1,
    )


# how each slot enters the product, by node arity: J = v1 v2 d/dx conj(v3),
# K = v1 conj(v2) v3 conj(v4) v5
SLOT_KINDS = {3: ("plain", "plain", "derivative"), 5: ("plain", "conj", "plain", "conj", "plain")}


def leaf_signature(tree: Tree) -> LeafSignature:
    conj: list[bool] = []
    deriv: list[bool] = []

    def walk(node: Tree, conjugated: bool) -> None:
        if node.is_leaf:
            conj.append(conjugated)
            deriv.append(False)
            return
        for child, kind in zip(node.children, SLOT_KINDS[len(node.children)]):
            child_conjugated = conjugated ^ (kind != "plain")
            if child.is_leaf:
                conj.append(child_conjugated)
                deriv.append(kind == "derivative")
            else:
                walk(child, child_conjugated)

    walk(tree, False)
    return LeafSignature(conjugated=tuple(conj), differentiated=tuple(deriv))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative ints summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def root_splits(k: int, p: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The child generations ((k1, p1), ...) of each root of generation
    (k, p), k + p >= 1: 3-ary roots (children summing to (k - 1, p)) before
    5-ary roots (children summing to (k, p - 1)); within each arity the
    splits of the 3-ary count are visited in lexicographic order, and for
    each of them the splits of the 5-ary count.  Generation (0, 0), the
    leaf, has none; a negative k or p is a ConfigurationError."""
    if k < 0 or p < 0:
        raise ConfigurationError(f"generation (k={k}, p={p}) needs k >= 0 and p >= 0")
    for arity, kc, pc in ((3, k - 1, p), (5, k, p - 1)):
        if kc >= 0 and pc >= 0:
            for ks in compositions(kc, arity):
                for ps in compositions(pc, arity):
                    yield tuple(zip(ks, ps))


def enumerate_trees(k: int, p: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> list[Tree]:
    """Every ordered tree with exactly k 3-ary and p 5-ary internal nodes,
    in root_splits order, each child generation's trees in their own order.

    depth_cap is the package's one size limit: the count grows
    exponentially in k + p.
    """
    if k + p > depth_cap:
        raise ResourceError(
            f"enumeration of generation (k={k}, p={p}) exceeds depth cap {depth_cap}"
        )
    return _enumerate(k, p, {(0, 0): [LEAF]})


def _enumerate(k: int, p: int, table: dict) -> list[Tree]:
    """Generation (k, p) from the per-call table of lower generations, filled on demand."""
    if (k, p) not in table:
        table[(k, p)] = [
            Tree(children=combo)
            for split in root_splits(k, p)
            for combo in itertools.product(*(_enumerate(*child, table) for child in split))
        ]
    return table[(k, p)]


def count_trees(k: int, p: int) -> int:
    """Number of ordered ternary-quinary trees in generation (k, p); a
    negative k or p is a ConfigurationError.

    Such a tree has n = 3k + 5p + 1 nodes, of which 2k + 4p + 1 are leaves,
    and by the cycle lemma (1/n of the arrangements of the node degrees in
    a row read as a tree) there are n! / ((2k + 4p + 1)! k! p!) / n of them:
    a closed form in Python's exact integers, with no recursion over root
    splits and no overflow.
    """
    if k < 0 or p < 0:
        raise ConfigurationError(f"generation (k={k}, p={p}) needs k >= 0 and p >= 0")
    n = 3 * k + 5 * p + 1
    return math.comb(n, k) * math.comb(n - k, p) // n


def fitted_growth_constant(depth_cap: int) -> float:
    """Smallest C with count_trees(k, p) <= C**(k+p) for all 1 <= k+p <= depth_cap."""
    best = 1.0
    for j in range(1, depth_cap + 1):
        for k in range(j + 1):
            c = count_trees(k, j - k) ** (1.0 / j)
            best = max(best, c)
    return best


def tree_to_json(tree: Tree) -> str:
    def encode(node: Tree) -> dict:
        d: dict = {"kind": node.kind}
        if node.children:
            d["children"] = [encode(c) for c in node.children]
        return d

    return json.dumps(encode(tree))


def tree_from_json(text: str) -> Tree:
    def decode(d: dict) -> Tree:
        children = tuple(decode(c) for c in d.get("children", ()))
        expected = {"leaf": 0, "node3": 3, "node5": 5}[d["kind"]]
        if len(children) != expected:
            raise ValueError(f"{d['kind']} node with {len(children)} children")
        return Tree(children=children)

    return decode(json.loads(text))
